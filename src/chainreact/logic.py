"""Closed-world logical states, conditions and effects.

A ground atom is a ``(predicate name, args)`` key.  A :class:`Vocabulary`
gives each key a dense integer id, a bit (``1 << id``) and a printed name.
A :class:`LogicalState` is then a bitmask over that vocabulary, so
condition checks and effect application are a handful of integer
operations regardless of domain size.  Absence of an atom means false
(closed world).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

MAX_ARITY = 3


class UnknownAtomError(KeyError):
    """An atom or literal referenced something outside the vocabulary."""


def printed_name(name: str, args: tuple[str, ...]) -> str:
    """The printed form of a ground atom or operator: ``name`` when it has
    no arguments, else ``name(a, b)``."""
    return f"{name}({', '.join(args)})" if args else name


@dataclass(frozen=True)
class PredicateSchema:
    """A named, typed relation; arity is the number of parameter types."""

    name: str
    param_types: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.param_types) > MAX_ARITY:
            raise ValueError(
                f"predicate {self.name!r} has arity {len(self.param_types)}, "
                f"maximum is {MAX_ARITY}"
            )

    @property
    def arity(self) -> int:
        return len(self.param_types)


class Vocabulary:
    """Dense, stable interning of the ground atoms of one domain instance.

    ``keys`` are the atoms' ``(name, args)`` keys in id order."""

    def __init__(self, keys: Iterable[tuple[str, tuple[str, ...]]]):
        # (name, args) -> 1 << id, in id order
        self.bits: dict[tuple[str, tuple[str, ...]], int] = {}
        for key in keys:
            if key in self.bits:
                raise ValueError(f"duplicate atom {printed_name(*key)} in vocabulary")
            self.bits[key] = 1 << len(self.bits)
        self.names: tuple[str, ...] = tuple(printed_name(*key) for key in self.bits)
        # atom ids ordered by printed name, for listing the atoms of a mask
        self.name_order: tuple[int, ...] = tuple(
            sorted(range(len(self.names)), key=self.names.__getitem__)
        )

    def __len__(self) -> int:
        return len(self.names)

    def bit_of(self, name: str, args: tuple[str, ...]) -> int:
        """The bit of atom ``name(*args)``."""
        try:
            return self.bits[name, args]
        except KeyError:
            pretty = printed_name(name, args)
            raise UnknownAtomError(f"atom {pretty} is not in the vocabulary") from None

    def names_of(self, mask: int) -> list[str]:
        """The printed names of the atoms in ``mask``, in name order."""
        names = self.names
        return [names[i] for i in self.name_order if mask >> i & 1]


@dataclass(frozen=True)
class LogicalState:
    """A finite set of true ground atoms over one vocabulary (closed world)."""

    vocabulary: Vocabulary = field(compare=False)
    mask: int = 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LogicalState)
            and self.vocabulary is other.vocabulary
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.vocabulary), self.mask))


@dataclass(frozen=True)
class ConditionSet:
    """A conjunction of literals, compiled to positive/negative bitmasks."""

    vocabulary: Vocabulary = field(compare=False)
    pos_mask: int = 0
    neg_mask: int = 0

    def __post_init__(self) -> None:
        if self.pos_mask & self.neg_mask:
            both = self.vocabulary.names_of(self.pos_mask & self.neg_mask)
            raise ValueError(
                "atoms with both polarities in condition set: " + ", ".join(both)
            )


@dataclass(frozen=True)
class EffectSet:
    """STRIPS add/delete lists; an atom may not be both added and deleted."""

    vocabulary: Vocabulary = field(compare=False)
    add_mask: int = 0
    del_mask: int = 0

    def __post_init__(self) -> None:
        if self.add_mask & self.del_mask:
            both = self.vocabulary.names_of(self.add_mask & self.del_mask)
            raise ValueError("atoms both added and deleted: " + ", ".join(both))


def _check_same_vocab(a: Vocabulary, b: Vocabulary) -> None:
    if a is not b:
        raise UnknownAtomError("values belong to different vocabularies")


def holds(state: LogicalState, cond: ConditionSet) -> bool:
    """True iff every positive literal is in the state and no negative one is."""
    _check_same_vocab(state.vocabulary, cond.vocabulary)
    return (
        state.mask & cond.pos_mask == cond.pos_mask
        and state.mask & cond.neg_mask == 0
    )


def apply_effects(state: LogicalState, eff: EffectSet) -> LogicalState:
    """Return (state minus deletes) union adds; the input is not modified."""
    _check_same_vocab(state.vocabulary, eff.vocabulary)
    return LogicalState(state.vocabulary, state.mask & ~eff.del_mask | eff.add_mask)
