"""Closed-world logical states, conditions and effects.

Ground atoms are interned into a :class:`Vocabulary`, which assigns each
atom a dense integer id.  A :class:`LogicalState` is then a bitmask over
that vocabulary, so condition checks and effect application are a handful
of integer operations regardless of domain size.  Absence of an atom means
false (closed world).  The vocabulary also keeps the tables that hot code
reads instead of atom objects: each atom's bit by ``(name, args)`` key, and
its ids in name order for listing a state's atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

MAX_ARITY = 3


class UnknownAtomError(KeyError):
    """An atom or literal referenced something outside the vocabulary."""


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


@dataclass(frozen=True, eq=False)
class GroundAtom:
    """A predicate with all arguments bound to object symbols.

    Two atoms are equal iff they share the predicate name and argument
    tuple; the schema object identity does not matter.
    """

    predicate: PredicateSchema
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"atom {self.predicate.name}{self.args} does not match "
                f"arity {self.predicate.arity}"
            )

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.predicate.name, self.args)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundAtom) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate.name
        return f"{self.predicate.name}({', '.join(self.args)})"


class Vocabulary:
    """Dense, stable interning of the ground atoms of one domain instance."""

    def __init__(self, atoms: Iterable[GroundAtom]):
        self.atoms: tuple[GroundAtom, ...] = tuple(atoms)
        # (name, args) -> 1 << id, for building masks without atom objects
        self.bits: dict[tuple[str, tuple[str, ...]], int] = {}
        for i, atom in enumerate(self.atoms):
            if atom.key in self.bits:
                raise ValueError(f"duplicate atom {atom} in vocabulary")
            self.bits[atom.key] = 1 << i
        self.names: tuple[str, ...] = tuple(str(a) for a in self.atoms)
        # atom ids ordered by printed name, for listing the atoms of a mask
        self.name_order: tuple[int, ...] = tuple(
            sorted(range(len(self.atoms)), key=self.names.__getitem__)
        )

    def __len__(self) -> int:
        return len(self.atoms)

    def bit_of(self, name: str, args: tuple[str, ...]) -> int:
        """The bit of atom ``name(*args)``."""
        try:
            return self.bits[name, args]
        except KeyError:
            pretty = f"{name}({', '.join(args)})" if args else name
            raise UnknownAtomError(f"atom {pretty} is not in the vocabulary") from None

    def id_of(self, atom: GroundAtom) -> int:
        return self.bit_of(*atom.key).bit_length() - 1

    def get(self, name: str, *args: str) -> GroundAtom:
        """Look up an interned atom by name and arguments."""
        return self.atoms[self.bit_of(name, args).bit_length() - 1]

    def mask_of(self, atoms: Iterable[GroundAtom]) -> int:
        mask = 0
        for atom in atoms:
            mask |= self.bit_of(*atom.key)
        return mask

    def atoms_of(self, mask: int) -> frozenset[GroundAtom]:
        return frozenset(
            self.atoms[i] for i in range(len(self.atoms)) if mask >> i & 1
        )

    def names_of(self, mask: int) -> list[str]:
        """The printed names of the atoms in ``mask``, in name order."""
        names = self.names
        return [names[i] for i in self.name_order if mask >> i & 1]


@dataclass(frozen=True)
class LogicalState:
    """A finite set of true ground atoms over one vocabulary (closed world)."""

    vocabulary: Vocabulary = field(compare=False)
    mask: int = 0

    @classmethod
    def from_atoms(cls, vocab: Vocabulary, atoms: Iterable[GroundAtom]) -> "LogicalState":
        return cls(vocab, vocab.mask_of(atoms))

    @property
    def atoms(self) -> frozenset[GroundAtom]:
        return self.vocabulary.atoms_of(self.mask)

    def __contains__(self, atom: GroundAtom) -> bool:
        return self.mask >> self.vocabulary.id_of(atom) & 1 == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LogicalState)
            and self.vocabulary is other.vocabulary
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.vocabulary), self.mask))

    def sorted_names(self) -> list[str]:
        return self.vocabulary.names_of(self.mask)


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

    @classmethod
    def from_atoms(
        cls,
        vocab: Vocabulary,
        positive: Iterable[GroundAtom] = (),
        negative: Iterable[GroundAtom] = (),
    ) -> "ConditionSet":
        return cls(vocab, vocab.mask_of(positive), vocab.mask_of(negative))

    def __str__(self) -> str:
        """``{+a, +b, -c}``: the positive literals, then the negative ones,
        each in name order."""
        names = self.vocabulary.names_of
        literals = [f"+{n}" for n in names(self.pos_mask)] + [f"-{n}" for n in names(self.neg_mask)]
        return "{" + ", ".join(literals) + "}"


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

    @classmethod
    def from_atoms(
        cls,
        vocab: Vocabulary,
        adds: Iterable[GroundAtom] = (),
        deletes: Iterable[GroundAtom] = (),
    ) -> "EffectSet":
        return cls(vocab, vocab.mask_of(adds), vocab.mask_of(deletes))


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
