"""Grounding and state-space search.

``ground`` enumerates every type-consistent binding of each operator schema
against the problem objects (plus domain constants), interning all ground
atoms into a :class:`~chainreact.logic.Vocabulary`.  Each bound atom goes
straight to its bit, so every operator's conditions and effects, the
initial state and the goal are ORs of bits, and every operator is compiled
once into a row of raw integer masks (see :class:`GroundedDomain`).  Two
variables bound to one object can make a binding collide with itself: one
whose precondition or run condition requires and negates one atom is not
grounded, and where one adds and deletes an atom the add wins, as in PDDL.
``plan`` then runs breadth-first search over the grounded space on plain
``int`` states, so every plan it returns is shortest in step count.  It
generates successors from the compiled rows in operator index order and
checks the vocabulary once per query.  Tie-breaking is total (operator
index order plus FIFO), so identical inputs always produce identical plans.
The plan file is written and read in :mod:`chainreact.harness`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Optional, Sequence

from .lang import DomainDefinition, LiftedAtom, OperatorSchema, ProblemDefinition
from .logic import (
    ConditionSet,
    EffectSet,
    LogicalState,
    Vocabulary,
    _check_same_vocab,
    apply_effects,
    holds,
    printed_name,
)

DEFAULT_GROUND_CAP = 10**6
DEFAULT_NODE_BUDGET = 10**6


class GroundingLimitError(RuntimeError):
    """Grounded operator count exceeded the configured cap."""


@dataclass(frozen=True)
class GroundOperator:
    """A fully bound operator over the grounded vocabulary."""

    index: int
    schema: OperatorSchema
    bound_args: tuple[str, ...]
    pre: ConditionSet
    run: ConditionSet
    eff: EffectSet

    @cached_property
    def name(self) -> str:
        return printed_name(self.schema.name, self.bound_args)


@dataclass
class GroundedDomain:
    """The grounded vocabulary and operators of one domain and problem.

    ``compiled`` holds every operator, in index order, as the raw ints the
    search reads.  A state ``s`` (an ``int``) satisfies an operator's
    precondition iff ``s & pre_pos == pre_pos and not s & pre_neg``, and its
    successor is ``s & keep | add`` with ``keep = ~del_mask``.

    ``movables`` names the problem objects of type ``movable``, in
    declaration order: the objects the kitchen places, moves and teleports.
    """

    domain: DomainDefinition
    problem: ProblemDefinition
    vocabulary: Vocabulary
    operators: tuple[GroundOperator, ...]
    init: LogicalState
    goal: ConditionSet
    # (index, pre_pos, pre_neg, keep, add) per operator
    compiled: tuple[tuple[int, int, int, int, int], ...] = field(
        init=False, repr=False
    )
    movables: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.movables = tuple(
            sym
            for sym, t in self.problem.objects.items()
            if self.domain.is_subtype(t, "movable")
        )
        self.compiled = tuple(
            (op.index, op.pre.pos_mask, op.pre.neg_mask, ~op.eff.del_mask,
             op.eff.add_mask)
            for op in self.operators
        )

    def operator_named(self, name: str, args: tuple[str, ...] = ()) -> GroundOperator:
        for op in self.operators:
            if op.schema.name == name and op.bound_args == tuple(args):
                return op
        raise KeyError(f"no ground operator {name}{args}")


def _objects_by_type(domain: DomainDefinition, problem: ProblemDefinition) -> dict[str, list[str]]:
    pool = [*domain.constants.items(), *problem.objects.items()]
    return {t: [s for s, of in pool if domain.is_subtype(of, t)] for t in domain.types}


def _split(literals) -> tuple[tuple[LiftedAtom, ...], tuple[LiftedAtom, ...]]:
    """The atoms of the positive literals, then those of the negative ones."""
    return tuple(tuple(l.atom for l in literals if l.positive == p) for p in (True, False))


def _mask(vocab: Vocabulary, atoms, binding: dict[str, str]) -> int:
    """The OR of the bits of ``atoms``, each variable replaced by its value
    in ``binding``."""
    mask = 0
    for atom in atoms:
        mask |= vocab.bit_of(atom.name, tuple(binding.get(a, a) for a in atom.args))
    return mask


def ground(
    domain: DomainDefinition,
    problem: ProblemDefinition,
    max_operators: int = DEFAULT_GROUND_CAP,
) -> GroundedDomain:
    """Enumerate the full grounded vocabulary and operator set.

    Raises :class:`GroundingLimitError` before building either when the
    type pools give more than ``DEFAULT_GROUND_CAP`` atoms or more than
    ``max_operators`` operators."""
    by_type = _objects_by_type(domain, problem)
    atom_pools = [[by_type.get(t, []) for t in p.param_types] for p in domain.predicates]
    op_pools = [[by_type.get(t, []) for _, t in o.params] for o in domain.operators]
    for what, cap, pools in (
        ("atoms", DEFAULT_GROUND_CAP, atom_pools), ("operators", max_operators, op_pools)
    ):
        if sum(prod(map(len, p)) for p in pools) > cap:
            raise GroundingLimitError(f"grounding exceeds {cap} {what}")

    vocab = Vocabulary(
        (schema.name, combo)
        for schema, pools in zip(domain.predicates, atom_pools)
        for combo in itertools.product(*pools)
    )
    operators: list[GroundOperator] = []
    for schema, pools in zip(domain.operators, op_pools):
        names = [v for v, _ in schema.params]
        parts = (*_split(schema.pre), *_split(schema.run), *_split(schema.eff))
        for combo in itertools.product(*pools):
            binding = dict(zip(names, combo))
            pre_pos, pre_neg, run_pos, run_neg, adds, deletes = (
                _mask(vocab, atoms, binding) for atoms in parts
            )
            if pre_pos & pre_neg or run_pos & run_neg:
                continue  # it could never apply, or never continue
            operators.append(GroundOperator(
                index=len(operators), schema=schema, bound_args=combo,
                pre=ConditionSet(vocab, pre_pos, pre_neg),
                run=ConditionSet(vocab, run_pos, run_neg),
                eff=EffectSet(vocab, adds, deletes & ~adds),  # adds win
            ))
    init = LogicalState(vocab, _mask(vocab, problem.init, {}))
    goal = ConditionSet(vocab, *(_mask(vocab, atoms, {}) for atoms in _split(problem.goal)))
    return GroundedDomain(domain, problem, vocab, tuple(operators), init, goal)


# --------------------------------------------------------------------------
# Plans and symbolic execution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """Operator sequence ordered lowest to highest priority (last step is
    closest to the goal).  Soundness is checked at construction."""

    steps: tuple[GroundOperator, ...]
    init: LogicalState
    goal: ConditionSet

    def __post_init__(self) -> None:
        result = symbolic_execute(self.steps, self.init)
        if result.failed_step is not None:
            raise ValueError(f"plan violates preconditions at step {result.failed_step}")
        if not holds(result.state, self.goal):
            raise ValueError("plan does not reach the goal")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ExecutionResult:
    state: LogicalState
    failed_step: Optional[int] = None  # index of first step whose pre failed


def symbolic_execute(
    steps: Sequence[GroundOperator], init: LogicalState
) -> ExecutionResult:
    """Fold effects over ``steps`` from ``init``, stopping at the first
    step whose preconditions do not hold."""
    state = init
    for i, op in enumerate(steps):
        if not holds(state, op.pre):
            return ExecutionResult(state, failed_step=i)
        state = apply_effects(state, op.eff)
    return ExecutionResult(state)


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------


@dataclass
class PlanResult:
    status: str  # "solved" | "unsolvable" | "budget_exhausted"
    plan: Optional[Plan] = None
    expansions: int = 0

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def plan(
    grounded: GroundedDomain,
    init: Optional[LogicalState] = None,
    goal: Optional[ConditionSet] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PlanResult:
    """Search for an operator sequence from ``init`` to ``goal``.

    Breadth-first, so a returned plan has the fewest steps.  Complete: the
    grounded state space is finite and duplicates are eliminated, so
    ``unsolvable`` is returned only when no plan exists.  States are plain
    ``int`` masks during the search; ``init`` and ``goal`` must belong to
    the grounded vocabulary, which is checked once here.
    """
    init = grounded.init if init is None else init
    goal = grounded.goal if goal is None else goal
    _check_same_vocab(init.vocabulary, grounded.vocabulary)
    _check_same_vocab(goal.vocabulary, grounded.vocabulary)
    start, goal_pos, goal_neg = init.mask, goal.pos_mask, goal.neg_mask
    if start & goal_pos == goal_pos and not start & goal_neg:
        return PlanResult("solved", Plan((), init, goal))
    parents: dict[int, tuple[int, Optional[int]]] = {start: (start, None)}
    queue = deque([start])
    expansions = 0
    while queue:
        mask = queue.popleft()
        expansions += 1
        if expansions > node_budget:
            return PlanResult("budget_exhausted", expansions=expansions)
        for index, pre_pos, pre_neg, keep, add in grounded.compiled:
            if mask & pre_pos != pre_pos or mask & pre_neg:
                continue
            nxt = mask & keep | add
            if nxt in parents:
                continue
            parents[nxt] = (mask, index)
            if nxt & goal_pos == goal_pos and not nxt & goal_neg:
                return PlanResult(
                    "solved", _extract(grounded, parents, nxt, init, goal), expansions
                )
            queue.append(nxt)
    return PlanResult("unsolvable", expansions=expansions)


def _extract(grounded, parents, mask, init, goal) -> Plan:
    ops = []  # back to the start state, the only one without an operator
    while parents[mask][1] is not None:
        mask, op_idx = parents[mask]
        ops.append(grounded.operators[op_idx])
    return Plan(tuple(reversed(ops)), init, goal)
