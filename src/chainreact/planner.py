"""Grounding and state-space search.

``ground`` enumerates every type-consistent binding of each operator schema
against the problem objects (plus domain constants), interning all ground
atoms into a :class:`~chainreact.logic.Vocabulary`, and compiles every
operator once into a row of raw integer masks (see :class:`GroundedDomain`).
``plan`` then searches the grounded space on plain ``int`` states: greedy
best-first on the delete-relaxation additive heuristic by default, or
exhaustive breadth-first search when ``optimal`` is requested (used wherever
exact plan lengths matter).  Both searches generate successors from the
compiled rows in operator index order and check the vocabulary once per
query.  Tie-breaking is total (operator index order plus FIFO), so identical
inputs always produce identical plans.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from math import inf, isinf
from typing import Optional, Sequence

from .lang import DomainDefinition, LiftedAtom, OperatorSchema, ProblemDefinition
from .logic import (
    ConditionSet,
    EffectSet,
    GroundAtom,
    LogicalState,
    Vocabulary,
    _check_same_vocab,
    apply_effects,
    holds,
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

    @property
    def name(self) -> str:
        if not self.bound_args:
            return self.schema.name
        return f"{self.schema.name}({', '.join(self.bound_args)})"

    def __str__(self) -> str:
        return self.name


@dataclass
class GroundedDomain:
    """The grounded vocabulary and operators of one domain and problem.

    ``compiled`` and ``relaxed`` hold every operator, in index order, as the
    raw ints the searches and :func:`h_add` read.  A state ``s`` (an ``int``)
    satisfies an operator's precondition iff ``s & pre_pos == pre_pos and
    not s & pre_neg``, and its successor is ``s & keep | add`` with ``keep =
    ~del_mask``.  ``relaxed`` adds the atom ids of ``pre_pos`` and ``add``
    for the relaxed cost sums; it is a table of its own because unpacking
    wider rows slows the successor loop.

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
    # (pre_pos, add, pre_ids, add_ids) per operator
    relaxed: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...] = field(
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
        self.relaxed = tuple(
            (op.pre.pos_mask, op.eff.add_mask, _mask_ids(op.pre.pos_mask),
             _mask_ids(op.eff.add_mask))
            for op in self.operators
        )

    def operator_named(self, name: str, args: tuple[str, ...] = ()) -> GroundOperator:
        for op in self.operators:
            if op.schema.name == name and op.bound_args == tuple(args):
                return op
        raise KeyError(f"no ground operator {name}{args}")


def _objects_by_type(domain: DomainDefinition, problem: ProblemDefinition) -> dict[str, list[str]]:
    pool = list(domain.constants.items()) + list(problem.objects.items())
    out: dict[str, list[str]] = {t: [] for t in domain.types}
    for symbol, type_name in pool:
        for t in domain.types:
            if domain.is_subtype(type_name, t):
                out[t].append(symbol)
    return out


def _substitute(atom: LiftedAtom, binding: dict[str, str]) -> tuple[str, tuple[str, ...]]:
    return atom.name, tuple(binding.get(a, a) for a in atom.args)


def _bind(vocab: Vocabulary, atom: LiftedAtom, binding: dict[str, str]) -> GroundAtom:
    name, args = _substitute(atom, binding)
    return vocab.get(name, *args)


def ground(
    domain: DomainDefinition,
    problem: ProblemDefinition,
    max_operators: int = DEFAULT_GROUND_CAP,
) -> GroundedDomain:
    """Enumerate the full grounded vocabulary and operator set."""
    by_type = _objects_by_type(domain, problem)

    atoms: list[GroundAtom] = []
    for schema in domain.predicates:
        pools = [by_type.get(t, []) for t in schema.param_types]
        for combo in itertools.product(*pools):
            atoms.append(GroundAtom(schema, combo))
    vocab = Vocabulary(atoms)

    operators: list[GroundOperator] = []
    for schema in domain.operators:
        pools = [by_type.get(t, []) for _, t in schema.params]
        names = [v for v, _ in schema.params]
        for combo in itertools.product(*pools):
            if len(operators) >= max_operators:
                raise GroundingLimitError(
                    f"grounding exceeds {max_operators} operators"
                )
            binding = dict(zip(names, combo))
            pre_pos = [_bind(vocab, l.atom, binding) for l in schema.pre if l.positive]
            pre_neg = [_bind(vocab, l.atom, binding) for l in schema.pre if not l.positive]
            run_src = schema.effective_run
            run_pos = [_bind(vocab, l.atom, binding) for l in run_src if l.positive]
            run_neg = [_bind(vocab, l.atom, binding) for l in run_src if not l.positive]
            adds = [_bind(vocab, a, binding) for a in schema.adds]
            deletes = [_bind(vocab, a, binding) for a in schema.deletes]
            operators.append(
                GroundOperator(
                    index=len(operators),
                    schema=schema,
                    bound_args=combo,
                    pre=ConditionSet.from_atoms(vocab, pre_pos, pre_neg),
                    run=ConditionSet.from_atoms(vocab, run_pos, run_neg),
                    eff=EffectSet.from_atoms(vocab, adds, deletes),
                )
            )

    init = LogicalState.from_atoms(
        vocab, [vocab.get(a.name, *a.args) for a in problem.init]
    )
    goal_pos = [vocab.get(l.atom.name, *l.atom.args) for l in problem.goal if l.positive]
    goal_neg = [vocab.get(l.atom.name, *l.atom.args) for l in problem.goal if not l.positive]
    goal = ConditionSet.from_atoms(vocab, goal_pos, goal_neg)

    return GroundedDomain(
        domain=domain,
        problem=problem,
        vocabulary=vocab,
        operators=tuple(operators),
        init=init,
        goal=goal,
    )


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

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "steps": [
                {"operator": op.schema.name, "args": list(op.bound_args)}
                for op in self.steps
            ],
        }


class PlanFormatError(ValueError):
    """Plan JSON not in the shape :meth:`Plan.to_json_dict` writes, or
    naming an operator the grounded domain does not have."""


def plan_from_json(grounded: GroundedDomain, data) -> Plan:
    """Read what :meth:`Plan.to_json_dict` writes as a plan from the
    problem's initial state to its goal.  Raises :class:`PlanFormatError`
    naming the first bad field, and the ``ValueError`` of :class:`Plan` for
    steps that are not a sound plan."""
    if not isinstance(data, dict) or not isinstance(data.get("steps"), list):
        raise PlanFormatError("a plan must be an object with a 'steps' list")
    version = data.get("format_version")
    if type(version) is not int or version != 1:
        raise PlanFormatError(f"'format_version' must be 1, not {version!r}")
    ops = []
    for i, step in enumerate(data["steps"]):
        args = step.get("args") if isinstance(step, dict) else None
        if not (
            isinstance(args, list)
            and isinstance(step.get("operator"), str)
            and all(isinstance(a, str) for a in args)
        ):
            raise PlanFormatError(
                f"'steps[{i}]' must be {{\"operator\": string, \"args\": [string]}}"
            )
        try:
            ops.append(grounded.operator_named(step["operator"], tuple(args)))
        except KeyError as err:
            raise PlanFormatError(f"'steps[{i}]': {err.args[0]}") from None
    return Plan(tuple(ops), grounded.init, grounded.goal)


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
# Heuristic
# --------------------------------------------------------------------------


def h_add(grounded: GroundedDomain, state: LogicalState, goal: ConditionSet) -> float:
    """Delete-relaxation additive heuristic.

    Returns 0 iff the goal is satisfied in ``state`` and ``inf`` iff the
    positive part of the goal is unreachable under the delete relaxation.
    A violated negative literal with a satisfied positive part costs 1
    (negative literals are otherwise outside the relaxation).
    """
    _check_same_vocab(state.vocabulary, grounded.vocabulary)
    _check_same_vocab(goal.vocabulary, grounded.vocabulary)
    return _h_add(
        grounded.relaxed, len(grounded.vocabulary), state.mask,
        goal.pos_mask, goal.neg_mask, _mask_ids(goal.pos_mask),
    )


def _h_add(relaxed, n, mask, goal_pos, goal_neg, goal_ids) -> float:
    """:func:`h_add` on raw ints: ``mask`` is the state, ``goal_ids`` the
    atom ids of ``goal_pos``."""
    cost: list[float] = [inf] * n
    for i in _mask_ids(mask):
        cost[i] = 0.0
    # Bellman-Ford sweeps in operator order until no cost falls; ``reached``
    # is the set of atoms whose cost is finite, so an operator with an
    # unreached precondition is skipped with one mask test.
    reached = mask
    changed = True
    while changed:
        changed = False
        for pre_pos, add, pre_ids, add_ids in relaxed:
            if reached & pre_pos != pre_pos:
                continue
            total = 1.0
            for a in pre_ids:
                total += cost[a]
            for b in add_ids:
                if total < cost[b]:
                    cost[b] = total
                    changed = True
            reached |= add

    if reached & goal_pos != goal_pos:
        return inf
    base = 0.0
    for a in goal_ids:
        base += cost[a]
    if base == 0.0 and mask & goal_neg:
        return 1.0
    return base


def _mask_ids(mask: int) -> tuple[int, ...]:
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


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
    optimal: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> PlanResult:
    """Search for an operator sequence from ``init`` to ``goal``.

    Greedy best-first on :func:`h_add` by default; breadth-first (optimal
    in step count) when ``optimal`` is set.  Complete either way: the
    grounded state space is finite and duplicates are eliminated, so
    ``unsolvable`` is returned only when no plan exists.  States are plain
    ``int`` masks during the search; ``init`` and ``goal`` must belong to
    the grounded vocabulary, which is checked once here.
    """
    init = grounded.init if init is None else init
    goal = grounded.goal if goal is None else goal
    _check_same_vocab(init.vocabulary, grounded.vocabulary)
    _check_same_vocab(goal.vocabulary, grounded.vocabulary)
    if optimal:
        return _bfs(grounded, init, goal, node_budget)
    return _gbfs(grounded, init, goal, node_budget)


def _extract(grounded, parents, mask, init, goal) -> Plan:
    ops = []
    while mask != init.mask or parents[mask][1] is not None:
        parent_mask, op_idx = parents[mask]
        if op_idx is None:
            break
        ops.append(grounded.operators[op_idx])
        mask = parent_mask
    return Plan(tuple(reversed(ops)), init, goal)


def _successors(table, mask):
    """(operator index, successor state) for each operator applicable in
    ``mask``, in operator index order."""
    for index, pre_pos, pre_neg, keep, add in table:
        if mask & pre_pos == pre_pos and not mask & pre_neg:
            yield index, mask & keep | add


def _bfs(grounded, init, goal, node_budget) -> PlanResult:
    start, goal_pos, goal_neg = init.mask, goal.pos_mask, goal.neg_mask
    if start & goal_pos == goal_pos and not start & goal_neg:
        return PlanResult("solved", Plan((), init, goal))
    table = grounded.compiled
    parents: dict[int, tuple[int, Optional[int]]] = {start: (start, None)}
    queue = deque([start])
    expansions = 0
    while queue:
        mask = queue.popleft()
        expansions += 1
        if expansions > node_budget:
            return PlanResult("budget_exhausted", expansions=expansions)
        for index, nxt in _successors(table, mask):
            if nxt in parents:
                continue
            parents[nxt] = (mask, index)
            if nxt & goal_pos == goal_pos and not nxt & goal_neg:
                return PlanResult(
                    "solved", _extract(grounded, parents, nxt, init, goal), expansions
                )
            queue.append(nxt)
    return PlanResult("unsolvable", expansions=expansions)


def _gbfs(grounded, init, goal, node_budget) -> PlanResult:
    table, relaxed, n = grounded.compiled, grounded.relaxed, len(grounded.vocabulary)
    start, goal_pos, goal_neg = init.mask, goal.pos_mask, goal.neg_mask
    goal_ids = _mask_ids(goal_pos)
    h0 = _h_add(relaxed, n, start, goal_pos, goal_neg, goal_ids)
    if isinf(h0):
        return PlanResult("unsolvable")
    parents: dict[int, tuple[int, Optional[int]]] = {start: (start, None)}
    counter = itertools.count()
    open_heap: list[tuple[float, int, int]] = [(h0, next(counter), start)]
    closed: set[int] = set()
    expansions = 0
    while open_heap:
        _, _, mask = heapq.heappop(open_heap)
        if mask in closed:
            continue
        closed.add(mask)
        if mask & goal_pos == goal_pos and not mask & goal_neg:
            return PlanResult(
                "solved", _extract(grounded, parents, mask, init, goal), expansions
            )
        expansions += 1
        if expansions > node_budget:
            return PlanResult("budget_exhausted", expansions=expansions)
        for index, nxt in _successors(table, mask):
            if nxt in parents:
                continue
            parents[nxt] = (mask, index)
            h = _h_add(relaxed, n, nxt, goal_pos, goal_neg, goal_ids)
            # h = inf: unreachable under the relaxation, hence truly
            # unreachable; recorded as seen but never queued.
            if not isinf(h):
                heapq.heappush(open_heap, (h, next(counter), nxt))
    return PlanResult("unsolvable", expansions=expansions)
