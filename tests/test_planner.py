"""Planner: grounding counts, search soundness/completeness, heuristic.

Independent oracles: reachability by breadth-first search over frozensets
of atom name strings (no bitmasks), a dict-based additive-cost fixpoint
for the heuristic, and a reference BFS/GBFS on LogicalState objects that the
compiled int-mask searches must match exactly.
"""

import heapq
import itertools
import random
from collections import deque
from math import inf, isinf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact.lang import (
    DomainDefinition,
    LiftedAtom,
    LiftedLiteral,
    OperatorSchema,
    ProblemDefinition,
)
from chainreact.logic import (
    ConditionSet,
    LogicalState,
    PredicateSchema,
    apply_effects,
    holds,
)
from chainreact.planner import (
    GroundingLimitError,
    Plan,
    ground,
    h_add,
    plan,
    plan_from_json,
    symbolic_execute,
)
from tests.util import kitchen_domain, kitchen_problem, step_names

# --------------------------------------------------------------------------
# Random propositional tasks plus the set-based oracle
# --------------------------------------------------------------------------


def make_prop_domain(op_specs, atom_names, name="toy"):
    """Build a nullary-predicate domain from (name, pre, adds, dels) tuples."""
    d = DomainDefinition(name=name)
    d.predicates = [PredicateSchema(a) for a in atom_names]
    for op_name, pre, adds, dels in op_specs:
        d.operators.append(
            OperatorSchema(
                name=op_name,
                params=(),
                pre=frozenset(LiftedLiteral(LiftedAtom(p)) for p in pre),
                run=None,
                adds=frozenset(LiftedAtom(a) for a in adds),
                deletes=frozenset(LiftedAtom(a) for a in dels),
                binding=op_name,
            )
        )
    return d


def make_prop_task(op_specs, atom_names, init, goal, name="toy"):
    d = make_prop_domain(op_specs, atom_names, name)
    p = ProblemDefinition(
        name=name + "-p",
        domain_name=name,
        objects={},
        init=frozenset(LiftedAtom(a) for a in init),
        goal=frozenset(LiftedLiteral(LiftedAtom(g)) for g in goal),
    )
    return ground(d, p)


def random_task(rng, n_atoms=None, n_ops=None):
    n_atoms = n_atoms or rng.randint(3, 12)
    n_ops = n_ops or rng.randint(2, 10)
    atoms = [f"a{i}" for i in range(n_atoms)]
    specs = []
    for i in range(n_ops):
        pre = set(rng.sample(atoms, rng.randint(0, min(3, n_atoms))))
        adds = set(rng.sample(atoms, rng.randint(1, min(3, n_atoms))))
        dels = set(rng.sample(atoms, rng.randint(0, min(2, n_atoms)))) - adds
        specs.append((f"op{i}", pre, adds, dels))
    init = set(rng.sample(atoms, rng.randint(0, n_atoms // 2)))
    goal = set(rng.sample(atoms, rng.randint(1, min(3, n_atoms))))
    return specs, atoms, init, goal


def oracle_reachable(op_specs, init, goal):
    """Breadth-first reachability over frozensets; returns shortest length or None."""
    start = frozenset(init)
    target = set(goal)
    if target <= start:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, depth = queue.popleft()
        for _, pre, adds, dels in op_specs:
            if not set(pre) <= state:
                continue
            nxt = frozenset((state - set(dels)) | set(adds))
            if nxt in seen:
                continue
            seen.add(nxt)
            if target <= nxt:
                return depth + 1
            queue.append((nxt, depth + 1))
    return None


def oracle_additive_cost(op_specs, state_names, goal_names):
    """Dict-based additive fixpoint, independent of the package heuristic."""
    cost = {a: 0.0 for a in state_names}
    changed = True
    while changed:
        changed = False
        for _, pre, adds, _ in op_specs:
            if any(p not in cost for p in pre):
                continue
            c = 1.0 + sum(cost[p] for p in pre)
            for a in adds:
                if c < cost.get(a, inf):
                    cost[a] = c
                    changed = True
    total = 0.0
    for g in goal_names:
        if g not in cost:
            return inf
        total += cost[g]
    return total


# --------------------------------------------------------------------------
# Grounding
# --------------------------------------------------------------------------


class TestGrounding:
    def test_kitchen_counts(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        assert len(grounded.vocabulary) == 42
        assert len(grounded.operators) == 21
        assert grounded.movables == ("spam", "sugar")

    def test_single_nullary_predicate(self):
        grounded = make_prop_task([], ["p"], [], [])
        assert len(grounded.vocabulary) == 1
        assert len(grounded.operators) == 0

    def test_unary_schema_three_objects(self):
        d = DomainDefinition(name="d", types={"t": None})
        d.predicates = [PredicateSchema("p", ("t",))]
        d.operators = [
            OperatorSchema(
                "touch",
                params=(("?x", "t"),),
                pre=frozenset(),
                run=None,
                adds=frozenset({LiftedAtom("p", ("?x",))}),
                deletes=frozenset(),
            )
        ]
        p = ProblemDefinition(
            "p3", "d", objects={"o1": "t", "o2": "t", "o3": "t"},
            init=frozenset(), goal=frozenset(),
        )
        grounded = ground(d, p)
        assert len(grounded.operators) == 3
        assert len(grounded.vocabulary) == 3
        assert grounded.movables == ()  # no type "movable" in this domain

    def test_grounding_cap(self):
        d = DomainDefinition(name="d", types={"t": None})
        d.predicates = [PredicateSchema("p", ("t", "t", "t"))]
        d.operators = [
            OperatorSchema(
                "op",
                params=(("?a", "t"), ("?b", "t"), ("?c", "t")),
                pre=frozenset(),
                run=None,
                adds=frozenset({LiftedAtom("p", ("?a", "?b", "?c"))}),
                deletes=frozenset(),
            )
        ]
        p = ProblemDefinition(
            "pb", "d", objects={f"o{i}": "t" for i in range(30)},
            init=frozenset(), goal=frozenset(),
        )
        with pytest.raises(GroundingLimitError):
            ground(d, p, max_operators=1000)


# --------------------------------------------------------------------------
# Kitchen planning
# --------------------------------------------------------------------------

G1_PLAN = [
    "back_off",
    "approach_drawer_open",
    "cage_handle",
    "grasp_handle",
    "pull_drawer",
    "release_handle",
    "back_off",
    "approach_obj(spam)",
    "cage_obj(spam)",
    "grasp_obj(spam)",
    "lift_obj(spam)",
    "move_obj_over_drawer",
    "lower_obj_into_drawer(spam)",
    "release_obj",
    "approach_drawer_close",
    "push_drawer",
]


class TestKitchenPlanning:
    def test_g1_plan_sixteen_steps(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        result = plan(grounded, optimal=True)
        assert result.solved
        assert len(result.plan) == 16
        assert step_names(result.plan.steps) == G1_PLAN
        final = symbolic_execute(result.plan.steps, grounded.init)
        assert final.failed_step is None and holds(final.state, grounded.goal)

    def test_gbfs_also_solves_g1(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        result = plan(grounded)
        assert result.solved
        final = symbolic_execute(result.plan.steps, grounded.init)
        assert final.failed_step is None and holds(final.state, grounded.goal)

    def test_open_drawer_subgoal(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        goal = ConditionSet.from_atoms(
            grounded.vocabulary, [grounded.vocabulary.get("drawer_is_open")]
        )
        result = plan(grounded, goal=goal, optimal=True)
        assert result.solved
        assert step_names(result.plan.steps) == [
            "back_off", "approach_drawer_open", "cage_handle",
            "grasp_handle", "pull_drawer",
        ]
        assert holds(symbolic_execute(result.plan.steps, grounded.init).state, goal)

    def test_empty_plan_when_goal_holds(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        goal = ConditionSet.from_atoms(
            grounded.vocabulary, [grounded.vocabulary.get("drawer_is_closed")]
        )
        result = plan(grounded, goal=goal)
        assert result.solved and len(result.plan) == 0

    def test_composite_goal_plan(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        result = plan(grounded, optimal=True)
        assert result.solved
        assert len(result.plan) == 24
        names = step_names(result.plan.steps)
        assert names.count("back_off") == 3
        assert names.count("move_obj_over_drawer") == 2
        assert names[-1] == "push_drawer"

    def test_determinism(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        a = step_names(plan(grounded).plan.steps)
        b = step_names(plan(grounded).plan.steps)
        assert a == b

    def test_plan_json_round_trip(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        p = plan(grounded, optimal=True).plan
        again = plan_from_json(grounded, p.to_json_dict())
        assert step_names(again.steps) == step_names(p.steps)


# --------------------------------------------------------------------------
# Random-domain soundness and completeness against the oracle
# --------------------------------------------------------------------------


class TestRandomDomains:
    def test_soundness_and_completeness_500(self):
        rng = random.Random(2024)
        solvable_seen = unsolvable_seen = 0
        for _ in range(500):
            specs, atoms, init, goal = random_task(rng)
            grounded = make_prop_task(specs, atoms, init, goal)
            oracle_len = oracle_reachable(specs, init, goal)
            for optimal in (False, True):
                result = plan(grounded, optimal=optimal)
                if oracle_len is None:
                    assert result.status == "unsolvable", (specs, init, goal)
                else:
                    assert result.solved
                    ex = symbolic_execute(result.plan.steps, grounded.init)
                    assert ex.failed_step is None and holds(ex.state, grounded.goal)
                    if optimal:
                        assert len(result.plan) == oracle_len
            if oracle_len is None:
                unsolvable_seen += 1
            else:
                solvable_seen += 1
        # The generator must actually exercise both outcomes.
        assert solvable_seen > 50 and unsolvable_seen > 50

    def test_budget_exhaustion_reported(self):
        specs = [("grow", {f"a{i}"}, {f"a{i+1}"}, set()) for i in range(11)]
        grounded = make_prop_task(specs, [f"a{i}" for i in range(12)], ["a0"], ["a11"])
        result = plan(grounded, optimal=True, node_budget=2)
        assert result.status == "budget_exhausted"


# --------------------------------------------------------------------------
# Heuristic
# --------------------------------------------------------------------------


class TestHAdd:
    def test_zero_iff_satisfied(self):
        rng = random.Random(7)
        for _ in range(100):
            specs, atoms, init, goal = random_task(rng)
            grounded = make_prop_task(specs, atoms, init, goal)
            h = h_add(grounded, grounded.init, grounded.goal)
            assert (h == 0) == holds(grounded.init, grounded.goal)

    def test_infinite_iff_relaxed_unreachable(self):
        grounded = make_prop_task(
            [("op", set(), {"a"}, set())], ["a", "b"], [], ["b"]
        )
        assert isinf(h_add(grounded, grounded.init, grounded.goal))

    def test_unproduced_goal_atom_is_infinite(self):
        grounded = make_prop_task([], ["g"], [], ["g"])
        assert isinf(h_add(grounded, grounded.init, grounded.goal))

    def test_matches_independent_fixpoint(self):
        rng = random.Random(11)
        for _ in range(200):
            specs, atoms, init, goal = random_task(rng)
            grounded = make_prop_task(specs, atoms, init, goal)
            expected = oracle_additive_cost(specs, init, goal)
            got = h_add(grounded, grounded.init, grounded.goal)
            if expected == 0 and not holds(grounded.init, grounded.goal):
                expected = 1.0
            assert got == expected

    def test_heuristic_safety(self):
        # h_add = inf implies the brute-force oracle also finds no plan.
        rng = random.Random(13)
        for _ in range(200):
            specs, atoms, init, goal = random_task(rng)
            grounded = make_prop_task(specs, atoms, init, goal)
            if isinf(h_add(grounded, grounded.init, grounded.goal)):
                assert oracle_reachable(specs, init, goal) is None

    def test_kitchen_drawer_goal_finite(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        goal = ConditionSet.from_atoms(
            grounded.vocabulary, [grounded.vocabulary.get("drawer_is_open")]
        )
        h = h_add(grounded, grounded.init, goal)
        assert 0 < h < inf


# --------------------------------------------------------------------------
# Symbolic execution details
# --------------------------------------------------------------------------


class TestSymbolicExecute:
    def test_empty_plan_identity(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        p = Plan((), grounded.init, ConditionSet.from_atoms(grounded.vocabulary))
        result = symbolic_execute(p.steps, grounded.init)
        assert result.failed_step is None and result.state == grounded.init

    def test_swapped_steps_fail_at_swap(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        full = plan(grounded, optimal=True).plan
        steps = list(full.steps)
        i, j = 8, 9  # cage_obj(spam), grasp_obj(spam)
        assert steps[i].schema.name == "cage_obj"
        assert steps[j].schema.name == "grasp_obj"
        steps[i], steps[j] = steps[j], steps[i]
        result = symbolic_execute(steps, grounded.init)
        assert result.failed_step == i


class TestNegativeGoals:
    """Negative literals are supported by the planner (the chain builder is
    the layer that rejects them)."""

    def make_task(self):
        from chainreact.lang import LiftedAtom, LiftedLiteral, ProblemDefinition

        d = make_prop_domain(
            [("make_b", set(), {"b"}, set()), ("del_a", set(), set(), {"a"})],
            ["a", "b"],
        )
        p = ProblemDefinition(
            name="neg", domain_name="toy", objects={},
            init=frozenset({LiftedAtom("a")}),
            goal=frozenset(
                {LiftedLiteral(LiftedAtom("b"), True), LiftedLiteral(LiftedAtom("a"), False)}
            ),
        )
        return ground(d, p)

    def test_plan_reaches_negative_goal(self):
        grounded = self.make_task()
        for optimal in (False, True):
            result = plan(grounded, optimal=optimal)
            assert result.solved
            final = symbolic_execute(result.plan.steps, grounded.init)
            assert final.failed_step is None and holds(final.state, grounded.goal)
            if optimal:
                assert len(result.plan) == 2

    def test_h_add_zero_iff_satisfied_with_negatives(self):
        grounded = self.make_task()
        # positives satisfied but the negative literal violated: h must be
        # positive, and it must drop to zero exactly at goal states
        from chainreact.logic import LogicalState

        vocab = grounded.vocabulary
        a, b = vocab.get("a"), vocab.get("b")
        both = LogicalState.from_atoms(vocab, [a, b])
        only_b = LogicalState.from_atoms(vocab, [b])
        assert h_add(grounded, both, grounded.goal) > 0
        assert h_add(grounded, only_b, grounded.goal) == 0


# --------------------------------------------------------------------------
# Compiled search against a reference search on LogicalState objects
# --------------------------------------------------------------------------
#
# The reference keeps the plain form of each search: states are LogicalState
# values stepped by holds/apply_effects over the GroundOperator objects, and
# h_add runs its additive-cost sweeps on id tuples with no mask shortcut.
# Operator order, FIFO order and heap tie-breaking are the same, so the
# compiled searches must return the same status, steps and expansions.

def _ids(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ref_h_add(grounded, state, goal):
    cost = [inf] * len(grounded.vocabulary)
    for i in _ids(state.mask):
        cost[i] = 0.0
    ops = [(_ids(op.pre.pos_mask), _ids(op.eff.add_mask)) for op in grounded.operators]
    changed = True
    while changed:
        changed = False
        for pre_ids, add_ids in ops:
            total = 1.0
            for a in pre_ids:
                total += cost[a]
            if isinf(total):
                continue
            for b in add_ids:
                if total < cost[b]:
                    cost[b] = total
                    changed = True
    base = 0.0
    for a in _ids(goal.pos_mask):
        base += cost[a]
    if isinf(base):
        return inf
    if base == 0.0 and not holds(state, goal):
        return 1.0
    return base


def ref_extract(grounded, parents, mask):
    names = []
    while parents[mask][1] is not None:
        mask, index = parents[mask]
        names.append(grounded.operators[index].name)
    return list(reversed(names))


def ref_bfs(grounded, init, goal, budget):
    if holds(init, goal):
        return "solved", [], 0
    parents = {init.mask: (init.mask, None)}
    queue = deque([init])
    expansions = 0
    while queue:
        state = queue.popleft()
        expansions += 1
        if expansions > budget:
            return "budget_exhausted", None, expansions
        for op in grounded.operators:
            if not holds(state, op.pre):
                continue
            nxt = apply_effects(state, op.eff)
            if nxt.mask in parents:
                continue
            parents[nxt.mask] = (state.mask, op.index)
            if holds(nxt, goal):
                return "solved", ref_extract(grounded, parents, nxt.mask), expansions
            queue.append(nxt)
    return "unsolvable", None, expansions


def ref_gbfs(grounded, init, goal, budget):
    h0 = ref_h_add(grounded, init, goal)
    if isinf(h0):
        return "unsolvable", None, 0
    parents = {init.mask: (init.mask, None)}
    counter = itertools.count()
    heap = [(h0, next(counter), init)]
    closed = set()
    expansions = 0
    while heap:
        _, _, state = heapq.heappop(heap)
        if state.mask in closed:
            continue
        closed.add(state.mask)
        if holds(state, goal):
            return "solved", ref_extract(grounded, parents, state.mask), expansions
        expansions += 1
        if expansions > budget:
            return "budget_exhausted", None, expansions
        for op in grounded.operators:
            if not holds(state, op.pre):
                continue
            nxt = apply_effects(state, op.eff)
            if nxt.mask in parents:
                continue
            parents[nxt.mask] = (state.mask, op.index)
            h = ref_h_add(grounded, nxt, goal)
            if not isinf(h):
                heapq.heappush(heap, (h, next(counter), nxt))
    return "unsolvable", None, expansions


_GROUNDED = {
    name: ground(kitchen_domain(), kitchen_problem(name))
    for name in ("put_away_spam", "put_away_both", "open_drawer")
}


@st.composite
def kitchen_queries(draw):
    """A shipped kitchen problem and an init mask: either arbitrary or the
    problem's own init with a few atoms flipped."""
    grounded = _GROUNDED[draw(st.sampled_from(sorted(_GROUNDED)))]
    n = len(grounded.vocabulary)
    if draw(st.booleans()):
        mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    else:
        flips = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4))
        mask = grounded.init.mask
        for i in flips:
            mask ^= 1 << i
    return grounded, LogicalState(grounded.vocabulary, mask)


class TestCompiledSearchEquivalence:
    BUDGET = 150

    @settings(max_examples=60, deadline=None)
    @given(query=kitchen_queries(), optimal=st.booleans())
    def test_plan_result_matches_reference(self, query, optimal):
        grounded, init = query
        goal = grounded.goal
        got = plan(grounded, init=init, goal=goal, optimal=optimal,
                   node_budget=self.BUDGET)
        search = ref_bfs if optimal else ref_gbfs
        status, steps, expansions = search(grounded, init, goal, self.BUDGET)
        assert got.status == status
        assert got.expansions == expansions
        assert (step_names(got.plan.steps) if got.solved else None) == steps
        assert h_add(grounded, init, goal) == ref_h_add(grounded, init, goal)
