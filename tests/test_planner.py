"""Planner: grounding counts, search soundness, completeness and pins.

Independent oracles: reachability by breadth-first search over frozensets
of atom name strings (no bitmasks), and a reference BFS on LogicalState
objects that the compiled int-mask search must match exactly.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact.lang import (
    DomainDefinition,
    LiftedAtom,
    LiftedLiteral,
    OperatorSchema,
    ProblemDefinition,
    parse_domain,
    parse_problem,
)
from chainreact import planner
from chainreact.logic import (
    ConditionSet,
    EffectSet,
    LogicalState,
    PredicateSchema,
    apply_effects,
    holds,
)
from chainreact.harness import plan_payload, read_plan
from chainreact.planner import (
    GroundingLimitError,
    Plan,
    ground,
    plan,
)
from tests.util import (
    DATA_DIR,
    SELF_COLLISIONS,
    bits,
    kitchen_domain,
    kitchen_problem,
    put_away_problem,
    step_names,
    two_object_files,
)

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
                run=frozenset(LiftedLiteral(LiftedAtom(p)) for p in pre),
                eff=frozenset(LiftedLiteral(LiftedAtom(a)) for a in adds)
                | frozenset(LiftedLiteral(LiftedAtom(a), False) for a in dels),
                binding=op_name,
            )
        )
    return d


def make_prop_task(op_specs, atom_names, init, goal, name="toy"):
    d = make_prop_domain(op_specs, atom_names, name)
    p = ProblemDefinition(
        name=name + "-p",
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


# --------------------------------------------------------------------------
# Grounding
# --------------------------------------------------------------------------


SHIPPED_PROBLEMS = sorted(path.stem for path in (DATA_DIR / "problems").glob("*.dprob"))


def cube_task(n_objects, arity):
    """One type of ``n_objects`` objects and one action over three of them
    that adds ``p`` of its first ``arity`` arguments: n^3 ground operators
    and n^arity ground atoms."""
    d = DomainDefinition(name="d", types={"t": None})
    d.predicates = [PredicateSchema("p", ("t",) * arity)]
    d.operators = [
        OperatorSchema(
            "op",
            params=(("?a", "t"), ("?b", "t"), ("?c", "t")),
            pre=frozenset(),
            run=frozenset(),
            eff=frozenset({LiftedLiteral(LiftedAtom("p", ("?a", "?b", "?c")[:arity]))}),
        )
    ]
    p = ProblemDefinition(
        "pb", objects={f"o{i}": "t" for i in range(n_objects)},
        init=frozenset(), goal=frozenset(),
    )
    return d, p


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
                run=frozenset(),
                eff=frozenset({LiftedLiteral(LiftedAtom("p", ("?x",)))}),
            )
        ]
        p = ProblemDefinition(
            "p3", objects={"o1": "t", "o2": "t", "o3": "t"},
            init=frozenset(), goal=frozenset(),
        )
        grounded = ground(d, p)
        assert len(grounded.operators) == 3
        assert len(grounded.vocabulary) == 3
        assert grounded.movables == ()  # no type "movable" in this domain

    def test_grounding_cap(self):
        with pytest.raises(GroundingLimitError):
            ground(*cube_task(30, 3), max_operators=1000)

    def test_cap_bounds_the_operator_count(self):
        assert len(ground(*cube_task(10, 1), max_operators=1000).operators) == 1000
        with pytest.raises(GroundingLimitError, match="grounding exceeds 999 operators$"):
            ground(*cube_task(10, 1), max_operators=999)

    @pytest.mark.parametrize("arity, what", [(1, "operators"), (3, "atoms")])
    def test_cap_is_checked_before_anything_is_built(self, monkeypatch, arity, what):
        # 101 objects give 101^3 = 1,030,301 operators, and as many atoms
        # under an arity-3 predicate.  Both are counted from the type pools;
        # grounding used to build 10^6 operators before it raised, and had
        # no cap on atoms at all.
        def build(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(planner, "Vocabulary", build)
        monkeypatch.setattr(planner, "GroundOperator", build)
        with pytest.raises(GroundingLimitError, match=f"grounding exceeds 1000000 {what}$"):
            ground(*cube_task(101, arity))

    @pytest.mark.parametrize("problem", SHIPPED_PROBLEMS)
    def test_masks_match_atom_by_atom_build(self, problem):
        # The reference build: every bound atom printed here and looked up
        # by its name, and each set made from those names.
        grounded = ground(kitchen_domain(), kitchen_problem(problem))
        vocab = grounded.vocabulary

        def atoms(lifted, binding):
            names = []
            for a in lifted:
                args = [binding.get(x, x) for x in a.args]
                names.append(f"{a.name}({', '.join(args)})" if args else a.name)
            return bits(vocab, *names)

        def literals(lits, binding):
            return (
                atoms([l.atom for l in lits if l.positive], binding),
                atoms([l.atom for l in lits if not l.positive], binding),
            )

        for op in grounded.operators:
            schema = op.schema
            binding = dict(zip((v for v, _ in schema.params), op.bound_args))
            assert op.pre == ConditionSet(vocab, *literals(schema.pre, binding))
            assert op.run == ConditionSet(vocab, *literals(schema.run, binding))
            assert op.eff == EffectSet(vocab, *literals(schema.eff, binding))
        task = grounded.problem
        assert grounded.init == LogicalState(vocab, atoms(task.init, {}))
        assert grounded.goal == ConditionSet(vocab, *literals(task.goal, {}))


def self_collision_task(clause):
    # Each binding with ?x = ?y used to raise inside ground: EffectSet on p
    # added and deleted, ConditionSet on p required and negated.
    domain_text, problem_text = two_object_files(SELF_COLLISIONS[clause])
    domain = parse_domain(domain_text).value
    return ground(domain, parse_problem(problem_text, domain).value)


class TestSelfCollidingBindings:
    def test_adds_win_over_deletes(self):
        grounded = self_collision_task("effect")
        vocab = grounded.vocabulary
        assert len(grounded.operators) == 4
        for obj in ("a", "b"):
            op = grounded.operator_named("mv", (obj, obj))
            assert op.eff == EffectSet(vocab, bits(vocab, f"p({obj})"), 0)
        op = grounded.operator_named("mv", ("a", "b"))
        assert op.eff == EffectSet(vocab, bits(vocab, "p(a)"), bits(vocab, "p(b)"))
        assert step_names(plan(grounded).plan.steps) == ["mv(b, a)"]

    @pytest.mark.parametrize("clause", ["precondition", "runcondition"])
    def test_contradictory_condition_is_not_grounded(self, clause):
        grounded = self_collision_task(clause)
        assert step_names(grounded.operators) == ["mv(a, b)", "mv(b, a)"]
        assert [op.index for op in grounded.operators] == [0, 1]
        assert step_names(plan(grounded).plan.steps) == ["mv(a, b)"]


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
        result = plan(grounded)
        assert result.solved
        assert len(result.plan) == 16
        assert step_names(result.plan.steps) == G1_PLAN
        Plan(result.plan.steps, grounded.init, grounded.goal)  # raises unless sound

    def test_open_drawer_subgoal(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        goal = ConditionSet(grounded.vocabulary, bits(grounded.vocabulary, "drawer_is_open"))
        result = plan(grounded, goal=goal)
        assert result.solved
        assert step_names(result.plan.steps) == [
            "back_off", "approach_drawer_open", "cage_handle",
            "grasp_handle", "pull_drawer",
        ]
        Plan(result.plan.steps, grounded.init, goal)  # raises unless sound

    def test_empty_plan_when_goal_holds(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        goal = ConditionSet(grounded.vocabulary, bits(grounded.vocabulary, "drawer_is_closed"))
        result = plan(grounded, goal=goal)
        assert result.solved and len(result.plan) == 0

    def test_composite_goal_plan(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        result = plan(grounded)
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

    # (plan length, expansions) on every shipped problem, so a change to
    # kitchen.dpdl or to the search shows here.
    SEARCH_PINS = {
        "open_drawer": (6, 19),
        "pick_spam": (5, 12),
        "pick_sugar": (5, 16),
        "put_away_both": (24, 280),
        "put_away_spam": (16, 167),
        "put_away_sugar": (16, 178),
    }

    @pytest.mark.parametrize("problem", sorted(SEARCH_PINS))
    def test_search_pins(self, problem):
        grounded = ground(kitchen_domain(), kitchen_problem(problem))
        result = plan(grounded)
        assert (len(result.plan), result.expansions) == self.SEARCH_PINS[problem]

    # (plan length, expansions) on put-away problems with k movables, up to
    # the simulator's cap of five: each object adds eight steps, and the
    # expansions grow 5.5- to 5.8-fold.
    PUT_AWAY_PINS = {1: (16, 51), 2: (24, 280), 3: (32, 1619), 4: (40, 9282), 5: (48, 52509)}

    @pytest.mark.parametrize("k", sorted(PUT_AWAY_PINS))
    def test_put_away_pins(self, k):
        problem = parse_problem(put_away_problem(k), kitchen_domain())
        assert problem.ok, problem.diagnostics
        result = plan(ground(kitchen_domain(), problem.value))
        assert (len(result.plan), result.expansions) == self.PUT_AWAY_PINS[k]

    def test_plan_json_round_trip(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        p = plan(grounded).plan
        assert read_plan(grounded, plan_payload(p)) == p.steps


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
            result = plan(grounded)
            if oracle_len is None:
                assert result.status == "unsolvable", (specs, init, goal)
            else:
                assert result.solved
                Plan(result.plan.steps, grounded.init, grounded.goal)  # raises unless sound
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
        result = plan(grounded, node_budget=2)
        assert result.status == "budget_exhausted"


# --------------------------------------------------------------------------
# Plan soundness, checked at construction
# --------------------------------------------------------------------------


class TestPlanSoundness:
    def test_empty_plan_builds(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        p = Plan((), grounded.init, ConditionSet(grounded.vocabulary))
        assert len(p) == 0 and p.init == grounded.init

    def test_swapped_steps_raise_at_swap(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        full = plan(grounded).plan
        steps = list(full.steps)
        i, j = 8, 9  # cage_obj(spam), grasp_obj(spam)
        assert steps[i].schema.name == "cage_obj"
        assert steps[j].schema.name == "grasp_obj"
        steps[i], steps[j] = steps[j], steps[i]
        with pytest.raises(ValueError, match=f"at step {i}$"):
            Plan(tuple(steps), grounded.init, grounded.goal)


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
            name="neg", objects={},
            init=frozenset({LiftedAtom("a")}),
            goal=frozenset(
                {LiftedLiteral(LiftedAtom("b"), True), LiftedLiteral(LiftedAtom("a"), False)}
            ),
        )
        return ground(d, p)

    def test_plan_reaches_negative_goal(self):
        grounded = self.make_task()
        result = plan(grounded)
        assert result.solved
        Plan(result.plan.steps, grounded.init, grounded.goal)  # raises unless sound
        assert len(result.plan) == 2


# --------------------------------------------------------------------------
# Compiled search against a reference search on LogicalState objects
# --------------------------------------------------------------------------
#
# The reference keeps the plain form of the search: states are LogicalState
# values stepped by holds/apply_effects over the GroundOperator objects.
# Operator order and FIFO order are the same, so the compiled search must
# return the same status, steps and expansions.

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
    @given(query=kitchen_queries())
    def test_plan_result_matches_reference(self, query):
        grounded, init = query
        goal = grounded.goal
        got = plan(grounded, init=init, goal=goal, node_budget=self.BUDGET)
        status, steps, expansions = ref_bfs(grounded, init, goal, self.BUDGET)
        assert got.status == status
        assert got.expansions == expansions
        assert (step_names(got.plan.steps) if got.solved else None) == steps
