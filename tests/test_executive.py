"""Reactive executive: selection order, nominal runs, recovery, baselines."""

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact.chains import build_chain
from chainreact.executive import NONE_ENTERABLE, Disturbance, run, select_operator
from chainreact.harness import resolve_disturbances
from chainreact.kitchen import KitchenSim
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
    UnknownAtomError,
    Vocabulary,
    holds,
    meets,
)
from chainreact.perception import NoiseModel, PerceptionPipeline
from chainreact.planner import ground, plan
from tests.util import (
    SymbolicSim,
    bits,
    kitchen_domain,
    kitchen_problem,
    primitives,
    reference_world,
    world_rng,
)


@pytest.fixture(scope="module")
def g1():
    grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
    chain = build_chain(plan(grounded).plan)
    return grounded, chain


def fresh_setup(grounded, seed=0, success_prob=1.0, world=None, noise=None, window=3):
    prims = primitives(success_prob)
    sim = KitchenSim(
        grounded, world or reference_world(), prims, np.random.default_rng(seed),
        world_rng(seed),
    )
    pipe = PerceptionPipeline(
        grounded.vocabulary, noise or NoiseModel(), window=window,
        rng=np.random.default_rng(seed + 10_000),
    )
    return sim, pipe


def resolved(grounded, *specs, max_ticks=1200):
    """Disturbances from ``{"trigger", "kind"}`` specs, as a scenario with
    that tick budget loads them."""
    problems = []
    disturbances = resolve_disturbances(specs, grounded, max_ticks, problems)
    assert problems == []
    return disturbances


def tick_records(chain):
    """A list and an ``on_tick`` that appends to it one dict per tick.
    tests/executive_pins.json hashes these dicts, so their shape is fixed
    here, apart from the trace format."""
    records = []

    names_of = chain.goal.vocabulary.names_of

    def on_tick(tick, truth, estimate, selected, reason, phase, fired):
        records.append({
            "tick": tick,
            "true_atoms": names_of(truth),
            "estimated_atoms": names_of(estimate),
            "selected_step": selected,
            "selected_operator": None if selected is None else chain.steps[selected].base.name,
            "reason": reason,
            "primitive_phase": phase,
            "disturbances_fired": fired,
        })

    return records, on_tick


# Every shipped problem.
CHAIN_PROBLEMS = (
    "open_drawer", "pick_spam", "pick_sugar", "put_away_spam", "put_away_sugar",
    "put_away_both",
)


@functools.lru_cache(maxsize=None)
def kitchen_chain(name):
    grounded = ground(kitchen_domain(), kitchen_problem(name))
    return build_chain(plan(grounded).plan)


def with_negative_conditions(chain, pre_neg, run_neg):
    """``chain`` with the atoms of ``pre_neg`` and ``run_neg`` as negative
    entry and run conditions wherever they are not positive ones.  The
    kitchen domain has no negative conditions of its own, and its chains'
    entry and run conditions are equal."""

    def negate(cond, neg):
        return ConditionSet(cond.vocabulary, cond.pos_mask, neg & ~cond.pos_mask)

    steps = tuple(
        dataclasses.replace(
            s,
            effective_pre=negate(s.effective_pre, pre_neg),
            effective_run=negate(s.effective_run, run_neg),
        )
        for s in chain.steps
    )
    return dataclasses.replace(chain, steps=steps)


def reference_select(chain, estimate, current):
    """Selection as a scan of holds() calls on a LogicalState, the
    executive's definition."""
    for i in range(len(chain.steps) - 1, -1, -1):
        step = chain.steps[i]
        if holds(estimate, step.effective_run if i == current else step.effective_pre):
            return i
    return None


class _ScriptedSim:
    """A simulator whose truth is the next of ``masks`` each tick, and whose
    primitives run until preempted."""

    def __init__(self, vocab, masks):
        self.grounded = SimpleNamespace(vocabulary=vocab)
        self.script = iter(masks)
        self.current = None

    def eval_predicates(self):
        return next(self.script)

    def start_primitive(self, op):
        self.current = SimpleNamespace(phase="running")

    def tick(self):
        return self.current

    def abort_primitive(self):
        self.current = None


class _Unstored(dict):
    """A selection memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


class TestSelectOperator:
    def test_higher_priority_checked_first(self, g1):
        grounded, chain = g1
        # Build an estimate satisfying step 3's entry conditions and step
        # 2's run conditions: the scan must pick the higher index.
        mask = chain.steps[3].effective_pre.pos_mask | chain.steps[2].effective_run.pos_mask
        assert select_operator(chain, mask, current=2) == 3

    def test_continue_current_when_nothing_higher(self, g1):
        grounded, chain = g1
        mask = chain.steps[2].effective_run.pos_mask
        assert select_operator(chain, mask, current=2) == 2

    def test_empty_estimate_none_enterable(self, g1):
        grounded, chain = g1
        assert select_operator(chain, 0, current=None) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_holds_reference(self, data):
        chain = kitchen_chain(data.draw(st.sampled_from(CHAIN_PROBLEMS)))
        n = len(chain.goal.vocabulary)
        sparse = st.tuples(*[st.integers(0, (1 << n) - 1)] * 3).map(
            lambda t: t[0] & t[1] & t[2]
        )
        if data.draw(st.booleans()):
            pre_neg, run_neg = data.draw(sparse), data.draw(sparse)
            chain = with_negative_conditions(chain, pre_neg, run_neg)
        # Start from one step's conditions, so that hits are common, then
        # set and clear sparse random bits.  Every step, and none, is tried
        # as the current one.
        i = data.draw(st.integers(0, len(chain.steps) - 1))
        step = chain.steps[i]
        base = data.draw(st.sampled_from([step.effective_pre, step.effective_run]))
        mask = (base.pos_mask | data.draw(sparse)) & ~data.draw(sparse)
        estimate = LogicalState(chain.goal.vocabulary, mask)
        for current in (None, *range(len(chain.steps))):
            assert select_operator(chain, mask, current) == reference_select(
                chain, estimate, current
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_memoised_selection_matches_select_operator(self, data):
        chain = kitchen_chain(data.draw(st.sampled_from(CHAIN_PROBLEMS)))
        vocab = chain.goal.vocabulary
        n = len(vocab)
        sparse = st.tuples(*[st.integers(0, (1 << n) - 1)] * 3).map(
            lambda t: t[0] & t[1] & t[2]
        )
        # Either copy of the cached chain starts with an empty selection
        # memo; negative conditions make the current step matter.
        if data.draw(st.booleans()):
            chain = with_negative_conditions(chain, data.draw(sparse), data.draw(sparse))
        else:
            chain = dataclasses.replace(chain)
        # Masks near the steps' conditions, drawn from a small pool so that
        # they repeat, and with them the (mask, current step) keys.
        pool = [
            (step.effective_pre.pos_mask | data.draw(sparse)) & ~data.draw(sparse)
            for step in data.draw(st.lists(st.sampled_from(chain.steps), min_size=1, max_size=4))
        ]
        masks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))

        def ticks(memo_chain):
            """The on_tick values of a run through ``masks``, which no goal
            streak or dead end cuts short."""
            seen = []
            run(_ScriptedSim(vocab, masks), PerceptionPipeline(vocab, NoiseModel(), rng=None),
                memo_chain, max_ticks=len(masks), goal_streak=len(masks) + 1,
                stuck_after=len(masks) + 1, on_tick=lambda *values: seen.append(values))
            return seen

        # The reference scans on every change of key: its memo stores nothing.
        reference = dataclasses.replace(chain)
        object.__setattr__(reference, "selections", _Unstored())
        expected = ticks(reference)
        assert ticks(chain) == ticks(chain) == expected  # the second run hits only
        for (mask, current), selected in chain.selections.items():
            assert selected == select_operator(chain, mask, current)
        assert {mask for mask, _ in chain.selections} <= set(masks)

    def test_run_rejects_a_pipeline_from_another_vocabulary(self, g1):
        # select_operator reads bare masks; run checks, once, that the
        # estimate's vocabulary is the chain's.
        grounded, chain = g1
        sim, _ = fresh_setup(grounded)
        pipe = PerceptionPipeline(Vocabulary([]), NoiseModel(), rng=None)
        with pytest.raises(UnknownAtomError):
            run(sim, pipe, chain, max_ticks=10)


class TestNominalRun:
    def test_oracle_reliable_matches_chain_order(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded)
        outcome = run(sim, pipe, chain, max_ticks=400)
        assert outcome.succeeded
        assert not outcome.false_success
        assert outcome.recoveries == 0
        entered = [idx for _, idx, _ in outcome.history]
        assert entered == list(range(16))  # chain order, no skips, no repeats

    def test_budget_one_tick(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded)
        outcome = run(sim, pipe, chain, max_ticks=1)
        assert outcome.status == "budget_exhausted"

    def test_empty_goal_immediate_success(self, g1):
        grounded, _ = g1
        empty_goal = ConditionSet(grounded.vocabulary)
        from chainreact.planner import Plan

        chain = build_chain(Plan((), grounded.init, empty_goal))
        sim, pipe = fresh_setup(grounded)
        outcome = run(sim, pipe, chain, max_ticks=10)
        assert outcome.succeeded
        assert outcome.ticks == 3  # the goal streak gate

    def test_open_gripper_goal_on_a_loaded_gripper_succeeds(self):
        # A goal that names gripper_is_open with an object to put away: the
        # simulator's open_gripper drops what the gripper holds, so a plan
        # that opens the gripper right after grasping loops between the
        # grasp and the open until the budget ends.  open_gripper's
        # (arm_is_free) precondition keeps it out of such plans.
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        vocab = grounded.vocabulary
        goal = ConditionSet(vocab, bits(
            vocab, "obj_is_in_drawer(sugar)", "gripper_is_open", "handle_is_detected"
        ))
        result = plan(grounded, goal=goal)
        assert result.solved
        sim, pipe = fresh_setup(grounded)
        outcome = run(sim, pipe, build_chain(result.plan), max_ticks=600)
        assert (outcome.status, outcome.ticks, outcome.recoveries) == ("succeeded", 48, 0)

    def test_stuck_detection(self, g1):
        grounded, chain = g1
        # A world the chain cannot handle: spam sits in a half-open drawer
        # (neither open nor closed), so no step's entry conditions ever
        # hold and the goal (drawer closed) is unmet.
        world = reference_world()
        world.object_pose["spam"] = ("in_drawer",)
        world.drawer_extension = 0.4
        world.arm_region = ("above_counter", None)
        sim, pipe = fresh_setup(grounded, world=world)
        outcome = run(sim, pipe, chain, max_ticks=200, stuck_after=10)
        assert outcome.status == "stuck"
        # No step is enterable from the first tick: the tenth such tick ends it.
        assert (outcome.ticks, outcome.history) == (10, [])


class TestRecovery:
    def test_primitive_failures_are_retried(self, g1):
        grounded, chain = g1
        succeeded = 0
        for seed in range(20):
            sim, pipe = fresh_setup(grounded, seed=seed, success_prob=0.9)
            outcome = run(sim, pipe, chain, max_ticks=800)
            succeeded += outcome.succeeded
        assert succeeded >= 19

    def test_teleport_during_cage_recovers(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=5)
        disturbances = resolved(
            grounded,
            {"trigger": {"when_operator": "cage_obj(spam)"},
             "kind": {"kind": "teleport_object", "object": "spam",
                      "destination": "counter_random"}},
        )
        outcome = run(sim, pipe, chain, max_ticks=800, disturbances=disturbances)
        assert outcome.succeeded
        assert outcome.recoveries >= 1
        names = [name for _, _, name in outcome.history]
        assert names.count("approach_obj(spam)") >= 2  # revisited after teleport

    def test_goal_jump_when_drawer_springs_open(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=2)
        disturbances = resolved(
            grounded,
            {"trigger": {"when_operator": "approach_drawer_open"},
             "kind": {"kind": "set_drawer", "extension": 1.0}},
        )
        outcome = run(sim, pipe, chain, max_ticks=800, disturbances=disturbances)
        assert outcome.succeeded
        names = [name for _, _, name in outcome.history]
        # The whole cage/grasp/pull/release stretch is skipped.
        assert "grasp_handle" not in names
        assert "pull_drawer" not in names
        entered = [idx for _, idx, _ in outcome.history]
        jump_at = names.index("approach_drawer_open")
        assert entered[jump_at + 1] > entered[jump_at] + 1  # jumped forward

    def test_drawer_slam_with_teleport_back_recovers(self, g1):
        # The object is knocked out of the gripper back onto the counter
        # and the drawer slams shut mid-task; the executive must reopen
        # the drawer and redo the pick.
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=3)
        disturbances = resolved(
            grounded,
            {"trigger": {"when_predicate": "obj_is_clear_above_counter(spam)"},
             "kind": {"kind": "teleport_object", "object": "spam",
                      "destination": "counter_random"}},
            {"trigger": {"when_predicate": "obj_is_clear_above_counter(spam)"},
             "kind": {"kind": "set_drawer", "extension": 0.0}},
        )
        outcome = run(sim, pipe, chain, max_ticks=1200, disturbances=disturbances)
        assert outcome.succeeded
        names = [name for _, _, name in outcome.history]
        assert names.count("pull_drawer") >= 2  # drawer opened twice
        assert outcome.recoveries >= 1

    def test_slam_while_holding_is_an_honest_dead_end(self, g1):
        # Without the teleport the arm is left holding the object with the
        # drawer shut; the chain has no put-down step, so the executive
        # reports stuck rather than thrash.
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=3)
        disturbances = resolved(
            grounded,
            {"trigger": {"when_predicate": "obj_is_clear_above_counter(spam)"},
             "kind": {"kind": "set_drawer", "extension": 0.0}},
        )
        outcome = run(sim, pipe, chain, max_ticks=1200, disturbances=disturbances)
        assert outcome.status == "stuck"


class TestOpenLoop:
    def test_nominal_open_loop_succeeds(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=1)
        outcome = run(sim, pipe, chain, max_ticks=400, open_loop=True)
        assert outcome.succeeded
        assert outcome.recoveries == 0

    def test_teleport_breaks_open_loop(self, g1):
        grounded, chain = g1
        for seed in range(10):
            sim, pipe = fresh_setup(grounded, seed=seed)
            disturbances = resolved(
                grounded,
                {"trigger": {"when_operator": "cage_obj(spam)"},
                 "kind": {"kind": "teleport_object", "object": "spam",
                          "destination": "counter_random"}},
            )
            outcome = run(sim, pipe, chain, max_ticks=800, disturbances=disturbances,
                          open_loop=True)
            assert outcome.status == "stuck"  # ran through, goal unmet

    def test_failure_without_retry_breaks_open_loop(self, g1):
        grounded, chain = g1
        # With flaky primitives the reactive run retries and wins while the
        # open loop marches on and loses, on the same seed.
        flaky_failures = 0
        for seed in range(30):
            sim, pipe = fresh_setup(grounded, seed=seed, success_prob=0.8)
            open_out = run(sim, pipe, chain, max_ticks=800, open_loop=True)
            sim2, pipe2 = fresh_setup(grounded, seed=seed, success_prob=0.8)
            reactive_out = run(sim2, pipe2, chain, max_ticks=800)
            flaky_failures += not open_out.succeeded
            assert reactive_out.succeeded
        assert flaky_failures > 10


class TestNoisyPerception:
    def test_noisy_run_succeeds_with_goal_streak(self, g1):
        grounded, chain = g1
        wins = 0
        for seed in range(10):
            sim, pipe = fresh_setup(
                grounded, seed=seed, noise=NoiseModel(default_flip=0.03)
            )
            outcome = run(sim, pipe, chain, max_ticks=1000, goal_streak=3)
            wins += outcome.succeeded and not outcome.false_success
        assert wins >= 8

    def test_goal_streak_one_reproduces_bare_loop(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=4)
        outcome = run(sim, pipe, chain, max_ticks=400, goal_streak=1)
        assert outcome.succeeded

    def test_trace_callback_sees_every_tick(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=6)
        records, on_tick = tick_records(chain)
        outcome = run(sim, pipe, chain, max_ticks=400, on_tick=on_tick)
        assert len(records) == outcome.ticks
        assert records[0]["tick"] == 0
        assert records[-1]["primitive_phase"] == "goal_reached"
        for rec in records:  # oracle mode: estimates equal truth
            assert rec["estimated_atoms"] == rec["true_atoms"]


class TestMoreTriggers:
    def test_at_tick_detach_gripper(self, g1):
        # Knock the load out of the gripper at a fixed tick mid-carry; the
        # executive must re-pick and still finish.
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=8)
        # Find a tick while spam is held: run once undisturbed to locate it.
        probe_sim, probe_pipe = fresh_setup(grounded, seed=8)
        held_tick = None
        records, on_tick = tick_records(chain)
        run(probe_sim, probe_pipe, chain, max_ticks=400, on_tick=on_tick)
        for rec in records:
            if "obj_is_clear_above_counter(spam)" in rec["true_atoms"]:
                held_tick = rec["tick"]
                break
        assert held_tick is not None
        disturbances = resolved(
            grounded,
            {"trigger": {"at_tick": held_tick}, "kind": {"kind": "detach_gripper"}},
        )
        outcome = run(sim, pipe, chain, max_ticks=800, disturbances=disturbances)
        assert outcome.succeeded
        assert outcome.recoveries >= 1

    def test_at_tick_fires_once(self, g1):
        grounded, chain = g1
        sim, pipe = fresh_setup(grounded, seed=9)
        disturbances = resolved(
            grounded,
            {"trigger": {"at_tick": 2}, "kind": {"kind": "set_drawer", "extension": 1.0}},
        )
        records, on_tick = tick_records(chain)
        outcome = run(sim, pipe, chain, max_ticks=400, disturbances=disturbances,
                      on_tick=on_tick)
        fired = [r["tick"] for r in records if r["disturbances_fired"]]
        assert fired == [2]
        assert outcome.succeeded

    def test_schema_trigger_fires_on_first_start_of_any_ground_operator(self):
        # put_away_both cages both objects.  "cage_obj" names the schema and
        # fires once, on whichever cage starts first; "cage_obj(X)" fires
        # only on X's cage.  Up to the firing tick a disturbed run is the
        # undisturbed one, so the firing tick is a start tick of that run.
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        chain = build_chain(plan(grounded).plan)
        outcome = run(*fresh_setup(grounded, seed=3), chain, max_ticks=600)
        cage_starts = {name: tick for tick, _, name in outcome.history if name.startswith("cage_obj")}
        assert sorted(cage_starts) == ["cage_obj(spam)", "cage_obj(sugar)"]
        first, second = sorted(cage_starts, key=cage_starts.get)

        def fired_ticks(trigger):
            (disturbance,) = resolved(
                grounded,
                {"trigger": {"when_operator": trigger},
                 "kind": {"kind": "set_drawer", "extension": 1.0}},
            )
            records, on_tick = tick_records(chain)
            run(*fresh_setup(grounded, seed=3), chain, max_ticks=600,
                disturbances=(disturbance,), on_tick=on_tick)
            return disturbance, [r["tick"] for r in records if r["disturbances_fired"]]

        schema, fired = fired_ticks("cage_obj")
        assert {grounded.operators[i].name for i in schema.operators} == set(cage_starts)
        assert fired == [cage_starts[first]]
        one, fired = fired_ticks(second)
        assert [grounded.operators[i].name for i in one.operators] == [second]
        assert fired == [cage_starts[second]]


# Random domains the kitchen cannot express: six nullary atoms and six
# actions, each with one to three precondition literals negated with
# probability 0.3, a run condition that keeps each of them with probability
# 0.5, and one to three effect literals.  A goal is one to three literals
# that hold in a state at least two steps from the initial one, and that
# no plan of fewer than two steps reaches.  SymbolicSim runs them with exact
# perception and a goal streak of 1, and one disturbance that resets the
# world to a random mask.  Each example draws one seed, and from it one of
# 200 domains, each made once, a primitive length and the trial's seed:
# hypothesis's own cost per drawn value is about that of a run.
SYMBOLIC_ATOMS = tuple(f"a{i}" for i in range(6))
SEEDS = st.integers(0, 2**32 - 1)


def _literals(rng, negated):
    return frozenset(
        LiftedLiteral(LiftedAtom(atom), rng.random() >= negated)
        for atom in rng.sample(SYMBOLIC_ATOMS, rng.randint(1, 3))
    )


@functools.lru_cache(maxsize=None)
def symbolic_plan(seed):
    """A random domain, grounded, and a plan of it, both drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        domain = DomainDefinition("symbolic", predicates=list(map(PredicateSchema, SYMBOLIC_ATOMS)))
        for i in range(6):
            pre = _literals(rng, 0.3)
            run_cond = frozenset(lit for lit in pre if rng.random() < 0.5)
            domain.operators.append(
                OperatorSchema(f"op{i}", (), pre, run_cond, _literals(rng, 0.4), f"op{i}")
            )
        init = frozenset(LiftedAtom(a) for a in SYMBOLIC_ATOMS if rng.random() < 0.5)
        grounded = ground(domain, ProblemDefinition("p", {}, init, frozenset()))
        # The states of each breadth-first layer from the initial one.
        layers, seen = [[grounded.init.mask]], {grounded.init.mask}
        while layers[-1]:
            layers.append([])
            for mask in layers[-2]:
                for op in grounded.operators:
                    after = mask & ~op.eff.del_mask | op.eff.add_mask
                    if meets(mask, op.pre) and after not in seen:
                        seen.add(after)
                        layers[-1].append(after)
        far = [mask for layer in layers[2:] for mask in layer]
        for _ in range(10 if far else 0):
            state = rng.choice(far)
            atoms = sum(1 << i for i in rng.sample(range(6), rng.randint(1, 3)))
            goal = ConditionSet(grounded.vocabulary, atoms & state, atoms & ~state)
            result = plan(grounded, goal=goal)
            if len(result.plan) >= 2:
                return grounded, result.plan


def symbolic_case(seed):
    """A domain of the 200, its plan, the longest primitive (1 to 3 ticks)
    and a Random to draw the rest from, all drawn from ``seed``."""
    rng = random.Random(seed)
    grounded, p = symbolic_plan(rng.randrange(200))
    return grounded, p, rng.randint(1, 3), rng


def symbolic_run(grounded, chain, seed, longest, success_prob=1.0, max_ticks=10_000,
                 stuck_after=10):
    """The sim, outcome and on_tick values of one run of ``chain`` on
    SymbolicSim, with primitives of 1 to ``longest`` ticks.  The reset mask
    and the disturbance's tick are drawn from ``seed``, the tick below steps
    x ``longest``, the most the plan's own run can take."""
    rng = random.Random(seed)
    sim = SymbolicSim(grounded, rng, 1, longest, success_prob,
                      reset=rng.getrandbits(len(SYMBOLIC_ATOMS)))
    seen = []
    outcome = run(
        sim, PerceptionPipeline(grounded.vocabulary, rng=None), chain, max_ticks,
        goal_streak=1, stuck_after=stuck_after,
        disturbances=[Disturbance("reset", at_tick=rng.randrange(len(chain.steps) * longest))],
        on_tick=lambda *values: seen.append(values),
    )
    return sim, outcome, seen


def enterable_or_done(chain, mask):
    """Whether the goal or some step's effective precondition holds in ``mask``."""
    return meets(mask, chain.goal) or any(meets(mask, s.effective_pre) for s in chain.steps)


class TestGuaranteeOnSymbolicDomains:
    """The chain's promise through executive.run: entering a step whose
    effective conditions hold is safe for the rest of the chain, also under
    negative preconditions and goals.  Each test checks two properties on
    every example, since hypothesis's own cost per example is about that of
    the runs."""

    @settings(max_examples=1000, deadline=None)
    @given(SEEDS)
    def test_from_where_a_step_or_the_goal_holds_the_run_succeeds_within_the_bound(
        self, seed
    ):
        # With reliable primitives the plan's own run takes at most steps x
        # longest ticks, and so does the run from the reset: 2 x steps x
        # longest + 1 ticks cover both and the goal check, a step's worth
        # of ticks inside the bound of 2 x steps x (longest + 1).  With
        # primitives that fail, the run still succeeds, later.
        grounded, p, longest, rng = symbolic_case(seed)
        chain = build_chain(p)
        steps, trial = len(chain.steps), rng.getrandbits(32)
        sim, outcome, _ = symbolic_run(grounded, chain, trial, longest,
                                       max_ticks=2 * steps * (longest + 1))
        if not sim.fired or enterable_or_done(chain, sim.reset):
            assert outcome.succeeded and outcome.ticks <= 2 * steps * longest + 1
        sim, outcome, _ = symbolic_run(grounded, chain, trial, longest, rng.choice([0.5, 0.8]))
        if not sim.fired or enterable_or_done(chain, sim.reset):
            assert outcome.succeeded

    @settings(max_examples=1000, deadline=None)
    @given(SEEDS)
    def test_stuck_only_after_stuck_after_ticks_with_no_step_enterable_warm_memo_or_not(
        self, seed
    ):
        # The run is made on a chain whose selection memo an earlier run
        # warmed, and on a fresh chain, and the two are equal.
        grounded, p, longest, rng = symbolic_case(seed)
        stuck_after = rng.randint(1, 4)
        warm = build_chain(p)
        symbolic_run(grounded, warm, rng.getrandbits(32), longest, 0.8, stuck_after=stuck_after)
        assert warm.selections
        trial = rng.getrandbits(32)
        (outcome, seen), fresh = (
            symbolic_run(grounded, chain, trial, longest, 0.8, stuck_after=stuck_after)[1:]
            for chain in (warm, build_chain(p))
        )
        assert (outcome, seen) == fresh
        none = [reason == NONE_ENTERABLE for _, _, _, _, reason, _, _ in seen]
        first = next((i for i in range(stuck_after, len(none) + 1)
                      if all(none[i - stuck_after:i])), None)
        if first is None:
            assert outcome.status != "stuck"
        else:
            assert (outcome.status, outcome.ticks, len(seen)) == ("stuck", first, first)
            assert not any(enterable_or_done(warm, truth) for _, truth, *_ in seen[-stuck_after:])


# Both executives over a fixed grid: seeds 0-19, two primitive success
# probabilities, no disturbance, a teleport on cage_obj(spam), a drawer
# slam at tick 40 and one once spam is in the drawer, at a tick budget that
# cuts some runs short and at one that does not.  The reactive executive
# runs each case with exact perception and again with noisy perception
# (flip 0.05, window 3, group suffix "/noisy").  tests/executive_pins.json
# holds, for every case, its status, ticks, recoveries and digests of its
# start history and of its on_tick records.  Regenerate it with
# `python -m tests.test_executive` only when a change to the executive's
# outcomes is intended.
PINS_PATH = Path(__file__).resolve().parent / "executive_pins.json"
PIN_DISTURBANCES = {
    "none": (),
    "teleport_on_cage": (
        {"trigger": {"when_operator": "cage_obj(spam)"},
         "kind": {"kind": "teleport_object", "object": "spam",
                  "destination": "counter_random"}},
    ),
    "slam_at_40": (
        {"trigger": {"at_tick": 40}, "kind": {"kind": "set_drawer", "extension": 0.0}},
    ),
    "pred_slam": (
        {"trigger": {"when_predicate": "obj_is_in_drawer(spam)"},
         "kind": {"kind": "set_drawer", "extension": 0.0}},
    ),
}
PIN_NOISE = NoiseModel(default_flip=0.05)
PIN_GROUPS = [
    f"{executive}/p{prob}/{dist}/max{budget}{noise}"
    for executive in ("reactive", "open_loop")
    for noise in (("", "/noisy") if executive == "reactive" else ("",))
    for prob in (1.0, 0.8)
    for dist in PIN_DISTURBANCES
    for budget in (64, 400)
]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:12]


def _pinned_case(grounded, chain, group, seed):
    """One run of ``group`` at ``seed``: its pin line and its records."""
    executive, prob, dist, budget, *noisy = group.split("/")
    sim, pipe = fresh_setup(grounded, seed=seed, success_prob=float(prob[1:]),
                            noise=PIN_NOISE if noisy else None)
    disturbances = resolved(grounded, *PIN_DISTURBANCES[dist], max_ticks=int(budget[3:]))
    records, on_tick = tick_records(chain)
    outcome = run(sim, pipe, chain, max_ticks=int(budget[3:]),
                  disturbances=disturbances, on_tick=on_tick,
                  open_loop=executive == "open_loop")
    line = (
        f"{outcome.status} {outcome.ticks} {outcome.recoveries} "
        f"h:{_digest(outcome.history)} r:{_digest(records)}"
    )
    return line, outcome, records


def _observed_pins(grounded, chain) -> dict:
    return {
        group: [_pinned_case(grounded, chain, group, seed)[0] for seed in range(20)]
        for group in PIN_GROUPS
    }


class TestPinnedRuns:
    @pytest.mark.parametrize("group", PIN_GROUPS)
    def test_outcomes_and_records_match_pins(self, g1, group):
        grounded, chain = g1
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))[group]
        budget = int(group.split("/")[3][3:])
        for seed, pin in enumerate(pins):
            line, outcome, records = _pinned_case(grounded, chain, group, seed)
            assert line == pin, f"seed {seed}"
            assert not outcome.false_success
            # Tick lines per status: one per counted tick, except that the
            # open loop's final goal check after its last step writes one
            # more, with no decision.
            extra = group.startswith("open_loop") and outcome.status != "budget_exhausted"
            assert len(records) == outcome.ticks + extra
            assert [r["tick"] for r in records] == list(range(len(records)))
            if outcome.status == "budget_exhausted":
                assert outcome.ticks == budget
            if extra:
                assert records[-1]["reason"] is None
                assert records[-1]["primitive_phase"] == (
                    "goal_reached" if outcome.succeeded else "idle"
                )

    def test_grid_reaches_every_status_under_both_executives(self):
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
        for executive in ("reactive", "open_loop"):
            statuses = {
                line.split()[0]
                for group, lines in pins.items() if group.startswith(executive + "/")
                for line in lines
            }
            assert statuses == {"succeeded", "stuck", "budget_exhausted"}


if __name__ == "__main__":
    _grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
    _chain = build_chain(plan(_grounded).plan)
    PINS_PATH.write_text(
        json.dumps(_observed_pins(_grounded, _chain), indent=1) + "\n", encoding="utf-8"
    )
