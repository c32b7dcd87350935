"""Kitchen simulator: predicate evaluation, sampling, primitives, alignment.

The alignment invariant (a successfully completed operator leaves the world
satisfying its symbolic adds and none of its deletes) is checked for all 21
ground operators by driving the nominal plans op by op with success
probability 1 and inspecting the evaluated state after every completion.
"""

import copy
import dataclasses
import json
import math
import re
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainreact import kitchen
from chainreact.chains import build_chain
from chainreact.executive import run
from chainreact.kitchen import (
    ABOVE,
    DRAWER_CLOSED_AT,
    DRIVING,
    DRAWER_OPEN_AT,
    GRIPPER_OPEN_AT,
    HANDLE,
    MAX_MOVABLES,
    NUM_COUNTER_ZONES,
    OUTCOMES,
    WRITTEN_PREDICATES,
    InitialConfig,
    KitchenSim,
    PrimitiveSpec,
    UnknownBindingError,
    WorldState,
    contract_problems,
    evaluate_world,
    sample_initial,
    world_key,
)
from chainreact.lang import parse_problem
from chainreact.logic import LogicalState, UnknownAtomError, apply_effects, holds
from chainreact.perception import NoiseModel, PerceptionPipeline
from chainreact.planner import ground, plan
from tests.util import (
    bits,
    kitchen_domain,
    kitchen_problem,
    primitives,
    problem_source,
    reference_world,
    table_truth,
)


@pytest.fixture(scope="module")
def grounded():
    return ground(kitchen_domain(), kitchen_problem("put_away_spam"))


def names_of(grounded, mask):
    return set(grounded.vocabulary.names_of(mask))


def state(grounded, mask):
    """The truth mask as a LogicalState, for logic.holds and apply_effects."""
    return LogicalState(grounded.vocabulary, mask)


def reliable_sim(grounded, world, seed=0, success_prob=1.0):
    """A simulator whose primitives all succeed, or at success_prob 0 all fail."""
    prims = primitives(success_prob)
    rng = np.random.default_rng(seed)
    return KitchenSim(grounded, world, prims, rng, rng)


def run_op(sim, op):
    prim = sim.start_primitive(op)
    while prim.phase == "running":
        sim.tick()
    return prim


class TestEvaluateWorld:
    def test_k1(self, grounded):
        truth = evaluate_world(reference_world(), grounded)
        assert names_of(grounded, truth) == {
            "arm_in_driving_posture",
            "gripper_is_open",
            "arm_is_free",
            "drawer_is_closed",
            "obj_is_on_counter(spam)",
            "obj_is_on_counter(sugar)",
            "obj_is_detected(spam)",
            "obj_is_detected(sugar)",
            "obj_is_tracked(spam)",
            "obj_is_tracked(sugar)",
            "handle_is_detected",
            "handle_is_tracked",
        }

    def test_transit_band(self, grounded):
        world = reference_world()
        world.drawer_extension = 0.4
        truth = evaluate_world(world, grounded)
        assert "drawer_is_open" not in names_of(grounded, truth)
        assert "drawer_is_closed" not in names_of(grounded, truth)

    def test_attached_object(self, grounded):
        world = reference_world()
        world.attached = "spam"
        world.gripper_aperture = 0.2
        world.object_pose["spam"] = ("held",)
        world.arm_region = ("above_counter", None)
        names = names_of(grounded, evaluate_world(world, grounded))
        assert "arm_is_attached_to_obj(spam)" in names
        assert "obj_is_attached(spam)" in names
        assert "arm_is_free" not in names
        assert "gripper_is_open" not in names
        assert "obj_is_clear_above_counter(spam)" in names

    def test_object_hidden_in_closed_drawer(self, grounded):
        world = reference_world()
        world.object_pose["spam"] = ("in_drawer",)
        names = names_of(grounded, evaluate_world(world, grounded))
        assert "obj_is_detected(spam)" not in names
        assert "obj_is_in_drawer(spam)" in names
        world.drawer_extension = 1.0
        names = names_of(grounded, evaluate_world(world, grounded))
        assert "obj_is_detected(spam)" in names

    def test_total_and_deterministic(self, grounded):
        rng = np.random.default_rng(5)
        regions = [
            ("driving", None), ("above_counter", None), ("approach", "spam"),
            ("around", "handle"), ("near_handle", None), ("front_of_drawer", None),
            ("over_drawer", None), ("in_drawer", None),
        ]
        for _ in range(200):
            world = WorldState(
                arm_region=regions[rng.integers(len(regions))],
                gripper_aperture=float(rng.random()),
                attached=None,
                drawer_extension=float(rng.random()),
                object_pose={
                    "spam": ("counter", 0),
                    "sugar": ("in_drawer",) if rng.random() < 0.5 else ("counter", 1),
                },
            )
            a = evaluate_world(world, grounded)
            b = evaluate_world(world, grounded)
            assert a == b  # and every atom is inside the 42-atom vocabulary
            assert a < (1 << 42)

    def test_object_outside_vocabulary_raises(self, grounded):
        world = reference_world(("spam", "sugar", "salt"))
        with pytest.raises(UnknownAtomError, match=r"salt"):
            evaluate_world(world, grounded)


REGIONS = [
    ("driving", None), ("above_counter", None), ("near_handle", None),
    ("front_of_drawer", None), ("over_drawer", None), ("in_drawer", None),
    *((kind, target) for kind in ("approach", "around") for target in (HANDLE, "spam", "sugar")),
]
# Every threshold, on it and one float either side, and values between.
LEVELS = sorted({0.0, 0.2, 0.4, 1.0} | {
    level
    for at in (DRAWER_CLOSED_AT, DRAWER_OPEN_AT, GRIPPER_OPEN_AT)
    for level in (math.nextafter(at, 0.0), at, math.nextafter(at, 1.0))
})


def valid(world):
    try:
        world.validate()
    except ValueError:
        return False
    return True


@st.composite
def worlds(draw):
    """A valid world over spam and sugar, its objects in either dict order."""
    zones = iter(draw(st.permutations(range(NUM_COUNTER_ZONES))))
    poses = {}
    for obj in draw(st.permutations(["spam", "sugar"])):
        kind = draw(st.sampled_from(["counter", "held", "over_drawer", "in_drawer"]))
        poses[obj] = ("counter", next(zones)) if kind == "counter" else (kind,)
    level = st.sampled_from(LEVELS) | st.floats(0.0, 1.0)
    world = WorldState(
        arm_region=draw(st.sampled_from(REGIONS)),
        gripper_aperture=draw(level),
        attached=draw(st.sampled_from([None, HANDLE, "spam", "sugar"])),
        drawer_extension=draw(level),
        object_pose=poses,
        arm_moving=draw(st.booleans()),
    )
    assume(valid(world))
    return world


@st.composite
def neighbours(draw):
    """A valid world and a valid copy with one field redrawn, which often
    leaves the key as it was."""
    world, other = draw(worlds()), draw(worlds())
    name = draw(st.sampled_from([f.name for f in dataclasses.fields(WorldState)]))
    twin = dataclasses.replace(world, **{name: getattr(other, name)})
    assume(valid(twin))
    return world, twin


class TestWorldKey:
    """The truth is a function of world_key, and the simulator's memo
    holds each key's truth once."""

    @settings(max_examples=300, deadline=None)
    @given(pair=neighbours())
    def test_truth_is_the_table_truth_of_the_key(self, grounded, pair):
        vocab = grounded.vocabulary
        for world in pair:
            truth = bits(vocab, *table_truth(world))
            assert evaluate_world(world, grounded) == truth
            # The memo may hold this key from another world: its value is
            # still this world's truth.
            assert reliable_sim(grounded, world).eval_predicates() == truth
            assert grounded._truth_by_key[world_key(world)] == truth
        if world_key(pair[0]) == world_key(pair[1]):
            assert table_truth(pair[0]) == table_truth(pair[1])

    @pytest.mark.parametrize("ext", [DRAWER_OPEN_AT, DRAWER_CLOSED_AT])
    def test_drawer_reads_from_each_threshold_on(self, grounded, ext):
        world = reference_world()
        world.drawer_extension = ext
        names = names_of(grounded, evaluate_world(world, grounded))
        assert ("drawer_is_open" in names) == (ext == DRAWER_OPEN_AT)
        assert ("drawer_is_closed" in names) == (ext == DRAWER_CLOSED_AT)
        # One float past the threshold, into the transit band, neither holds.
        world.drawer_extension = math.nextafter(ext, 0.4)
        names = names_of(grounded, evaluate_world(world, grounded))
        assert not {"drawer_is_open", "drawer_is_closed"} & names

    def test_gripper_reads_open_from_the_threshold_on(self, grounded):
        world = reference_world()
        world.gripper_aperture = GRIPPER_OPEN_AT
        assert "gripper_is_open" in names_of(grounded, evaluate_world(world, grounded))
        world.attached = HANDLE
        with pytest.raises(ValueError, match="attached entity with an open gripper"):
            world.validate()
        world.gripper_aperture = math.nextafter(GRIPPER_OPEN_AT, 0.0)
        world.validate()
        assert "gripper_is_open" not in names_of(grounded, evaluate_world(world, grounded))

    def test_memo_holds_one_entry_per_key_seen(self, monkeypatch):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        seen, computed = set(), []

        def recording_key(world):
            key = world_key(world)
            seen.add(key)
            return key

        def recording_truth(key, g, truth_of_key=kitchen._truth_of_key):
            computed.append(key)
            return truth_of_key(key, g)

        monkeypatch.setattr(kitchen, "world_key", recording_key)
        monkeypatch.setattr(kitchen, "_truth_of_key", recording_truth)
        chain = build_chain(plan(grounded).plan)
        config = InitialConfig(objects="anywhere", drawer="mixed")
        for seed in range(10):
            rng = np.random.default_rng(seed)
            world = sample_initial(config, grounded.movables, rng)
            sim = KitchenSim(grounded, world, primitives(0.8), rng, rng)
            pipe = PerceptionPipeline(grounded.vocabulary, NoiseModel(), window=1, rng=rng)
            run(sim, pipe, chain, max_ticks=300)
        assert len(seen) > 20
        assert len(computed) == len(seen)
        assert set(grounded._truth_by_key) == seen

    def test_unknown_object_raises_on_every_read_and_is_never_stored(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
        sim = reliable_sim(grounded, reference_world(("spam", "sugar", "salt")))
        message = r"atom obj_is_on_counter\(salt\) is not in the vocabulary"
        for _ in range(2):
            with pytest.raises(UnknownAtomError, match=message):
                sim.eval_predicates()
        assert grounded._truth_by_key == {}


class TestSampleInitial:
    def test_counter_only_closed(self, grounded):
        cfg = InitialConfig(objects="counter_only", drawer="closed")
        for seed in range(50):
            world = sample_initial(cfg, ("spam", "sugar"), np.random.default_rng(seed))
            assert world.drawer_extension == 0.0
            assert all(p[0] == "counter" for p in world.object_pose.values())

    def test_distinct_zones(self):
        cfg = InitialConfig()
        for seed in range(200):
            world = sample_initial(cfg, ("spam", "sugar"), np.random.default_rng(seed))
            zones = [p[1] for p in world.object_pose.values() if p[0] == "counter"]
            assert len(zones) == len(set(zones))

    def test_drawer_distribution(self):
        cfg = InitialConfig(drawer="mixed", drawer_open_prob=0.5)
        opened = 0
        trials = 1000
        for seed in range(trials):
            world = sample_initial(cfg, ("spam", "sugar"), np.random.default_rng(seed))
            assert world.drawer_extension == 0.0 or world.drawer_extension >= DRAWER_OPEN_AT
            if world.drawer_extension >= DRAWER_OPEN_AT:
                opened += 1
        assert abs(opened / trials - 0.5) < 0.03

    def test_arm_above_starts_above_and_draws_nothing_for_the_arm(self):
        # Like "driving", "above" draws nothing, so both leave the generator
        # in the same state.
        for seed in range(50):
            rngs = {arm: np.random.default_rng(seed) for arm in ("above", "driving")}
            worlds = {arm: sample_initial(InitialConfig(arm=arm), ("spam", "sugar"), rng)
                      for arm, rng in rngs.items()}
            assert worlds["above"].arm_region == ABOVE
            assert worlds["driving"].arm_region == (DRIVING, None)
            assert rngs["above"].random() == rngs["driving"].random()

    def test_arm_random_gives_both_starts(self):
        regions = {
            sample_initial(InitialConfig(arm="random"), ("spam", "sugar"),
                           np.random.default_rng(seed)).arm_region
            for seed in range(50)
        }
        assert regions == {ABOVE, (DRIVING, None)}

    def test_deterministic_per_seed(self):
        cfg = InitialConfig(objects="anywhere", drawer="mixed", arm="random")
        a = sample_initial(cfg, ("spam", "sugar"), np.random.default_rng(77))
        b = sample_initial(cfg, ("spam", "sugar"), np.random.default_rng(77))
        assert a == b


class TestPrimitives:
    def test_unknown_schema_raises_before_any_draw(self, grounded):
        op = grounded.operator_named("back_off")
        retreat = dataclasses.replace(
            op, schema=dataclasses.replace(op.schema, name="retreat")
        )
        sim = reliable_sim(grounded, reference_world())
        state = sim.rng.bit_generator.state
        with pytest.raises(UnknownBindingError, match="retreat"):
            sim.start_primitive(retreat)
        assert sim.rng.bit_generator.state == state
        assert sim.current is None and not sim.world.arm_moving

    def test_unknown_binding(self, grounded):
        rng = np.random.default_rng(0)
        prims = {"cage": PrimitiveSpec(1, 1)}
        sim = KitchenSim(grounded, reference_world(), prims, rng, rng)
        with pytest.raises(UnknownBindingError):
            sim.start_primitive(grounded.operator_named("back_off"))

    def test_duration_range_pull(self, grounded):
        durations = set()
        for seed in range(100):
            sim = reliable_sim(grounded, reference_world(), seed)
            prim = sim.start_primitive(grounded.operator_named("pull_drawer"))
            durations.add(prim.ticks_remaining)
        assert durations == {4, 5, 6, 7, 8}

    def test_duration_range_open_gripper(self, grounded):
        # No shipped trial starts open_gripper: every shipped scenario's
        # gripper starts open.
        durations = set()
        for seed in range(50):
            sim = reliable_sim(grounded, reference_world(), seed)
            prim = sim.start_primitive(grounded.operator_named("open_gripper"))
            durations.add(prim.ticks_remaining)
        assert durations == {1, 2}

    def test_success_prob_one_always_succeeds(self, grounded):
        for seed in range(50):
            sim = reliable_sim(grounded, reference_world(), seed)
            prim = sim.start_primitive(grounded.operator_named("open_gripper"))
            assert prim.will_succeed

    def test_arm_moving_during_primitive(self, grounded):
        sim = reliable_sim(grounded, reference_world())
        sim.start_primitive(grounded.operator_named("back_off"))
        assert "arm_is_moving" in names_of(grounded, sim.eval_predicates())
        while sim.current is not None:
            sim.tick()
        assert "arm_is_moving" not in names_of(grounded, sim.eval_predicates())

    def test_failed_grasp_leaves_nothing_attached(self, grounded):
        world = reference_world()
        world.arm_region = ("around", "spam")
        prims = primitives(0.0)
        rng = np.random.default_rng(1)
        sim = KitchenSim(grounded, world, prims, rng, rng)
        run_op(sim, grounded.operator_named("grasp_obj", ("spam",)))
        names = names_of(grounded, sim.eval_predicates())
        assert "arm_is_attached_to_obj(spam)" not in names
        assert "gripper_is_open" in names  # re-opened for a retry

    def test_drawer_transit_during_pull(self, grounded):
        world = reference_world()
        world.arm_region = ("around", "handle")
        world.attached = "handle"
        world.gripper_aperture = 0.2
        sim = reliable_sim(grounded, world)
        prim = sim.start_primitive(grounded.operator_named("pull_drawer"))
        mid_seen = False
        while prim.phase == "running":
            sim.tick()
            names = names_of(grounded, sim.eval_predicates())
            if prim.phase == "running" and "drawer_is_open" not in names and "drawer_is_closed" not in names:
                mid_seen = True
        assert mid_seen
        assert sim.world.drawer_extension == 1.0

    def test_failed_pull_slips_partway(self, grounded):
        world = reference_world()
        world.arm_region = ("around", "handle")
        world.attached = "handle"
        world.gripper_aperture = 0.2
        prims = primitives(0.0)
        rng = np.random.default_rng(3)
        sim = KitchenSim(grounded, world, prims, rng, rng)
        run_op(sim, grounded.operator_named("pull_drawer"))
        assert 0.0 < sim.world.drawer_extension < DRAWER_OPEN_AT
        assert sim.world.attached is None
        assert sim.world.gripper_aperture == 1.0

    def test_abort_keeps_world(self, grounded):
        world = reference_world()
        world.arm_region = ("around", "handle")
        world.attached = "handle"
        world.gripper_aperture = 0.2
        sim = reliable_sim(grounded, world)
        sim.start_primitive(grounded.operator_named("pull_drawer"))
        sim.tick()
        ext = sim.world.drawer_extension
        sim.abort_primitive()
        assert sim.current is None
        assert sim.world.drawer_extension == ext  # progress neither lost nor finished
        assert 0 < ext < 1


class TestDisturbances:
    def test_teleport_detaches_held_object(self, grounded):
        world = reference_world()
        world.attached = "sugar"
        world.gripper_aperture = 0.2
        world.object_pose["sugar"] = ("held",)
        world.arm_region = ("above_counter", None)
        sim = reliable_sim(grounded, world)
        sim.apply_disturbance("teleport_object", "sugar")
        assert sim.world.attached is None
        assert sim.world.object_pose["sugar"][0] == "counter"
        names = names_of(grounded, sim.eval_predicates())
        assert "obj_is_on_counter(sugar)" in names
        assert "arm_is_free" in names

    def test_teleport_resets_arm_region(self, grounded):
        world = reference_world()
        world.arm_region = ("around", "spam")
        sim = reliable_sim(grounded, world)
        sim.apply_disturbance("teleport_object", "spam")
        assert sim.world.arm_region == ("above_counter", None)

    def test_set_drawer_keeps_objects_inside(self, grounded):
        world = reference_world()
        world.drawer_extension = 1.0
        world.object_pose["spam"] = ("in_drawer",)
        sim = reliable_sim(grounded, world)
        sim.apply_disturbance("set_drawer", extension=0.0)
        names = names_of(grounded, sim.eval_predicates())
        assert "drawer_is_closed" in names
        assert "obj_is_in_drawer(spam)" in names

    def test_set_drawer_lets_go_of_the_handle(self, grounded):
        world = loaded_world(("around", "handle"), "handle")
        sim = reliable_sim(grounded, world)
        sim.apply_disturbance("set_drawer", extension=1.0)
        w = sim.world
        assert (w.attached, w.gripper_aperture, w.arm_region) == (
            None, 1.0, ("near_handle", None)
        )
        assert w.drawer_extension == 1.0

    @pytest.mark.parametrize("region", [("over_drawer", None), ("in_drawer", None)])
    def test_detach_over_or_in_the_drawer_drops_into_it(self, grounded, region):
        sim = reliable_sim(grounded, loaded_world(region, "spam", ("over_drawer",)))
        sim.apply_disturbance("detach_gripper")
        assert sim.world.attached is None
        assert sim.world.object_pose["spam"] == ("in_drawer",)

    def test_detach_noop_when_free(self, grounded):
        sim = reliable_sim(grounded, reference_world())
        before = copy.deepcopy(sim.world)
        sim.apply_disturbance("detach_gripper")
        assert sim.world == before

    def test_teleport_to_taken_zone_draws_a_free_one(self, grounded):
        # reference_world puts spam on zone 0 and sugar on zone 1
        for seed in range(10):
            sim = reliable_sim(grounded, reference_world(), seed)
            sim.apply_disturbance("teleport_object", "spam", zone=1)
            assert sim.world.object_pose["spam"][0] == "counter"
            assert sim.world.object_pose["spam"][1] not in (0, 1)

    def test_teleport_to_own_or_free_zone_goes_there(self, grounded):
        for zone in (0, 4):
            sim = reliable_sim(grounded, reference_world())
            state = sim.world_rng.bit_generator.state
            sim.apply_disturbance("teleport_object", "spam", zone=zone)
            assert sim.world.object_pose["spam"] == ("counter", zone)
            assert sim.world_rng.bit_generator.state == state  # nothing drawn

    @pytest.mark.parametrize(
        "kind, kwargs, message",
        [
            ("teleport_object", {"obj": "spam", "zone": 17}, "invalid teleport zone 17"),
            ("teleport_object", {"obj": "salt"}, "unknown object 'salt'"),
            ("teleport_object", {"obj": "handle"}, "unknown object 'handle'"),
            ("set_drawer", {"extension": 1.5}, "invalid drawer extension 1.5"),
            ("set_drawer", {"extension": -0.25}, "invalid drawer extension -0.25"),
            ("drop_spoon", {}, "unknown disturbance kind 'drop_spoon'"),
        ],
        ids=["zone", "unknown_object", "handle", "extension_above_1",
             "extension_below_0", "unknown_kind"],
    )
    def test_invalid_disturbance_leaves_the_world_alone(self, grounded, kind, kwargs, message):
        sim = reliable_sim(grounded, reference_world())
        before = copy.deepcopy(sim.world)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sim.apply_disturbance(kind, **kwargs)
        assert sim.world == before


class TestAlignment:
    """eval(world after op) must contain the op's adds and none of its deletes."""

    def drive_plan(self, grounded_task, seed=0):
        result = plan(grounded_task)
        assert result.solved
        sim = reliable_sim(grounded_task, reference_world(), seed)
        covered = []
        for op in result.plan.steps:
            before = state(grounded_task, sim.eval_predicates())
            assert holds(before, op.pre), f"{op.name} not enterable in sim"
            prim = run_op(sim, op)
            assert prim.phase == "done"
            after = sim.eval_predicates()
            assert after & op.eff.add_mask == op.eff.add_mask, (
                f"{op.name}: adds missing from world"
            )
            assert after & op.eff.del_mask == 0, (
                f"{op.name}: deletes still true in world"
            )
            covered.append(op.name)
        return covered, sim

    def test_alignment_over_g1_plan(self, grounded):
        covered, sim = self.drive_plan(grounded)
        assert len(covered) == 16
        final = state(grounded, sim.eval_predicates())
        assert holds(final, grounded.goal)

    def test_alignment_over_g2_plan_covers_sugar_ops(self):
        grounded2 = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        covered, sim = self.drive_plan(grounded2)
        assert "lower_obj_into_drawer(sugar)" in covered
        assert holds(state(grounded2, sim.eval_predicates()), grounded2.goal)

    def test_alignment_all_21_operators(self, grounded):
        # The two nominal plans plus a direct open_gripper run cover every
        # ground operator at least once.
        covered, _ = self.drive_plan(grounded)
        grounded2 = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        covered2, _ = self.drive_plan(grounded2)
        seen = set(covered) | set(covered2)

        world = reference_world()
        world.gripper_aperture = 0.0  # start closed so open_gripper is useful
        sim = reliable_sim(grounded, world)
        op = grounded.operator_named("open_gripper")
        run_op(sim, op)
        after = sim.eval_predicates()
        assert after & op.eff.add_mask == op.eff.add_mask
        seen.add("open_gripper")

        all_ops = {o.name for o in grounded.operators}
        assert seen == all_ops


# The frame check on put_away_both with success probability 1: for every
# truth mask the simulator reaches by successful runs, and every operator
# enterable in it, the atoms in which the truth after a successful run
# differs from the STRIPS apply.  tests/frame_pins.json holds the counts
# and, per ground operator, the differing atoms: "+a" where the simulator
# makes a true and the domain does not, "-a" the other way round.  The
# accepted misses are explained in docs/kitchen-domain.md.  Regenerate the
# file with `python -m tests.test_kitchen` only when a change to OUTCOMES,
# kitchen.dpdl or grounding is meant to change them.
FRAME_PINS_PATH = Path(__file__).resolve().parent / "frame_pins.json"


def frame_starts(movables):
    """reference_world(), and one world per other branch of
    sample_initial's support: the drawer open, and an object already in
    the (closed) drawer."""
    opened = reference_world(movables)
    opened.drawer_extension = 1.0
    stored = reference_world(movables)
    stored.object_pose[movables[0]] = ("in_drawer",)
    return [reference_world(movables), opened, stored]


def frame_walk(grounded):
    """Breadth-first over the truth masks reachable from frame_starts() by
    successful runs, one world per mask: the worlds in visiting order, and
    for every operator enterable in one, (the world's truth, the operator,
    the truth mask its successful run leaves)."""
    queue = deque(frame_starts(grounded.movables))
    seen = {evaluate_world(world, grounded) for world in queue}
    worlds, runs = [], []
    while queue:
        world = queue.popleft()
        worlds.append(world)
        truth = state(grounded, evaluate_world(world, grounded))
        for op in grounded.operators:
            if not holds(truth, op.pre):
                continue
            sim = reliable_sim(grounded, copy.deepcopy(world))
            assert run_op(sim, op).phase == "done"
            after = evaluate_world(sim.world, grounded)
            runs.append((truth, op, after))
            if after not in seen:
                seen.add(after)
                queue.append(sim.world)
    return worlds, runs


def frame_check(grounded) -> dict:
    """The frame misses of frame_walk(); see FRAME_PINS_PATH."""
    vocab = grounded.vocabulary
    worlds, runs = frame_walk(grounded)
    missed = 0
    misses: dict[str, set] = {}
    for truth, op, after in runs:
        predicted = apply_effects(truth, op.eff).mask
        diff = [f"+{name}" for name in vocab.names_of(after & ~predicted)]
        diff += [f"-{name}" for name in vocab.names_of(predicted & ~after)]
        missed += bool(diff)
        misses.setdefault(op.name, set()).update(diff)
    return {
        "reachable_masks": len(worlds),
        "enterable_pairs": len(runs),
        "pairs_with_misses": missed,
        "misses": {name: sorted(diff) for name, diff in sorted(misses.items()) if diff},
    }


class TestFrame:
    def test_frame_misses_match_pins(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        pins = json.loads(FRAME_PINS_PATH.read_text(encoding="utf-8"))
        assert frame_check(grounded) == pins

    def test_open_gripper_has_no_frame_miss(self):
        # The domain's open_gripper needs a free arm, so it never drops
        # what the gripper holds behind the domain's back.
        pins = json.loads(FRAME_PINS_PATH.read_text(encoding="utf-8"))
        assert "open_gripper" not in pins["misses"]


class TestTruthCache:
    """eval_predicates() caches the truth and every mutator keeps it right:
    after each call it equals a fresh evaluate_world of the world."""

    @pytest.mark.parametrize("success_prob", [1.0, 0.0])
    def test_cached_truth_equals_evaluated_truth(self, success_prob):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        worlds, _ = frame_walk(grounded)
        for world in worlds:
            truth = state(grounded, evaluate_world(world, grounded))
            for op in grounded.operators:
                if not holds(truth, op.pre):
                    continue

                def check(call):
                    assert sim.eval_predicates() == evaluate_world(sim.world, grounded), (
                        f"stale truth after {call} during {op.name} from {world}"
                    )

                # A run aborted before its first tick, restarted and run to
                # its end, then aborted again while idle.
                sim = reliable_sim(grounded, copy.deepcopy(world), success_prob=success_prob)
                check("construction")
                sim.start_primitive(op)
                check("start_primitive")
                sim.abort_primitive()
                check("abort_primitive")
                prim = sim.start_primitive(op)
                check("start_primitive")
                while prim.phase == "running":
                    sim.tick()
                    check("tick")
                sim.abort_primitive()
                check("abort_primitive")
                # A run started twice and disturbed before its first tick.
                sim = reliable_sim(grounded, copy.deepcopy(world), success_prob=success_prob)
                check("construction")
                for _ in range(2):
                    sim.start_primitive(op)
                    check("start_primitive")
                for obj in grounded.movables:
                    sim.apply_disturbance("teleport_object", obj)
                    check("teleport_object")
                ext = sim.world.drawer_extension
                sim.apply_disturbance("set_drawer", extension=0.0 if ext >= 0.5 else 1.0)
                check("set_drawer")
                sim.apply_disturbance("detach_gripper")
                check("detach_gripper")
                while sim.current is not None:
                    sim.tick()
                    check("tick")


class TestGoalEvaluation:
    def test_reference_state_does_not_satisfy_put_away_goal(self, grounded):
        truth = state(grounded, evaluate_world(reference_world(), grounded))
        assert not holds(truth, grounded.goal)


class TestContactPhysics:
    """Primitives dispatched off a wrong estimate must not move the drawer."""

    def test_pull_without_handle_moves_nothing(self, grounded):
        world = reference_world()
        world.arm_region = ("above_counter", None)  # not even near the handle
        sim = reliable_sim(grounded, world)
        run_op(sim, grounded.operator_named("pull_drawer"))
        assert sim.world.drawer_extension == 0.0

    def test_push_from_wrong_pose_moves_nothing(self, grounded):
        world = reference_world()
        world.drawer_extension = 1.0
        world.arm_region = ("above_counter", None)
        sim = reliable_sim(grounded, world)
        run_op(sim, grounded.operator_named("push_drawer"))
        assert sim.world.drawer_extension == 1.0


# Worlds a primitive may be dispatched in off a wrong estimate: something in
# the gripper, wherever the arm is.
_LOADED_WORLDS = {
    "handle_grasped": dict(arm_region=("around", "handle"), attached="handle"),
    "spam_grasped_on_counter": dict(arm_region=("around", "spam"), attached="spam"),
    "spam_lifted": dict(arm_region=("above_counter", None), attached="spam", pose=("held",)),
    "spam_over_drawer": dict(
        arm_region=("over_drawer", None), attached="spam", pose=("over_drawer",)
    ),
    "spam_lifted_around_handle": dict(
        arm_region=("around", "handle"), attached="spam", pose=("held",)
    ),
    "spam_lifted_around_sugar": dict(
        arm_region=("around", "sugar"), attached="spam", pose=("held",)
    ),
}


def loaded_world(arm_region, attached, pose=None):
    world = reference_world()
    world.arm_region = arm_region
    world.attached = attached
    world.gripper_aperture = 0.2
    if pose is not None:
        world.object_pose[attached] = pose
    return world


class TestOutcomesKeepWorldValid:
    """No outcome opens the gripper on an attached entity or takes a second
    one, whatever the world the primitive was dispatched in."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"attached": "spam", "gripper_aperture": 1.0},
             "attached entity with an open gripper"),
            ({"object_pose": {"spam": ("counter", 2), "sugar": ("counter", 2)}},
             "two objects share a counter zone"),
            ({"object_pose": {"spam": ("held",), "sugar": ("counter", 1)}},
             "spam is held but not attached"),
        ],
        ids=["open_gripper_attached", "shared_zone", "held_not_attached"],
    )
    def test_validate_names_each_broken_invariant(self, change, message):
        world = dataclasses.replace(reference_world(), **change)
        with pytest.raises(ValueError) as err:
            world.validate()
        assert str(err.value) == message

    def test_failed_pull_with_an_object_in_hand(self, grounded):
        world = loaded_world(("around", "handle"), "spam", ("held",))
        prims = primitives(0.0)
        rng = np.random.default_rng(3)
        sim = KitchenSim(grounded, world, prims, rng, rng)
        run_op(sim, grounded.operator_named("pull_drawer"))
        sim.world.validate()
        assert sim.world.attached is None
        assert sim.world.object_pose["spam"][0] == "counter"

    def test_failure_without_a_rule_changes_nothing(self, grounded):
        # back_off's row gives no failure outcome: the world stays as it was
        # dispatched, and the executive retries.
        world = reference_world()
        prims = primitives(0.0)
        rng = np.random.default_rng(0)
        sim = KitchenSim(grounded, copy.deepcopy(world), prims, rng, rng)
        assert run_op(sim, grounded.operator_named("back_off")).phase == "failed"
        assert sim.world == world

    def test_grasp_while_another_object_is_held(self, grounded):
        world = loaded_world(("around", "spam"), "sugar", ("held",))
        sim = reliable_sim(grounded, world)
        run_op(sim, grounded.operator_named("grasp_obj", ("spam",)))
        sim.world.validate()
        assert sim.world.attached is None
        assert sim.world.object_pose["sugar"][0] == "counter"

    @pytest.mark.parametrize("succeed", [True, False], ids=["success", "failure"])
    @pytest.mark.parametrize("start", _LOADED_WORLDS)
    def test_every_outcome_from_a_loaded_gripper(self, grounded, start, succeed):
        prims = primitives(succeed)
        for op in grounded.operators:
            rng = np.random.default_rng(0)
            world = loaded_world(**_LOADED_WORLDS[start])
            sim = KitchenSim(grounded, world, prims, rng, rng)
            run_op(sim, op)
            sim.world.validate()


class TestFixtureConsistency:
    def test_problem_init_matches_evaluated_reference_world(self):
        # The problem files' :init blocks and the simulator's reference
        # world are two encodings of the same configuration; the evaluator
        # must map the world onto exactly the declared atoms.
        for name in ("put_away_spam", "put_away_sugar", "pick_spam",
                     "pick_sugar", "open_drawer"):
            grounded = ground(kitchen_domain(), kitchen_problem(name))
            world_state = evaluate_world(reference_world(), grounded)
            assert world_state == grounded.init.mask, name

    def test_composite_problem_init_matches_too(self):
        grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
        world_state = evaluate_world(
            reference_world(("sugar", "spam")), grounded
        )
        assert world_state == grounded.init.mask


SHIPPED_PROBLEMS = (
    "open_drawer", "pick_spam", "pick_sugar", "put_away_spam", "put_away_sugar",
    "put_away_both",
)


def with_movables(count: int):
    """put_away_both grounded with ``count`` movables, the first two being
    sugar and spam."""
    extra = " ".join(f"m{i}" for i in range(count - 2))
    text = problem_source("put_away_both").replace(
        "sugar spam - movable", f"sugar spam {extra} - movable"
    )
    result = parse_problem(text, kitchen_domain())
    assert result.ok, result.diagnostics
    return ground(kitchen_domain(), result.value)


def assert_in_contract(grounded, truth):
    for (name, args), bit in grounded.vocabulary.bits.items():
        if truth & bit:
            assert name in WRITTEN_PREDICATES, name
            assert WRITTEN_PREDICATES[name] == len(args)


class TestContract:
    def test_shipped_domain_meets_contract(self):
        domain = kitchen_domain()
        assert set(OUTCOMES) == {schema.name for schema in domain.operators}
        assert WRITTEN_PREDICATES == {
            p.name: len(p.param_types) for p in domain.predicates
        }
        for name in SHIPPED_PROBLEMS:
            assert contract_problems(ground(domain, kitchen_problem(name))) == []
        assert contract_problems(with_movables(MAX_MOVABLES)) == []
        assert contract_problems(with_movables(MAX_MOVABLES + 1)) == [
            "problem: 6 movable objects, above the simulator's cap of 5"
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        movables=st.integers(2, MAX_MOVABLES),
        seed=st.integers(0, 2**32 - 1),
        objects=st.sampled_from(["counter_only", "anywhere"]),
        drawer=st.sampled_from(["closed", "open", "mixed"]),
        arm=st.sampled_from(["driving", "above", "random"]),
        steps=st.lists(
            st.one_of(
                st.integers(0, 99),
                st.sampled_from(["teleport_object", "set_drawer", "detach_gripper"]),
            ),
            max_size=15,
        ),
    )
    def test_evaluated_atoms_are_in_the_contract(
        self, movables, seed, objects, drawer, arm, steps
    ):
        # Every atom evaluate_world sets, on sampled initial worlds, on every
        # tick of primitives whose preconditions hold, and after each
        # disturbance kind, is of a predicate the contract names, with the
        # arity the domain declares.
        grounded = with_movables(movables)
        rng = np.random.default_rng(seed)
        config = InitialConfig(objects, drawer, arm, gripper_open_prob=0.5)
        world = sample_initial(config, grounded.movables, rng)
        sim = KitchenSim(
            grounded, world, primitives(0.7), rng, rng
        )
        assert_in_contract(grounded, sim.eval_predicates())
        for step in steps:
            if isinstance(step, int):
                truth = state(grounded, sim.eval_predicates())
                enabled = [op for op in grounded.operators if holds(truth, op.pre)]
                if not enabled:
                    continue
                prim = sim.start_primitive(enabled[step % len(enabled)])
                while prim.phase == "running":
                    assert_in_contract(grounded, sim.eval_predicates())
                    sim.tick()
            elif step == "teleport_object":
                obj = grounded.movables[int(rng.integers(len(grounded.movables)))]
                zone = int(rng.integers(-1, 6))
                sim.apply_disturbance(step, obj, None if zone < 0 else zone)
            elif step == "set_drawer":
                sim.apply_disturbance(step, extension=float(rng.random()))
            else:
                sim.apply_disturbance(step)
            assert_in_contract(grounded, sim.eval_predicates())


if __name__ == "__main__":
    _grounded = ground(kitchen_domain(), kitchen_problem("put_away_both"))
    FRAME_PINS_PATH.write_text(
        json.dumps(frame_check(_grounded), indent=1) + "\n", encoding="utf-8"
    )
