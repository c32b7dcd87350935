"""Discrete stochastic kitchen simulator.

The hidden world state tracks the arm's discrete region, gripper aperture,
attachment, drawer extension and object poses.  ``evaluate_world`` is the
ground-truth logical state operator mapping a world state onto a mask over
the grounded predicate vocabulary, a function of the world's discrete
``world_key`` alone, which the simulator computes once per key and grounded
domain.  Primitives run for ticks drawn from their ``PrimitiveSpec``, which
the scenario loader builds over ``DEFAULT_PRIMITIVES``, and then apply their
operator's row of ``OUTCOMES``: the intended physical outcome, or a failure
into a consistent non-goal configuration (a failed grasp closes on air and
re-opens, a failed pull slips off the handle partway, a failed lift drops
the object back onto the counter).  Both tables are documented in
``docs/kitchen-domain.md``.

Drawer motion is continuous across ticks, so mid-pull the drawer sits in a
transit band where neither drawer_is_open nor drawer_is_closed holds.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .planner import GroundedDomain, GroundOperator

GRIPPER_OPEN_AT = 0.9  # aperture at or above this reads as "open"
GRASP_APERTURE = 0.2  # aperture while holding something
DRAWER_OPEN_AT = 0.7
DRAWER_CLOSED_AT = 0.05
NUM_COUNTER_ZONES = 6
FAILURE_PROGRESS = 0.5  # fraction of drawer travel reached before a slip

HANDLE = "handle"

# arm region kinds
DRIVING = "driving"
ABOVE_COUNTER = "above_counter"
APPROACH = "approach"
AROUND = "around"
NEAR_HANDLE = "near_handle"
FRONT_OF_DRAWER = "front_of_drawer"
OVER_DRAWER = "over_drawer"
IN_DRAWER = "in_drawer"
ABOVE = (ABOVE_COUNTER, None)

Region = tuple[str, Optional[str]]  # (kind, target or None)
Pose = tuple  # ("counter", zone) | ("held",) | ("over_drawer",) | ("in_drawer",)


@dataclass
class WorldState:
    arm_region: Region
    gripper_aperture: float
    attached: Optional[str]  # object symbol, HANDLE, or None
    drawer_extension: float
    object_pose: dict[str, Pose]
    arm_moving: bool = False

    def validate(self) -> None:
        if self.attached is not None and self.gripper_aperture >= GRIPPER_OPEN_AT:
            raise ValueError("attached entity with an open gripper")
        zones = [
            pose[1] for pose in self.object_pose.values() if pose[0] == "counter"
        ]
        if len(zones) != len(set(zones)):
            raise ValueError("two objects share a counter zone")
        for obj, pose in self.object_pose.items():
            if pose[0] == "held" and self.attached != obj:
                raise ValueError(f"{obj} is held but not attached")


# --------------------------------------------------------------------------
# Ground-truth logical state operator
# --------------------------------------------------------------------------


def world_key(world: WorldState) -> tuple:
    """The discrete facts the truth depends on, in ``_Key``'s order with
    the region as one pair; the only reader of the continuous fields and
    the thresholds."""
    ext = world.drawer_extension
    return (
        world.arm_region, world.gripper_aperture >= GRIPPER_OPEN_AT, world.attached,
        ext >= DRAWER_OPEN_AT, ext <= DRAWER_CLOSED_AT,
        tuple([(obj, pose[0]) for obj, pose in world.object_pose.items()]),
        world.arm_moving,
    )


# A world_key by field name, the region split into kind and target (k[:2]);
# built only on a memo miss, as the tick loop's plain tuple is cheaper.
_Key = namedtuple(
    "_Key", "kind target gripper_open attached drawer_open drawer_closed poses moving"
)

# The rule table, the one statement of what evaluate_world writes.  Each
# 0-ary predicate with its test of the key, in WRITTEN_PREDICATES' order:
_GLOBAL_RULES: dict[str, Callable[[_Key], bool]] = {
    "arm_in_driving_posture": lambda k: k.kind == DRIVING,
    "arm_is_above_counter": lambda k: k.kind == ABOVE_COUNTER,
    "arm_is_moving": lambda k: k.moving,
    "arm_is_clear_above_counter": lambda k: k.kind == ABOVE_COUNTER,
    "arm_is_around_handle_loose": lambda k: k[:2] == (AROUND, HANDLE) and k.attached is None,
    "arm_is_near_handle": lambda k: k.kind in (NEAR_HANDLE, FRONT_OF_DRAWER) or k.target == HANDLE,
    "arm_in_front_of_drawer": lambda k: k.kind == FRONT_OF_DRAWER,
    "arm_is_over_drawer": lambda k: k.kind == OVER_DRAWER,
    "arm_is_in_drawer": lambda k: k.kind == IN_DRAWER,
    "gripper_is_open": lambda k: k.gripper_open,
    "arm_is_free": lambda k: k.attached is None,
    "arm_is_attached": lambda k: k.attached is not None,
    "handle_is_attached": lambda k: k.attached == HANDLE,
    "handle_is_detected": lambda k: k.attached != HANDLE,
    "handle_is_tracked": lambda k: k.attached != HANDLE,
    "drawer_is_open": lambda k: k.drawer_open,
    "drawer_is_open_and_detached": lambda k: k.drawer_open and k.attached != HANDLE,
    "drawer_is_closed": lambda k: k.drawer_closed,
}
# the 1-ary atom of the arm's target, an object or the handle, by region kind:
_TARGET_RULES: dict[str, str] = {APPROACH: "arm_in_approach_region", AROUND: "arm_is_around"}
# and each 1-ary predicate of every movable, with its test of (key, object, pose kind).
_OBJECT_RULES: dict[str, Callable[[_Key, str, str], bool]] = {
    "arm_is_around_obj_loose": lambda k, o, pose: k[:2] == (AROUND, o) and k.attached is None,
    "arm_is_attached_to_obj": lambda k, o, pose: k.attached == o,
    "obj_is_attached": lambda k, o, pose: k.attached == o,
    "obj_is_on_counter": lambda k, o, pose: pose == "counter",
    "obj_is_over_drawer": lambda k, o, pose: pose == "over_drawer",
    "obj_is_in_drawer": lambda k, o, pose: pose == "in_drawer",
    "obj_is_clear_above_counter": lambda k, o, pose: pose == "held" and k.kind == ABOVE_COUNTER,
    "obj_is_detected": lambda k, o, pose: pose != "in_drawer" or k.drawer_open,
    "obj_is_tracked": lambda k, o, pose: pose != "in_drawer" or k.drawer_open,
}
# Every predicate evaluate_world writes, with its arity, read off the rules.
WRITTEN_PREDICATES: dict[str, int] = {
    **dict.fromkeys(_GLOBAL_RULES, 0),
    **dict.fromkeys((*_TARGET_RULES.values(), *_OBJECT_RULES), 1),
}


def _truth_of_key(key: tuple, grounded: GroundedDomain) -> int:
    """The truth mask of a world whose :func:`world_key` is ``key``: the OR
    of the bits of the atoms whose rules hold.  Only those are looked up in
    the vocabulary, and one outside it raises
    :class:`~chainreact.logic.UnknownAtomError`."""
    k = _Key(*key[0], *key[1:])
    bit = grounded.vocabulary.bit_of
    mask = 0
    for name, test in _GLOBAL_RULES.items():
        if test(k):
            mask |= bit(name, ())
    if k.kind in _TARGET_RULES:
        mask |= bit(_TARGET_RULES[k.kind], (k.target,))
    for obj, pose in k.poses:
        for name, test in _OBJECT_RULES.items():
            if test(k, obj, pose):
                mask |= bit(name, (obj,))
    return mask


def evaluate_world(world: WorldState, grounded: GroundedDomain) -> int:
    """Deterministic, total map from a world state to its truth mask."""
    return _truth_of_key(world_key(world), grounded)


# --------------------------------------------------------------------------
# Initial-state sampling
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialConfig:
    """Randomisation ranges for trial initial conditions."""

    objects: str = "counter_only"  # or "anywhere"
    drawer: str = "closed"  # "closed" | "open" | "mixed"
    arm: str = "random"  # "driving" | "above" | "random"
    gripper_open_prob: float = 1.0
    drawer_open_prob: float = 0.5  # used when drawer == "mixed"
    object_in_drawer_prob: float = 0.2  # used when objects == "anywhere"


def sample_initial(
    config: InitialConfig, movables: tuple[str, ...], rng: np.random.Generator
) -> WorldState:
    """Draw a world state honouring the config; deterministic per seed."""
    zones = rng.choice(NUM_COUNTER_ZONES, size=len(movables), replace=False)
    poses: dict[str, Pose] = {}
    for obj, zone in zip(movables, zones):
        if config.objects == "anywhere" and rng.random() < config.object_in_drawer_prob:
            poses[obj] = ("in_drawer",)
        else:
            poses[obj] = ("counter", int(zone))

    # "mixed" and "random" draw; the fixed settings draw nothing
    opened = config.drawer == "open" or (
        config.drawer == "mixed" and rng.random() < config.drawer_open_prob
    )
    ext = float(rng.uniform(DRAWER_OPEN_AT, 1.0)) if opened else 0.0
    driving = config.arm == "driving" or (config.arm == "random" and rng.random() < 0.5)
    world = WorldState(
        arm_region=(DRIVING, None) if driving else ABOVE,
        gripper_aperture=1.0 if rng.random() < config.gripper_open_prob else 0.0,
        attached=None,
        drawer_extension=ext,
        object_pose=poses,
    )
    world.validate()
    return world


# --------------------------------------------------------------------------
# Primitives, their outcome rules and the simulator's contract
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimitiveSpec:
    min_ticks: int
    max_ticks: int
    success_prob: float = 0.95


DEFAULT_PRIMITIVES: dict[str, PrimitiveSpec] = {
    "open_gripper": PrimitiveSpec(1, 2),
    "approach_drawer": PrimitiveSpec(3, 6),
    "cage": PrimitiveSpec(2, 4),
    "grasp": PrimitiveSpec(2, 3),
    "pull_drawer": PrimitiveSpec(4, 8),
    "release": PrimitiveSpec(1, 2),
    "back_off": PrimitiveSpec(2, 4),
    "approach_obj": PrimitiveSpec(3, 6),
    "lift": PrimitiveSpec(2, 4),
    "move_over_drawer": PrimitiveSpec(3, 5),
    "lower": PrimitiveSpec(2, 4),
    "push_drawer": PrimitiveSpec(4, 8),
}


# Raw words per random_raw call of a simulator's primitive stream.
DRAW_BLOCK = 32


def _words(bitgen: np.random.BitGenerator):
    """The raw 64-bit words of ``bitgen`` as ints, drawn ``DRAW_BLOCK`` at a
    time, the first block at the first ``next``."""
    while True:
        yield from bitgen.random_raw(DRAW_BLOCK).tolist()


def _lemire(draw: Callable[[], int], span: int, width: int) -> int:
    """numpy's bounded draw of ``0..span`` from ``width``-bit draws, Lemire's
    multiply-and-reject: the high half of a draw times ``span + 1``, redrawn
    while the low half is below ``(2**width - span - 1) % (span + 1)``, a
    threshold that is 0 (numpy's direct path) at ``span == 2**width - 1``."""
    excl = span + 1
    mask = (1 << width) - 1
    m = draw() * excl
    if m & mask < excl:  # every threshold is below excl
        threshold = (mask - span) % excl
        while m & mask < threshold:
            m = draw() * excl
    return m >> width


_UNREAD = object()  # a bit generator's cached half not yet read


class PrimitiveDraws:
    """``Generator.integers`` and ``Generator.random`` of a PCG64 generator,
    one call at a time, computed from its raw words read in blocks.

    ``random()`` is a word's top 53 bits times 2**-53.  ``integers`` is
    :func:`_lemire` on 32-bit draws while the span fits 32 bits, and on whole
    words above; a span of 0 draws nothing.  A 32-bit draw is a word's low
    half, and keeps its high half for the next 32-bit draw, a cache that
    whole-word draws leave alone; the first 32-bit draw takes the bit
    generator's own cached half, if it has one.  Nothing is drawn or read
    before the first draw."""

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        if not isinstance(self._bitgen, np.random.PCG64):
            raise ValueError(
                f"primitive draws need a PCG64 generator, not {type(self._bitgen).__name__}"
            )
        self._half: object = _UNREAD  # the cached high half, if any
        self._word = _words(self._bitgen).__next__

    def random(self) -> float:
        """``rng.random()``."""
        return (self._word() >> 11) * 2**-53

    def integers(self, lo: int, hi: int) -> int:
        """``int(rng.integers(lo, hi + 1))``, for ``lo <= hi``."""
        span = hi - lo
        if span > 0xFFFFFFFF:
            return lo + _lemire(self._word, span, 64)
        return lo + _lemire(self._next32, span, 32) if span else lo

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        if half is _UNREAD:
            state = self._bitgen.state
            return state["uinteger"] if state["has_uint32"] else self._next32()
        return half


class UnknownBindingError(KeyError):
    """An operator has no primitive or no outcome rule in the simulator."""


Rule = Callable[[WorldState, "PrimitiveState"], None]


def _set(let_go: bool = False, **fields) -> Rule:
    """Let go if asked, then assign ``fields``; with neither, change nothing."""

    def rule(w: WorldState, prim: PrimitiveState) -> None:
        if let_go:
            _let_go(w)
        for name, value in fields.items():
            setattr(w, name, value)

    return rule


@dataclass(frozen=True)
class OperatorRule:
    """What the primitive behind one operator schema does.

    ``success`` or ``failure`` applies on completion, as a function of
    (world, primitive).  With ``obj_arg`` the first argument is the movable
    acted on, and its counter zone is snapshotted at start.  A drawer
    primitive (``drawer`` +1 pulls, -1 pushes) moves the drawer a step each
    tick while ``contact`` holds, all the way on success and
    ``FAILURE_PROGRESS`` of it on failure."""

    success: Rule
    failure: Rule = _set()  # nothing changes, and the executive retries
    obj_arg: bool = False
    drawer: int = 0
    contact: Optional[Callable[[WorldState], bool]] = None


def _carried(w: WorldState) -> Optional[str]:
    """The object in the gripper; the handle is not carried."""
    return None if w.attached in (None, HANDLE) else w.attached


def _free_counter_zone(w: WorldState) -> int:
    used = {pose[1] for pose in w.object_pose.values() if pose[0] == "counter"}
    return next(z for z in range(NUM_COUNTER_ZONES) if z not in used)


def _let_go(w: WorldState, prim: Optional[PrimitiveState] = None) -> None:
    """Open the gripper: a carried object falls into the drawer from over or
    in it, and onto a free counter zone from anywhere but counter or drawer."""
    obj = _carried(w)
    if obj is not None and w.arm_region[0] in (OVER_DRAWER, IN_DRAWER):
        w.object_pose[obj] = ("in_drawer",)
    elif obj is not None and w.object_pose[obj][0] not in ("counter", "in_drawer"):
        w.object_pose[obj] = ("counter", _free_counter_zone(w))
    w.attached = None
    w.gripper_aperture = 1.0


def _reach(kind: str, let_go: bool = False) -> Rule:
    """Let go if asked, then reach ``(kind, obj)`` if the object is still in
    the zone it had at start, and end above the counter if not."""

    def rule(w: WorldState, prim: PrimitiveState) -> None:
        obj = prim.op.bound_args[0]
        if let_go:
            _let_go(w)
        stayed = w.object_pose[obj] == ("counter", prim.target_zone)
        w.arm_region = (kind, obj) if stayed else ABOVE

    return rule


def _grasp(w: WorldState, prim: PrimitiveState) -> None:
    """Close on the operator's object, or the handle without one: it is taken
    if the arm is around it, nothing else is attached and, for an object,
    it is on the counter; otherwise the gripper closes on air and lets go."""
    target = prim.op.bound_args[0] if prim.rule.obj_arg else HANDLE
    if (
        w.arm_region == (AROUND, target)
        and w.attached in (None, target)
        and (target == HANDLE or w.object_pose[target][0] == "counter")
    ):
        w.attached = target
        w.gripper_aperture = GRASP_APERTURE
    else:
        _let_go(w)


def _drawer_end(w: WorldState, prim: PrimitiveState) -> None:
    """Under contact, the drawer ends at its end stop."""
    if prim.rule.contact(w):
        w.drawer_extension = 1.0 if prim.rule.drawer > 0 else 0.0


def _carry(
    pose: Optional[Pose], region: Region, own: bool = False, drop: bool = False
) -> Rule:
    """The carried object (with ``own``, only the operator's argument) goes
    to ``pose``, or to a free counter zone for ``None``, and the arm to
    ``region``; with ``drop`` the gripper opens and lets the object go."""

    def rule(w: WorldState, prim: PrimitiveState) -> None:
        obj = _carried(w)
        if obj is not None and (not own or obj == prim.op.bound_args[0]):
            if drop:
                w.attached = None
                w.gripper_aperture = 1.0
            w.object_pose[obj] = pose or ("counter", _free_counter_zone(w))
        w.arm_region = region

    return rule


# The simulator's contract with a domain is OUTCOMES' keys; WRITTEN_PREDICATES
# and the target atoms of the HANDLE constant, both read off the truth's rule
# table; MAX_MOVABLES; and a :binding on every action.  contract_problems
# checks a grounded domain against it.
# OUTCOMES has one row per operator schema the simulator carries out.
OUTCOMES: dict[str, OperatorRule] = {
    "open_gripper": OperatorRule(_let_go),
    "approach_drawer_open": OperatorRule(_set(arm_region=(APPROACH, HANDLE))),
    "cage_handle": OperatorRule(_set(let_go=True, arm_region=(AROUND, HANDLE))),
    "grasp_handle": OperatorRule(_grasp, _let_go),
    # A failed pull slips off the handle, the drawer partway out.
    "pull_drawer": OperatorRule(
        _drawer_end, _set(let_go=True, arm_region=(NEAR_HANDLE, None)), drawer=1,
        contact=lambda w: w.attached == HANDLE,
    ),
    "release_handle": OperatorRule(_set(let_go=True, arm_region=(NEAR_HANDLE, None))),
    "back_off": OperatorRule(_set(arm_region=ABOVE)),
    "approach_obj": OperatorRule(_reach(APPROACH), obj_arg=True),
    "cage_obj": OperatorRule(_reach(AROUND, let_go=True), obj_arg=True),
    "grasp_obj": OperatorRule(_grasp, _let_go, obj_arg=True),
    "lift_obj": OperatorRule(
        _carry(("held",), ABOVE, own=True),
        _carry(None, ABOVE, own=True, drop=True),
        obj_arg=True,
    ),
    "move_obj_over_drawer": OperatorRule(
        _carry(("over_drawer",), (OVER_DRAWER, None)),
        _carry(None, ABOVE, drop=True),
    ),
    "lower_obj_into_drawer": OperatorRule(
        _carry(("in_drawer",), (IN_DRAWER, None)),
        _carry(("in_drawer",), (OVER_DRAWER, None), drop=True),
    ),
    "release_obj": OperatorRule(_let_go),
    "approach_drawer_close": OperatorRule(_set(arm_region=(FRONT_OF_DRAWER, None))),
    "push_drawer": OperatorRule(
        _drawer_end, drawer=-1,
        contact=lambda w: w.arm_region == (FRONT_OF_DRAWER, None),
    ),
}

# A counter_random teleport needs a free zone besides the object's own.
MAX_MOVABLES = NUM_COUNTER_ZONES - 1


def contract_problems(grounded: GroundedDomain) -> list[str]:
    """Where ``grounded`` breaks the simulator's contract, one line each."""
    domain = grounded.domain
    declared = {p.name: len(p.param_types) for p in domain.predicates}
    problems = []
    for schema in domain.operators:
        rule = OUTCOMES.get(schema.name)
        if rule is None:
            problems.append(f"domain: action '{schema.name}' has no outcome rule")
        elif rule.obj_arg and not (
            schema.params and domain.is_subtype(schema.params[0][1], "movable")
        ):
            problems.append(f"domain: action '{schema.name}' must take a movable first")
        if not schema.binding:
            problems.append(f"domain: action '{schema.name}' has no :binding")
    for name, arity in WRITTEN_PREDICATES.items():
        if declared.get(name) != arity:
            problems.append(
                f"domain: predicate '{name}' must be declared with arity {arity}"
            )
    for obj in grounded.movables:  # evaluate_world writes its 1-ary atoms
        outside = ", ".join(
            f"'{name}'" for name, arity in WRITTEN_PREDICATES.items()
            if arity == declared.get(name) == 1
            and (name, (obj,)) not in grounded.vocabulary.bits
        )
        if outside:
            problems.append(f"domain: movable '{obj}' is outside the parameter type of {outside}")
    outside = ", ".join(  # the 1-ary atoms evaluate_world writes of the handle
        f"'{name}'" for name in _TARGET_RULES.values()
        if declared.get(name) == 1 and (name, (HANDLE,)) not in grounded.vocabulary.bits
    )
    if outside:
        problems.append(
            f"domain: constant '{HANDLE}' is missing or outside the parameter type of {outside}"
        )
    if len(grounded.movables) > MAX_MOVABLES:
        problems.append(
            f"problem: {len(grounded.movables)} movable objects, above the "
            f"simulator's cap of {MAX_MOVABLES}"
        )
    return problems


@dataclass
class PrimitiveState:
    op: GroundOperator
    ticks_remaining: int
    will_succeed: bool
    rule: OperatorRule
    phase: str = "running"  # running | done | failed
    # snapshots taken at start
    target_zone: Optional[int] = None
    drawer_step: float = 0.0


class KitchenSim:
    """One simulator instance per trial; all randomness from the given generators.

    ``rng``, a PCG64 generator, drives primitive durations and success draws,
    and ``world_rng`` exogenous events (disturbance destinations), so extra
    primitive draws never shift disturbance draws and vice versa.  The
    simulator owns ``rng``: it reads words up to a block ahead of the draws
    it has made (:class:`PrimitiveDraws`), so ``rng`` must not be
    ``world_rng``, nor any generator another caller draws from.

    The truth is cached, and the world changes only through these methods: a
    caller that edits ``sim.world`` in place after construction reads a stale truth."""

    def __init__(
        self, grounded: GroundedDomain, world: WorldState,
        primitives: dict[str, PrimitiveSpec], rng: np.random.Generator,
        world_rng: np.random.Generator,
    ):
        if rng is world_rng:
            raise ValueError("the primitive rng must not also be the world_rng")
        self.grounded = grounded
        self.world = world
        self.primitives = primitives
        self.rng = rng
        self._draws = PrimitiveDraws(rng)
        self.world_rng = world_rng
        self.current: Optional[PrimitiveState] = None
        self._truth: Optional[int] = None  # None until read after a change
        self._moving_bit = grounded.vocabulary.bit_of("arm_is_moving", ())

    def eval_predicates(self) -> int:
        """The truth mask, read once per change from the grounded domain's
        memo of each :func:`world_key` seen to its truth."""
        if self._truth is None:
            key = world_key(self.world)
            memo = self.grounded._truth_by_key
            truth = memo.get(key)
            if truth is None:
                truth = memo[key] = _truth_of_key(key, self.grounded)
            self._truth = truth
        return self._truth

    def _set_moving(self, moving: bool) -> None:
        """Set ``arm_moving``, flipping its bit in a cached truth."""
        if self.world.arm_moving != moving:
            self.world.arm_moving = moving
            if self._truth is not None:
                self._truth ^= self._moving_bit

    def start_primitive(self, op: GroundOperator) -> PrimitiveState:
        rule = OUTCOMES.get(op.schema.name)
        if rule is None:
            raise UnknownBindingError(f"no outcome rule for operator {op.schema.name}")
        spec = self.primitives.get(op.schema.binding)
        if spec is None:
            raise UnknownBindingError(
                f"operator {op.name} is bound to unknown primitive {op.schema.binding!r}"
            )
        ticks = self._draws.integers(spec.min_ticks, spec.max_ticks)
        will_succeed = self._draws.random() < spec.success_prob
        prim = PrimitiveState(op, ticks, will_succeed, rule)
        if rule.obj_arg:
            pose = self.world.object_pose[op.bound_args[0]]
            prim.target_zone = pose[1] if pose[0] == "counter" else None
        if rule.drawer:
            ext = self.world.drawer_extension
            span = 1.0 - ext if rule.drawer > 0 else ext
            goal = span if will_succeed else span * FAILURE_PROGRESS
            prim.drawer_step = rule.drawer * goal / ticks
        self.current = prim
        self._set_moving(True)
        return prim

    def abort_primitive(self) -> None:
        """Preempt the running primitive; the world stays where it is."""
        self.current = None
        self._set_moving(False)

    def tick(self) -> PrimitiveState:
        """Advance the running primitive by one tick; call it only while
        ``current`` is set.  The drawer moves only under real contact, so a
        primitive dispatched off a wrong estimate moves nothing."""
        prim = self.current
        w = self.world
        if prim.drawer_step and prim.rule.contact(w):
            w.drawer_extension = min(max(w.drawer_extension + prim.drawer_step, 0.0), 1.0)
            self._truth = None
        prim.ticks_remaining -= 1
        if prim.ticks_remaining <= 0:
            (prim.rule.success if prim.will_succeed else prim.rule.failure)(w, prim)
            prim.phase = "done" if prim.will_succeed else "failed"
            self.current = None
            w.arm_moving = False
            self._truth = None
        return prim

    def apply_disturbance(
        self, kind: str, obj: Optional[str] = None, zone: Optional[int] = None,
        extension: float = 0.0,
    ) -> None:
        """Apply one scripted world change: a teleport of ``obj`` to counter
        zone ``zone`` (``None`` for a random free one), a drawer set to
        ``extension``, or a detach.  Invariants are restored (a held object
        detaches, an arm region aimed at a teleported object resets)."""
        self._truth = None
        w = self.world
        if kind == "teleport_object":
            if obj not in self.grounded.movables:
                raise ValueError(f"unknown object {obj!r}")
            if zone is not None and zone not in range(NUM_COUNTER_ZONES):
                raise ValueError(f"invalid teleport zone {zone!r}")
            if w.attached == obj:
                w.attached = None
                w.gripper_aperture = 1.0
            used = {p[1] for p in w.object_pose.values() if p[0] == "counter"}
            taken = zone in used and w.object_pose[obj] != ("counter", zone)
            if zone is None or taken:
                # A random destination, or a zone another object holds: draw
                # a free zone, never the object's own, so the object moves.
                free = [z for z in range(NUM_COUNTER_ZONES) if z not in used]
                zone = self.world_rng.choice(free)
            w.object_pose[obj] = ("counter", int(zone))
            if w.arm_region[1] == obj:
                w.arm_region = ABOVE
        elif kind == "set_drawer":
            if not 0.0 <= extension <= 1.0:
                raise ValueError(f"invalid drawer extension {extension}")
            w.drawer_extension = extension
            if w.attached == HANDLE:
                _let_go(w)
                w.arm_region = (NEAR_HANDLE, None)
        elif kind == "detach_gripper":
            if w.attached is not None:
                _let_go(w)
        else:
            raise ValueError(f"unknown disturbance kind {kind!r}")
        w.validate()
