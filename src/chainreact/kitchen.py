"""Discrete stochastic kitchen simulator.

The hidden world state tracks the arm's discrete region, gripper aperture,
attachment, drawer extension and object poses.  ``evaluate_world`` is the
ground-truth logical state operator mapping a world state onto a mask over
the grounded predicate vocabulary.  Primitives run for ticks drawn from their
``PrimitiveSpec``, which the scenario loader builds over
``DEFAULT_PRIMITIVES``, and then apply their operator's row of ``OUTCOMES``:
the intended physical outcome, or a failure into a consistent non-goal
configuration (a failed grasp closes on air and re-opens, a failed pull
slips off the handle partway, a failed lift drops the object back onto the
counter).  Both tables are documented in ``docs/kitchen-domain.md``.

Drawer motion is continuous across ticks, so mid-pull the drawer sits in a
transit band where neither drawer_is_open nor drawer_is_closed holds.
"""

from __future__ import annotations

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


def evaluate_world(world: WorldState, grounded: GroundedDomain) -> int:
    """Deterministic, total map from a world state to its logical state's mask.

    Each rule ORs the bit of its atom, read by ``(name, args)`` from the
    vocabulary's precomputed table; an atom outside the vocabulary raises
    :class:`~chainreact.logic.UnknownAtomError`.
    """
    kind, target = world.arm_region
    attached = world.attached
    ext = world.drawer_extension
    drawer_open = ext >= DRAWER_OPEN_AT
    vocab = grounded.vocabulary
    bit = vocab.bits
    mask = 0
    try:
        if kind == DRIVING:
            mask |= bit["arm_in_driving_posture", ()]
        if kind == ABOVE_COUNTER:
            mask |= bit["arm_is_above_counter", ()] | bit["arm_is_clear_above_counter", ()]
        if kind == APPROACH:
            mask |= bit["arm_in_approach_region", (target,)]
        if kind == AROUND:
            mask |= bit["arm_is_around", (target,)]
            if attached is None:
                if target == HANDLE:
                    mask |= bit["arm_is_around_handle_loose", ()]
                else:
                    mask |= bit["arm_is_around_obj_loose", (target,)]
        if kind in (NEAR_HANDLE, FRONT_OF_DRAWER) or target == HANDLE:
            mask |= bit["arm_is_near_handle", ()]
        if kind == FRONT_OF_DRAWER:
            mask |= bit["arm_in_front_of_drawer", ()]
        if kind == OVER_DRAWER:
            mask |= bit["arm_is_over_drawer", ()]
        if kind == IN_DRAWER:
            mask |= bit["arm_is_in_drawer", ()]
        if world.arm_moving:
            mask |= bit["arm_is_moving", ()]

        if world.gripper_aperture >= GRIPPER_OPEN_AT:
            mask |= bit["gripper_is_open", ()]
        if attached is None:
            mask |= bit["arm_is_free", ()]
        else:
            mask |= bit["arm_is_attached", ()]
        if attached == HANDLE:
            mask |= bit["handle_is_attached", ()]
        else:
            mask |= bit["handle_is_detected", ()] | bit["handle_is_tracked", ()]

        if drawer_open:
            mask |= bit["drawer_is_open", ()]
            if attached != HANDLE:
                mask |= bit["drawer_is_open_and_detached", ()]
        if ext <= DRAWER_CLOSED_AT:
            mask |= bit["drawer_is_closed", ()]

        for obj, pose in world.object_pose.items():
            args = (obj,)
            if attached == obj:
                mask |= bit["arm_is_attached_to_obj", args] | bit["obj_is_attached", args]
            where = pose[0]
            if where == "counter":
                mask |= bit["obj_is_on_counter", args]
            elif where == "over_drawer":
                mask |= bit["obj_is_over_drawer", args]
            elif where == "in_drawer":
                mask |= bit["obj_is_in_drawer", args]
            if where == "held" and kind == ABOVE_COUNTER:
                mask |= bit["obj_is_clear_above_counter", args]
            hidden = where == "in_drawer" and not drawer_open
            if not hidden:
                mask |= bit["obj_is_detected", args] | bit["obj_is_tracked", args]
    except KeyError as err:
        vocab.bit_of(*err.args[0])  # raises UnknownAtomError naming the atom
        raise
    return mask


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


# The simulator's contract with a domain is OUTCOMES' keys, WRITTEN_PREDICATES
# (two of them also of the HANDLE constant), MAX_MOVABLES and a :binding on
# every action; contract_problems checks a grounded domain against it.
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

# Every predicate evaluate_world writes, with its arity.
WRITTEN_PREDICATES: dict[str, int] = {
    **dict.fromkeys((
        "arm_in_driving_posture", "arm_is_above_counter", "arm_is_moving",
        "arm_is_clear_above_counter", "arm_is_around_handle_loose",
        "arm_is_near_handle", "arm_in_front_of_drawer", "arm_is_over_drawer",
        "arm_is_in_drawer", "gripper_is_open", "arm_is_free", "arm_is_attached",
        "handle_is_attached", "handle_is_detected", "handle_is_tracked",
        "drawer_is_open", "drawer_is_open_and_detached", "drawer_is_closed",
    ), 0),
    **dict.fromkeys((
        "arm_in_approach_region", "arm_is_around", "arm_is_around_obj_loose",
        "arm_is_attached_to_obj", "obj_is_attached", "obj_is_on_counter",
        "obj_is_over_drawer", "obj_is_in_drawer", "obj_is_clear_above_counter",
        "obj_is_detected", "obj_is_tracked",
    ), 1),
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
    outside = ", ".join(  # the two 1-ary atoms evaluate_world writes of the handle
        f"'{name}'" for name in ("arm_in_approach_region", "arm_is_around")
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

    The truth is cached, and the world changes only through these methods: a
    caller that edits ``sim.world`` in place after construction reads a stale truth."""

    def __init__(
        self, grounded: GroundedDomain, world: WorldState,
        primitives: dict[str, PrimitiveSpec], rng: np.random.Generator,
        world_rng: np.random.Generator,
    ):
        # rng drives primitive durations and success draws; world_rng drives
        # exogenous events (disturbance destinations).  Given two generators,
        # extra primitive draws never shift disturbance draws and vice versa.
        self.grounded = grounded
        self.world = world
        self.primitives = primitives
        self.rng = rng
        self.world_rng = world_rng
        self.current: Optional[PrimitiveState] = None
        self._truth: Optional[int] = None  # None until read after a change
        self._moving_bit = grounded.vocabulary.bit_of("arm_is_moving", ())

    def eval_predicates(self) -> int:
        """The truth mask, ``evaluate_world`` of the world, computed once per change."""
        if self._truth is None:
            self._truth = evaluate_world(self.world, self.grounded)
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
        ticks = int(self.rng.integers(spec.min_ticks, spec.max_ticks + 1))
        will_succeed = bool(self.rng.random() < spec.success_prob)
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
