"""Discrete stochastic kitchen simulator.

The hidden world state tracks the arm's discrete region, gripper aperture,
attachment, drawer extension and object poses.  ``evaluate_world`` is the
ground-truth logical state operator mapping a world state onto the grounded
predicate vocabulary; its rule table is documented in
``docs/kitchen-domain.md``.  Primitives run for a sampled number of ticks
and either realise their operator's intended physical outcome or fail into
a consistent non-goal configuration (a failed grasp closes on air and
re-opens, a failed pull slips off the handle partway, a failed lift drops
the object back onto the counter).

Drawer motion is continuous across ticks, so mid-pull the drawer sits in a
transit band where neither drawer_is_open nor drawer_is_closed holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .logic import LogicalState
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

    def copy(self) -> "WorldState":
        return replace(self, object_pose=dict(self.object_pose))

    def to_json_dict(self) -> dict:
        return {
            "arm_region": list(self.arm_region),
            "gripper_aperture": self.gripper_aperture,
            "attached": self.attached,
            "drawer_extension": self.drawer_extension,
            "object_pose": {o: list(p) for o, p in self.object_pose.items()},
            "arm_moving": self.arm_moving,
        }


def reference_world(movables: tuple[str, ...] = ("spam", "sugar")) -> WorldState:
    """The reference configuration: objects on distinct counter zones,
    drawer shut, arm parked in the driving posture, gripper open and empty."""
    return WorldState(
        arm_region=(DRIVING, None),
        gripper_aperture=1.0,
        attached=None,
        drawer_extension=0.0,
        object_pose={obj: ("counter", i) for i, obj in enumerate(movables)},
    )


# --------------------------------------------------------------------------
# Ground-truth logical state operator
# --------------------------------------------------------------------------


def evaluate_world(world: WorldState, grounded: GroundedDomain) -> LogicalState:
    """Deterministic, total map from a world state to the logical state.

    Each rule ORs the bit of its atom, read by ``(name, args)`` from the
    vocabulary's precomputed table; an atom outside the vocabulary raises
    :class:`~chainreact.logic.UnknownAtomError`.
    """
    region = world.arm_region
    kind, target = region
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
        if kind in (NEAR_HANDLE, FRONT_OF_DRAWER) or region in (
            (APPROACH, HANDLE),
            (AROUND, HANDLE),
        ):
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
        name, args = err.args[0]
        vocab.get(name, *args)  # raises UnknownAtomError naming the atom
        raise
    return LogicalState(vocab, mask)


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

    if config.drawer == "closed":
        ext = 0.0
    elif config.drawer == "open":
        ext = float(rng.uniform(DRAWER_OPEN_AT, 1.0))
    else:  # mixed
        if rng.random() < config.drawer_open_prob:
            ext = float(rng.uniform(DRAWER_OPEN_AT, 1.0))
        else:
            ext = 0.0

    if config.arm == "driving":
        region: Region = (DRIVING, None)
    elif config.arm == "above":
        region = (ABOVE_COUNTER, None)
    else:
        region = (DRIVING, None) if rng.random() < 0.5 else (ABOVE_COUNTER, None)

    aperture = 1.0 if rng.random() < config.gripper_open_prob else 0.0

    world = WorldState(
        arm_region=region,
        gripper_aperture=aperture,
        attached=None,
        drawer_extension=ext,
        object_pose=poses,
    )
    world.validate()
    return world


# --------------------------------------------------------------------------
# Primitives
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
    """An operator names a primitive the simulator does not provide."""


@dataclass
class PrimitiveState:
    binding: str
    op: GroundOperator
    ticks_remaining: int
    total_ticks: int
    will_succeed: bool
    phase: str = "running"  # running | done | failed
    # snapshots taken at start
    target_zone: Optional[int] = None
    drawer_step: float = 0.0

    @property
    def running(self) -> bool:
        return self.phase == "running"


def merge_primitive_config(overrides: Optional[dict] = None) -> dict[str, PrimitiveSpec]:
    """Apply scenario overrides: a global success_prob and/or per-binding
    {min_ticks, max_ticks, success_prob} entries."""
    table = dict(DEFAULT_PRIMITIVES)
    if not overrides:
        return table
    global_p = overrides.get("success_prob")
    if global_p is not None:
        table = {
            k: PrimitiveSpec(v.min_ticks, v.max_ticks, float(global_p))
            for k, v in table.items()
        }
    for name, spec in overrides.get("bindings", {}).items():
        base = table.get(name, PrimitiveSpec(1, 1))
        table[name] = PrimitiveSpec(
            int(spec.get("min_ticks", base.min_ticks)),
            int(spec.get("max_ticks", base.max_ticks)),
            float(spec.get("success_prob", base.success_prob)),
        )
    return table


class KitchenSim:
    """One simulator instance per trial; all randomness from the given rng."""

    def __init__(
        self,
        grounded: GroundedDomain,
        world: WorldState,
        primitives: Optional[dict[str, PrimitiveSpec]] = None,
        rng: Optional[np.random.Generator] = None,
        world_rng: Optional[np.random.Generator] = None,
    ):
        # rng drives primitive durations and success draws; world_rng drives
        # exogenous events (disturbance destinations), so extra primitive
        # draws never shift disturbance randomness and vice versa.
        self.grounded = grounded
        self.world = world
        self.primitives = primitives or dict(DEFAULT_PRIMITIVES)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.world_rng = world_rng if world_rng is not None else self.rng
        self.current: Optional[PrimitiveState] = None

    # -- observation -------------------------------------------------------

    def eval_predicates(self) -> LogicalState:
        return evaluate_world(self.world, self.grounded)

    # -- primitive control ---------------------------------------------------

    def start_primitive(self, op: GroundOperator) -> PrimitiveState:
        spec = self.primitives.get(op.primitive_binding)
        if spec is None:
            raise UnknownBindingError(
                f"operator {op.name} is bound to unknown primitive "
                f"{op.primitive_binding!r}"
            )
        ticks = int(self.rng.integers(spec.min_ticks, spec.max_ticks + 1))
        will_succeed = bool(self.rng.random() < spec.success_prob)
        prim = PrimitiveState(
            binding=op.primitive_binding,
            op=op,
            ticks_remaining=ticks,
            total_ticks=ticks,
            will_succeed=will_succeed,
        )
        name = op.schema.name
        if name in ("approach_obj", "cage_obj", "grasp_obj"):
            pose = self.world.object_pose[op.bound_args[0]]
            prim.target_zone = pose[1] if pose[0] == "counter" else None
        if name == "pull_drawer":
            span = 1.0 - self.world.drawer_extension
            goal = span if will_succeed else span * FAILURE_PROGRESS
            prim.drawer_step = goal / ticks
        if name == "push_drawer":
            span = self.world.drawer_extension
            goal = span if will_succeed else span * FAILURE_PROGRESS
            prim.drawer_step = -goal / ticks
        self.current = prim
        self.world.arm_moving = True
        return prim

    def abort_primitive(self) -> None:
        """Preempt the running primitive; the world stays where it is."""
        self.current = None
        self.world.arm_moving = False

    def tick(self) -> Optional[PrimitiveState]:
        """Advance the running primitive by one tick."""
        prim = self.current
        if prim is None or not prim.running:
            return prim
        if prim.drawer_step and self._drawer_contact(prim):
            self.world.drawer_extension = float(
                np.clip(self.world.drawer_extension + prim.drawer_step, 0.0, 1.0)
            )
        prim.ticks_remaining -= 1
        if prim.ticks_remaining <= 0:
            if prim.will_succeed:
                self._apply_success(prim)
                prim.phase = "done"
            else:
                self._apply_failure(prim)
                prim.phase = "failed"
            self.current = None
            self.world.arm_moving = False
        return prim

    def _drawer_contact(self, prim: PrimitiveState) -> bool:
        """The drawer only moves under real contact: a pull needs the handle
        in the gripper, a push needs the arm at the drawer front.  A
        primitive dispatched off a wrong estimate moves nothing."""
        if prim.op.schema.name == "pull_drawer":
            return self.world.attached == HANDLE
        return self.world.arm_region == (FRONT_OF_DRAWER, None)

    # -- outcome rules -------------------------------------------------------

    def _free_counter_zone(self) -> int:
        used = {
            pose[1]
            for pose in self.world.object_pose.values()
            if pose[0] == "counter"
        }
        for zone in range(NUM_COUNTER_ZONES):
            if zone not in used:
                return zone
        raise RuntimeError("no free counter zone")

    def _drop_attached(self) -> None:
        w = self.world
        if w.attached is None:
            return
        if w.attached != HANDLE:
            if w.arm_region[0] in (OVER_DRAWER, IN_DRAWER):
                w.object_pose[w.attached] = ("in_drawer",)
            elif w.object_pose[w.attached][0] not in ("counter", "in_drawer"):
                w.object_pose[w.attached] = ("counter", self._free_counter_zone())
        w.attached = None

    def _apply_success(self, prim: PrimitiveState) -> None:
        w = self.world
        name = prim.op.schema.name
        args = prim.op.bound_args
        if name == "open_gripper":
            self._drop_attached()
            w.gripper_aperture = 1.0
        elif name == "approach_drawer_open":
            w.arm_region = (APPROACH, HANDLE)
        elif name == "cage_handle":
            w.gripper_aperture = 1.0
            w.arm_region = (AROUND, HANDLE)
        elif name == "grasp_handle":
            if w.arm_region == (AROUND, HANDLE) and w.attached is None:
                w.attached = HANDLE
                w.gripper_aperture = GRASP_APERTURE
            else:
                w.gripper_aperture = 1.0  # closed on air, controller re-opens
        elif name == "pull_drawer":
            if w.attached == HANDLE:
                w.drawer_extension = 1.0
        elif name == "release_handle":
            w.attached = None
            w.gripper_aperture = 1.0
            w.arm_region = (NEAR_HANDLE, None)
        elif name == "back_off":
            w.arm_region = (ABOVE_COUNTER, None)
        elif name == "approach_obj":
            obj = args[0]
            if self.world.object_pose[obj] == ("counter", prim.target_zone):
                w.arm_region = (APPROACH, obj)
            else:
                w.arm_region = (ABOVE_COUNTER, None)
        elif name == "cage_obj":
            obj = args[0]
            w.gripper_aperture = 1.0
            if self.world.object_pose[obj] == ("counter", prim.target_zone):
                w.arm_region = (AROUND, obj)
            else:
                w.arm_region = (ABOVE_COUNTER, None)
        elif name == "grasp_obj":
            obj = args[0]
            if w.arm_region == (AROUND, obj) and w.object_pose[obj][0] == "counter":
                w.attached = obj
                w.gripper_aperture = GRASP_APERTURE
            else:
                w.gripper_aperture = 1.0
        elif name == "lift_obj":
            obj = args[0]
            if w.attached == obj:
                w.object_pose[obj] = ("held",)
            w.arm_region = (ABOVE_COUNTER, None)
        elif name == "move_obj_over_drawer":
            if w.attached is not None and w.attached != HANDLE:
                w.object_pose[w.attached] = ("over_drawer",)
            w.arm_region = (OVER_DRAWER, None)
        elif name == "lower_obj_into_drawer":
            if w.attached is not None and w.attached != HANDLE:
                w.object_pose[w.attached] = ("in_drawer",)
            w.arm_region = (IN_DRAWER, None)
        elif name == "release_obj":
            self._drop_attached()
            w.gripper_aperture = 1.0
        elif name == "approach_drawer_close":
            w.arm_region = (FRONT_OF_DRAWER, None)
        elif name == "push_drawer":
            if w.arm_region == (FRONT_OF_DRAWER, None):
                w.drawer_extension = 0.0
        else:
            raise UnknownBindingError(f"no outcome rule for operator {name}")

    def _apply_failure(self, prim: PrimitiveState) -> None:
        w = self.world
        name = prim.op.schema.name
        if name in ("grasp_handle", "grasp_obj"):
            w.gripper_aperture = 1.0  # closed on nothing, re-opened
        elif name == "pull_drawer":
            # slipped off the handle partway (extension already advanced)
            if w.attached == HANDLE:
                w.attached = None
            w.gripper_aperture = 1.0
            w.arm_region = (NEAR_HANDLE, None)
        elif name == "lift_obj":
            obj = prim.op.bound_args[0]
            if w.attached == obj:
                w.attached = None
                w.gripper_aperture = 1.0
                w.object_pose[obj] = ("counter", self._free_counter_zone())
            w.arm_region = (ABOVE_COUNTER, None)
        elif name == "move_obj_over_drawer":
            if w.attached is not None and w.attached != HANDLE:
                obj = w.attached
                w.attached = None
                w.gripper_aperture = 1.0
                w.object_pose[obj] = ("counter", self._free_counter_zone())
            w.arm_region = (ABOVE_COUNTER, None)
        elif name == "lower_obj_into_drawer":
            if w.attached is not None and w.attached != HANDLE:
                obj = w.attached
                w.attached = None
                w.gripper_aperture = 1.0
                w.object_pose[obj] = ("in_drawer",)
            w.arm_region = (OVER_DRAWER, None)
        # push_drawer: stalls partway, arm stays put
        # approach/cage/back_off/release/open_gripper: no change, retry

    # -- disturbances --------------------------------------------------------

    def apply_disturbance(self, kind: dict) -> None:
        """Apply one scripted world change; invariants are restored (a held
        object detaches, an arm region aimed at a teleported object resets)."""
        w = self.world
        what = kind["kind"]
        if what == "teleport_object":
            obj = kind["object"]
            if obj not in self.grounded.movables:
                raise ValueError(f"unknown object {obj!r}")
            dest = kind.get("destination", "counter_random")
            if w.attached == obj:
                w.attached = None
                w.gripper_aperture = 1.0
            if dest == "counter_random":
                # exclude every occupied zone, the object's own included, so
                # the teleport genuinely displaces it
                used = {
                    p[1] for p in w.object_pose.values() if p[0] == "counter"
                }
                free = [z for z in range(NUM_COUNTER_ZONES) if z not in used]
                zone = int(self.world_rng.choice(free))
            elif isinstance(dest, dict) and "zone" in dest:
                zone = int(dest["zone"])
                if not 0 <= zone < NUM_COUNTER_ZONES:
                    raise ValueError(f"invalid counter zone {zone}")
            else:
                raise ValueError(f"invalid teleport destination {dest!r}")
            w.object_pose[obj] = ("counter", zone)
            if w.arm_region[1] == obj:
                w.arm_region = (ABOVE_COUNTER, None)
        elif what == "set_drawer":
            ext = float(kind["extension"])
            if not 0.0 <= ext <= 1.0:
                raise ValueError(f"invalid drawer extension {ext}")
            w.drawer_extension = ext
            if w.attached == HANDLE:
                w.attached = None
                w.gripper_aperture = 1.0
                w.arm_region = (NEAR_HANDLE, None)
        elif what == "detach_gripper":
            if w.attached is not None:
                self._drop_attached()
                w.gripper_aperture = 1.0
        else:
            raise ValueError(f"unknown disturbance kind {what!r}")
        w.validate()
