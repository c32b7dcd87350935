"""Shared helpers for the test suite: fixture loading and set-based oracles.

The oracle implementations here deliberately use plain dicts/sets of atom
name strings, independent of the package's bitmask representation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from chainreact.kitchen import DEFAULT_PRIMITIVES, DRIVING, PrimitiveSpec, WorldState
from chainreact.lang import DomainDefinition, parse_domain, parse_problem

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "chainreact" / "data"

# (domain edits, problem edits) for the kitchen domain and pick_spam: spam
# is a cup and sugar a plain movable, and every predicate and action that
# took a movable takes a cup, so no atom of those predicates names sugar.
CUPS_ONLY = (
    [("(:types movable - graspable)", "(:types cup - movable movable - graspable)"),
     ("?o - movable", "?o - cup")],
    [("spam sugar - movable", "spam - cup sugar - movable"),
     *((f" ({name} sugar)", "") for name in
       ("obj_is_on_counter", "obj_is_detected", "obj_is_tracked"))],
)

# Clauses of an action mv over ?x and ?y of one type whose binding ?x = ?y
# collides with itself: its effect adds and deletes p, or a condition
# requires and negates p.
SELF_COLLISIONS = {
    "effect": ":precondition (p ?y) :effect (and (p ?x) (not (p ?y)))",
    "precondition": ":precondition (and (p ?x) (not (p ?y))) :effect (and (p ?y) (not (p ?x)))",
    "runcondition": ":precondition (p ?x) :runcondition (and (p ?x) (not (p ?y)))"
                    " :effect (and (p ?y) (not (p ?x)))",
}


def two_object_files(clauses: str) -> tuple[str, str]:
    """The text of a domain whose one action is ``mv ?x ?y`` with
    ``clauses``, over objects of type obj, and of a problem over objects a
    and b whose goal moves p from a to b."""
    return (
        "(define (domain d) (:types obj) (:predicates (p ?x - obj))\n"
        f"  (:action mv :parameters (?x - obj ?y - obj) {clauses}))\n",
        "(define (problem ab) (:domain d) (:objects a b - obj)"
        " (:init (p a)) (:goal (p b)))\n",
    )


# A domain and problem whose plan is a then b: b needs p, which holds from
# the start, so regression carries p into a, whose run condition negates p.
NEGATED_CARRY = (
    "(define (domain d) (:predicates (p) (q) (g1) (g))\n"
    "  (:action a :precondition (q) :runcondition (and (q) (not (p))) :effect (g1))\n"
    "  (:action b :precondition (and (p) (g1)) :effect (g)))\n",
    "(define (problem pq) (:domain d) (:init (p) (q)) (:goal (g)))\n",
)

# Its mirror image: b needs p false, which holds from the start, so
# regression carries (not p) into a, whose run condition requires p.
NEGATED_PRE = (
    "(define (domain d) (:predicates (p) (q) (g1) (g))\n"
    "  (:action a :precondition (q) :runcondition (and (q) (p)) :effect (g1))\n"
    "  (:action b :precondition (and (not (p)) (g1)) :effect (g)))\n",
    "(define (problem pq) (:domain d) (:init (q)) (:goal (g)))\n",
)


def kitchen_path() -> Path:
    return DATA_DIR / "kitchen.dpdl"


def problem_path(name: str) -> Path:
    return DATA_DIR / "problems" / f"{name}.dprob"


def scenario_path(name: str) -> Path:
    return DATA_DIR / "scenarios" / f"{name}.json"


def scenario_copy(
    directory: Path,
    name: str,
    domain: Optional[str] = None,
    problem: Optional[str] = None,
    **fields,
) -> Path:
    """Write shipped scenario ``name`` into ``directory`` with absolute
    domain and problem paths, reading the domain or problem from new files
    with the given text when one is given, and ``fields`` set over its
    top-level fields.  Returns the new scenario file."""
    path = scenario_path(name)
    raw = json.loads(path.read_text(encoding="utf-8"))
    for key, text in (("domain", domain), ("problem", problem)):
        source = (path.parent / raw[key]).resolve()
        if text is not None:
            source = directory / source.name
            source.write_text(text, encoding="utf-8")
        raw[key] = str(source)
    raw.update(fields)
    out = directory / f"{name}.json"
    out.write_text(json.dumps(raw), encoding="utf-8")
    return out


def primitives(success_prob: float) -> dict[str, PrimitiveSpec]:
    """The default primitive table with every ``success_prob`` set to
    ``success_prob``, as a scenario's global ``success_prob`` sets it."""
    return {
        name: dataclasses.replace(spec, success_prob=float(success_prob))
        for name, spec in DEFAULT_PRIMITIVES.items()
    }


def kitchen_source() -> str:
    return kitchen_path().read_text(encoding="utf-8")


def problem_source(name: str) -> str:
    return problem_path(name).read_text(encoding="utf-8")


@functools.lru_cache(maxsize=1)
def kitchen_domain() -> DomainDefinition:
    result = parse_domain(kitchen_source())
    assert result.ok, result.diagnostics
    return result.value


def kitchen_problem(name: str):
    result = parse_problem(problem_source(name), kitchen_domain())
    assert result.ok, result.diagnostics
    return result.value


def put_away_problem(k: int) -> str:
    """The text of a kitchen problem with ``k`` movables, declared in order
    as ``o1`` to ``ok``: each starts on the counter, detected and tracked,
    the rest is the reference configuration, and the goal puts every one
    into the drawer and closes it."""
    objects = [f"o{i}" for i in range(1, k + 1)]
    facts = " ".join(
        f"({pred} {obj})"
        for pred in ("obj_is_on_counter", "obj_is_detected", "obj_is_tracked")
        for obj in objects
    )
    goal = " ".join(f"(obj_is_in_drawer {obj})" for obj in objects)
    return f"""(define (problem put-away-{k})
  (:domain kitchen)
  (:objects {' '.join(objects)} - movable)
  (:init (arm_in_driving_posture) (gripper_is_open) (arm_is_free)
         (drawer_is_closed) (handle_is_detected) (handle_is_tracked) {facts})
  (:goal (and {goal} (drawer_is_closed)))
)
"""


def bits(vocab, *names: str) -> int:
    """The OR of the bits of the atoms printed as ``names``, each found by
    its position in ``vocab.names`` rather than through ``bit_of``."""
    mask = 0
    for name in names:
        mask |= 1 << vocab.names.index(name)
    return mask


def step_names(steps) -> list[str]:
    """The printed names of ground operators, in order."""
    return [step.name for step in steps]


def reference_world(movables: tuple[str, ...] = ("spam", "sugar")) -> WorldState:
    """The reference configuration, which the shipped problems' init
    describes: objects on distinct counter zones, drawer shut, arm parked in
    the driving posture, gripper open and empty."""
    return WorldState(
        arm_region=(DRIVING, None),
        gripper_aperture=1.0,
        attached=None,
        drawer_extension=0.0,
        object_pose={obj: ("counter", i) for i, obj in enumerate(movables)},
    )


def table_truth(world: WorldState) -> set[str]:
    """The printed names of the atoms true of ``world`` by the table in
    docs/kitchen-domain.md, read off the world's own fields and the
    documented thresholds (gripper open at 0.9, drawer open at 0.7, closed
    at 0.05)."""
    kind, target = world.arm_region
    attached = world.attached
    opened = world.drawer_extension >= 0.7
    rules = {
        "arm_in_driving_posture": kind == "driving",
        "arm_is_above_counter": kind == "above_counter",
        "arm_is_clear_above_counter": kind == "above_counter",
        f"arm_in_approach_region({target})": kind == "approach",
        f"arm_is_around({target})": kind == "around",
        "arm_is_around_handle_loose": (
            world.arm_region == ("around", "handle") and attached is None
        ),
        f"arm_is_around_obj_loose({target})": (
            kind == "around" and target != "handle" and attached is None
        ),
        "arm_is_near_handle": (
            kind in ("near_handle", "front_of_drawer") or target == "handle"
        ),
        "arm_in_front_of_drawer": kind == "front_of_drawer",
        "arm_is_over_drawer": kind == "over_drawer",
        "arm_is_in_drawer": kind == "in_drawer",
        "arm_is_moving": world.arm_moving,
        "gripper_is_open": world.gripper_aperture >= 0.9,
        "arm_is_free": attached is None,
        "arm_is_attached": attached is not None,
        "handle_is_attached": attached == "handle",
        "drawer_is_open": opened,
        "drawer_is_closed": world.drawer_extension <= 0.05,
        "drawer_is_open_and_detached": opened and attached != "handle",
        "handle_is_detected": attached != "handle",
        "handle_is_tracked": attached != "handle",
    }
    for obj, pose in world.object_pose.items():
        seen = not (pose[0] == "in_drawer" and not opened)
        rules.update({
            f"arm_is_attached_to_obj({obj})": attached == obj,
            f"obj_is_attached({obj})": attached == obj,
            f"obj_is_on_counter({obj})": pose[0] == "counter",
            f"obj_is_over_drawer({obj})": pose[0] == "over_drawer",
            f"obj_is_in_drawer({obj})": pose[0] == "in_drawer",
            f"obj_is_clear_above_counter({obj})": (
                pose[0] == "held" and kind == "above_counter"
            ),
            f"obj_is_detected({obj})": seen,
            f"obj_is_tracked({obj})": seen,
        })
    return {name for name, true in rules.items() if true}


class SymbolicSim:
    """A simulator whose world is the truth mask itself, for running
    ``executive.run`` on domains the kitchen cannot express.

    The world starts at ``grounded.init``.  A started primitive lasts
    ``min_ticks`` to ``max_ticks`` ticks, drawn from ``rng``, and when it
    ends it succeeds with probability ``success_prob``: a success applies
    its operator's effects, a failure changes nothing.  A disturbance, of
    any kind, ends the running primitive and sets the world to ``reset``;
    ``fired`` counts them."""

    def __init__(self, grounded, rng: random.Random, min_ticks=1, max_ticks=3,
                 success_prob=1.0, reset=0):
        self.grounded = grounded
        self.truth = grounded.init.mask
        self.rng = rng
        self.ticks = (min_ticks, max_ticks)
        self.success_prob = success_prob
        self.reset = reset
        self.current: Optional[SimpleNamespace] = None
        self.fired = 0

    def eval_predicates(self) -> int:
        return self.truth

    def start_primitive(self, op) -> None:
        self.current = SimpleNamespace(op=op, left=self.rng.randint(*self.ticks),
                                       phase="running")

    def abort_primitive(self) -> None:
        self.current = None

    def tick(self) -> SimpleNamespace:
        prim = self.current
        prim.left -= 1
        if not prim.left:
            self.current = None
            prim.phase = "failed"
            if self.rng.random() < self.success_prob:
                prim.phase = "done"
                self.truth = self.truth & ~prim.op.eff.del_mask | prim.op.eff.add_mask
        return prim

    def apply_disturbance(self, *change) -> None:
        self.current = None
        self.truth = self.reset
        self.fired += 1
