"""Shared helpers for the test suite: fixture loading and set-based oracles.

The oracle implementations here deliberately use plain dicts/sets of atom
name strings, independent of the package's bitmask representation.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional

from chainreact.kitchen import DRIVING, WorldState
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
