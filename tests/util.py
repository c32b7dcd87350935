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


def step_names(steps) -> list[str]:
    """The printed names of plan or chain steps, in order."""
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
