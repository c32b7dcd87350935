"""Every JSON file format, seeded batch trials and metrics.

Every JSON file the program reads is checked here against a schema, by one
checker that names the field path of each fault and rejects unknown fields;
a file with faults raises one :class:`InputError` that lists them all.

The domain and problem files are read on every load, and their parses
and grounding cached by text (the last ``_CACHED_TEXTS`` of each) for the
life of the process: an edited file is parsed again, and scenarios naming
the same texts share one :class:`GroundedDomain`, which is read-only.

A scenario is a JSON file naming a domain and problem (paths relative to
the scenario file), the executive to run, the perception mode, overrides of
the kitchen's ``DEFAULT_PRIMITIVES``, initial-condition randomisation,
scripted disturbances and the trial protocol.  Trial ``i`` runs with seed
``base_seed + i``, split into three named streams (sim, perception,
primitives; the oracle builds no Generator for perception), so identical
scenario plus seed means byte-identical metrics and traces.

Each trial plans from the perception pipeline's estimate of the sampled
initial world (after ``PerceptionPipeline.warm_up``), builds the robust
chain, and hands control to the executive.  There is no replanning: a trial
whose initial estimate yields no plan is recorded as ``no_plan``.

Plans are memoized per loaded :class:`Scenario`, keyed on the estimate's
mask, and chains per plan, keyed on its operator indices: the goal is
fixed per scenario, and the planner and chain builder are deterministic,
so a hit returns the chain a miss would build, and records and traces are
the same as without the memos.  Masks that share a plan share its chain
and so the chain's selection memo, keyed on truth masks (``executive.run``).
Traced trials also keep, per truth mask a tick line lists, the JSON text
of its atom names; an estimate off the truth is encoded without being
stored, so the memo grows with the distinct truth masks, not with trials
or noise.  A tick's phase, reason, operator name and step index take their
text from one cache for the whole process, as a value's text is the same
in every scenario.  Each tick line is written from these texts as the
bytes ``json.dumps(line, sort_keys=True)`` would give.  The memos live as
long as the Scenario object.  A Scenario is frozen: a changed copy comes
from ``dataclasses.replace``, which starts with empty memos.

Parallel runs use a pool from :func:`queue_trials`.  Its workers receive
the loaded scenarios once, when they start (under fork they inherit them
and nothing is pickled; under spawn they are pickled, memos included),
and import ``numpy.random`` then, so no trial pays for that import.
Each exits on its own once its parent has ended, whatever ended it.  A
task names a scenario by its position and carries one contiguous range
of trial indices.  Each range runs on a ``dataclasses.replace`` copy of
its scenario, so it starts with empty memos wherever it lands: how
often a range plans does not depend on which worker took it, what that
worker ran before, or what memo the scenario was pickled with.  Every
scenario's ranges are queued before :func:`run_trials` collects the
first, so no worker waits at a scenario boundary.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from . import executive as exe
from .chains import Chain, build_chain
from .kitchen import (
    DEFAULT_PRIMITIVES,
    NUM_COUNTER_ZONES,
    InitialConfig,
    KitchenSim,
    PrimitiveSpec,
    contract_problems,
    sample_initial,
)
from .lang import ParseResult, parse_domain, parse_problem
from .logic import LogicalState
from .perception import DEFAULT_WINDOW, NoiseModel, PerceptionPipeline
from .planner import GroundedDomain, GroundingLimitError, GroundOperator, Plan, ground, plan

FORMAT_VERSION = 2  # of trace files
CHAIN_FORMAT_VERSION = 2
PLAN_FORMAT_VERSION = 1
RESULTS_FORMAT_VERSION = 1
SCENARIO_FORMAT_VERSION = 2


@dataclass(frozen=True)
class Scenario:
    name: str
    config_digest: str  # of the JSON after overrides and the domain and problem text
    grounded: GroundedDomain
    open_loop: bool  # the executive: the open-loop baseline, or reactive
    noise: NoiseModel
    window: int
    primitives: dict[str, PrimitiveSpec]
    initial: InitialConfig
    disturbances: tuple[exe.Disturbance, ...]  # resolved at load
    goal_streak: int
    stuck_after: int
    max_ticks: int
    trials: int
    base_seed: int
    # run_trial's plan memo: estimate mask -> chain, None when unsolved,
    # and the one chain of each solved plan, by its operator indices
    _chains_by_mask: dict[int, Optional[Chain]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _chains_by_plan: dict[tuple[int, ...], Chain] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # run_trial's trace memo: truth mask -> JSON text of its atom names
    _atoms_text_by_mask: dict[int, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def trace_name(self, index: int) -> str:
        return f"{self.name}_trial{index:04d}.jsonl"


class _JSONFields:
    def to_json_dict(self) -> dict:
        """The dataclass fields by name, without other instance attributes."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class TrialRecord(_JSONFields):
    trial: int
    seed: int
    status: str  # succeeded | stuck | budget_exhausted | no_plan
    ticks: int
    recoveries: int
    false_success: bool
    operator_history: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.status == "succeeded"


@dataclass
class Metrics(_JSONFields):
    scenario: str
    trials: int
    success_rate: float
    mean_ticks: Optional[float]  # successes only; None without successes
    recovery_rate: float  # fraction of trials with at least one recovery
    false_success_rate: float


class InputError(ValueError):
    """A bad input file; ``problems`` holds one line per fault, without the path."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def load_scenario(path: str | Path, overrides: Optional[dict] = None) -> Scenario:
    """Load, validate and ground a scenario file.

    ``overrides`` is merged over the raw JSON before validation (used by
    the CLI flags and the acceptance suite for trial-count or primitive
    overrides)."""
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise InputError(["a scenario must be a JSON object"])
    if overrides:
        raw = _deep_merge(raw, overrides)
    return build_scenario(raw, base_dir=path.parent, name=path.stem)


def read_json(path: str | Path):
    """The JSON value in the file at ``path``.  Raises :class:`InputError`
    whose one problem is ``cannot read: REASON``, ``not UTF-8 text: REASON
    at byte N`` or ``not JSON: MESSAGE``, also for a key repeated in one
    object or a ``NaN``, ``Infinity`` or ``-Infinity``, which json accepts."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
    except (OSError, UnicodeDecodeError) as err:
        raise InputError([_read_error(err)]) from err
    except ValueError as err:
        raise InputError([f"not JSON: {err}"]) from err


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} repeated in one object")
        out[key] = value
    return out


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _read_error(err: OSError | UnicodeDecodeError) -> str:
    if isinstance(err, UnicodeDecodeError):
        return f"not UTF-8 text: {err.reason} at byte {err.start}"
    return f"cannot read: {err.strerror or err}"


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_grounded(
    domain_path: str, problem_path: str, problems: list[str],
    sources: Optional[list[str]] = None,
) -> Optional[GroundedDomain]:
    """Read, parse and ground a domain and problem file pair.

    Returns ``None`` after appending to ``problems`` one line per fault,
    each starting with the path of its file: a file that cannot be read or
    is not UTF-8 text, or a parse diagnostic as ``PATH:LINE:COL: error:
    MESSAGE``, or ``PROBLEM_PATH: grounding exceeds N operators`` (or
    ``atoms``).  The problem is read only once the domain parses.  The
    text of each file read is appended to ``sources`` when it is given,
    and keys the cached parse and grounding."""
    sources = [] if sources is None else sources
    texts: list[str] = []
    for path, parse in ((domain_path, _parse_domain), (problem_path, _ground)):
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            problems.append(f"{path}: {_read_error(err)}")
            return None
        sources.append(texts[-1])
        try:
            result = parse(*texts)
        except GroundingLimitError as err:
            problems.append(f"{path}: {err}")
            return None
        problems.extend(f"{path}:{diag}" for diag in result.diagnostics)
        if not result.ok:
            return None
    return result.value


# How many domain texts, and (domain, problem) text pairs, keep their
# parses and grounding: the ones loaded last.
_CACHED_TEXTS = 32


@lru_cache(maxsize=_CACHED_TEXTS)
def _parse_domain(domain_text: str) -> ParseResult:
    return parse_domain(domain_text)


@lru_cache(maxsize=_CACHED_TEXTS)
def _ground(domain_text: str, problem_text: str) -> ParseResult:
    """The problem's parse against the cached domain, its value grounded
    if it parses.  A :class:`GroundingLimitError` is raised, not cached."""
    domain = _parse_domain(domain_text).value
    result = parse_problem(problem_text, domain)
    return replace(result, value=ground(domain, result.value)) if result.ok else result


# --------------------------------------------------------------------------
# Scenario schema
# --------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_prob(value) -> bool:
    """A number in [0, 1]; NaN is not."""
    return _is_number(value) and 0.0 <= value <= 1.0


def _int_from(low: int) -> tuple:
    return (lambda v: _is_int(v) and v >= low, f"an int >= {low}")


def _version(number: int) -> tuple:
    return (lambda v: _is_int(v) and v == number, str(number))


def _one_of(*options) -> tuple:
    return (lambda v: isinstance(v, str) and v in options, f"one of {options}")


@dataclass(frozen=True)
class _Object:
    """Schema of a JSON object: the shape of each field it may hold, and the
    fields it must hold.  A shape is another schema, a one-element list (a
    list of that shape), an :class:`_Each`, or a leaf ``(test, expected)``:
    a predicate on the value and what it must be."""

    fields: dict
    required: tuple = ()


@dataclass(frozen=True)
class _Each:
    """Schema of a JSON object whose keys are names and whose values all
    have ``shape``."""

    shape: object


def _check(value, shape, where: str, problems: list[str]) -> None:
    """Append a problem naming the field path of each part of ``value``
    that does not match ``shape``: a wrong type or value, a missing
    required field, or a field the schema does not know."""
    if isinstance(shape, tuple):
        test, expected = shape
        if not test(value):
            problems.append(f"field '{where}' must be {expected}")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            problems.append(f"field '{where}' must be a list")
        else:
            for i, item in enumerate(value):
                _check(item, shape[0], f"{where}[{i}]", problems)
    elif not isinstance(value, dict):
        problems.append(f"field '{where}' must be an object")
    elif isinstance(shape, _Each):
        for key, item in value.items():
            _check(item, shape.shape, f"{where}.{key}", problems)
    else:
        prefix = f"{where}." if where else ""
        problems.extend(
            f"missing required field '{prefix}{key}'"
            for key in shape.required
            if key not in value
        )
        for key, item in value.items():
            if key in shape.fields:
                _check(item, shape.fields[key], prefix + key, problems)
            else:
                problems.append(f"unknown field '{prefix}{key}'")


_STR = (lambda v: isinstance(v, str), "a string")
_PROB = (_is_prob, "a number in [0, 1]")
_FLIP = (lambda v: _is_number(v) and 0.0 <= v < 0.5, "a number in [0, 0.5)")
_ANY = (lambda v: True, "anything")
# The simulator draws a primitive's ticks as an int64, and the perception
# window (at most max_ticks long) is a deque: both take at most sys.maxsize.
_TICKS = (lambda v: _is_int(v) and 1 <= v <= sys.maxsize, f"an int in 1..{sys.maxsize}")
# The name prefixes each trace file, so it must not leave the trace dir.
_NAME = (
    lambda v: isinstance(v, str) and v not in ("", ".", "..") and not set(v) & set("/\\\0"),
    "a file name: not empty, '.' or '..', and without '/', '\\' or NUL",
)
_INITIAL_PROBS = ("gripper_open_prob", "drawer_open_prob", "object_in_drawer_prob")
_TRIGGER = {"at_tick": _int_from(0), "when_operator": _STR, "when_predicate": _STR}
# The fields of a disturbance's "kind" object, by its "kind" value.
_KINDS = {
    "teleport_object": _Object(
        {"kind": _ANY, "object": _STR, "destination": _ANY}, ("object",)
    ),
    "set_drawer": _Object({"kind": _ANY, "extension": _PROB}, ("extension",)),
    "detach_gripper": _Object({"kind": _ANY}),
}
_DESTINATION = _Object(
    {"zone": (
        lambda v: _is_int(v) and 0 <= v < NUM_COUNTER_ZONES,
        f"an int in 0..{NUM_COUNTER_ZONES - 1}",
    )},
    ("zone",),
)
_SCENARIO = _Object(
    {
        "format_version": _version(SCENARIO_FORMAT_VERSION),
        "name": _NAME,
        "domain": _STR,
        "problem": _STR,
        "executive": _one_of("reactive", "open_loop"),
        "perception": _Object({
            "mode": _one_of("oracle", "noisy"),
            "window": _int_from(1),
            "default_flip": _FLIP,
            "per_predicate_flip": _Each(_FLIP),
        }),
        "primitives": _Object({
            "success_prob": _PROB,
            "bindings": _Each(_Object({
                "min_ticks": _TICKS,
                "max_ticks": _TICKS,
                "success_prob": _PROB,
            })),
        }),
        "initial": _Object({
            "objects": _one_of("counter_only", "anywhere"),
            "drawer": _one_of("closed", "open", "mixed"),
            "arm": _one_of("driving", "above", "random"),
            **dict.fromkeys(_INITIAL_PROBS, _PROB),
        }),
        "disturbances": [_Object(
            {
                "trigger": _Object(_TRIGGER),
                "kind": (
                    lambda v: isinstance(v, dict) and v.get("kind") in tuple(_KINDS),
                    f"an object whose 'kind' is one of {tuple(_KINDS)}",
                ),
            },
            ("trigger", "kind"),
        )],
        "goal_streak": _int_from(1),
        "stuck_after": _int_from(1),
        "max_ticks": _TICKS,
        "trials": _int_from(1),
        "base_seed": _int_from(0),
    },
    required=("domain", "problem", "max_ticks", "trials", "base_seed"),
)


def build_scenario(raw: dict, base_dir: Path, name: str = "scenario") -> Scenario:
    # Shapes first, so that everything below reads well-typed values; then
    # the checks that need several fields or the grounded domain.
    problems: list[str] = []
    _check(raw, _SCENARIO, "", problems)
    # The primitive table: each binding's fields over its default, if any, and
    # the global success_prob under both.
    overrides = {} if problems else raw.get("primitives", {})
    p = overrides.get("success_prob")
    shared = {} if p is None else {"success_prob": float(p)}
    primitives = {k: replace(v, **shared) for k, v in DEFAULT_PRIMITIVES.items()}
    for key, spec in overrides.get("bindings", {}).items():
        if key in primitives:
            primitives[key] = replace(primitives[key], **spec)
        elif {"min_ticks", "max_ticks"} <= spec.keys():
            primitives[key] = PrimitiveSpec(**{**shared, **spec})
        else:
            problems.append(
                f"field 'primitives.bindings.{key}' has no default, so it must give "
                + " and ".join(k for k in ("min_ticks", "max_ticks") if k not in spec)
            )
    if problems:
        raise InputError(problems)

    problems.extend(
        f"field 'primitives.bindings.{key}' has min_ticks {spec.min_ticks} "
        f"above max_ticks {spec.max_ticks}"
        for key, spec in primitives.items()
        if spec.min_ticks > spec.max_ticks
    )

    domain_path = (base_dir / raw["domain"]).resolve()
    problem_path = (base_dir / raw["problem"]).resolve()
    sources: list[str] = []
    grounded = load_grounded(str(domain_path), str(problem_path), problems, sources)
    if grounded is not None:
        if not grounded.problem.goal:
            problems.append(f"{problem_path}: the goal is empty, so trials succeed without a step")
        # The executive can enter such a step and then never continue it.
        # Starting a step sets arm_is_moving, so a run condition may require it.
        names_of = grounded.vocabulary.names_of
        moving = grounded.vocabulary.bits.get(("arm_is_moving", ()), 0)
        problems.extend(
            f"{domain_path}: action '{op.name}': its run condition {verb} {atom}, "
            f"which its precondition {opposite}, so the step {is_} entered and never continued"
            for op in grounded.operators
            for clash, verb, opposite, is_ in (
                (op.run.neg_mask & op.pre.pos_mask, "negates", "requires", "is"),
                (op.run.pos_mask & op.pre.neg_mask, "requires", "negates", "is"),
                (op.run.pos_mask & ~op.pre.pos_mask & ~op.pre.neg_mask & ~moving,
                 "requires", "does not require", "can be"),
            )
            if clash
            for atom in names_of(clash)
        )

    perception = raw.get("perception", {})
    flips = perception.get("per_predicate_flip", {})
    problems.extend(
        f"field 'perception.{key}' is read only with \"mode\": \"noisy\""
        for key in ("window", "default_flip", "per_predicate_flip")
        if key in perception and perception.get("mode") != "noisy"
    )
    noise, window = NoiseModel(), perception.get("window", DEFAULT_WINDOW)
    if perception.get("mode") == "noisy":
        if window > raw["max_ticks"]:  # the default too: the warm-up fills it
            problems.append(
                f"field 'perception.window': window {window} is above max_ticks "
                f"{raw['max_ticks']}, so the initial world's votes never leave it"
            )
        noise = NoiseModel(
            default_flip=float(perception.get("default_flip", 0.05)),
            per_predicate_flip={str(k): float(v) for k, v in flips.items()},
        )
        if noise.is_oracle:
            problems.append(
                "field 'perception': every flip is 0, so \"mode\": \"noisy\" "
                "perceives as the oracle and its window never acts"
            )
    streak = raw.get("goal_streak", exe.DEFAULT_GOAL_STREAK)
    if raw.get("executive") == "open_loop":
        problems.extend(
            f"field '{key}' is read only with \"executive\": \"reactive\""
            for key in ("goal_streak", "stuck_after") if key in raw
        )
    elif streak > raw["max_ticks"]:  # the default too: a streak counts ticks
        problems.append(
            f"field 'goal_streak': streak {streak} is above max_ticks "
            f"{raw['max_ticks']}, so no trial can succeed"
        )
    if grounded is not None:
        # An action without a :binding is a contract line, not a binding "".
        bound = {op.binding for op in grounded.domain.operators} - {""}
        problems.extend(
            f"field 'primitives.bindings.{key}': no domain operator is bound to it"
            for key in raw.get("primitives", {}).get("bindings", {})
            if key not in bound
        )
        problems.extend(
            f"field 'primitives.bindings.{key}' is missing: domain operators are "
            "bound to it and it has no default"
            for key in sorted(bound - set(primitives))
        )
        problems.extend(
            f"field 'perception.per_predicate_flip.{key}': no such domain predicate"
            for key in flips
            if grounded.domain.predicate(key) is None
        )
        # Its lines start "domain:" or "problem:"; put that file's path first.
        files = {"domain": domain_path, "problem": problem_path}
        problems.extend(
            f"{files[line.split(':', 1)[0]]}: {line}"
            for line in contract_problems(grounded)
        )
    disturbances = resolve_disturbances(
        raw.get("disturbances", []), grounded, raw["max_ticks"], problems
    )
    if problems:
        raise InputError(problems)

    initial = raw.get("initial", {})
    return Scenario(
        name=raw.get("name", name),
        # The scenario JSON, then the domain and problem text.
        config_digest=hashlib.sha256(
            json.dumps([raw, *sources], sort_keys=True).encode()
        ).hexdigest()[:16],
        grounded=grounded,
        open_loop=raw.get("executive") == "open_loop",
        noise=noise,
        window=window,
        primitives=primitives,
        initial=InitialConfig(
            **{k: float(v) if k in _INITIAL_PROBS else v for k, v in initial.items()}
        ),
        disturbances=disturbances,
        goal_streak=streak,
        stuck_after=raw.get("stuck_after", exe.DEFAULT_STUCK_AFTER),
        max_ticks=raw["max_ticks"],
        trials=raw["trials"],
        base_seed=raw["base_seed"],
    )


def resolve_disturbances(
    specs: Sequence[dict], grounded: Optional[GroundedDomain], max_ticks: int,
    problems: list[str],
) -> tuple[exe.Disturbance, ...]:
    """Check the disturbance entries, whose outer shape the schema has
    checked: one trigger each, an ``at_tick`` below ``max_ticks`` (ticks run
    from 0 to ``max_ticks - 1``), the fields of the kind, and a destination
    of ``"counter_random"`` or ``{"zone": n}``.  Resolve each entry that passes
    against ``grounded``, unless that is ``None``: a trigger name matches a
    ground operator's or schema's name, or an atom's, once whitespace is
    removed from both, and a teleport must name a movable.  Each fault
    appends a problem with its field path to ``problems``."""
    out = []
    for i, spec in enumerate(specs):
        where = f"disturbances[{i}]"
        trigger, kind = spec["trigger"], spec["kind"]
        before = len(problems)
        if len(trigger) != 1:
            problems.append(
                f"field '{where}.trigger' must have exactly one of {tuple(_TRIGGER)}"
            )
        elif trigger.get("at_tick", -1) >= max_ticks:
            problems.append(
                f"field '{where}.trigger.at_tick': tick {trigger['at_tick']} is not "
                f"below max_ticks {max_ticks}, so it never fires"
            )
        _check(kind, _KINDS[kind["kind"]], f"{where}.kind", problems)
        dest = kind.get("destination", "counter_random")
        if isinstance(dest, dict):
            _check(dest, _DESTINATION, f"{where}.kind.destination", problems)
        elif dest != "counter_random":
            problems.append(
                f"field '{where}.kind.destination' must be \"counter_random\" "
                'or {"zone": n}'
            )
        if grounded is None or len(problems) > before:
            continue
        ((key, value),) = trigger.items()
        found = {"at_tick": value}
        name = "" if key == "at_tick" else "".join(value.split())
        if key == "when_operator":
            found = {"operators": frozenset(
                op.index for op in grounded.operators
                if name in ("".join(op.name.split()), op.schema.name)
            )}
        elif key == "when_predicate":
            found = {"bit": next((
                1 << k for k, atom in enumerate(grounded.vocabulary.names)
                if "".join(atom.split()) == name
            ), 0)}
        if key != "at_tick" and not all(found.values()):
            what = "operator" if key == "when_operator" else "atom"
            problems.append(f"field '{where}.trigger.{key}': unknown {what} {value!r}")
        obj = kind.get("object")
        if obj is not None and obj not in grounded.movables:
            problems.append(f"field '{where}.kind': unknown object {obj!r}")
        zone = dest["zone"] if isinstance(dest, dict) else None
        extension = float(kind.get("extension", 0.0))
        out.append(exe.Disturbance(kind["kind"], obj, zone, extension, **found))
    return tuple(out)


# --------------------------------------------------------------------------
# Trial execution
# --------------------------------------------------------------------------

# The JSON text of a tick line's phase, reason, operator name and step index,
# shared by every trial of the process: a few dozen values in all.  Untyped,
# as no caller passes a bool or a float, which would share an int's entry.
_json = lru_cache(maxsize=None)(json.dumps)


def run_trial(
    scenario: Scenario, index: int, trace_sink: Optional[IO[str]] = None
) -> TrialRecord:
    """Run one seeded trial; the sink, when given, receives the JSONL trace:
    a header line, one line per tick and an outcome line.

    The chain comes from the scenario's memo, keyed on the warmed
    estimate mask, for as long as the Scenario object lives.  On a miss,
    :func:`plan` (from a ``LogicalState``) runs and its plan's chain (from
    :func:`build_chain` once per plan), or ``None`` for an unsolved search,
    which ends the trial as ``no_plan`` before its first tick, is stored.
    Both are deterministic in the mask, and neither draws from a seeded
    stream, so records and traces do not depend on whether the memo hit."""
    seed = scenario.base_seed + index

    def stream(k: int) -> np.random.Generator:  # SeedSequence(seed).spawn(3)[k]
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))

    sim_rng = stream(0)
    perc_rng = None if scenario.noise.is_oracle else stream(1)
    prim_rng = stream(2)

    grounded = scenario.grounded
    world = sample_initial(scenario.initial, grounded.movables, sim_rng)
    sim = KitchenSim(grounded, world, scenario.primitives, prim_rng, sim_rng)
    pipeline = PerceptionPipeline(
        grounded.vocabulary, scenario.noise, scenario.window, rng=perc_rng
    )

    # Plan once, from a window warmed on the initial world.
    estimate = pipeline.warm_up(sim.eval_predicates())

    memo = scenario._chains_by_mask
    if estimate not in memo:
        result = plan(grounded, init=LogicalState(grounded.vocabulary, estimate))
        memo[estimate] = None
        if result.solved:
            chains = scenario._chains_by_plan
            indices = tuple(op.index for op in result.plan.steps)
            if indices not in chains:
                chains[indices] = build_chain(result.plan)
            memo[estimate] = chains[indices]
    chain = memo[estimate]

    on_tick = None
    if trace_sink:
        def write(line: dict) -> None:
            trace_sink.write(json.dumps(line, sort_keys=True) + "\n")

        write({
            "type": "header",
            "format_version": FORMAT_VERSION,
            "scenario": scenario.name,
            "config_digest": scenario.config_digest,
            "seed": seed,
            "initial_world": vars(world),  # no tick has run yet
        })
        names_of = grounded.vocabulary.names_of
        atoms_text = scenario._atoms_text_by_mask

        # The line json.dumps(..., sort_keys=True) writes of the tick's dict,
        # from cached text: the keys in sorted order, every value JSON-encoded.
        def on_tick(tick, truth, estimate, selected, reason, phase, fired) -> None:
            true_text = atoms_text.get(truth)
            if true_text is None:
                true_text = atoms_text[truth] = json.dumps(names_of(truth))
            estimated_text = true_text
            if estimate != truth:
                # Not stored: a noisy estimate's masks grow with the trials.
                estimated_text = atoms_text.get(estimate) or json.dumps(names_of(estimate))
            operator = None if selected is None else chain.steps[selected].base.name
            fired_text = json.dumps(fired) if fired else "[]"
            trace_sink.write(
                f'{{"disturbances_fired": {fired_text}, "estimated_atoms": {estimated_text}, '
                f'"primitive_phase": {_json(phase)}, "reason": {_json(reason)}, '
                f'"selected_operator": {_json(operator)}, "selected_step": {_json(selected)}, '
                f'"tick": {tick}, "true_atoms": {true_text}, "type": "tick"}}\n'
            )

    outcome = exe.Outcome("no_plan", 0) if chain is None else exe.run(
        sim,
        pipeline,
        chain,
        max_ticks=scenario.max_ticks,
        goal_streak=scenario.goal_streak,
        stuck_after=scenario.stuck_after,
        disturbances=scenario.disturbances,
        on_tick=on_tick,
        open_loop=scenario.open_loop,
    )

    record = TrialRecord(
        trial=index,
        seed=seed,
        status=outcome.status,
        ticks=outcome.ticks,
        recoveries=outcome.recoveries,
        false_success=outcome.false_success,
        operator_history=[name for _, _, name in outcome.history],
    )
    if trace_sink:
        write({"type": "outcome", **record.to_json_dict()})
    return record


def compute_metrics(scenario_name: str, records: list[TrialRecord]) -> Metrics:
    n = len(records)
    successes = [r for r in records if r.succeeded]
    return Metrics(
        scenario=scenario_name,
        trials=n,
        success_rate=len(successes) / n,
        mean_ticks=(
            sum(r.ticks for r in successes) / len(successes) if successes else None
        ),
        recovery_rate=sum(1 for r in records if r.recoveries > 0) / n,
        false_success_rate=sum(1 for r in records if r.false_success) / n,
    )


def run_trials(
    scenario: Scenario,
    jobs: int = 1,
    trace_dir: Optional[Path] = None,
    futures: Optional[list[Future]] = None,
) -> tuple[Metrics, list[TrialRecord]]:
    """Execute all trials; results are ordered by trial index regardless of
    worker scheduling, so parallel runs aggregate identically.

    ``futures`` are the scenario's ranges that :func:`queue_trials` has
    queued on a pool; this call waits for them.  Without them, ``jobs`` > 1
    runs the ranges on a pool of one worker per range started for this
    call, and ``jobs`` <= 1 runs every trial here.  Traces go to
    ``trace_dir`` when given, which must be an existing directory."""
    if futures is None and jobs > 1:
        with queue_trials([scenario], jobs, trace_dir) as (futures,):
            return run_trials(scenario, jobs, trace_dir, futures=futures)
    if futures is None:
        records = _run_range(scenario, range(scenario.trials), trace_dir)
    else:
        records = [record for future in futures for record in future.result()]
    return compute_metrics(scenario.name, records), records


@contextmanager
def queue_trials(
    scenarios: Sequence[Scenario], jobs: int, trace_dir: Optional[Path] = None
) -> Iterator[list[list[Future]]]:
    """Start a process pool and queue every trial of ``scenarios`` on it,
    each scenario as at most ``jobs`` contiguous ranges of ⌈trials/jobs⌉
    indices, one task each.  Yields each scenario's futures, in trial
    order.  The pool has one worker per range of the largest scenario and
    is shut down on leaving; after an error or Ctrl-C in the block, the
    ranges no worker has started are dropped.  ``trace_dir``, when given,
    must be an existing directory."""
    ranges = [_ranges(scenario.trials, jobs) for scenario in scenarios]
    with ProcessPoolExecutor(
        max_workers=max(map(len, ranges)),
        initializer=_start_worker,
        initargs=(tuple(scenarios),),
    ) as pool:
        try:
            yield [
                [pool.submit(_run_worker_range, k, chunk, trace_dir) for chunk in chunks]
                for k, chunks in enumerate(ranges)
            ]
        except BaseException:
            # Leaving the pool waits for every queued range; drop the ones
            # no worker has started.
            pool.shutdown(cancel_futures=True)
            raise


def _ranges(trials: int, jobs: int) -> list[range]:
    size = -(-trials // jobs)
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


# The scenarios a pool worker was started with, by position.
_worker_scenarios: tuple[Scenario, ...] = ()


def _start_worker(scenarios: tuple[Scenario, ...]) -> None:
    # numpy loads numpy.random on first use, so a worker's first trial
    # would pay for it inside SeedSequence.  It is not imported at the top
    # of this module: the process that only hands trials to the pool never
    # needs it, and loading it there raised that process's peak RSS.
    import numpy.random

    global _worker_scenarios
    _worker_scenarios = scenarios
    parent = multiprocessing.parent_process()  # None outside a child process
    if parent is not None:
        threading.Thread(target=_exit_after, args=(parent,), daemon=True).start()


def _exit_after(parent: multiprocessing.process.BaseProcess) -> None:
    """Exit the worker once its parent has ended, whatever ended it: the
    parent's sentinel, opened before the worker started, then reads EOF."""
    parent.join()
    os._exit(1)


def _run_worker_range(
    position: int, indices: range, trace_dir: Optional[Path]
) -> list[TrialRecord]:
    # Each range plans on a fresh memo, so how often it plans does not
    # depend on which ranges its worker ran before.
    scenario = replace(_worker_scenarios[position])
    return _run_range(scenario, indices, trace_dir)


def _run_range(
    scenario: Scenario, indices: range, trace_dir: Optional[Path]
) -> list[TrialRecord]:
    """Run trials ``indices`` in order, each writing its trace under
    ``trace_dir`` when one is given.  Serial runs and pool workers share it."""
    records = []
    for i in indices:
        path = trace_dir / scenario.trace_name(i) if trace_dir else None
        with open(path, "w", encoding="utf-8") if path else nullcontext() as sink:
            records.append(run_trial(scenario, i, trace_sink=sink))
    return records


_METRIC_FIELDS = {
    "scenario": _STR,
    "trials": _int_from(1),
    "success_rate": _PROB,
    "mean_ticks": (lambda v: v is None or _is_number(v) and 0 <= v < float("inf"),
                   "null or a finite number >= 0"),
    "recovery_rate": _PROB,
    "false_success_rate": _PROB,
}
_RESULTS = _Object(
    {
        "format_version": _version(RESULTS_FORMAT_VERSION),
        "results": [_Object(
            {"metrics": _Object(_METRIC_FIELDS, tuple(_METRIC_FIELDS)), "records": _ANY},
            ("metrics",),
        )],
    },
    ("format_version", "results"),
)


def results_payload(runs: Sequence[tuple[Metrics, list[TrialRecord]]]) -> dict:
    """The results file, as :func:`read_results` reads it, of one
    ``(metrics, records)`` pair per scenario."""
    return {"format_version": RESULTS_FORMAT_VERSION, "results": [
        {"metrics": m.to_json_dict(), "records": [r.to_json_dict() for r in records]}
        for m, records in runs
    ]}


def read_results(payload) -> list[Metrics]:
    """The metrics of a results file as ``chainreact bench --out`` writes
    it; raises :class:`InputError` naming the field path of each problem."""
    _checked(payload, _RESULTS, "a results file")
    if not payload["results"]:
        raise InputError(["field 'results' must not be empty"])
    return [Metrics(**entry["metrics"]) for entry in payload["results"]]


def _checked(payload, schema: _Object, what: str) -> None:
    """Raise :class:`InputError` unless ``payload`` is an object matching
    ``schema``, naming the field path of each part that does not."""
    if not isinstance(payload, dict):
        raise InputError([f"{what} must be a JSON object"])
    problems: list[str] = []
    _check(payload, schema, "", problems)
    if problems:
        raise InputError(problems)


_STEP = _Object({"operator": _STR, "args": [_STR]}, ("operator", "args"))
_PLAN = _Object(
    {"format_version": _version(PLAN_FORMAT_VERSION), "steps": [_STEP]},
    ("format_version", "steps"),
)


def plan_payload(plan: Plan) -> dict:
    """The plan file, as :func:`read_plan` reads it, of ``plan``'s steps."""
    return {"format_version": PLAN_FORMAT_VERSION, "steps": [
        {"operator": op.schema.name, "args": list(op.bound_args)} for op in plan.steps
    ]}


def read_plan(grounded: GroundedDomain, payload) -> tuple[GroundOperator, ...]:
    """The ground operators, in order, of a plan file as ``chainreact plan``
    writes it; raises :class:`InputError` naming the field path of each
    problem, a step that names no ground operator of ``grounded`` included."""
    _checked(payload, _PLAN, "a plan file")
    steps, problems = [], []
    for i, step in enumerate(payload["steps"]):
        try:
            steps.append(grounded.operator_named(step["operator"], tuple(step["args"])))
        except KeyError as err:
            problems.append(f"field 'steps[{i}]': {err.args[0]}")
    if problems:
        raise InputError(problems)
    return tuple(steps)


def chain_payload(chain: Chain) -> dict:
    """The chain file of ``chain``: per step its operator, its own pre and
    run conditions, and those regression added to each; each set of atoms
    is listed twice, the required atoms and then (``*_neg``) the negated."""
    names_of = chain.goal.vocabulary.names_of
    return {
        "format_version": CHAIN_FORMAT_VERSION,
        "goal": names_of(chain.goal.pos_mask),
        "goal_neg": names_of(chain.goal.neg_mask),
        "front_conditions": names_of(chain.front_conditions.pos_mask),
        "front_conditions_neg": names_of(chain.front_conditions.neg_mask),
        "steps": [
            {
                "operator": s.base.schema.name,
                "args": list(s.base.bound_args),
                "pre": names_of(s.base.pre.pos_mask),
                "pre_neg": names_of(s.base.pre.neg_mask),
                "run": names_of(s.base.run.pos_mask),
                "run_neg": names_of(s.base.run.neg_mask),
                "extra_pre": names_of(s.effective_pre.pos_mask & ~s.base.pre.pos_mask),
                "extra_pre_neg": names_of(s.effective_pre.neg_mask & ~s.base.pre.neg_mask),
                "extra_run": names_of(s.effective_run.pos_mask & ~s.base.run.pos_mask),
                "extra_run_neg": names_of(s.effective_run.neg_mask & ~s.base.run.neg_mask),
            }
            for s in chain.steps
        ],
    }


# The report's columns: header, and the cell of one scenario's metrics.
_COLUMNS = (
    ("scenario", lambda m: m.scenario),
    ("trials", lambda m: str(m.trials)),
    ("success", lambda m: f"{m.success_rate * 100:.1f}%"),
    ("mean_ticks", lambda m: "-" if m.mean_ticks is None else f"{m.mean_ticks:.1f}"),
    ("recoveries", lambda m: f"{m.recovery_rate * 100:.1f}%"),
    ("false_succ", lambda m: f"{m.false_success_rate * 100:.1f}%"),
)


def report(metrics_list: list[Metrics]) -> str:
    """Aligned comparison table over one row per scenario."""
    if not metrics_list:
        raise ValueError("no metrics to report")
    rows = [[h for h, _ in _COLUMNS]]
    rows += [[cell(m) for _, cell in _COLUMNS] for m in metrics_list]
    widths = [max(map(len, column)) for column in zip(*rows)]
    rows.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(t.ljust(w) for t, w in zip(row, widths)) for row in rows)
