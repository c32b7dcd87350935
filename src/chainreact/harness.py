"""Scenario files, seeded batch trials, metrics and trace emission.

A scenario is a JSON file naming a domain and problem (paths relative to
the scenario file), the executive to run, the perception mode, primitive
overrides, initial-condition randomisation, scripted disturbances and the
trial protocol.  Trial ``i`` runs with seed ``base_seed + i``, split into
three named streams (sim, perception, primitives), so identical scenario
plus seed means byte-identical metrics and traces.

Each trial plans from the perception pipeline's estimate of the sampled
initial world (the estimator window is warmed up first), builds the robust
chain, and hands control to the executive.  There is no replanning: a trial
whose initial estimate yields no plan is recorded as ``no_plan``.

Plans are memoized per loaded :class:`Scenario`, keyed on the estimate's
mask: goal and planner mode are fixed per scenario, and the planner and
chain builder are deterministic, so a hit returns the chain a miss would
build, and records and traces are the same as without the memo.  The memo
lives as long as the Scenario object and is not pickled.  Change a loaded
scenario with ``dataclasses.replace``, which starts with an empty memo, not
by assigning its fields.  Chains are interned by their plan's operator
indices, so estimates that lead to the same plan share one chain.

Parallel runs use a pool from :func:`queue_trials`.  Its workers receive
the loaded scenarios once, when they start (under fork they inherit them
and nothing is pickled), and import ``numpy.random`` then, so no trial pays
for that import.  A task names a scenario by its position and carries one
contiguous range of trial indices.  Each range runs on a
``dataclasses.replace`` copy of its scenario, so it starts with an empty
memo wherever it lands: how often a range plans does not depend on which
worker took it or what that worker ran before.  Every scenario's ranges
are queued before :func:`run_trials` collects the first, so no worker
waits at a scenario boundary.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterator, Optional, Sequence

import numpy as np

from . import executive as exe
from .chains import Chain, build_chain
from .kitchen import (
    NUM_COUNTER_ZONES,
    InitialConfig,
    KitchenSim,
    PrimitiveSpec,
    contract_problems,
    merge_primitive_config,
    sample_initial,
)
from .lang import load_domain_file, load_problem_file
from .perception import NoiseModel, PerceptionPipeline
from .planner import GroundedDomain, ground, plan

FORMAT_VERSION = 1


@dataclass
class Scenario:
    name: str
    config_digest: str  # of the JSON after overrides, for trace headers
    grounded: GroundedDomain
    executive: str
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
    optimal_planning: bool
    # run_trial's plan memo: estimate mask -> chain, None when unsolved
    _chains_by_mask: dict[int, Optional[Chain]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # plan operator indices -> chain, so equal plans share one chain
    _chains_by_plan: dict[tuple[int, ...], Chain] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        # A pickled scenario (initargs under spawn) leaves its memo behind.
        return {**self.__dict__, "_chains_by_mask": {}, "_chains_by_plan": {}}


@dataclass
class TrialRecord:
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

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "seed": self.seed,
            "status": self.status,
            "ticks": self.ticks,
            "recoveries": self.recoveries,
            "false_success": self.false_success,
            "operator_history": self.operator_history,
        }


@dataclass
class Metrics:
    scenario: str
    trials: int
    success_rate: float
    mean_ticks: Optional[float]  # successes only; None without successes
    recovery_rate: float  # fraction of trials with at least one recovery
    false_success_rate: float

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "trials": self.trials,
            "success_rate": self.success_rate,
            "mean_ticks": self.mean_ticks,
            "recovery_rate": self.recovery_rate,
            "false_success_rate": self.false_success_rate,
        }


class ScenarioError(ValueError):
    """Scenario file failed validation; ``problems`` lists field paths."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def load_scenario(path: str | Path, overrides: Optional[dict] = None) -> Scenario:
    """Load, validate and ground a scenario file.

    ``overrides`` is merged over the raw JSON before validation (used by
    the CLI flags and the acceptance suite for trial-count or primitive
    overrides)."""
    # The messages leave out the path: the caller prints it before each.
    path = Path(path)
    try:
        raw = read_json(path)
    except ValueError as err:
        raise ScenarioError([str(err)]) from err
    if not isinstance(raw, dict):
        raise ScenarioError(["a scenario must be a JSON object"])
    if overrides:
        raw = _deep_merge(raw, overrides)
    return build_scenario(raw, base_dir=path.parent, name=path.stem)


def read_json(path: str | Path):
    """The JSON value in the file at ``path``.  Raises ``ValueError`` whose
    message, without the path, is ``cannot read: REASON``, ``not UTF-8
    text: REASON at byte N`` or ``not JSON: MESSAGE``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(_read_error(err)) from err
    except ValueError as err:
        raise ValueError(f"not JSON: {err}") from err


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
    domain_path: str, problem_path: str, problems: list[str]
) -> Optional[GroundedDomain]:
    """Read, parse and ground a domain and problem file pair.

    Returns ``None`` after appending to ``problems`` one line per fault,
    each starting with the path of its file: a file that cannot be read or
    is not UTF-8 text, or a parse diagnostic as ``PATH:LINE:COL: error:
    MESSAGE``.  The problem is read only once the domain parses."""
    domain = _parsed(domain_path, problems, load_domain_file)
    problem = None if domain is None else _parsed(
        problem_path, problems, load_problem_file, domain
    )
    return None if problem is None else ground(domain, problem)


def _parsed(path: str, problems: list[str], load, *args):
    """The value ``load(path, *args)`` parses, or ``None`` after appending
    the faults to ``problems``."""
    try:
        result = load(path, *args)
    except (OSError, UnicodeDecodeError) as err:
        problems.append(f"{path}: {_read_error(err)}")
        return None
    if not result.ok:
        problems.extend(f"{path}:{diag}" for diag in result.diagnostics)
        return None
    return result.value


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
_VERSION_1 = (lambda v: _is_int(v) and v == 1, "1")
_PROB = (_is_prob, "a number in [0, 1]")
_FLIP = (lambda v: _is_number(v) and 0.0 <= v < 0.5, "a number in [0, 0.5)")
_ANY = (lambda v: True, "anything")
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
        "format_version": _VERSION_1,
        "name": _STR,
        "domain": _STR,
        "problem": _STR,
        "executive": _one_of("reactive", "open_loop"),
        "planner": _Object({"optimal": (lambda v: isinstance(v, bool), "a bool")}),
        "perception": _Object({
            "mode": _one_of("oracle", "noisy"),
            "window": _int_from(1),
            "default_flip": _FLIP,
            "per_predicate_flip": _Each(_FLIP),
        }),
        "primitives": _Object({
            "success_prob": _PROB,
            "bindings": _Each(_Object({
                "min_ticks": _int_from(1),
                "max_ticks": _int_from(1),
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
        "max_ticks": _int_from(1),
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
    disturbances = raw.get("disturbances", [])
    for i, dist in enumerate([] if problems else disturbances):
        where = f"disturbances[{i}]"
        if len(dist["trigger"]) != 1:
            problems.append(
                f"field '{where}.trigger' must have exactly one of {tuple(_TRIGGER)}"
            )
        kind = dist["kind"]
        _check(kind, _KINDS[kind["kind"]], f"{where}.kind", problems)
        dest = kind.get("destination", "counter_random")
        if isinstance(dest, dict):
            _check(dest, _DESTINATION, f"{where}.kind.destination", problems)
        elif dest != "counter_random":
            problems.append(
                f"field '{where}.kind.destination' must be \"counter_random\" "
                'or {"zone": n}'
            )
    if problems:
        raise ScenarioError(problems)

    primitives = merge_primitive_config(raw.get("primitives", {}))
    problems.extend(
        f"field 'primitives.bindings.{key}' has min_ticks {spec.min_ticks} "
        f"above max_ticks {spec.max_ticks}"
        for key, spec in primitives.items()
        if spec.min_ticks > spec.max_ticks
    )

    domain_path = (base_dir / raw["domain"]).resolve()
    problem_path = (base_dir / raw["problem"]).resolve()
    grounded = load_grounded(str(domain_path), str(problem_path), problems)
    if grounded is not None:
        # build_chain regresses positive goal literals only.
        problems.extend(
            f"{problem_path}: negative goal literal (not {atom}) is not supported"
            for atom in sorted(str(lit.atom) for lit in grounded.problem.goal if not lit.positive)
        )

    perception = raw.get("perception", {})
    flips = perception.get("per_predicate_flip", {})
    if grounded is not None:
        bound = {op.binding for op in grounded.domain.operators}
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
        disturbances = exe.resolve_disturbances(disturbances, grounded, problems)

    if problems:
        raise ScenarioError(problems)

    noise = NoiseModel()
    if perception.get("mode") == "noisy":
        noise = NoiseModel(
            default_flip=float(perception.get("default_flip", 0.05)),
            per_predicate_flip={str(k): float(v) for k, v in flips.items()},
        )
    initial = raw.get("initial", {})
    return Scenario(
        name=raw.get("name", name),
        config_digest=hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16],
        grounded=grounded,
        executive=raw.get("executive", "reactive"),
        noise=noise,
        window=perception.get("window", 3),
        primitives=primitives,
        initial=InitialConfig(
            **{k: float(v) if k in _INITIAL_PROBS else v for k, v in initial.items()}
        ),
        disturbances=disturbances,
        goal_streak=raw.get("goal_streak", exe.DEFAULT_GOAL_STREAK),
        stuck_after=raw.get("stuck_after", exe.DEFAULT_STUCK_AFTER),
        max_ticks=raw["max_ticks"],
        trials=raw["trials"],
        base_seed=raw["base_seed"],
        optimal_planning=raw.get("planner", {}).get("optimal", False),
    )


# --------------------------------------------------------------------------
# Trial execution
# --------------------------------------------------------------------------


def run_trial(
    scenario: Scenario, index: int, trace_sink: Optional[IO[str]] = None
) -> TrialRecord:
    """Run one seeded trial; the sink, when given, receives the JSONL trace.

    The chain comes from the scenario's memo, keyed on the warmed
    estimate's mask, for as long as the Scenario object lives.  On a miss,
    :func:`plan` and :func:`build_chain` run as without the memo and the
    chain (or ``None`` for an unsolved search) is stored.  Both are
    deterministic in the mask, and neither draws from a seeded stream, so
    records and traces do not depend on whether the memo hit."""
    seed = scenario.base_seed + index
    sim_ss, perc_ss, prim_ss = np.random.SeedSequence(seed).spawn(3)
    sim_rng = np.random.default_rng(sim_ss)
    perc_rng = np.random.default_rng(perc_ss)
    prim_rng = np.random.default_rng(prim_ss)

    grounded = scenario.grounded
    world = sample_initial(scenario.initial, grounded.movables, sim_rng)
    sim = KitchenSim(
        grounded, world, scenario.primitives, rng=prim_rng, world_rng=sim_rng
    )
    pipeline = PerceptionPipeline(
        grounded.vocabulary, scenario.noise, scenario.window, perc_rng
    )

    writer = (
        _TraceWriter(trace_sink, scenario, seed, world) if trace_sink else None
    )
    on_tick = writer.on_tick if writer else None

    # Warm the estimator window on the initial world, then plan from the
    # filtered estimate (the executive never replans).
    estimate = pipeline.estimate(sim.eval_predicates())
    for _ in range(scenario.window - 1):
        estimate = pipeline.estimate(sim.eval_predicates())

    memo = scenario._chains_by_mask
    if estimate.mask not in memo:
        memo[estimate.mask] = _plan_chain(scenario, estimate)
    chain = memo[estimate.mask]
    if chain is None:
        record = TrialRecord(
            trial=index, seed=seed, status="no_plan", ticks=0,
            recoveries=0, false_success=False,
        )
        if writer:
            writer.finish(record)
        return record

    outcome = exe.run(
        sim,
        pipeline,
        chain,
        max_ticks=scenario.max_ticks,
        goal_streak=scenario.goal_streak,
        stuck_after=scenario.stuck_after,
        disturbances=scenario.disturbances,
        on_tick=on_tick,
        open_loop=scenario.executive == "open_loop",
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
    if writer:
        writer.finish(record)
    return record


def _plan_chain(scenario: Scenario, estimate) -> Optional[Chain]:
    """Plan from ``estimate`` and build its chain, reusing the chain of an
    equal plan; ``None`` when the search is not solved."""
    grounded = scenario.grounded
    result = plan(
        grounded, init=estimate, goal=grounded.goal,
        optimal=scenario.optimal_planning,
    )
    if not result.solved:
        return None
    shared = scenario._chains_by_plan
    key = tuple(op.index for op in result.plan.steps)
    if key not in shared:
        shared[key] = build_chain(result.plan, grounded.goal)
    return shared[key]


class _TraceWriter:
    """One JSONL line per tick, bracketed by a header and an outcome line."""

    def __init__(self, sink: IO[str], scenario: Scenario, seed: int, world):
        self.sink = sink
        self._write(
            {
                "type": "header",
                "format_version": FORMAT_VERSION,
                "scenario": scenario.name,
                "config_digest": scenario.config_digest,
                "seed": seed,
                "initial_world": world.to_json_dict(),
            }
        )

    def _write(self, payload: dict) -> None:
        self.sink.write(json.dumps(payload, sort_keys=True) + "\n")

    def on_tick(self, record: dict) -> None:
        self._write({"type": "tick", **record})

    def finish(self, record: TrialRecord) -> None:
        self._write({"type": "outcome", **record.to_json_dict()})


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
    call, and ``jobs`` <= 1 runs every trial here."""
    trace_dir = _trace_dir(trace_dir)
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
    ranges no worker has started are dropped."""
    trace_dir = _trace_dir(trace_dir)
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


def _trace_dir(trace_dir) -> Optional[Path]:
    if trace_dir is None:
        return None
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    return trace_dir


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
    if trace_dir is None:
        return [run_trial(scenario, i) for i in indices]
    records = []
    for i in indices:
        trace_path = trace_dir / f"{scenario.name}_trial{i:04d}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as sink:
            records.append(run_trial(scenario, i, trace_sink=sink))
    return records


_METRIC_FIELDS = {
    "scenario": _STR,
    "trials": _int_from(1),
    "success_rate": _PROB,
    "mean_ticks": (lambda v: v is None or _is_number(v), "a number or null"),
    "recovery_rate": _PROB,
    "false_success_rate": _PROB,
}
_RESULTS = _Object(
    {
        "format_version": _VERSION_1,
        "results": [_Object(
            {"metrics": _Object(_METRIC_FIELDS, tuple(_METRIC_FIELDS)), "records": _ANY},
            ("metrics",),
        )],
    },
    ("format_version", "results"),
)


def read_results(payload) -> list[Metrics]:
    """The metrics of a results file as ``chainreact bench --out`` writes
    it; raises ``ValueError`` naming the field path of each problem."""
    if not isinstance(payload, dict):
        raise ValueError("a results file must be a JSON object")
    problems: list[str] = []
    _check(payload, _RESULTS, "", problems)
    if problems:
        raise ValueError("; ".join(problems))
    return [Metrics(**entry["metrics"]) for entry in payload["results"]]


def report(metrics_list: list[Metrics]) -> str:
    """Aligned comparison table over one row per scenario."""
    if not metrics_list:
        raise ValueError("no metrics to report")
    headers = [
        "scenario", "trials", "success", "mean_ticks", "recoveries", "false_succ",
    ]
    rows = []
    for m in metrics_list:
        rows.append(
            [
                m.scenario,
                str(m.trials),
                f"{m.success_rate * 100:.1f}%",
                "-" if m.mean_ticks is None else f"{m.mean_ticks:.1f}",
                f"{m.recovery_rate * 100:.1f}%",
                f"{m.false_success_rate * 100:.1f}%",
            ]
        )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)),
        "  ".join("-" * widths[c] for c in range(len(headers))),
    ]
    for r in rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))))
    return "\n".join(lines)
