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
lives as long as the Scenario object; it is not pickled, so pool workers
start with an empty one.  Change a loaded scenario with
``dataclasses.replace``, which also starts empty, not by assigning its
fields.  Chains are interned by their plan's operator indices, so estimates
that lead to the same plan share one chain.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import IO, Optional

import numpy as np

from . import executive as exe
from .chains import Chain, build_chain
from .kitchen import (
    NUM_COUNTER_ZONES,
    InitialConfig,
    KitchenSim,
    PrimitiveSpec,
    merge_primitive_config,
    sample_initial,
)
from .lang import load_domain_file, load_problem_file
from .perception import NoiseModel, PerceptionPipeline
from .planner import GroundedDomain, ground, plan

FORMAT_VERSION = 1

_EXECUTIVES = ("reactive", "open_loop")
_PERCEPTION_MODES = ("oracle", "noisy")
_TRIGGER_KEYS = ("at_tick", "when_operator", "when_predicate")
_DISTURBANCE_KINDS = ("teleport_object", "set_drawer", "detach_gripper")


@dataclass
class Scenario:
    name: str
    path: Optional[Path]
    raw: dict
    grounded: GroundedDomain
    executive: str
    noise: NoiseModel
    window: int
    primitives: dict[str, PrimitiveSpec]
    initial: InitialConfig
    disturbances: list[dict]  # validated {"trigger": ..., "kind": ...} specs
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
        # Pool workers get the scenario without its memo and fill their own.
        return {**self.__dict__, "_chains_by_mask": {}, "_chains_by_plan": {}}

    @property
    def config_digest(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(canon).hexdigest()[:16]


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
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError([f"{path}: {err}"]) from err
    if overrides:
        raw = _deep_merge(raw, overrides)
    return build_scenario(raw, base_dir=path.parent, name=path.stem, path=path)


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def build_scenario(
    raw: dict,
    base_dir: Path,
    name: str = "scenario",
    path: Optional[Path] = None,
) -> Scenario:
    problems: list[str] = []

    def need(field_name: str, kind, default=None, required=False):
        if field_name not in raw:
            if required:
                problems.append(f"missing required field {field_name!r}")
            return default
        value = raw[field_name]
        if kind is int and isinstance(value, bool):
            problems.append(f"field {field_name!r} must be {kind.__name__}")
            return default
        if not isinstance(value, kind):
            problems.append(f"field {field_name!r} must be {kind.__name__}")
            return default
        return value

    domain_rel = need("domain", str, required=True)
    problem_rel = need("problem", str, required=True)
    max_ticks = need("max_ticks", int, required=True)
    trials = need("trials", int, required=True)
    base_seed = need("base_seed", int, required=True)
    executive = need("executive", str, default="reactive")
    goal_streak = need("goal_streak", int, default=exe.DEFAULT_GOAL_STREAK)
    stuck_after = need("stuck_after", int, default=exe.DEFAULT_STUCK_AFTER)

    if executive not in _EXECUTIVES:
        problems.append(f"field 'executive' must be one of {_EXECUTIVES}")
    if trials is not None and trials < 1:
        problems.append("field 'trials' must be at least 1")
    if max_ticks is not None and max_ticks < 1:
        problems.append("field 'max_ticks' must be at least 1")

    perception = raw.get("perception", {"mode": "oracle"})
    noise = NoiseModel()
    window = 3
    if not isinstance(perception, dict):
        problems.append("field 'perception' must be an object")
    else:
        mode = perception.get("mode", "oracle")
        if mode not in _PERCEPTION_MODES:
            problems.append(f"field 'perception.mode' must be one of {_PERCEPTION_MODES}")
        window = perception.get("window", 3)
        if not _is_int(window):
            problems.append("field 'perception.window' must be int")
        elif window < 1:
            problems.append("field 'perception.window' must be at least 1")
        default_flip = perception.get("default_flip", 0.05)
        flips = perception.get("per_predicate_flip", {})
        if not isinstance(flips, dict):
            problems.append("field 'perception.per_predicate_flip' must be an object")
            flips = {}
        named = {"default_flip": default_flip}
        named.update((f"per_predicate_flip.{k}", v) for k, v in flips.items())
        bad_flips = [
            key for key, p in named.items() if not (_is_number(p) and 0.0 <= p < 0.5)
        ]
        problems.extend(
            f"field 'perception.{key}' must be a number in [0, 0.5)" for key in bad_flips
        )
        if mode == "noisy" and not bad_flips:
            noise = NoiseModel(
                default_flip=float(default_flip),
                per_predicate_flip={str(k): float(v) for k, v in flips.items()},
            )

    primitives_raw = raw.get("primitives", {})
    primitives = {}
    if not isinstance(primitives_raw, dict):
        problems.append("field 'primitives' must be an object")
    else:
        bad_primitives = _check_primitive_values(primitives_raw)
        problems.extend(bad_primitives)
        if not bad_primitives:
            primitives = merge_primitive_config(primitives_raw)
            problems.extend(
                f"field 'primitives.bindings.{name}' has min_ticks {spec.min_ticks} "
                f"above max_ticks {spec.max_ticks}"
                for name, spec in primitives.items()
                if spec.min_ticks > spec.max_ticks
            )

    initial_raw = raw.get("initial", {})
    initial = InitialConfig()
    if not isinstance(initial_raw, dict):
        problems.append("field 'initial' must be an object")
    else:
        probs = {}
        for key in ("gripper_open_prob", "drawer_open_prob", "object_in_drawer_prob"):
            if key not in initial_raw:
                continue
            if _is_prob(initial_raw[key]):
                probs[key] = float(initial_raw[key])
            else:
                problems.append(f"field 'initial.{key}' must be a number in [0, 1]")
        initial = InitialConfig(
            objects=initial_raw.get("objects", "counter_only"),
            drawer=initial_raw.get("drawer", "closed"),
            arm=initial_raw.get("arm", "random"),
            **probs,
        )
        if initial.objects not in ("counter_only", "anywhere"):
            problems.append("field 'initial.objects' must be counter_only or anywhere")
        if initial.drawer not in ("closed", "open", "mixed"):
            problems.append("field 'initial.drawer' must be closed, open or mixed")
        if initial.arm not in ("driving", "above", "random"):
            problems.append("field 'initial.arm' must be driving, above or random")

    planner_raw = raw.get("planner", {})
    optimal_planning = False
    if not isinstance(planner_raw, dict):
        problems.append("field 'planner' must be an object")
    else:
        optimal_planning = planner_raw.get("optimal", False)
        if not isinstance(optimal_planning, bool):
            problems.append("field 'planner.optimal' must be a bool")

    grounded = None
    if domain_rel and problem_rel:
        domain_path = (base_dir / domain_rel).resolve()
        problem_path = (base_dir / problem_rel).resolve()
        if not domain_path.is_file():
            problems.append(f"field 'domain': no such file {domain_path}")
        elif not problem_path.is_file():
            problems.append(f"field 'problem': no such file {problem_path}")
        else:
            dres = load_domain_file(str(domain_path))
            if not dres.ok:
                problems.extend(f"domain: {d}" for d in dres.diagnostics)
            else:
                pres = load_problem_file(str(problem_path), dres.value)
                if not pres.ok:
                    problems.extend(f"problem: {d}" for d in pres.diagnostics)
                else:
                    grounded = ground(dres.value, pres.value)

    disturbances = raw.get("disturbances", [])
    if not isinstance(disturbances, list):
        problems.append("field 'disturbances' must be a list")
        disturbances = []
    validated_disturbances: list[dict] = []
    for i, dist in enumerate(disturbances):
        where = f"disturbances[{i}]"
        if not isinstance(dist, dict) or "trigger" not in dist or "kind" not in dist:
            problems.append(f"field '{where}' must have 'trigger' and 'kind'")
            continue
        trigger = dist["trigger"]
        if not isinstance(trigger, dict) or len(
            set(trigger) & set(_TRIGGER_KEYS)
        ) != 1:
            problems.append(
                f"field '{where}.trigger' must have exactly one of {_TRIGGER_KEYS}"
            )
            continue
        kind = dist["kind"]
        if not isinstance(kind, dict) or kind.get("kind") not in _DISTURBANCE_KINDS:
            problems.append(
                f"field '{where}.kind.kind' must be one of {_DISTURBANCE_KINDS}"
            )
            continue
        err = _check_disturbance_values(trigger, kind, where)
        if err is None and grounded is not None:
            err = _check_disturbance_refs(trigger, kind, grounded, where)
        if err:
            problems.append(err)
            continue
        validated_disturbances.append({"trigger": trigger, "kind": kind})

    if problems:
        raise ScenarioError(problems)

    return Scenario(
        name=str(raw.get("name", name)),
        path=path,
        raw=raw,
        grounded=grounded,
        executive=executive,
        noise=noise,
        window=window,
        primitives=primitives,
        initial=initial,
        disturbances=validated_disturbances,
        goal_streak=goal_streak,
        stuck_after=stuck_after,
        max_ticks=max_ticks,
        trials=trials,
        base_seed=base_seed,
        optimal_planning=optimal_planning,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_prob(value) -> bool:
    """A number in [0, 1]; NaN is not."""
    return _is_number(value) and 0.0 <= value <= 1.0


def _check_primitive_values(raw: dict) -> list[str]:
    """Problems with the types and ranges of the ``primitives`` overrides
    (``merge_primitive_config`` reads them without checks)."""
    problems = []
    if "success_prob" in raw and not _is_prob(raw["success_prob"]):
        problems.append("field 'primitives.success_prob' must be a number in [0, 1]")
    bindings = raw.get("bindings", {})
    if not isinstance(bindings, dict):
        return problems + ["field 'primitives.bindings' must be an object"]
    for name, spec in bindings.items():
        where = f"primitives.bindings.{name}"
        if not isinstance(spec, dict):
            problems.append(f"field '{where}' must be an object")
            continue
        for key in ("min_ticks", "max_ticks"):
            if key in spec and not (_is_int(spec[key]) and spec[key] >= 1):
                problems.append(f"field '{where}.{key}' must be an int >= 1")
        if "success_prob" in spec and not _is_prob(spec["success_prob"]):
            problems.append(f"field '{where}.success_prob' must be a number in [0, 1]")
    return problems


def _check_disturbance_values(trigger, kind, where) -> Optional[str]:
    """Check the values a trial reads from one disturbance, so that none
    fails inside the trial (the kitchen keeps its own runtime checks)."""
    if "at_tick" in trigger and not (
        _is_int(trigger["at_tick"]) and trigger["at_tick"] >= 0
    ):
        return f"field '{where}.trigger.at_tick' must be a non-negative int"
    if kind["kind"] == "teleport_object":
        if "object" not in kind:
            return f"field '{where}.kind' is missing 'object'"
        dest = kind.get("destination", "counter_random")
        if dest != "counter_random" and (
            not isinstance(dest, dict) or "zone" not in dest
        ):
            return (
                f"field '{where}.kind.destination' must be \"counter_random\" "
                'or {"zone": n}'
            )
        if isinstance(dest, dict) and not (
            _is_int(dest["zone"]) and 0 <= dest["zone"] < NUM_COUNTER_ZONES
        ):
            return (
                f"field '{where}.kind.destination.zone' must be an int in "
                f"0..{NUM_COUNTER_ZONES - 1}"
            )
    elif kind["kind"] == "set_drawer":
        if "extension" not in kind:
            return f"field '{where}.kind' is missing 'extension'"
        ext = kind["extension"]
        if not (_is_number(ext) and 0.0 <= ext <= 1.0):
            return f"field '{where}.kind.extension' must be a number in [0, 1]"
    return None


def _check_disturbance_refs(trigger, kind, grounded, where) -> Optional[str]:
    from .chains import _atom_from_name, _parse_name
    from .logic import UnknownAtomError

    if "when_operator" in trigger:
        # Read as Disturbance reads it: with arguments the name must be one
        # ground operator, without them a schema.
        head, args = _parse_name(str(trigger["when_operator"]))
        known = any(
            op.schema.name == head and (args is None or op.bound_args == args)
            for op in grounded.operators
        )
        if not known:
            return (
                f"field '{where}.trigger.when_operator': unknown operator "
                f"{trigger['when_operator']!r}"
            )
    if "when_predicate" in trigger:
        try:
            _atom_from_name(grounded.vocabulary, str(trigger["when_predicate"]))
        except UnknownAtomError:
            return (
                f"field '{where}.trigger.when_predicate': unknown atom "
                f"{trigger['when_predicate']!r}"
            )
    if kind["kind"] == "teleport_object":
        if kind["object"] not in grounded.movables:
            return f"field '{where}.kind': unknown object {kind['object']!r}"
    return None


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

    disturbances = [
        exe.Disturbance(trigger=d["trigger"], kind=d["kind"])
        for d in scenario.disturbances
    ]

    if scenario.executive == "reactive":
        outcome = exe.run(
            sim,
            pipeline,
            chain,
            max_ticks=scenario.max_ticks,
            goal_streak=scenario.goal_streak,
            stuck_after=scenario.stuck_after,
            disturbances=disturbances,
            on_tick=on_tick,
        )
    else:
        outcome = exe.run_open_loop(
            sim, chain, max_ticks=scenario.max_ticks,
            disturbances=disturbances, on_tick=on_tick,
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
    pool: Optional[Executor] = None,
) -> tuple[Metrics, list[TrialRecord]]:
    """Execute all trials; results are ordered by trial index regardless of
    worker scheduling, so parallel runs aggregate identically.

    With ``jobs`` > 1 the trials are split into at most ``jobs`` contiguous
    ranges of ⌈trials/jobs⌉ indices, one task per range, so the scenario is
    pickled once per range.  The tasks run on ``pool``, or on a process pool
    started for this call when none is given."""
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    trials = scenario.trials
    if jobs <= 1:
        records = _run_range(scenario, range(trials), trace_dir)
    else:
        size = -(-trials // jobs)
        chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
        with (
            ProcessPoolExecutor(max_workers=len(chunks))
            if pool is None
            else nullcontext(pool)
        ) as runner:
            parts = runner.map(_run_range, repeat(scenario), chunks, repeat(trace_dir))
            records = [record for part in parts for record in part]
    return compute_metrics(scenario.name, records), records


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
