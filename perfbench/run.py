#!/usr/bin/env python3
"""Benchmark for chainreact: seeded closed-loop trial batches.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_suite --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics while recording only a few
timestamps per trial.  ``--trace 1`` wraps the public functions of every
layer and reports per-layer counts and times.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  perfbench/README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from array import array
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import (
    EXECUTIVES,
    LAYER_TARGETS,
    LOAD,
    RUN_TRIALS,
    SPAN_NAMES,
    TIMING_TARGETS,
    Instrument,
    Tracer,
    layer_totals,
    max_trial_residual,
    self_times,
    span_cost,
    trial_timings,
    write_spans,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "chainreact" / "data" / "scenarios"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SEED_STRIDE = 1_000_000  # --seed n adds n * SEED_STRIDE to every base_seed
SETUP_REPEATS = 9
JOBS = 2

# The speed of a shared virtual CPU drifts by up to 2x from one minute to the
# next, the same for this program and for any other Python code.  Every time
# the benchmark reports is therefore rescaled to a reference host on which
# the calibration kernel below takes REFERENCE_KERNEL_S, using the kernel's
# times just before and just after each measurement (see README.md).
REFERENCE_KERNEL_S = 0.010

ORACLE_SUITE = (
    "open_drawer_oracle",
    "pick_spam_oracle",
    "pick_sugar_oracle",
    "put_away_spam_oracle",
    "put_away_sugar_oracle",
    "teleport_cage_reactive",
    "teleport_cage_open_loop",
)

# workload -> (scenarios, worker processes).  Every workload is a closed-loop
# batch: one process runs the seeded trials back to back, with no arrival rate.
WORKLOADS = {
    "oracle_suite": (ORACLE_SUITE, 1),
    "noisy_spam": (("put_away_spam_noisy",), 1),
    "zero_shot_disturbed": (("put_away_both_zero_shot",), 1),
    "parallel_traced": (ORACLE_SUITE, JOBS),
}

OUTCOME_FIELDS = ("status", "ticks", "recoveries", "false_success", "operator_history")

# Per-layer metrics that must repeat exactly between passes at one seed.
EXACT_METRICS = (
    "planner.plan.expansions",
    "planner.plan.distinct_queries",
    "kitchen.eval_predicates.per_tick",
    "kitchen.start_primitive.calls",
    "executive.disturbances_fired",
    "harness.trace_bytes_per_tick",
)


def kernel_seconds() -> float:
    """Time one run of a fixed pure-Python kernel of dict, tuple, set and int
    work, the kind of work the simulator's inner loops do."""
    start = perf_counter()
    table = {(i, str(i)): i for i in range(200)}
    acc = 0
    for _ in range(150):
        seen = set()
        for i in range(200):
            key = (i, str(i))
            acc ^= table.get(key, 0) << (i % 13)
            seen.add(key)
        acc += len(seen)
    return perf_counter() - start


class HostSpeed:
    """Kernel samples taken at the boundaries between measurements."""

    def __init__(self) -> None:
        self.last = kernel_seconds()
        self.scales: list[float] = []

    def scale(self) -> float:
        """Called right after a measurement: the factor that turns its host
        time into reference-host time, from the kernel samples just before
        and just after it."""
        now = kernel_seconds()
        factor = 2 * REFERENCE_KERNEL_S / (self.last + now)
        self.last = now
        self.scales.append(factor)
        return factor


def import_program():
    """Import chainreact from this checkout's src/ or exit without a result."""
    if not (SRC / "chainreact" / "__init__.py").is_file():
        sys.exit(f"run.py: no chainreact sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import chainreact
    from chainreact import cli, harness

    if Path(chainreact.__file__).resolve().parent != SRC / "chainreact":
        sys.exit(f"run.py: imported chainreact from {chainreact.__file__}, not {SRC}")
    return harness, cli


@dataclass(frozen=True)
class Spec:
    """A shipped scenario as the benchmark reads it from its JSON file."""

    name: str
    path: Path
    raw: dict
    trials: int  # trials per round: the scenario's shipped protocol
    base_seed: int
    oracle: bool
    open_loop: bool

    @classmethod
    def load(cls, stem: str) -> "Spec":
        path = SCENARIOS / f"{stem}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            name=raw.get("name", stem),
            path=path,
            raw=raw,
            trials=raw["trials"],
            base_seed=raw["base_seed"],
            oracle=raw.get("perception", {}).get("mode", "oracle") == "oracle",
            open_loop=raw.get("executive") == "open_loop",
        )


def outcome(record: dict) -> list:
    return [record[key] for key in OUTCOME_FIELDS]


def expected_trace_lines(spec: Spec, record: dict) -> int:
    """Header, one line per tick and the outcome line.  The open-loop
    executive's final goal check writes one tick line that ``ticks`` does not
    count."""
    extra = spec.open_loop and record["status"] in ("succeeded", "stuck")
    return record["ticks"] + 2 + int(extra)


class Checker:
    """Counts attempted and failed trials and collects problems."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        elif len(self.problems) == 20:
            self.problems.append("... further problems not shown")

    def trial(self, spec: Spec, index: int, record, shift: int, lines=None) -> None:
        """``record`` is a TrialRecord JSON dict, or the exception the trial raised."""
        self.attempted += 1
        why = None
        if isinstance(record, BaseException):
            why = f"raised {record!r}"
        else:
            try:
                ref = self.reference.get(spec.name, [])
                if spec.oracle and record["false_success"]:
                    why = "false_success under oracle perception"
                elif shift == 0 and index < len(ref) and outcome(record) != ref[index]:
                    differ = [
                        f"{key} {got!r} != {want!r}"
                        for key, got, want in zip(OUTCOME_FIELDS, outcome(record), ref[index])
                        if got != want
                    ]
                    why = "differs from reference: " + "; ".join(differ)[:300]
                elif lines is not None and lines != expected_trace_lines(spec, record):
                    why = (
                        f"trace has {lines} lines, expected "
                        f"{expected_trace_lines(spec, record)}"
                    )
            except KeyError as err:
                why = f"record lacks field {err}"
        if why:
            self.failed += 1
            self.note(f"{spec.name} trial {index}: {why}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# -- running rounds -------------------------------------------------------------


def load_all(harness, specs: list[Spec], shift: int) -> list:
    return [
        harness.load_scenario(spec.path, {"base_seed": spec.base_seed + shift})
        for spec in specs
    ]


def serial_round(harness, specs, loaded, rnd: int) -> list[tuple]:
    """Round ``rnd`` runs trials rnd*T .. rnd*T+T-1 of every scenario."""
    out = []
    for spec, scenario in zip(specs, loaded):
        for index in range(rnd * spec.trials, (rnd + 1) * spec.trials):
            try:
                out.append((spec, index, harness.run_trial(scenario, index)))
            except Exception as err:  # a trial that raises counts as failed
                out.append((spec, index, err))
    return out


def as_dicts(results: list[tuple]) -> list[tuple]:
    return [
        (spec, index, rec if isinstance(rec, BaseException) else rec.to_json_dict())
        for spec, index, rec in results
    ]


class CliRound:
    """Runs ``chainreact bench --jobs N --trace-dir D --out F`` over the
    workload's scenarios.  Round ``rnd`` writes copies of the scenario files
    whose base_seed is shifted so that it runs the same seeds as the serial
    round ``rnd``."""

    def __init__(self, cli, specs: list[Spec], jobs: int, work: Path):
        self.cli = cli
        self.specs = specs
        self.jobs = jobs
        self.work = work
        self.trace_dir = work / "traces"
        self.results = work / "results.json"

    def run(self, shift: int, rnd: int):
        """Returns ([(spec, index, record dict or exception, ...)], trace bytes, wall s)."""
        files = []
        for spec in self.specs:
            raw = dict(spec.raw)
            raw["base_seed"] = spec.base_seed + shift + rnd * spec.trials
            raw["domain"] = str((spec.path.parent / spec.raw["domain"]).resolve())
            raw["problem"] = str((spec.path.parent / spec.raw["problem"]).resolve())
            path = self.work / f"{spec.name}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            files.append(str(path))
        if self.trace_dir.exists():
            shutil.rmtree(self.trace_dir)
        argv = [
            "bench", "--scenarios", *files, "--jobs", str(self.jobs),
            "--trace-dir", str(self.trace_dir), "--out", str(self.results),
        ]
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
            error = None if code == 0 else RuntimeError(f"bench exited with {code}")
        except (Exception, SystemExit) as err:  # the whole round fails
            error = err
        wall = perf_counter() - start

        if error is None:
            try:
                return (*self._read(rnd), wall)
            except (OSError, ValueError, KeyError, TypeError) as err:
                error = err
        failed = [
            (spec, index, error)
            for spec in self.specs
            for index in range(rnd * spec.trials, (rnd + 1) * spec.trials)
        ]
        return failed, 0, wall

    def _read(self, rnd: int) -> tuple[list[tuple], int]:
        """Records from the results file, each with its trace file's line
        count, and the trace files' total size."""
        payload = json.loads(self.results.read_text(encoding="utf-8"))
        out, trace_bytes = [], 0
        for spec, entry in zip(self.specs, payload["results"], strict=True):
            records = entry["records"]
            if len(records) != spec.trials:
                raise ValueError(f"{spec.name}: {len(records)} records, not {spec.trials}")
            for index, record in enumerate(records, start=rnd * spec.trials):
                trace = self.trace_dir / f"{spec.name}_trial{record['trial']:04d}.jsonl"
                data = trace.read_bytes()
                trace_bytes += len(data)
                out.append((spec, index, record, data.count(b"\n")))
        return out, trace_bytes


def check_round(checker: Checker, results: list[tuple], shift: int) -> None:
    for spec, index, record, *lines in results:
        checker.trial(spec, index, record, shift, lines[0] if lines else None)


def load_seconds(spans: list[list]) -> float:
    return sum(end - start for name, start, end, _, _ in spans if name == LOAD)


# -- end-to-end run -------------------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure_setup(harness, specs, shift) -> tuple[float, float, list]:
    """Median over SETUP_REPEATS of the load_scenario time for all scenarios,
    in host seconds and rescaled to the reference host."""
    times, scaled, speed = [], [], HostSpeed()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        loaded = load_all(harness, specs, shift)
        times.append(perf_counter() - start)
        scaled.append(times[-1] * speed.scale())
    return statistics.median(times), statistics.median(scaled), loaded


def end_to_end(harness, cli, specs, jobs, shift, seconds, checker, work) -> dict:
    """Rounds of trials back to back until ``seconds`` of trial time have passed."""
    host_setup_s, setup_s, loaded = measure_setup(harness, specs, shift)
    tracer = Tracer()
    first_action = array("d")  # reference-host seconds
    exec_s, ticks, trials, wall, rnd = 0.0, 0, 0, 0.0, 0
    host_exec_s, host_wall = 0.0, 0.0
    speed = HostSpeed()
    cli_round = CliRound(cli, specs, jobs, work) if jobs > 1 else None
    with Instrument(tracer, TIMING_TARGETS):
        while rnd == 0 or host_wall < seconds:
            tracer.clear()
            if cli_round:
                results, _, round_wall = cli_round.run(shift, rnd)
                round_wall -= load_seconds(tracer.spans)
            else:
                start = perf_counter()
                results = serial_round(harness, specs, loaded, rnd)
                round_wall = perf_counter() - start
                results = as_dicts(results)
            scale = speed.scale()
            host_wall += round_wall
            wall += round_wall * scale
            trials += len(results)
            for first, executive_s, executive_ticks in trial_timings(tracer.spans):
                first_action.append(first * scale)
                host_exec_s += executive_s
                exec_s += executive_s * scale
                ticks += executive_ticks
            check_round(checker, results, shift)
            rnd += 1
    verify_reference(harness, cli, specs, jobs, shift, checker, work)

    if len(first_action) < trials:
        checker.note(f"per-trial timings for {len(first_action)} of {trials} trials")
    ordered = sorted(first_action) or [0.0]
    p99_rank = math.ceil(0.99 * len(ordered))
    print(f"trials {trials} in {rnd} rounds, {len(ordered) - p99_rank} beyond p99")
    print(
        f"host time x {statistics.fmean(speed.scales):.4f} (mean) = reference time; "
        f"on this host: setup_s {host_setup_s:.6g}, trials_per_s {trials / host_wall:.6g}, "
        f"tick_us {host_exec_s / max(ticks, 1) * 1e6:.6g}"
    )
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (trials / wall, "1/s"),
        "first_action_ms_p50": (percentile(ordered, 50) * 1e3, "ms"),
        "first_action_ms_p99": (percentile(ordered, 99) * 1e3, "ms"),
        "tick_us": (exec_s / ticks * 1e6 if ticks else 0.0, "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def verify_reference(harness, cli, specs, jobs, shift, checker, work) -> None:
    """Compare the default-seed first round with the reference, whatever the
    run's own seed (at seed 0 the timed rounds already covered it)."""
    if shift == 0:
        return
    if jobs > 1:
        results, _, _ = CliRound(cli, specs, jobs, work).run(0, 0)
    else:
        results = as_dicts(serial_round(harness, specs, load_all(harness, specs, 0), 0))
    check_round(checker, results, 0)


# -- traced per-layer run -------------------------------------------------------


def one_pass(harness, cli, specs, jobs, shift, traced, work):
    """Round 0 of the workload with fresh scenario loads, traced or not.

    Returns (tracer, absent span names, results, trial seconds, trace bytes,
    reference-host scale)."""
    speed = HostSpeed()
    tracer = Tracer()
    targets = LAYER_TARGETS if traced else TIMING_TARGETS
    with Instrument(tracer, targets, wrap_on_tick=traced) as inst:
        if jobs > 1:
            results, trace_bytes, wall = CliRound(cli, specs, jobs, work).run(shift, 0)
            trial_s = wall - load_seconds(tracer.spans)
        else:
            loaded = load_all(harness, specs, shift)
            start = perf_counter()
            results = serial_round(harness, specs, loaded, 0)
            trial_s = perf_counter() - start
            results, trace_bytes = as_dicts(results), 0
    return tracer, inst.absent, results, trial_s, trace_bytes, speed.scale()


def layer_metrics(spans: list[list], trace_bytes: int, scale: float, cost: float) -> dict:
    """One pass's metrics; host times are multiplied by ``scale``."""
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    metrics = {}
    for name in SPAN_NAMES:
        calls, total, own = totals[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.s"] = total * scale
        metrics[f"{name}.self_s"] = own * scale
    infos = defaultdict(list)
    pool_overhead = 0.0
    for name, start, end, _, info in spans:
        if info is not None:
            infos[name].append(info)
        if name == RUN_TRIALS and info is not None:
            jobs, in_trial = info
            pool_overhead += (end - start) - in_trial / max(jobs, 1)
    ticks = sum(sum(infos[name]) for name in EXECUTIVES)
    plans = infos["planner.plan"]
    distinct = len({query for _, _, query in plans})
    metrics.update(
        {
            "planner.ground.operators": sum(infos["planner.ground"]),
            "planner.plan.expansions": sum(expansions for expansions, _, _ in plans),
            "planner.plan.distinct_queries": distinct,
            "planner.plan.repeat_ratio": 1 - distinct / len(plans) if plans else 0.0,
            "planner.plan.unsolved": sum(1 for _, solved, _ in plans if not solved),
            "kitchen.eval_predicates.per_tick": (
                totals["kitchen.eval_predicates"][0] / ticks if ticks else 0.0
            ),
            "executive.ticks": ticks,
            "executive.disturbances_fired": sum(
                1 for fired in infos["executive.Disturbance.matches"] if fired
            ),
            "harness.trace_bytes_per_tick": trace_bytes / ticks if ticks else 0.0,
            "harness.pool_overhead_s": pool_overhead * scale,
            "trace.spans": len(spans),
            "trace.wrapper_overhead_s": len(spans) * cost,
        }
    )
    return metrics, max_trial_residual(spans, selfs)


def per_layer(harness, cli, specs, jobs, shift, seconds, checker, work, span_file):
    speed = HostSpeed()
    cost = span_cost() * speed.scale()
    untraced_s, traced_s, passes = [], [], []
    baseline = None
    last_spans, absent, worst = [], set(), 0.0
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        for traced in (False, True):
            tracer, absent_now, results, trial_s, trace_bytes, scale = one_pass(
                harness, cli, specs, jobs, shift, traced, work
            )
            trial_s *= scale
            check_round(checker, results, shift)
            records = [rec for _, _, rec, *_ in results]
            if baseline is None:
                baseline = records
            elif records != baseline:
                checker.note("records differ between traced and untraced passes")
            if not traced:
                untraced_s.append(trial_s)
                continue
            traced_s.append(trial_s)
            absent = absent_now
            metrics, residual = layer_metrics(tracer.spans, trace_bytes, scale, cost)
            passes.append(metrics)
            worst = max(worst, residual)
            last_spans = tracer.spans
    verify_reference(harness, cli, specs, jobs, shift, checker, work)

    first = passes[0]
    for name in filter(is_exact, first):
        values = {p[name] for p in passes}
        if len(values) > 1:
            checker.note(f"{name} differs between passes at one seed: {sorted(values)}")
    if worst > 1e-6:
        checker.note(f"trial self times miss the trial wall time by {worst:.3g} s")

    write_spans(span_file, last_spans)
    print(f"{len(passes)} traced passes; spans of the last one in {span_file}")
    if absent:
        print("absent layers: " + ", ".join(sorted(absent)))

    # Counts are equal in every pass (checked above); times take the median.
    metrics = {
        name: value if is_exact(name) else statistics.median(p[name] for p in passes)
        for name, value in first.items()
    }
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return {name: (value, metric_unit(name)) for name, value in metrics.items()}, absent


def is_exact(name: str) -> bool:
    return name in EXACT_METRICS or metric_unit(name) == "count"


def metric_unit(name: str) -> str:
    if name.endswith(".calls") or name in (
        "planner.ground.operators", "planner.plan.expansions",
        "planner.plan.distinct_queries", "planner.plan.unsolved",
        "executive.ticks", "executive.disturbances_fired", "trace.spans",
    ):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "kitchen.eval_predicates.per_tick":
        return "1/tick"
    if name == "harness.trace_bytes_per_tick":
        return "B/tick"
    return "s"


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness, cli = import_program()
    names, jobs = WORKLOADS[args.workload]
    specs = [Spec.load(name) for name in names]
    checker = Checker(json.loads(REFERENCE.read_text(encoding="utf-8"))["scenarios"])
    shift = args.seed * SEED_STRIDE

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        if args.trace:
            span_file = OUT / f"spans-{args.workload}.jsonl"
            metrics, absent = per_layer(
                harness, cli, specs, jobs, shift, args.seconds, checker, work, span_file
            )
        else:
            metrics, absent = end_to_end(
                harness, cli, specs, jobs, shift, args.seconds, checker, work
            ), set()

    for name, (value, unit) in metrics.items():
        layer = name.rsplit(".", 1)[0]
        shown = "absent" if layer in absent else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    print(f"trials attempted {checker.attempted}, failed {checker.failed}")
    for problem in checker.problems:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
