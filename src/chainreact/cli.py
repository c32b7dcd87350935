"""Command line interface.

Subcommands:
  plan     search for an operator sequence and write plan.json
           (the object harness.plan_payload builds)
  chain    read plan.json, rejecting any other shape, and turn it into
           chain.json with the propagated extra conditions per step
  execute  run one seeded trial of a scenario, optionally tracing each tick
  bench    run the full trial protocol for one or more scenarios
  report   print the comparison table for a saved results file

Exit codes: 0 success, 1 failed run or invariant, 2 input errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from .chains import UnsupportedFeatureError, build_chain
from .harness import (
    ScenarioError,
    chain_payload,
    load_grounded,
    load_scenario,
    plan_payload,
    queue_trials,
    read_json,
    read_plan,
    read_results,
    report,
    results_payload,
    run_trial,
    run_trials,
)
from .planner import Plan, plan

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _input_error(problems: list[str]) -> int:
    for problem in problems:
        print(problem, file=sys.stderr)
    return EXIT_INPUT


def _write_error(path, err: OSError) -> int:
    return _input_error([f"{path}: cannot write: {err.strerror or err}"])


def _write_out(text: str, out) -> int:
    """Write ``text`` to the file ``out``, or to stdout when it is not given."""
    if not out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as err:
        return _write_error(out, err)
    return EXIT_OK


def cmd_plan(args) -> int:
    problems: list[str] = []
    grounded = load_grounded(args.domain, args.problem, problems)
    if grounded is None:
        return _input_error(problems)
    result = plan(grounded)
    if result.status == "unsolvable":
        print("unsolvable", file=sys.stderr)
        return EXIT_FAILED
    if result.status == "budget_exhausted":
        print("node budget exhausted before a plan was found", file=sys.stderr)
        return EXIT_FAILED
    if _write_out(json.dumps(plan_payload(result.plan), indent=2) + "\n", args.out):
        return EXIT_INPUT
    print(f"plan: {len(result.plan)} steps", file=sys.stderr)
    return EXIT_OK


def cmd_chain(args) -> int:
    problems: list[str] = []
    grounded = load_grounded(args.domain, args.problem, problems)
    if grounded is None:
        return _input_error(problems)
    try:
        steps = read_plan(grounded, read_json(args.plan))
    except ValueError as err:
        return _input_error([f"{args.plan}: {err}"])
    try:
        chain = build_chain(Plan(steps, grounded.init, grounded.goal))
    except UnsupportedFeatureError as err:
        print(f"{args.problem}: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as err:
        print(f"plan is not sound for this problem: {err}", file=sys.stderr)
        return EXIT_FAILED
    return _write_out(json.dumps(chain_payload(chain), indent=2) + "\n", args.out)


def cmd_execute(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    try:
        scenario = load_scenario(args.scenario, overrides or None)
    except ScenarioError as err:
        return _input_error([f"{args.scenario}: {problem}" for problem in err.problems])
    try:
        sink = open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext()
    except OSError as err:
        return _write_error(args.trace, err)
    with sink as trace:
        record = run_trial(scenario, 0, trace_sink=trace)
    print(json.dumps(record.to_json_dict(), sort_keys=True))
    return EXIT_OK if record.succeeded else EXIT_FAILED


def cmd_bench(args) -> int:
    if args.jobs < 1:
        print(f"--jobs must be at least 1, not {args.jobs}", file=sys.stderr)
        return EXIT_INPUT
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    # Every scenario loads before any trial runs, so a bad file leaves no
    # partial results or traces behind.
    scenarios = []
    for path in args.scenarios:
        try:
            scenarios.append(load_scenario(path, overrides or None))
        except ScenarioError as err:
            _input_error([f"{path}: {problem}" for problem in err.problems])
    if len(scenarios) < len(args.scenarios):
        return EXIT_INPUT
    # Scenarios run side by side and name their trace files: one name each.
    first_path = {}
    for path, scenario in zip(args.scenarios, scenarios):
        if scenario.name in first_path:
            print(
                f"{path}: scenario name {scenario.name!r} is taken by "
                f"{first_path[scenario.name]}",
                file=sys.stderr,
            )
        first_path.setdefault(scenario.name, path)
    if len(first_path) < len(scenarios):
        return EXIT_INPUT
    # An unwritable --out or --trace-dir ends the run before its first
    # trial; the results file itself is written once the last has run.
    try:
        if args.out:
            tempfile.TemporaryFile(dir=Path(args.out).parent).close()
            if Path(args.out).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as err:
        return _write_error(args.out, err)
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir:
        try:
            trace_dir.mkdir(parents=True, exist_ok=True)
            name_max = os.pathconf(trace_dir, "PC_NAME_MAX")
        except OSError as err:
            return _write_error(trace_dir, err)
        for path, scenario in zip(args.scenarios, scenarios):
            longest = scenario.trace_name(scenario.trials - 1)
            if len(longest.encode()) > name_max:
                too_long = f"trace file name {longest!r} is longer than {name_max} bytes"
                return _input_error([f"{path}: {too_long}"])
    # One pool for the whole run, no larger than the largest trial count.
    # Workers start with the platform's default method (fork on Linux).
    # Every scenario's ranges are queued before the first is collected, so
    # a worker that finishes early moves on to the next scenario's.
    jobs = min(args.jobs, max(s.trials for s in scenarios))
    serial = nullcontext([None] * len(scenarios))
    with queue_trials(scenarios, jobs, trace_dir) if jobs > 1 else serial as queued:
        runs = [
            run_trials(scenario, jobs=jobs, trace_dir=trace_dir, futures=futures)
            for scenario, futures in zip(scenarios, queued)
        ]
    payload = results_payload(runs)
    if args.out and _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out):
        return EXIT_INPUT
    print(report([metrics for metrics, _ in runs]))
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        metrics_list = read_results(read_json(args.results))
    except ValueError as err:
        return _input_error([f"{args.results}: {err}"])
    if not metrics_list:
        print("results file holds no metrics", file=sys.stderr)
        return EXIT_INPUT
    print(report(metrics_list))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainreact",
        description="Reactive symbolic planning and execution engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "plan", help="breadth-first search for a shortest operator sequence"
    )
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--out", help="write plan.json here instead of stdout")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("chain", help="build a robust chain from a plan")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--plan", required=True, help="plan.json from the plan command")
    p.add_argument("--out", help="write chain.json here instead of stdout")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("execute", help="run one seeded trial of a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trace", help="write a JSONL tick trace here")
    p.add_argument("--seed", type=int, help="override the scenario base_seed")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("bench", help="run the trial protocol for scenarios")
    p.add_argument("--scenarios", nargs="+", required=True)
    p.add_argument("--out", help="write metrics and records JSON here")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="trial worker processes in one pool for the run")
    p.add_argument("--trace-dir", help="write per-trial JSONL traces here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="print the table for saved results")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`chainreact report ... | head`).
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILED
    return code


if __name__ == "__main__":
    sys.exit(main())
