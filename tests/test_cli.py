"""CLI: the plan/chain/execute/bench/report pipeline and exit codes."""

import contextlib
import errno
import functools
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from chainreact import cli
from chainreact.cli import main
from chainreact.harness import load_scenario, plan_payload, read_plan
from chainreact.planner import ground, plan
from tests.util import (
    CUPS_ONLY,
    DATA_DIR,
    NEGATED_CARRY,
    SELF_COLLISIONS,
    kitchen_domain,
    kitchen_path,
    kitchen_problem,
    kitchen_source,
    problem_path,
    problem_source,
    scenario_copy,
    scenario_path,
    two_object_files,
)


def test_plan_chain_pipeline(tmp_path, capsys):
    plan_out = tmp_path / "plan.json"
    code = main([
        "plan",
        "--domain", str(kitchen_path()),
        "--problem", str(problem_path("put_away_spam")),
        "--out", str(plan_out),
    ])
    assert code == 0
    data = json.loads(plan_out.read_text())
    grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
    found = plan(grounded).plan
    assert data == plan_payload(found)
    assert read_plan(grounded, data) == found.steps
    assert data["format_version"] == 1
    steps = data["steps"]
    assert len(steps) == 16
    assert steps[0] == {"operator": "back_off", "args": []}
    assert steps[-1] == {"operator": "push_drawer", "args": []}

    chain_out = tmp_path / "chain.json"
    code = main([
        "chain",
        "--domain", str(kitchen_path()),
        "--problem", str(problem_path("put_away_spam")),
        "--plan", str(plan_out),
        "--out", str(chain_out),
    ])
    assert code == 0
    chain = json.loads(chain_out.read_text())
    assert chain["format_version"] == 2
    assert len(chain["steps"]) == 16
    release = next(s for s in chain["steps"] if s["operator"] == "release_obj")
    assert "obj_is_in_drawer(spam)" in release["extra_pre"]
    assert "obj_is_in_drawer(spam)" in release["extra_run"]


def test_without_out_stdout_is_what_out_writes(tmp_path, capsys):
    files = ["--domain", str(kitchen_path()), "--problem", str(problem_path("pick_spam"))]
    plan_file, chain_file = tmp_path / "plan.json", tmp_path / "chain.json"
    runs = [
        (["plan", *files], plan_file),
        (["chain", *files, "--plan", str(plan_file)], chain_file),
    ]
    for command, out in runs:
        assert main([*command, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(command) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_plan_node_budget_exhausted_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "plan", functools.partial(plan, node_budget=3))
    code = main(["plan", "--domain", str(kitchen_path()),
                 "--problem", str(problem_path("put_away_spam"))])
    assert code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "node budget exhausted before a plan was found\n"
    )


@pytest.mark.parametrize(
    "domain, problem, steps",
    [*((*two_object_files(clauses), 1) for clauses in SELF_COLLISIONS.values()),
     (*NEGATED_CARRY, 2)],
    ids=[*SELF_COLLISIONS, "run_negates_carried"],
)
def test_self_colliding_clauses_plan_and_chain(tmp_path, capsys, domain, problem, steps):
    # Each used to end in a ValueError traceback, exit 1: grounding a
    # binding whose effect or condition collides with itself, or chaining
    # a step whose run condition negates a carried atom.
    (tmp_path / "d.dpdl").write_text(domain)
    (tmp_path / "p.dprob").write_text(problem)
    files = ["--domain", str(tmp_path / "d.dpdl"), "--problem", str(tmp_path / "p.dprob")]
    plan_file = tmp_path / "plan.json"
    assert main(["plan", *files, "--out", str(plan_file)]) == 0
    assert capsys.readouterr().err == f"plan: {steps} steps\n"
    assert main(["chain", *files, "--plan", str(plan_file)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(json.loads(captured.out)["steps"]) == steps


def chain_from_plan_file(tmp_path, data):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(data))
    return main([
        "chain",
        "--domain", str(kitchen_path()),
        "--problem", str(problem_path("put_away_spam")),
        "--plan", str(plan_file),
    ])


BACK_OFF = {"operator": "back_off", "args": []}


@pytest.mark.parametrize(
    "data, fault",
    [
        ([BACK_OFF], "a plan file must be a JSON object"),
        ({"steps": [BACK_OFF]}, "missing required field 'format_version'"),
        ({"format_version": 2, "steps": [BACK_OFF]}, "field 'format_version' must be 1"),
        ({"format_version": True, "steps": [BACK_OFF]}, "field 'format_version' must be 1"),
        ({"format_version": 1, "steps": BACK_OFF}, "field 'steps' must be a list"),
        ({"format_version": 1, "steps": [5]}, "field 'steps[0]' must be an object"),
        ({"format_version": 1, "steps": [{"args": []}]},
         "missing required field 'steps[0].operator'"),
        ({"format_version": 1, "steps": [{"operator": 5, "args": []}]},
         "field 'steps[0].operator' must be a string"),
        ({"format_version": 1, "steps": [{"operator": "back_off", "args": "spam"}]},
         "field 'steps[0].args' must be a list"),
        ({"format_version": 1, "steps": [{"operator": "back_off"}]},
         "missing required field 'steps[0].args'"),
        ({"format_version": 1, "steps": [{"operator": "fly_away", "args": []}]},
         "field 'steps[0]': no ground operator fly_away()"),
        ({"format_version": 1, "steps": [BACK_OFF], "bogus": 1}, "unknown field 'bogus'"),
        ({"format_version": 1, "steps": [{**BACK_OFF, "extra": 1}]},
         "unknown field 'steps[0].extra'"),
    ],
    ids=["bare_array", "no_version", "version_2", "version_true", "steps_object",
         "step_int", "no_operator", "operator_int", "args_string", "no_args", "unknown_operator",
         "unknown_top_level", "unknown_step_field"],
)
def test_chain_rejects_bad_plan_file(tmp_path, capsys, data, fault):
    assert chain_from_plan_file(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{tmp_path / 'plan.json'}: ") and fault in err


@pytest.mark.parametrize("command", ["chain", "report"])
def test_input_file_prints_one_line_per_fault(tmp_path, capsys, command):
    # A plan or results file with several faults names each on its own
    # line, as a scenario file does.
    if command == "chain":
        path = tmp_path / "plan.json"
        assert chain_from_plan_file(tmp_path, {"format_version": 2, "steps": 3}) == 2
        listed = "steps"
    else:
        path = tmp_path / "results.json"
        path.write_text(json.dumps({"format_version": 2, "results": 3}))
        assert main(["report", "--results", str(path)]) == 2
        listed = "results"
    assert capsys.readouterr().err.splitlines() == [
        f"{path}: field 'format_version' must be 1",
        f"{path}: field '{listed}' must be a list",
    ]


def test_chain_unsound_plan_exit_1(tmp_path, capsys):
    # Well formed, but one step does not reach the goal.
    assert chain_from_plan_file(tmp_path, {"format_version": 1, "steps": [BACK_OFF]}) == 1
    assert "not sound" in capsys.readouterr().err


def test_chain_plan_failing_a_precondition_exit_1(tmp_path, capsys):
    # The drawer starts closed, so pushing it shut cannot be the first step.
    push = {"operator": "push_drawer", "args": []}
    assert chain_from_plan_file(tmp_path, {"format_version": 1, "steps": [push]}) == 1
    assert capsys.readouterr().err == (
        "plan is not sound for this problem: plan violates preconditions at step 0\n"
    )


def test_chain_negative_goal_writes_goal_neg(tmp_path):
    # build_chain regresses a negated goal atom like a required one;
    # chain used to exit 2 for it.
    problem = tmp_path / "negative.dprob"
    problem.write_text(problem_source("put_away_spam").replace(
        "(drawer_is_closed)))", "(not (drawer_is_open))))"
    ))
    files = ["--domain", str(kitchen_path()), "--problem", str(problem)]
    plan_file, chain_file = tmp_path / "plan.json", tmp_path / "chain.json"
    assert main(["plan", *files, "--out", str(plan_file)]) == 0
    assert main(["chain", *files, "--plan", str(plan_file), "--out", str(chain_file)]) == 0
    chain = json.loads(chain_file.read_text())
    assert (chain["goal"], chain["goal_neg"]) == (["obj_is_in_drawer(spam)"], ["drawer_is_open"])
    assert chain["steps"][-1]["operator"] == "push_drawer"


def test_plan_reports_unsolvable(tmp_path, capsys):
    # The goal wants spam lifted clear of the counter, but spam begins
    # inside the drawer and no operator picks from the drawer.
    bad = tmp_path / "impossible.dprob"
    bad.write_text(
        "(define (problem impossible) (:domain kitchen)\n"
        "  (:objects spam sugar - movable)\n"
        "  (:init (arm_in_driving_posture) (gripper_is_open) (arm_is_free)\n"
        "         (drawer_is_closed) (obj_is_in_drawer spam)\n"
        "         (obj_is_on_counter sugar) (obj_is_detected sugar)\n"
        "         (obj_is_tracked sugar) (handle_is_detected) (handle_is_tracked))\n"
        "  (:goal (and (obj_is_clear_above_counter spam))))\n"
    )
    code = main([
        "plan", "--domain", str(kitchen_path()), "--problem", str(bad),
    ])
    assert code == 1
    assert "unsolvable" in capsys.readouterr().err


def test_plan_rejects_bad_domain(tmp_path, capsys):
    bad = tmp_path / "broken.dpdl"
    bad.write_text("(define (domain d) (:types")
    code = main([
        "plan", "--domain", str(bad), "--problem", str(problem_path("put_away_spam")),
    ])
    assert code == 2


def _run_on_pair(command, tmp_path, domain, problem):
    """Run ``command`` on the domain and problem files given, through a
    scenario file for ``execute`` and ``bench``; returns the exit code."""
    if command in ("execute", "bench"):
        raw = json.loads(scenario_path("pick_spam_oracle").read_text())
        raw.update(domain=str(domain), problem=str(problem), trials=1)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        flag = "--scenario" if command == "execute" else "--scenarios"
        return main([command, flag, str(scenario)])
    args = [command, "--domain", str(domain), "--problem", str(problem)]
    if command == "chain":
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"format_version": 1, "steps": [BACK_OFF]}))
        args += ["--plan", str(plan_file)]
    return main(args)


@pytest.mark.parametrize("command", ["plan", "chain", "bench"])
@pytest.mark.parametrize("which", ["domain", "problem"])
@pytest.mark.parametrize("fault", ["missing", "not_utf8"])
def test_unreadable_domain_or_problem_exit_2(tmp_path, capsys, command, which, fault):
    # A missing file used to end plan and chain in a FileNotFoundError
    # traceback, and a file that is not UTF-8 every command in a
    # UnicodeDecodeError traceback, both with exit 1.
    files = {"domain": kitchen_path(), "problem": problem_path("pick_spam")}
    bad = tmp_path / files[which].name
    if fault == "not_utf8":
        bad.write_bytes(files[which].read_bytes().replace(b"; ", b"; \xff", 1))
    files[which] = bad
    assert _run_on_pair(command, tmp_path, **files) == 2
    err = capsys.readouterr().err
    reason = "cannot read" if fault == "missing" else "not UTF-8 text"
    assert f"{bad}: {reason}" in err, err


@pytest.mark.parametrize("command", ["plan", "chain", "bench"])
@pytest.mark.parametrize(
    "which, edit, message",
    [
        ("domain", (":action back_off", ":action back_off :cost"),
         "error: expected ':clause VALUE' pairs"),
        ("problem", ("(obj_is_clear_above_counter spam)",
                     "(obj_is_clear_above_counter spam) (not (obj_is_clear_above_counter spam))"),
         "error: condition both requires and negates"),
    ],
    ids=["domain", "problem"],
)
def test_diagnostics_start_with_their_file(tmp_path, capsys, command, which, edit, message):
    # bench used to prefix a diagnostic with "domain:" or "problem:" and
    # not the path of the file it is in.
    files = {"domain": kitchen_path(), "problem": problem_path("pick_spam")}
    bad = tmp_path / files[which].name
    text = files[which].read_text()
    assert edit[0] in text
    bad.write_text(text.replace(*edit, 1))
    files[which] = bad
    assert _run_on_pair(command, tmp_path, **files) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if message in line]
    assert lines and all(re.search(rf"{re.escape(str(bad))}:\d+:\d+: error: ", line)
                         for line in lines), lines


CUBE_DOMAIN = """(define (domain cube)
  (:types thing)
  (:predicates (p ?a - thing))
  (:action op
    :parameters (?a - thing ?b - thing ?c - thing)
    :precondition (and)
    :effect (and (p ?a))
  )
)
"""


@pytest.mark.parametrize("command", ["plan", "chain", "execute", "bench"])
def test_grounding_over_cap_exit_2(tmp_path, capsys, command):
    # 101 objects give 101^3 = 1,030,301 ground operators.  Grounding used
    # to build 10^6 of them and then end every command in a
    # GroundingLimitError traceback; now it counts them first.
    domain = tmp_path / "cube.dpdl"
    domain.write_text(CUBE_DOMAIN)
    problem = tmp_path / "cube.dprob"
    objects = " ".join(f"o{i}" for i in range(101))
    problem.write_text(
        f"(define (problem cube) (:domain cube) (:objects {objects} - thing)\n"
        "  (:init) (:goal (and (p o0))))\n"
    )
    start = time.perf_counter()
    assert _run_on_pair(command, tmp_path, domain, problem) == 2
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].endswith(f"{problem}: grounding exceeds 1000000 operators"), lines


@pytest.mark.parametrize("command", ["execute", "bench"])
@pytest.mark.parametrize(
    "spec, missing",
    [({"success_prob": 0.5}, "min_ticks and max_ticks"), ({"max_ticks": 2}, "min_ticks")],
    ids=["no_ticks", "no_min_ticks"],
)
def test_binding_without_default_must_give_ticks(tmp_path, capsys, command, spec, missing):
    # A binding with no default used to load from a hidden 1-tick primitive.
    domain = kitchen_source().replace(":binding open_gripper", ":binding wipe")
    path = scenario_copy(
        tmp_path, "pick_spam_oracle", domain, primitives={"bindings": {"wipe": spec}}
    )
    flag = "--scenario" if command == "execute" else "--scenarios"
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{path}: field 'primitives.bindings.wipe' has no default, so it must give {missing}"
    ]


def test_execute_writes_trace_and_exit_codes(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    code = main([
        "execute",
        "--scenario", str(scenario_path("put_away_spam_oracle")),
        "--trace", str(trace),
        "--seed", "12345",
    ])
    assert code == 0
    out = capsys.readouterr().out
    record = json.loads(out)
    assert record["status"] == "succeeded"
    assert record["seed"] == 12345
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "header"
    assert json.loads(lines[-1])["type"] == "outcome"


def test_execute_trace_is_bench_trial_0_trace(tmp_path, capsys):
    # Both commands write traces through run_trial, and --seed S makes
    # execute's one trial bench's trial 0, so the two files are the same.
    shipped = sorted((DATA_DIR / "scenarios").glob("*.json"))
    traces = tmp_path / "traces"
    assert main([
        "bench", "--scenarios", *map(str, shipped), "--seed", "7", "--trace-dir", str(traces),
    ]) == 0
    for path in shipped:
        trace = tmp_path / f"{path.stem}.jsonl"
        main(["execute", "--scenario", str(path), "--seed", "7", "--trace", str(trace)])
        expected = traces / f"{path.stem}_trial0000.jsonl"
        assert trace.read_bytes() == expected.read_bytes(), path.stem


def test_execute_bad_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("{}", "[]"):
        bad.write_text(text)
        assert main(["execute", "--scenario", str(bad)]) == 2


@pytest.mark.parametrize(
    "override, path",
    [
        ({"primitives": {"bindings": ["grasp"]}}, "primitives.bindings"),
        ({"primitives": {"bindings": {"grasp": {"min_ticks": 5, "max_ticks": 2}}}},
         "primitives.bindings.grasp"),
        ({"primitives": {"bindings": {"graps": {"max_ticks": 5}}}},
         "primitives.bindings.graps"),
        ({"perception": {"default_flip": 0.3}}, "perception.default_flip"),
        ({"disturbances": [{"trigger": {"at_tick": 5000}, "kind": {"kind": "detach_gripper"}}]},
         "disturbances[0].trigger.at_tick"),
        ({"goal_streak": 401}, "goal_streak"),
        ({"perception": {"mode": "noisy", "window": 10**20}}, "perception.window"),
        ({"primitives": {"bindings": {"approach_obj": {"min_ticks": 1, "max_ticks": 10**20}}}},
         "primitives.bindings.approach_obj.max_ticks"),
        ({"max_ticks": 10**20, "perception": {"mode": "noisy", "window": 10**20}},
         "max_ticks"),
        ({"planner": {"optimal": True}}, "planner"),
        ({"format_version": 1}, "format_version"),
    ],
    ids=["bindings_list", "min_above_max", "unbound_name", "flip_without_noisy",
         "at_tick_past_budget", "goal_streak_past_budget", "huge_window",
         "huge_binding_max_ticks", "huge_max_ticks_and_window", "planner",
         "format_version_1"],
)
def test_execute_bad_scenario_value_exit_2(tmp_path, capsys, override, path):
    # The first used to crash the loader, the second the trial; the third,
    # fifth and sixth loaded and were never used, and the fourth loaded as
    # oracle perception.  The next three loaded and then raised in the
    # trial: OverflowError from the window's deque, ValueError from the
    # simulator's int64 tick draw, and OverflowError again.  The last two
    # are scenario format 1, which had a planner switch.
    raw = json.loads(scenario_path("pick_spam_oracle").read_text())
    for key in ("domain", "problem"):
        raw[key] = str((scenario_path("pick_spam_oracle").parent / raw[key]).resolve())
    raw.update(override)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["execute", "--scenario", str(bad)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert f"'{path}'" in line


@pytest.mark.parametrize("command", ["execute", "bench", "chain", "report"])
@pytest.mark.parametrize(
    "fault", ["missing", "not_utf8", "truncated", "repeated_key", "nan", "infinity"]
)
def test_json_input_faults_read_alike(tmp_path, capsys, command, fault):
    # Scenario, plan and results files share one reader: one line naming
    # the file once, then the fault, and exit 2.  A repeated key, in an
    # object at any depth, and the constants json.loads would take are
    # faults too.
    path = tmp_path / "in.json"
    content = {
        "missing": None,
        "not_utf8": b'{"x": "\xff"}',
        "truncated": b'{"x": 1',
        "repeated_key": b'{"x": {"y": 1, "z": 2, "y": 1}}',
        "nan": b'{"x": [NaN]}',
        "infinity": b'{"x": -Infinity}',
    }[fault]
    if content is not None:
        path.write_bytes(content)
    args = {
        "execute": ["--scenario", str(path)],
        "bench": ["--scenarios", str(path)],
        "chain": ["--domain", str(kitchen_path()), "--problem",
                  str(problem_path("pick_spam")), "--plan", str(path)],
        "report": ["--results", str(path)],
    }[command]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    expected = {
        "missing": "cannot read: No such file or directory",
        "not_utf8": "not UTF-8 text: invalid start byte at byte 7",
        "truncated": "not JSON: Expecting ',' delimiter: line 1 column 8 (char 7)",
        "repeated_key": "not JSON: key 'y' repeated in one object",
        "nan": "not JSON: NaN is not a JSON number",
        "infinity": "not JSON: -Infinity is not a JSON number",
    }[fault]
    assert err == f"{path}: {expected}\n"


@pytest.mark.parametrize(
    "command, flag",
    [("execute", "--trace"), ("bench", "--out"), ("bench", "--trace-dir"),
     ("plan", "--out"), ("chain", "--out")],
)
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, command, flag):
    # One line and exit 2, not a traceback.  bench finds out before its
    # first trial, and creates neither its results file nor its trace dir.
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    target = blocker / "out.json"
    files = ["--domain", str(kitchen_path()), "--problem", str(problem_path("pick_spam"))]
    plan_file = tmp_path / "plan.json"
    assert main(["plan", *files, "--out", str(plan_file)]) == 0
    capsys.readouterr()
    args = {
        "execute": ["--scenario", str(scenario_path("pick_spam_oracle"))],
        "bench": ["--scenarios", str(scenario_path("pick_spam_oracle")), "--trials", "2",
                  "--out" if flag == "--trace-dir" else "--trace-dir", str(tmp_path / "kept")],
        "plan": files,
        "chain": [*files, "--plan", str(plan_file)],
    }[command]

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("chainreact.cli.run_trials", no_trials)
    assert main([command, *args, flag, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{target}: cannot write: Not a directory\n"
    assert captured.out == ""
    assert not (tmp_path / "kept").exists()


def test_bench_out_directory_exit_2_before_trials(tmp_path, capsys):
    # An existing directory as --out is caught before the first trial:
    # no trace is written and nothing is created in the directory.
    out, traces = tmp_path / "adir", tmp_path / "traces"
    out.mkdir()
    assert main([
        "bench", "--scenarios", str(scenario_path("open_drawer_oracle")),
        "--trials", "1", "--out", str(out), "--trace-dir", str(traces),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{out}: cannot write: Is a directory\n"
    assert captured.out == ""
    assert list(out.iterdir()) == [] and not traces.exists()


def test_bench_out_write_failure_after_trials_exit_2(tmp_path, capsys, monkeypatch):
    # --out passes the check before the first trial, then writing it after
    # the last fails (a full disk): one line and exit 2, no results file
    # and no report.
    out = tmp_path / "results.json"
    real_write_text = Path.write_text

    def disk_full(self, *args, **kwargs):
        if self == out:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert main([
        "bench", "--scenarios", str(scenario_path("open_drawer_oracle")),
        "--trials", "1", "--out", str(out),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{out}: cannot write: No space left on device\n"
    assert captured.out == ""
    assert not out.exists()


def test_bench_and_report(tmp_path, capsys):
    results = tmp_path / "results.json"
    code = main([
        "bench",
        "--scenarios",
        str(scenario_path("pick_spam_oracle")),
        str(scenario_path("open_drawer_oracle")),
        "--trials", "3",
        "--out", str(results),
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "pick_spam_oracle" in table and "open_drawer_oracle" in table
    payload = json.loads(results.read_text())
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]  # no probe file left
    assert len(payload["results"]) == 2
    assert payload["results"][0]["metrics"]["trials"] == 3

    code = main(["report", "--results", str(results)])
    assert code == 0
    assert "pick_spam_oracle" in capsys.readouterr().out


def test_bench_parallel_jobs_match(tmp_path):
    # 5 trials on 2 jobs split unevenly (3 and 2); the outputs of one pool
    # shared by both scenarios equal the serial run's byte for byte.
    base = [
        "bench", "--scenarios",
        str(scenario_path("pick_spam_oracle")),
        str(scenario_path("teleport_cage_reactive")),
        "--trials", "5",
    ]
    for name, jobs in (("seq", "1"), ("par", "2")):
        assert main(base + [
            "--out", str(tmp_path / f"{name}.json"), "--jobs", jobs,
            "--trace-dir", str(tmp_path / name),
        ]) == 0
    assert (tmp_path / "seq.json").read_bytes() == (tmp_path / "par.json").read_bytes()
    seq_traces = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert len(seq_traces) == 10
    assert sorted(p.name for p in (tmp_path / "par").iterdir()) == seq_traces
    for name in seq_traces:
        assert (tmp_path / "seq" / name).read_bytes() == (
            tmp_path / "par" / name
        ).read_bytes()


def test_bench_uneven_scenarios_on_three_jobs_match(tmp_path):
    # 5, 2 and 7 trials on 3 workers: ranges of 2/2/1, 1/1 and 3/3/1, all
    # queued before any is collected, so scenarios overlap on the workers.
    # Results and traces equal the serial run's byte for byte.
    files = [
        scenario_copy(tmp_path, name, trials=trials)
        for name, trials in (
            ("pick_spam_oracle", 5),
            ("put_away_spam_noisy", 2),
            ("teleport_cage_reactive", 7),
        )
    ]
    # The first and the last name the same domain and problem files, so
    # they load one shared grounding, which the workers inherit.
    first, _, last = (load_scenario(path).grounded for path in files)
    assert first is last
    for name, jobs in (("seq", "1"), ("par", "3")):
        assert main([
            "bench", "--scenarios", *map(str, files), "--jobs", jobs,
            "--out", str(tmp_path / f"{name}.json"),
            "--trace-dir", str(tmp_path / name),
        ]) == 0
    assert (tmp_path / "seq.json").read_bytes() == (tmp_path / "par.json").read_bytes()
    seq_traces = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert len(seq_traces) == 14
    assert sorted(p.name for p in (tmp_path / "par").iterdir()) == seq_traces
    for name in seq_traces:
        assert (tmp_path / "seq" / name).read_bytes() == (
            tmp_path / "par" / name
        ).read_bytes()


def test_bench_bad_scenario_runs_no_trial(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    traces = tmp_path / "traces"
    code = main([
        "bench", "--scenarios", str(scenario_path("pick_spam_oracle")), str(bad),
        "--trials", "2", "--trace-dir", str(traces),
        "--out", str(tmp_path / "results.json"),
    ])
    assert code == 2
    assert "bad.json" in capsys.readouterr().err
    assert not traces.exists() or not any(traces.iterdir())
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize("same_file", [False, True])
def test_bench_rejects_scenarios_sharing_a_name(tmp_path, capsys, same_file):
    # Scenarios run side by side and their trace files are named after
    # them, so two of one name would write the same files at once.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = scenario_copy(tmp_path / "a", "pick_spam_oracle")
    second = first if same_file else scenario_copy(tmp_path / "b", "pick_spam_oracle")
    traces = tmp_path / "traces"
    code = main([
        "bench", "--scenarios", str(first), str(second), "--jobs", "2",
        "--trace-dir", str(traces), "--out", str(tmp_path / "results.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"{second}: scenario name 'pick_spam_oracle' is taken by {first}\n"
    assert not traces.exists()
    assert not (tmp_path / "results.json").exists()


def test_bench_scenario_name_outside_trace_dir_exit_2(tmp_path, capsys):
    # The name prefixes each trace file; "../escaped" would write beside
    # the trace dir.
    path = scenario_copy(tmp_path, "pick_spam_oracle", trials=1)
    path.write_text(json.dumps({**json.loads(path.read_text()), "name": "../escaped"}))
    traces = tmp_path / "traces" / "inner"
    assert main(["bench", "--scenarios", str(path), "--trace-dir", str(traces)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: field 'name' must be a file name")
    assert not (tmp_path / "traces").exists()


@pytest.mark.parametrize(
    "name_of, trials",
    [
        (lambda fits: "x" * 250, 1),
        (lambda fits: "x" * (fits + 1), 1),
        (lambda fits: "\u00e9" * (fits // 2 + 1), 1),
        (lambda fits: "x" * fits, 10001),
    ],
    ids=["250_chars", "one_char_over", "two_byte_chars", "five_digit_trial"],
)
def test_bench_trace_name_too_long_exit_2(tmp_path, capsys, name_of, trials):
    # The longest trace file name, NAME_trialNNNN.jsonl for the last trial,
    # must fit the trace dir's name limit in UTF-8 bytes, or no trial runs.
    traces = tmp_path / "traces"
    traces.mkdir()
    limit = os.pathconf(traces, "PC_NAME_MAX")
    name = name_of(limit - len("_trial0000.jsonl"))
    path = scenario_copy(tmp_path, "pick_spam_oracle", trials=trials)
    path.write_text(json.dumps({**json.loads(path.read_text()), "name": name}))
    out = tmp_path / "results.json"
    code = main([
        "bench", "--scenarios", str(path), "--trace-dir", str(traces), "--out", str(out),
    ])
    assert code == 2
    longest = f"{name}_trial{trials - 1:04d}.jsonl"
    assert capsys.readouterr().err == (
        f"{path}: trace file name {longest!r} is longer than {limit} bytes\n"
    )
    assert not list(traces.iterdir()) and not out.exists()


def test_bench_trace_name_at_the_limit_runs(tmp_path):
    traces = tmp_path / "traces"
    traces.mkdir()
    name = "x" * (os.pathconf(traces, "PC_NAME_MAX") - len("_trial0000.jsonl"))
    path = scenario_copy(tmp_path, "pick_spam_oracle", trials=1)
    path.write_text(json.dumps({**json.loads(path.read_text()), "name": name}))
    assert main(["bench", "--scenarios", str(path), "--trace-dir", str(traces)]) == 0
    assert [p.name for p in traces.iterdir()] == [f"{name}_trial0000.jsonl"]


def test_bench_failed_range_cancels_queued_ranges(tmp_path):
    # The first range of the first scenario fails at once: its first trace
    # path is a directory.  Leaving the pool must not wait for the ranges
    # still queued behind it; the last scenario's never start.
    names = (
        "pick_spam_oracle", "open_drawer_oracle",
        "pick_sugar_oracle", "teleport_cage_reactive",
    )
    files = [scenario_copy(tmp_path, name, trials=40) for name in names]
    traces = tmp_path / "traces"
    (traces / "pick_spam_oracle_trial0000.jsonl").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        main([
            "bench", "--scenarios", *map(str, files), "--jobs", "2",
            "--trace-dir", str(traces),
        ])
    assert not list(traces.glob("teleport_cage_reactive_*"))


@pytest.mark.parametrize(
    "domain_edit, problem_edit, named",
    [
        ([("    (arm_is_moving)\n", "")], None, "'arm_is_moving'"),
        ([(":action back_off", ":action retreat")], None, "'retreat'"),
        (None, [("spam sugar - movable", "spam sugar m0 m1 m2 m3 - movable")],
         "6 movable objects"),
        (None, [("(obj_is_clear_above_counter spam)",
                 "(obj_is_clear_above_counter spam) (not (obj_is_clear_above_counter spam))")],
         "both requires and negates ['(obj_is_clear_above_counter spam)']"),
        (*CUPS_ONLY, "domain: movable 'sugar' is outside the parameter type of"),
        (None, [("(:goal (and (arm_is_attached_to_obj spam) (obj_is_clear_above_counter spam)))",
                 "(:goal (and))")],
         "pick_spam.dprob: the goal is empty, so trials succeed without a step"),
    ],
    ids=["no_arm_is_moving", "back_off_renamed", "six_movables", "contradictory_goal",
         "movable_outside_predicate_type", "empty_goal"],
)
def test_bench_domain_outside_simulator_contract_exit_2(
    tmp_path, capsys, domain_edit, problem_edit, named
):
    # Each used to load and then raise inside the first trial, but for the
    # contradictory goal, which raised in ground while loading, and the
    # empty goal, whose every trial succeeded without a step.  Every line
    # names the file at fault; the simulator's contract lines used to say
    # only "domain:" or "problem:".
    domain, problem = kitchen_source(), problem_source("pick_spam")
    for old, new in domain_edit or ():
        domain = domain.replace(old, new)
    for old, new in problem_edit or ():
        problem = problem.replace(old, new)
    path = scenario_copy(tmp_path, "pick_spam_oracle", domain, problem)
    at_fault = tmp_path / ("kitchen.dpdl" if domain_edit else "pick_spam.dprob")
    traces = tmp_path / "traces"
    code = main([
        "bench", "--scenarios", str(path), "--trace-dir", str(traces),
        "--out", str(tmp_path / "results.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err
    (line,) = err.splitlines()
    assert line.startswith(f"{path}: {at_fault}:"), err
    assert not traces.exists()
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize(
    "name, problem, goal_end, mean_ticks",
    [
        ("pick_spam_oracle", "pick_spam", ("(obj_is_clear_above_counter spam)))",
                                           "(not (obj_is_clear_above_counter spam))))"), 15.7),
        ("put_away_spam_oracle", "put_away_spam",
         ("(drawer_is_closed)))", "(not (drawer_is_open))))"), 39.0),
    ],
    ids=["pick_spam", "put_away_spam"],
)
def test_bench_negative_goal_succeeds(tmp_path, name, problem, goal_end, mean_ticks):
    # Each goal's last literal, negated, used to be refused at load with
    # exit 2.  Every trial now reaches the goal.
    path = scenario_copy(tmp_path, name, problem=problem_source(problem).replace(*goal_end))
    results = tmp_path / "results.json"
    assert main(["bench", "--scenarios", str(path), "--out", str(results)]) == 0
    (result,) = json.loads(results.read_text())["results"]
    assert result["metrics"] == {
        "false_success_rate": 0.0, "mean_ticks": mean_ticks, "recovery_rate": 0.0,
        "scenario": name, "success_rate": 1.0, "trials": 20,
    }


@pytest.mark.parametrize("command", ["report", "bench"])
def test_output_into_closed_pipe_exits_quietly(tmp_path, capsys, monkeypatch, command):
    # `chainreact report ... | head -1` used to end in a BrokenPipeError
    # traceback once head had exited.
    results = tmp_path / "results.json"
    assert main([
        "bench", "--scenarios", str(scenario_path("pick_spam_oracle")),
        "--trials", "1", "--out", str(results),
    ]) == 0
    capsys.readouterr()
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        if command == "report":
            code = main(["report", "--results", str(results)])
        else:
            code = main([
                "bench", "--scenarios", str(scenario_path("pick_spam_oracle")),
                "--trials", "1",
            ])
        assert code == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_rejects_jobs_below_one(jobs, capsys):
    code = main([
        "bench", "--scenarios", str(scenario_path("pick_spam_oracle")),
        "--jobs", jobs,
    ])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "jobs, trials, pools",
    [("2", "5", [2]), ("8", "3", [3]), ("4", "1", [])],
)
def test_bench_starts_one_pool_sized_to_trials(monkeypatch, jobs, trials, pools):
    import chainreact.cli
    import chainreact.harness

    created = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: records its size, runs its
        initializer and then each task in this process."""

        def __init__(self, max_workers, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # run_trials must use the run's pool, never start one of its own: a
    # second pool would show up in `created`.
    monkeypatch.setattr(chainreact.harness, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(chainreact.harness, "_worker_scenarios", ())
    code = main([
        "bench", "--scenarios",
        str(scenario_path("pick_spam_oracle")),
        str(scenario_path("open_drawer_oracle")),
        "--trials", trials, "--jobs", jobs,
    ])
    assert code == 0
    assert created == pools


def _running(pid: str) -> bool:
    """Whether process ``pid`` exists and is neither a zombie nor dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="lists a process's children through /proc/PID/task/PID/children",
)
def test_pool_workers_exit_when_bench_is_killed():
    # SIGTERM ends the bench before it can shut its pool down; each worker,
    # adopted by another process, must exit on its own.
    bench = subprocess.Popen(
        [sys.executable, "-m", "chainreact.cli", "bench", "--scenarios",
         str(scenario_path("put_away_spam_noisy")), "--trials", "200000", "--jobs", "2"],
        env={**os.environ, "PYTHONPATH": str(DATA_DIR.parent.parent)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    children = Path(f"/proc/{bench.pid}/task/{bench.pid}/children")
    try:
        workers = []
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert bench.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
            workers = children.read_text().split()
        bench.send_signal(signal.SIGTERM)
        bench.wait(timeout=5)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(bench.pid, signal.SIGKILL)
        bench.wait(timeout=5)


METRICS = {
    "scenario": "pick_spam_oracle", "trials": 3, "success_rate": 1.0,
    "mean_ticks": 30.0, "recovery_rate": 0.0, "false_success_rate": 0.0,
}


@pytest.mark.parametrize(
    "payload",
    [
        {"format_version": 1, "results": [{"metrics": {**METRICS, "success_rate": "x"}}]},
        {"format_version": 1, "results": [{"metrics": {**METRICS, "trials": 2.5}}]},
        {"format_version": 1, "results": [{"metrics": {**METRICS, "mean_ticks": []}}]},
        {"format_version": 2, "results": [{"metrics": METRICS}]},
        {"results": [{"metrics": METRICS}]},
        [{"metrics": METRICS}],
    ],
    ids=["success_rate_str", "trials_float", "mean_ticks_list", "version_2",
         "no_version", "bare_array"],
)
def test_report_rejects_malformed_results(tmp_path, capsys, payload):
    results = tmp_path / "results.json"
    results.write_text(json.dumps(payload))
    assert main(["report", "--results", str(results)]) == 2
    assert "results.json" in capsys.readouterr().err


def test_report_on_results_without_metrics_exit_2(tmp_path, capsys):
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"format_version": 1, "results": []}))
    assert main(["report", "--results", str(results)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"{results}: field 'results' must not be empty\n"
    )
