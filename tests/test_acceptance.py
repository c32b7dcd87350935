"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from chainreact.chains import build_chain, verify_chain
from chainreact.harness import load_scenario, run_trial, run_trials
from chainreact.logic import LogicalState, holds, apply_effects
from chainreact.perception import NoiseModel, PerceptionPipeline, majority_error_rate
from chainreact.planner import ground, plan, symbolic_execute
from tests.test_chains import sound_random_plans
from tests.test_planner import make_prop_task, oracle_reachable, random_task
from tests.util import kitchen_domain, kitchen_problem, scenario_path

ORACLE_SCENARIOS = [
    "open_drawer_oracle",
    "pick_spam_oracle",
    "pick_sugar_oracle",
    "put_away_spam_oracle",
    "put_away_sugar_oracle",
]


def announce(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {number} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_oracle_reproduction():
    t0 = time.perf_counter()
    rates = {}
    for name in ORACLE_SCENARIOS:
        scenario = load_scenario(scenario_path(name))
        assert scenario.trials == 20
        metrics, _ = run_trials(scenario)
        rates[name] = metrics.success_rate
    elapsed = time.perf_counter() - t0
    ok = all(rate == 1.0 for rate in rates.values()) and elapsed < 10.0
    announce(
        1, "oracle reproduction", ok,
        f"success rates {rates}, runtime {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_oracle_with_stochastic_primitives():
    t0 = time.perf_counter()
    rates = {}
    for name in ORACLE_SCENARIOS:
        scenario = load_scenario(
            scenario_path(name),
            overrides={"primitives": {"success_prob": 0.95}, "trials": 40},
        )
        metrics, _ = run_trials(scenario)
        rates[name] = metrics.success_rate
    elapsed = time.perf_counter() - t0
    ok = all(rate >= 0.9 for rate in rates.values()) and elapsed < 30.0
    announce(
        2, "oracle with stochastic primitives", ok,
        f"success rates {rates}, runtime {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_3_reactivity_ordering():
    reactive = load_scenario(scenario_path("teleport_cage_reactive"))
    open_loop = load_scenario(scenario_path("teleport_cage_open_loop"))
    assert reactive.base_seed == open_loop.base_seed and reactive.trials == 40
    _, r_records = run_trials(reactive)
    _, o_records = run_trials(open_loop)
    r_rate = sum(r.succeeded for r in r_records) / len(r_records)
    o_rate = sum(r.succeeded for r in o_records) / len(o_records)
    batch_ok = True
    for start in range(0, 40, 10):  # four disjoint paired-seed batches
        r_wins = sum(r.succeeded for r in r_records[start : start + 10])
        o_wins = sum(r.succeeded for r in o_records[start : start + 10])
        batch_ok &= r_wins > o_wins
    ok = r_rate >= 0.9 and o_rate <= 0.1 and batch_ok
    announce(
        3, "reactivity ordering", ok,
        f"reactive {r_rate:.2f} vs open-loop {o_rate:.2f}, "
        f"strictly greater in all four 10-seed batches: {batch_ok}",
    )


def test_criterion_4_zero_shot_composite():
    scenario = load_scenario(scenario_path("put_away_both_zero_shot"))
    assert scenario.trials == 20
    assert len(scenario.disturbances) == 3  # teleport on lift + slam sequence
    metrics, records = run_trials(scenario)
    wins = sum(r.succeeded for r in records)
    ok = wins >= 18
    announce(
        4, "zero-shot composite task", ok,
        f"{wins}/20 trials succeeded with mid-run drawer slam and teleport back",
    )


def test_criterion_5_grounding_counts():
    grounded = ground(kitchen_domain(), kitchen_problem("put_away_spam"))
    atoms, ops = len(grounded.vocabulary), len(grounded.operators)
    ok = atoms == 42 and ops == 21
    announce(5, "grounding counts", ok, f"{atoms} ground predicates, {ops} ground operators")


def test_criterion_6_chain_builder_properties():
    t0 = time.perf_counter()
    verified = 0
    enforced_pairs = safe_jumps = 0
    for grounded, p in sound_random_plans(500, seed=424242):
        chain = build_chain(p, grounded.goal)
        assert verify_chain(chain, grounded.init)
        verified += 1
        states = [grounded.init]
        for step in chain.steps:
            states.append(apply_effects(states[-1], step.base.eff))
        for j in range(len(chain.steps)):
            for i in range(j + 1):
                if not holds(states[i], chain.steps[j].effective_pre):
                    enforced_pairs += 1
                    continue
                safe_jumps += 1
                state = states[i]
                for k in range(j, len(chain.steps)):
                    assert holds(state, chain.steps[k].effective_pre)
                    state = apply_effects(state, chain.steps[k].base.eff)
                assert holds(state, chain.goal)
    elapsed = time.perf_counter() - t0
    ok = verified == 500 and enforced_pairs > 0 and elapsed < 60.0
    announce(
        6, "chain-builder properties", ok,
        f"{verified} chains verified, {enforced_pairs} orderings enforced, "
        f"{safe_jumps} early entries proven safe, runtime {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_planner_soundness_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    pyrng = __import__("random").Random(int(rng.integers(1 << 30)))
    agreements = solvable = unsolvable = 0
    for _ in range(500):
        specs, atoms, init, goal = random_task(pyrng)
        grounded = make_prop_task(specs, atoms, init, goal)
        oracle_len = oracle_reachable(specs, init, goal)
        result = plan(grounded)
        if oracle_len is None:
            assert result.status == "unsolvable"
            unsolvable += 1
        else:
            assert result.solved
            execution = symbolic_execute(result.plan.steps, grounded.init)
            assert execution.failed_step is None and holds(execution.state, grounded.goal)
            solvable += 1
        agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == 500 and elapsed < 60.0
    announce(
        7, "planner soundness and completeness", ok,
        f"500/500 oracle agreements ({solvable} solvable, {unsolvable} unsolvable), "
        f"runtime {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_8_perception_filter_math():
    from chainreact.logic import GroundAtom, PredicateSchema, Vocabulary

    vocab = Vocabulary([GroundAtom(PredicateSchema(f"p{i}")) for i in range(42)])
    truth = LogicalState(vocab, (1 << 42) - (1 << 9))
    closed_form = majority_error_rate(0.1, 3)
    assert math.isclose(closed_form, 0.028)

    pipe = PerceptionPipeline(
        vocab, NoiseModel(default_flip=0.1), rng=np.random.default_rng(808)
    )
    ticks = 10_000
    wrong = 0
    for _ in range(ticks):
        est = pipe.estimate(truth)
        wrong += bin(est.mask ^ truth.mask).count("1")
    empirical = wrong / (ticks * 42)

    improves = {}
    for p in (0.02, 0.05, 0.1, 0.2):
        pipe = PerceptionPipeline(
            vocab, NoiseModel(default_flip=p),
            rng=np.random.default_rng(int(p * 10_000)),
        )
        raw_wrong = filt_wrong = 0
        for _ in range(ticks):
            est = pipe.estimate(truth)
            raw = pipe.window._buffer[-1]
            raw_wrong += bin(raw ^ truth.mask).count("1")
            filt_wrong += bin(est.mask ^ truth.mask).count("1")
        improves[p] = filt_wrong < raw_wrong

    ok = abs(empirical - 0.028) <= 0.005 and all(improves.values())
    announce(
        8, "perception filter math", ok,
        f"empirical filtered error {empirical:.4f} (expected 0.028 +/- 0.005), "
        f"filtered beats raw: {improves}",
    )


def test_criterion_9_noisy_end_to_end():
    scenario = load_scenario(scenario_path("put_away_spam_noisy"))
    assert scenario.trials == 100
    assert scenario.goal_streak == 3
    assert scenario.noise.default_flip == 0.05 and scenario.window == 3
    metrics, _ = run_trials(scenario)
    ok = metrics.success_rate >= 0.7 and metrics.false_success_rate <= 0.02
    announce(
        9, "noisy perception end to end", ok,
        f"success {metrics.success_rate:.2f} (floor 0.7), "
        f"false-success {metrics.false_success_rate:.3f} (ceiling 0.02)",
    )


def test_criterion_10_determinism():
    identical = True
    details = []
    for name, trials in (
        ("put_away_spam_noisy", 15),
        ("teleport_cage_reactive", 10),
        ("put_away_both_zero_shot", 5),
    ):
        outputs = []
        for _ in range(2):
            scenario = load_scenario(scenario_path(name), overrides={"trials": trials})
            metrics, records = run_trials(scenario)
            traces = []
            for i in range(min(3, trials)):
                sink = io.StringIO()
                run_trial(
                    load_scenario(scenario_path(name), overrides={"trials": trials}),
                    i, trace_sink=sink,
                )
                traces.append(sink.getvalue())
            outputs.append(
                json.dumps(
                    {
                        "metrics": metrics.to_json_dict(),
                        "records": [r.to_json_dict() for r in records],
                        "traces": traces,
                    },
                    sort_keys=True,
                )
            )
        same = outputs[0] == outputs[1]
        identical &= same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    announce(10, "determinism", identical, "; ".join(details))
