"""Harness: scenario validation, trial protocol, determinism, reporting."""

import ast
import dataclasses
import functools
import hashlib
import io
import json
import multiprocessing
import re
import sys
import tempfile
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainreact import executive, harness
from chainreact.harness import (
    InputError,
    build_scenario,
    compute_metrics,
    load_scenario,
    report,
    run_trial,
    run_trials,
)
from chainreact.kitchen import PrimitiveSpec
from chainreact.planner import PlanResult
from tests.util import (
    CUPS_ONLY,
    DATA_DIR,
    kitchen_source,
    problem_source,
    scenario_copy,
    scenario_path,
)

SHIPPED = sorted(p.stem for p in (DATA_DIR / "scenarios").glob("*.json"))
_CAGE_HANDLE_PRE = "    :precondition (and (arm_in_approach_region handle) (arm_is_free))\n"
# lift_obj then has back_off's empty parameter list, and back_off lift's.
_SWAP_LIFT_AND_BACK_OFF = [
    (":action lift_obj\n", ":action swapped\n"),
    (":action back_off\n", ":action lift_obj\n"),
    (":action swapped\n", ":action back_off\n"),
]


def _subn(old, new, text):
    """``text`` with ``old``, a string or a compiled regex, replaced by
    ``new``, and the number of replacements."""
    if isinstance(old, re.Pattern):
        return old.subn(new, text)
    return text.replace(old, new), text.count(old)


def load(name, **overrides):
    return load_scenario(scenario_path(name), overrides or None)


class TestLoadScenario:
    def test_shipped_oracle_scenario(self):
        sc = load("put_away_spam_oracle")
        assert sc.open_loop is False
        assert sc.noise.is_oracle
        assert sc.trials == 20
        assert len(sc.grounded.vocabulary) == 42

    def test_missing_max_ticks(self, tmp_path):
        raw = json.loads(scenario_path("put_away_spam_oracle").read_text())
        # paths are relative to the scenario file, so point them back
        raw["domain"] = str((scenario_path("x").parent / raw["domain"]).resolve())
        raw["problem"] = str((scenario_path("x").parent / raw["problem"]).resolve())
        del raw["max_ticks"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(InputError) as err:
            load_scenario(bad)
        assert err.value.problems == ["missing required field 'max_ticks'"]

    def test_unknown_disturbance_kind(self, tmp_path):
        raw = json.loads(scenario_path("put_away_spam_oracle").read_text())
        raw["domain"] = str((scenario_path("x").parent / raw["domain"]).resolve())
        raw["problem"] = str((scenario_path("x").parent / raw["problem"]).resolve())
        raw["disturbances"] = [
            {"trigger": {"at_tick": 3}, "kind": {"kind": "spill_coffee"}}
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(InputError) as err:
            load_scenario(bad)
        assert any("disturbances[0]" in p for p in err.value.problems)

    def test_unknown_predicate_in_trigger(self, tmp_path):
        raw = json.loads(scenario_path("put_away_spam_oracle").read_text())
        raw["domain"] = str((scenario_path("x").parent / raw["domain"]).resolve())
        raw["problem"] = str((scenario_path("x").parent / raw["problem"]).resolve())
        raw["disturbances"] = [
            {"trigger": {"when_predicate": "obj_is_levitating(spam)"},
             "kind": {"kind": "set_drawer", "extension": 1.0}}
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(InputError) as err:
            load_scenario(bad)
        assert any("unknown atom" in p for p in err.value.problems)

    def test_operator_trigger_with_unknown_argument(self):
        # Arguments name one ground operator, so a misspelt object is
        # rejected at load instead of a trigger that never fires.
        with pytest.raises(InputError) as err:
            load("put_away_spam_oracle", disturbances=[
                {"trigger": {"when_operator": "lift_obj(sugr)"},
                 "kind": {"kind": "set_drawer", "extension": 1.0}}
            ])
        assert any(
            "disturbances[0].trigger.when_operator" in p and "lift_obj(sugr)" in p
            for p in err.value.problems
        )

    @pytest.mark.parametrize(
        "kind, problem",
        [
            ({"kind": "teleport_object", "object": "handle"},
             "field 'disturbances[0].kind': unknown object 'handle'"),
            *[({"kind": "teleport_object", "object": "spam", "destination": dest},
               "field 'disturbances[0].kind.destination' must be \"counter_random\" "
               'or {"zone": n}') for dest in ("zone_3", 3, [3])],
        ],
        ids=["non_movable", "destination_string", "destination_int", "destination_list"],
    )
    def test_teleport_needs_a_movable_and_a_destination(self, kind, problem):
        with pytest.raises(InputError) as err:
            load("pick_spam_oracle", disturbances=[{"trigger": {"at_tick": 3}, "kind": kind}])
        assert err.value.problems == [problem]

    @pytest.mark.parametrize(
        "key, name, resolved",
        [
            ("when_operator", "lift_obj(spam)", ["lift_obj(spam)"]),
            ("when_operator", " lift _obj ( spam ) ", ["lift_obj(spam)"]),
            ("when_operator", "lift_obj", ["lift_obj(spam)", "lift_obj(sugar)"]),
            ("when_operator", "back_off", ["back_off"]),
            ("when_operator", "open_gripper()", None),
            ("when_operator", "lift_obj(spam", None),
            ("when_operator", "lift_obj(spam))", None),
            ("when_predicate", "obj_is_in_drawer (spam)", ["obj_is_in_drawer(spam)"]),
            ("when_predicate", "drawer_is_open", ["drawer_is_open"]),
            ("when_predicate", "drawer_is_open()", None),
            ("when_predicate", "obj_is_in_drawer", None),
        ],
        ids=["operator", "operator_spaced", "schema", "nullary_schema",
             "empty_parentheses", "unclosed", "extra_parenthesis", "atom_spaced",
             "nullary_atom", "atom_empty_parentheses", "atom_without_arguments"],
    )
    def test_trigger_name_matches_without_whitespace(self, key, name, resolved):
        # A name matches a ground operator, a schema or an atom once the
        # whitespace is removed from both; nothing else is parsed out of it.
        grounded = load("put_away_spam_oracle").grounded
        problems = []
        (found,) = harness.resolve_disturbances(
            [{"trigger": {key: name}, "kind": {"kind": "detach_gripper"}}],
            grounded, 400, problems,
        )
        what = "operator" if key == "when_operator" else "atom"
        if resolved is None:
            assert problems == [
                f"field 'disturbances[0].trigger.{key}': unknown {what} {name!r}"
            ]
        elif key == "when_operator":
            assert problems == []
            assert sorted(op.name for op in grounded.operators
                          if op.index in found.operators) == resolved
        else:
            assert problems == []
            assert grounded.vocabulary.names_of(found.bit) == resolved

    def test_at_tick_must_fall_within_the_tick_budget(self):
        # Ticks run from 0 to max_ticks - 1.  A later at_tick used to load
        # and never fire; the last tick still fires.
        detach = {"kind": "detach_gripper"}
        with pytest.raises(InputError) as err:
            load("pick_spam_oracle", disturbances=[
                {"trigger": {"at_tick": 3}, "kind": detach},
                {"trigger": {"at_tick": 5000}, "kind": detach},
            ])
        assert err.value.problems == [
            "field 'disturbances[1].trigger.at_tick': tick 5000 is not below "
            "max_ticks 400, so it never fires"
        ]
        sc = load("pick_spam_oracle", trials=1, max_ticks=5, disturbances=[
            {"trigger": {"at_tick": 4}, "kind": {"kind": "set_drawer", "extension": 1.0}},
        ])
        sink = io.StringIO()
        assert run_trial(sc, 0, trace_sink=sink).status == "budget_exhausted"
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [l["tick"] for l in lines if l.get("disturbances_fired")] == [4]

    def test_disturbance_checks_are_reported_with_the_other_load_errors(self, tmp_path):
        # They used to stop the load before the domain was read.  An entry
        # that fails them is not resolved, so its name is not reported.
        missing = tmp_path / "missing.dpdl"
        with pytest.raises(InputError) as err:
            load("put_away_spam_oracle", domain=str(missing), disturbances=[
                {"trigger": {"at_tick": 1, "when_operator": "nope"},
                 "kind": {"kind": "detach_gripper"}},
            ])
        assert err.value.problems == [
            f"{missing}: cannot read: No such file or directory",
            "field 'disturbances[0].trigger' must have exactly one of "
            "('at_tick', 'when_operator', 'when_predicate')",
        ]

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"disturbances": [{"trigger": {"at_tick": "x"},
                                "kind": {"kind": "detach_gripper"}}]},
             "disturbances[0].trigger.at_tick"),
            ({"disturbances": [{"trigger": {"at_tick": -1},
                                "kind": {"kind": "detach_gripper"}}]},
             "disturbances[0].trigger.at_tick"),
            ({"max_ticks": 20, "disturbances": [{"trigger": {"at_tick": 20},
                                                 "kind": {"kind": "detach_gripper"}}]},
             "disturbances[0].trigger.at_tick"),
            ({"disturbances": [{"trigger": {"at_tick": 3},
                                "kind": {"kind": "set_drawer", "extension": 5}}]},
             "disturbances[0].kind.extension"),
            ({"disturbances": [{"trigger": {"at_tick": 3},
                                "kind": {"kind": "teleport_object", "object": "spam",
                                         "destination": {"zone": 99}}}]},
             "disturbances[0].kind.destination.zone"),
            ({"perception": {"mode": "oracle", "window": "x"}}, "perception.window"),
            ({"primitives": {"success_prob": "hi"}}, "primitives.success_prob"),
            ({"primitives": {"success_prob": 7}}, "primitives.success_prob"),
            ({"primitives": {"bindings": ["grasp"]}}, "primitives.bindings"),
            ({"primitives": {"bindings": {"grasp": {"min_ticks": 5, "max_ticks": 2}}}},
             "primitives.bindings.grasp"),
            ({"primitives": {"bindings": {"grasp": {"min_ticks": 0}}}},
             "primitives.bindings.grasp.min_ticks"),
            # The first start of approach_obj used to raise ValueError from
            # the simulator's int64 draw.
            ({"primitives": {"bindings": {"approach_obj": {"min_ticks": 1, "max_ticks": 10**20}}}},
             "primitives.bindings.approach_obj.max_ticks"),
            ({"primitives": {"bindings": {"grasp": {"success_prob": 1.5}}}},
             "primitives.bindings.grasp.success_prob"),
            ({"perception": {"mode": "noisy", "per_predicate_flip": []}},
             "perception.per_predicate_flip"),
            ({"perception": {"mode": "noisy", "per_predicate_flip": {"x": [1]}}},
             "perception.per_predicate_flip.x"),
            ({"perception": {"mode": "noisy", "default_flip": None}},
             "perception.default_flip"),
            # Flips are read only in noisy mode; these used to load as oracle
            # perception, the flip dropped.
            ({"perception": {"default_flip": 0.3}}, "perception.default_flip"),
            ({"perception": {"per_predicate_flip": {"gripper_is_open": 0.1}}},
             "perception.per_predicate_flip"),
            ({"initial": {"gripper_open_prob": 9}}, "initial.gripper_open_prob"),
            ({"initial": {"drawer_open_prob": -0.1}}, "initial.drawer_open_prob"),
            ({"initial": {"object_in_drawer_prob": "x"}},
             "initial.object_in_drawer_prob"),
            ({"max_tick": 5}, "max_tick"),
            ({"perception": {"mode": "oracle", "windw": 3}}, "perception.windw"),
            ({"primitives": {"sucess_prob": 1.0}}, "primitives.sucess_prob"),
            ({"primitives": {"bindings": {"graps": {"max_ticks": 5}}}},
             "primitives.bindings.graps"),
            ({"primitives": {"bindings": {"wipe": {"min_ticks": 1, "max_ticks": 2}}}},
             "primitives.bindings.wipe"),
            ({"primitives": {"bindings": {"grasp": {"min_tick": 3}}}},
             "primitives.bindings.grasp.min_tick"),
            ({"perception": {"mode": "noisy",
                             "per_predicate_flip": {"gripper_is_opn": 0.1}}},
             "perception.per_predicate_flip.gripper_is_opn"),
            ({"initial": {"arms": "driving"}}, "initial.arms"),
            # The planner switch went with the greedy search, in format 2.
            ({"planner": {"optimal": True}}, "planner"),
            ({"disturbances": [{"trigger": {"at_tick": 3}, "when": 1,
                                "kind": {"kind": "detach_gripper"}}]},
             "disturbances[0].when"),
            ({"disturbances": [{"trigger": {"at_tick": 3, "once": True},
                                "kind": {"kind": "detach_gripper"}}]},
             "disturbances[0].trigger.once"),
            ({"disturbances": [{"trigger": {"at_tick": 3},
                                "kind": {"kind": "set_drawer", "extension": 1.0,
                                         "bogus": 1}}]},
             "disturbances[0].kind.bogus"),
            ({"disturbances": [{"trigger": {"at_tick": 3},
                                "kind": {"kind": "teleport_object", "object": "spam",
                                         "destination": {"zone": 1, "x": 0}}}]},
             "disturbances[0].kind.destination.x"),
            ({"goal_streak": 0}, "goal_streak"),
            ({"stuck_after": 0}, "stuck_after"),
            # Values that load and never act: a streak no tick budget can
            # hold (the default streak of 3 too), the reactive executive's
            # fields on the open loop, a window oracle perception skips, and
            # noisy mode with every flip 0, which is the oracle.
            ({"goal_streak": 401}, "goal_streak"),
            ({"max_ticks": 2}, "goal_streak"),
            ({"executive": "open_loop", "goal_streak": 3}, "goal_streak"),
            ({"executive": "open_loop", "stuck_after": 5}, "stuck_after"),
            ({"perception": {"window": 5}}, "perception.window"),
            ({"perception": {"mode": "noisy", "default_flip": 0,
                             "per_predicate_flip": {"gripper_is_open": 0}}}, "perception"),
            ({"base_seed": -5}, "base_seed"),
            ({"name": 5}, "name"),
            # The name prefixes each trace file, so it must not leave the
            # trace dir.
            *[({"name": name}, "name")
              for name in ("", ".", "..", "../escaped", "sub/x", "a\\b", "nul\0")],
            ({"format_version": 1}, "format_version"),
            ({"format_version": 7}, "format_version"),
            ({"format_version": True}, "format_version"),
        ],
        ids=["at_tick_str", "at_tick_negative", "at_tick_at_max_ticks", "extension", "zone", "window",
             "success_prob_str", "success_prob_7", "bindings_list",
             "min_above_max", "min_ticks_0", "binding_max_ticks_huge", "binding_success_prob",
             "flips_list",
             "flip_list_value", "default_flip_null", "default_flip_oracle",
             "per_predicate_flip_oracle", "gripper_open_prob_9",
             "drawer_open_prob_negative", "object_in_drawer_prob_str",
             "unknown_top_level", "unknown_perception", "unknown_primitives",
             "unbound_binding", "unbound_binding_with_ticks", "unknown_binding_field",
             "unknown_flip_predicate",
             "unknown_initial", "unknown_planner", "unknown_disturbance",
             "unknown_trigger", "unknown_kind", "unknown_destination",
             "goal_streak_0", "stuck_after_0", "goal_streak_above_max_ticks",
             "default_goal_streak_above_max_ticks", "goal_streak_open_loop",
             "stuck_after_open_loop", "window_oracle", "noisy_without_flips",
             "base_seed_negative", "name_int",
             "name_empty", "name_dot", "name_dotdot", "name_parent", "name_slash",
             "name_backslash", "name_nul",
             "format_version_1", "format_version_7", "format_version_true"],
    )
    def test_value_that_would_fail_mid_trial(self, override, path):
        # Each of these used to crash the loader, load and then raise inside
        # a trial, or load with a meaning it cannot have (a probability of
        # 7, an unknown key dropped, a goal streak of 0 that succeeds on
        # tick 1); now loading names the field.
        with pytest.raises(InputError) as err:
            load_scenario(scenario_path("put_away_spam_oracle"), override)
        assert any(f"'{path}'" in p for p in err.value.problems), err.value.problems

    def test_budget_bound_streaks_that_can_act(self):
        # A streak of max_ticks can still succeed on a world that meets the
        # goal from tick 0, and a stuck_after past max_ticks is how a
        # scenario turns stuck detection off.
        sc = load_scenario(scenario_path("put_away_spam_oracle"),
                           {"goal_streak": 400, "stuck_after": 401})
        assert (sc.goal_streak, sc.stuck_after, sc.max_ticks) == (400, 401, 400)

    @pytest.mark.parametrize(
        "override, problem",
        [
            ({"perception": {"window": 10**20}},
             f"field 'perception.window': window {10**20} is above max_ticks 900, "
             "so the initial world's votes never leave it"),
            ({"perception": {"window": 901}},
             "field 'perception.window': window 901 is above max_ticks 900, "
             "so the initial world's votes never leave it"),
            ({"perception": {"window": 10**20}, "max_ticks": 10**20},
             f"field 'max_ticks' must be an int in 1..{sys.maxsize}"),
        ],
        ids=["huge", "max_ticks_plus_1", "huge_max_ticks_too"],
    )
    def test_window_above_max_ticks_is_rejected(self, override, problem):
        # A window of 10**20 used to load, and the first trial then raised
        # OverflowError from deque(maxlen=...), also with max_ticks as large.
        # Above max_ticks the warm-up's votes on the initial world never all
        # leave the window, and max_ticks stops at sys.maxsize.
        with pytest.raises(InputError) as err:
            load_scenario(scenario_path("put_away_spam_noisy"), override)
        assert err.value.problems == [problem]

    def test_window_of_max_ticks_runs(self):
        sc = load_scenario(scenario_path("put_away_spam_noisy"),
                           {"perception": {"window": 5}, "max_ticks": 5, "trials": 1})
        assert run_trial(sc, 0).ticks <= 5

    def test_binding_ticks_of_sys_maxsize_run(self):
        # The largest tick count the simulator can draw: the primitive
        # outlasts the budget.
        sc = load("put_away_spam_oracle", trials=1, primitives={"bindings": {
            "approach_obj": {"min_ticks": 1, "max_ticks": sys.maxsize}}})
        assert run_trial(sc, 0).status == "budget_exhausted"

    def test_domain_binding_without_primitive(self, tmp_path):
        # A domain operator bound to a primitive with no default used to
        # load and then raise UnknownBindingError in the first trial.
        domain = tmp_path / "warp.dpdl"
        domain.write_text(
            (DATA_DIR / "kitchen.dpdl").read_text().replace(
                ":binding back_off", ":binding warp"
            )
        )
        with pytest.raises(InputError) as err:
            load("put_away_spam_oracle", domain=str(domain))
        assert any("'primitives.bindings.warp'" in p for p in err.value.problems)
        sc = load("put_away_spam_oracle", domain=str(domain), trials=1,
                  primitives={"bindings": {"warp": {"min_ticks": 1, "max_ticks": 2}}})
        assert run_trial(sc, 0).succeeded

    def test_global_success_prob_is_the_base_of_every_binding(self, tmp_path):
        # A binding with no default used to keep PrimitiveSpec's 0.95 under
        # a global success_prob; a binding's own success_prob still wins.
        domain = tmp_path / "wipe.dpdl"
        domain.write_text(kitchen_source().replace(":binding back_off", ":binding wipe")
                          .replace(":binding push_drawer", ":binding mop"))
        table = load("put_away_spam_oracle", domain=str(domain), primitives={
            "success_prob": 1.0, "bindings": {
                "wipe": {"min_ticks": 1, "max_ticks": 2},
                "mop": {"min_ticks": 1, "max_ticks": 2, "success_prob": 0.25},
                "grasp": {"success_prob": 0.5},
            },
        }).primitives
        assert table["wipe"] == PrimitiveSpec(1, 2, 1.0)
        assert table["mop"] == PrimitiveSpec(1, 2, 0.25)
        assert table["grasp"] == PrimitiveSpec(2, 3, 0.5)
        assert table["lift"] == PrimitiveSpec(2, 4, 1.0)

    @pytest.mark.parametrize(
        "domain_edit, problem_edit, expected",
        [
            ([("    (arm_is_moving)\n", "")], None,
             "predicate 'arm_is_moving' must be declared with arity 0"),
            ([("    (arm_is_moving)\n", "    (arm_is_moving ?o - movable)\n")],
             None, "predicate 'arm_is_moving' must be declared with arity 0"),
            ([(":action back_off", ":action retreat")], None,
             "action 'retreat' has no outcome rule"),
            (_SWAP_LIFT_AND_BACK_OFF, None,
             "action 'lift_obj' must take a movable first"),
            (None, [("spam sugar - movable", "spam sugar m0 m1 m2 m3 - movable")],
             "problem: 6 movable objects"),
            (None, [("spam sugar - movable", "spam sugar m0 m1 m2 m3 m4 - movable")],
             "problem: 7 movable objects"),
            (*CUPS_ONLY,
             "domain: movable 'sugar' is outside the parameter type of "
             "'arm_is_around_obj_loose', 'arm_is_attached_to_obj'"),
            ([(re.compile(r"\bhandle\b"), "knob")], None,
             "domain: constant 'handle' is missing or outside the parameter type of "
             "'arm_in_approach_region', 'arm_is_around'"),
            ([("    :binding back_off\n", "")], None,
             "domain: action 'back_off' has no :binding"),
            ([(_CAGE_HANDLE_PRE, _CAGE_HANDLE_PRE
               + "    :runcondition (and (arm_in_approach_region handle) (not (arm_is_free)))\n")],
             None, "action 'cage_handle': its run condition negates arm_is_free, which its "
             "precondition requires, so the step is entered and never continued"),
            ([(_CAGE_HANDLE_PRE, _CAGE_HANDLE_PRE.replace("(arm_is_free))", "(arm_is_free)"
                                                          " (not (gripper_is_open)))")
               + "    :runcondition (and (arm_in_approach_region handle) (gripper_is_open))\n")],
             None, "action 'cage_handle': its run condition requires gripper_is_open, which "
             "its precondition negates, so the step is entered and never continued"),
            # The copy whose trial 0 made 393 starts until budget_exhausted.
            ([(_CAGE_HANDLE_PRE, _CAGE_HANDLE_PRE + "    :runcondition (and (arm_in_approach_"
               "region handle) (arm_is_free) (handle_is_attached))\n")],
             None, "action 'cage_handle': its run condition requires handle_is_attached, which "
             "its precondition does not require, so the step can be entered and never continued"),
        ],
        ids=["no_arm_is_moving", "arity", "back_off_renamed", "lift_any_graspable",
             "six_movables", "seven_movables", "movable_outside_predicate_type",
             "handle_renamed", "binding_dropped", "run_negates_pre", "run_requires_pre_negated",
             "run_requires_atom_outside_pre"],
    )
    def test_domain_outside_simulator_contract(
        self, tmp_path, domain_edit, problem_edit, expected
    ):
        # Each of these used to load and then raise inside a trial: an
        # unknown atom on the first tick, no outcome rule when back_off's
        # renamed primitive completed, no sample of 7 of the 6 counter zones,
        # or a teleport with no free zone.  The contract check names it,
        # after the path of the file at fault.  A step whose run condition
        # contradicts its precondition used to load, and a trial then
        # entered it and looped until budget_exhausted.  An edit is a
        # literal pair or a regex and its replacement.
        domain, problem = kitchen_source(), problem_source("pick_spam")
        for old, new in domain_edit or ():
            domain, count = _subn(old, new, domain)
            assert count
        for old, new in problem_edit or ():
            problem, count = _subn(old, new, problem)
            assert count
        path = scenario_copy(tmp_path, "pick_spam_oracle", domain, problem)
        with pytest.raises(InputError) as err:
            load_scenario(path)
        at_fault = tmp_path / ("kitchen.dpdl" if domain_edit else "pick_spam.dprob")
        lines = [p for p in err.value.problems if expected in p]
        assert lines and all(p.startswith(f"{at_fault}: ") for p in lines), err.value.problems

    @pytest.mark.parametrize(
        "goal", ["", "  (:goal (and))\n"], ids=["no_goal_section", "empty_and"]
    )
    def test_empty_goal_is_rejected(self, tmp_path, goal):
        # Such a scenario used to load, and every trial succeeded after the
        # goal streak without a single step.
        problem, count = re.subn(r"  \(:goal .*\n", goal, problem_source("pick_spam"))
        assert count == 1
        with pytest.raises(InputError) as err:
            load_scenario(scenario_copy(tmp_path, "pick_spam_oracle", problem=problem))
        assert err.value.problems == [
            f"{tmp_path / 'pick_spam.dprob'}: the goal is empty, so trials succeed without a step"
        ]

    def test_five_movables_run(self, tmp_path):
        problem = problem_source("pick_spam").replace(
            "spam sugar - movable", "spam sugar m0 m1 m2 - movable"
        )
        sc = load_scenario(scenario_copy(tmp_path, "teleport_cage_reactive",
                                         problem=problem, trials=5))
        assert len(sc.grounded.movables) == 5
        _, records = run_trials(sc)
        assert all(r.succeeded for r in records)

    def test_run_condition_negating_a_carried_atom_runs(self, tmp_path):
        # Regression carries drawer_is_open into lift_obj, whose run
        # condition negates it.  Such a scenario loaded, then its first
        # chain build raised ConditionSet's ValueError mid-trial.
        pre = "    :precondition (and (arm_is_attached_to_obj ?o) (arm_is_around ?o))\n"
        domain, count = _subn(
            pre,
            pre + "    :runcondition (and (arm_is_attached_to_obj ?o) (arm_is_around ?o)"
            " (not (drawer_is_open)))\n",
            kitchen_source(),
        )
        assert count == 1
        sc = load_scenario(scenario_copy(tmp_path, "put_away_spam_oracle", domain, trials=2))
        metrics, records = run_trials(sc)
        assert metrics.trials == len(records) == 2

    def test_run_condition_requiring_arm_is_moving_runs(self, tmp_path):
        # Starting a step sets arm_is_moving, so a run condition may require
        # it although no precondition does.
        domain, count = _subn(
            _CAGE_HANDLE_PRE,
            _CAGE_HANDLE_PRE + "    :runcondition (and (arm_in_approach_region handle)"
            " (arm_is_free) (arm_is_moving))\n",
            kitchen_source(),
        )
        assert count == 1
        sc = load_scenario(scenario_copy(tmp_path, "open_drawer_oracle", domain, trials=5))
        _, records = run_trials(sc)
        assert all(r.succeeded for r in records)
        assert all("cage_handle" in r.operator_history for r in records)

    def test_override_merging(self):
        sc = load("put_away_spam_oracle", trials=3,
                  primitives={"success_prob": 0.5})
        assert sc.trials == 3
        assert sc.primitives["grasp"].success_prob == 0.5

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_leaf_value_is_rejected_or_runs(self, data):
        # One edit to a shipped scenario: any value, a leaf or a whole
        # object or list, takes a value from a fixed pool; or an object
        # gains a key no schema knows; or an object loses a key.  The
        # scenario must either be rejected at load or run a trial to a
        # terminal status.
        name = data.draw(st.sampled_from(SHIPPED))
        path = scenario_path(name)
        raw = json.loads(path.read_text())
        slots = _slots(raw)
        pool = st.sampled_from([None, True, -1, 0, 1, 0.5, 7, "x", [], {}])
        edit = data.draw(st.sampled_from(["replace", "add", "delete"]))
        if edit == "replace":
            parent, key = data.draw(st.sampled_from(slots))
            parent[key] = data.draw(pool)
        elif edit == "add":
            objects = [raw] + [p[k] for p, k in slots if isinstance(p[k], dict)]
            data.draw(st.sampled_from(objects))["bogus"] = data.draw(pool)
        else:
            parent, key = data.draw(st.sampled_from(
                [(p, k) for p, k in slots if isinstance(p, dict)]
            ))
            del parent[key]
        try:
            sc = build_scenario(raw, base_dir=path.parent, name=name)
        except InputError:
            return
        sc = dataclasses.replace(sc, trials=1, max_ticks=min(sc.max_ticks, 60))
        record = run_trial(sc, 0)
        assert record.status in ("succeeded", "stuck", "budget_exhausted", "no_plan")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_domain_or_problem_edit_is_rejected_or_runs(self, data):
        # Mutated copies of kitchen.dpdl and of a scenario's .dprob, one
        # edit at a time: drop a :predicates line, rename an action, rename
        # the handle constant, drop an action's :binding, add movables up to
        # 8 in all, drop or duplicate one object, init atom or goal atom,
        # negate a goal atom, or add the negation of a goal or precondition
        # atom next to it.  The scenario must either be rejected at load or
        # run a trial to a terminal status.
        name = data.draw(st.sampled_from(SHIPPED))
        raw = json.loads(scenario_path(name).read_text())
        problem = (scenario_path(name).parent / raw["problem"]).read_text()
        domain = kitchen_source()
        edit = data.draw(st.sampled_from(
            ["predicate", "action", "rename_handle", "drop_binding", "movables", "object",
             "init", "goal", "negate_goal", "contradict_goal", "contradict_precondition"]
        ))
        if edit == "predicate":
            line = data.draw(st.sampled_from(_PREDICATE_LINES))
            domain = domain.replace(line, "", 1)
        elif edit == "action":
            action = data.draw(st.sampled_from(_ACTIONS))
            new = data.draw(st.sampled_from(["retreat", action + "_2"]))
            domain = domain.replace(f"(:action {action}\n", f"(:action {new}\n")
        elif edit == "rename_handle":
            domain = re.sub(r"\bhandle\b", "knob", domain)
        elif edit == "drop_binding":
            line = data.draw(st.sampled_from(_BINDING_LINES))
            domain = domain.replace(line, "", 1)
        elif edit == "movables":
            objects = re.search(r"\(:objects ([^)]*) - movable\)", problem)
            more = 8 - len(objects.group(1).split())
            added = " ".join(f"m{i}" for i in range(data.draw(st.integers(1, more))))
            problem = problem.replace(" - movable)", f" {added} - movable)", 1)
        elif edit == "contradict_precondition":
            start, end = data.draw(st.sampled_from(_PRECONDITION_ATOMS))
            atom = domain[start:end]
            domain = f"{domain[:start]}{atom} (not {atom}){domain[end:]}"
        else:
            section = {"object": r"\(:objects [^)]*\)",
                       "init": r"\(:init.*?\(:goal"}.get(edit, r"\(:goal.*")
            lo, hi = re.search(section, problem, re.S).span()
            unit = r"\b(?!movable\b)\w+\b" if edit == "object" else r"\(\w+[^()]*\)"
            spans = [m.span() for m in re.finditer(unit, problem[lo:hi])]
            start, end = data.draw(st.sampled_from(spans))
            piece = problem[lo + start:lo + end]
            if edit == "negate_goal":
                piece = f"(not {piece})"
            elif edit == "contradict_goal":
                piece = f"{piece} (not {piece})"
            else:
                piece = "" if data.draw(st.booleans()) else f"{piece} {piece}"
            problem = problem[:lo + start] + piece + problem[lo + end:]
        with tempfile.TemporaryDirectory() as tmp:
            path = scenario_copy(Path(tmp), name, domain, problem)
            try:
                sc = load_scenario(path)
            except InputError:
                return
        sc = dataclasses.replace(sc, trials=1, max_ticks=min(sc.max_ticks, 60))
        record = run_trial(sc, 0)
        assert record.status in ("succeeded", "stuck", "budget_exhausted", "no_plan")

    def test_all_shipped_scenarios_load(self):
        names = [
            "open_drawer_oracle", "pick_spam_oracle", "pick_sugar_oracle",
            "put_away_spam_oracle", "put_away_sugar_oracle",
            "teleport_cage_reactive", "teleport_cage_open_loop",
            "put_away_both_zero_shot", "put_away_spam_noisy",
        ]
        for name in names:
            sc = load(name)
            assert sc.trials >= 1


class TestLoadCache:
    """load_grounded reads both files on every load and keeps their parses
    and grounding by text, so loads of the same texts share one grounding."""

    def test_scenarios_naming_the_same_files_share_one_grounding(self):
        reactive, open_loop = load("teleport_cage_reactive"), load("teleport_cage_open_loop")
        assert reactive.grounded is open_loop.grounded
        assert reactive.config_digest != open_loop.config_digest

    def test_domain_rewritten_in_place_is_parsed_again(self, tmp_path):
        path = scenario_copy(tmp_path, "pick_spam_oracle", domain=kitchen_source())
        domain = (tmp_path / "kitchen.dpdl").resolve()
        first = load_scenario(path)
        domain.write_text(kitchen_source().replace("(:action", "(:acton", 1), encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_scenario(path)
        (line,) = err.value.problems
        assert re.fullmatch(rf"{re.escape(str(domain))}:\d+:\d+: error: .*':acton'", line)
        domain.write_text(kitchen_source() + "; edited\n", encoding="utf-8")
        second = load_scenario(path)
        assert second.config_digest != first.config_digest
        assert second.grounded is not first.grounded

    @pytest.mark.parametrize("edit", ["domain", "problem"])
    def test_the_same_bad_text_at_two_paths_reports_each_path(self, tmp_path, edit):
        texts = {"domain": kitchen_source().replace("(:action", "(:acton", 1),
                 "problem": problem_source("pick_spam") + ")"}
        reported = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            path = scenario_copy(tmp_path / sub, "pick_spam_oracle", **{edit: texts[edit]})
            with pytest.raises(InputError) as err:
                load_scenario(path)
            reported.append(err.value.problems)
        bad = {sub: str((tmp_path / sub).resolve()) for sub in ("a", "b")}
        assert len(reported[0]) == 1 and reported[0][0].startswith(bad["a"] + "/")
        assert reported[1] == [line.replace(bad["a"], bad["b"]) for line in reported[0]]

    def test_distinct_texts_beyond_the_bound_keep_the_cache_at_the_bound(self, tmp_path):
        domain = tmp_path / "kitchen.dpdl"
        problem = str(DATA_DIR / "problems" / "pick_spam.dprob")
        for i in range(harness._CACHED_TEXTS + 3):
            domain.write_text(f"{kitchen_source()}; text {i}\n", encoding="utf-8")
            problems = []
            assert harness.load_grounded(str(domain), problem, problems) is not None
            assert problems == []
        for cached in (harness._parse_domain, harness._ground):
            assert cached.cache_info().maxsize == harness._CACHED_TEXTS
            assert cached.cache_info().currsize == harness._CACHED_TEXTS


# The lines of kitchen.dpdl's :predicates block that declare a predicate.
_PREDICATE_LINES = re.findall(
    r"^    \(\w+[^()]*\)\n",
    kitchen_source().split("(:predicates")[1].split("\n  )")[0] + "\n",
    re.M,
)
_ACTIONS = re.findall(r"\(:action (\w+)", kitchen_source())
_BINDING_LINES = re.findall(r"^    :binding \w+\n", kitchen_source(), re.M)
# The spans of kitchen.dpdl's precondition atoms.
_PRECONDITION_ATOMS = [
    (pre.start(1) + atom.start(), pre.start(1) + atom.end())
    for pre in re.finditer(r":precondition \(and(.*?):effect", kitchen_source(), re.S)
    for atom in re.finditer(r"\(\w+[^()]*\)", pre.group(1))
]


def _slots(obj) -> list:
    """(container, key) for every value under ``obj``, depth first."""
    slots = []
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        slots.append((obj, key))
        if isinstance(value, (dict, list)):
            slots.extend(_slots(value))
    return slots


class TestTrials:
    def test_single_trial_record(self):
        sc = load("put_away_spam_oracle", trials=1)
        record = run_trial(sc, 0)
        assert record.succeeded
        assert record.seed == sc.base_seed
        assert record.operator_history[-1] == "push_drawer"

    def test_metrics_over_single_record(self):
        sc = load("put_away_spam_oracle", trials=1)
        metrics, records = run_trials(sc)
        assert metrics.trials == 1
        assert metrics.success_rate == 1.0
        assert metrics.mean_ticks == records[0].ticks

    def test_bitwise_deterministic_metrics(self):
        sc1 = load("put_away_spam_noisy", trials=10)
        sc2 = load("put_away_spam_noisy", trials=10)
        m1, r1 = run_trials(sc1)
        m2, r2 = run_trials(sc2)
        assert json.dumps(m1.to_json_dict(), sort_keys=True) == json.dumps(
            m2.to_json_dict(), sort_keys=True
        )
        assert [a.to_json_dict() for a in r1] == [b.to_json_dict() for b in r2]

    def test_different_seed_changes_noisy_run(self):
        base = load("put_away_spam_noisy", trials=5)
        other = load("put_away_spam_noisy", trials=5, base_seed=999_999)
        _, r1 = run_trials(base)
        _, r2 = run_trials(other)
        assert [a.ticks for a in r1] != [b.ticks for b in r2]

    def test_parallel_matches_sequential(self):
        # 8 trials on 4 jobs split evenly; 7 on 3 split as 3, 3 and 1.
        for trials, jobs in ((8, 4), (7, 3)):
            sc_seq = load("put_away_spam_oracle", trials=trials)
            sc_par = load("put_away_spam_oracle", trials=trials)
            m_seq, r_seq = run_trials(sc_seq, jobs=1)
            m_par, r_par = run_trials(sc_par, jobs=jobs)
            assert m_seq.to_json_dict() == m_par.to_json_dict()
            assert [r.to_json_dict() for r in r_seq] == [
                r.to_json_dict() for r in r_par
            ]

    def test_paired_reactive_beats_open_loop(self):
        reactive = load("teleport_cage_reactive", trials=12)
        open_loop = load("teleport_cage_open_loop", trials=12)
        assert reactive.base_seed == open_loop.base_seed  # paired seeds
        m_r, _ = run_trials(reactive)
        m_o, _ = run_trials(open_loop)
        assert m_r.success_rate > m_o.success_rate


# Digests of every trial record of each shipped oracle scenario, taken before
# the oracle stopped building a perception Generator: the sim and primitive
# streams must not shift.
ORACLE_RECORD_PINS = {
    "open_drawer_oracle": "cc5c9cd4b7627199",
    "pick_spam_oracle": "2ed0d3ba91efc5f0",
    "pick_sugar_oracle": "4ca6adc80badfe72",
    "put_away_both_zero_shot": "b2a3c86d6bb02354",
    "put_away_spam_oracle": "bee453a8141fa094",
    "put_away_sugar_oracle": "eb6c828b8d8792ee",
    "teleport_cage_open_loop": "2fc8dffef8a7d80b",
    "teleport_cage_reactive": "b6f470f896bd5578",
}


class TestSeedStreams:
    @pytest.mark.parametrize("name, generators", [
        ("pick_spam_oracle", 2), ("put_away_spam_noisy", 3),
    ])
    def test_only_noisy_perception_builds_its_generator(self, monkeypatch, name, generators):
        # Every trial splits its seed into three streams; the oracle never
        # draws from the perception one, so it builds no Generator for it.
        sc = load(name, trials=1)
        calls = []
        default_rng = np.random.default_rng

        def counting(seed):
            calls.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        run_trial(sc, 0)
        assert len(calls) == generators

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 10**12])
    def test_streams_are_the_children_spawn_builds(self, monkeypatch, seed):
        # run_trial builds child k of the trial's SeedSequence directly;
        # each stream draws what SeedSequence(seed).spawn(3)[k] would.
        sc = load("put_away_spam_noisy", trials=1, base_seed=seed)
        built = []
        default_rng = np.random.default_rng

        def capturing(seed_sequence):
            built.append(seed_sequence)
            return default_rng(seed_sequence)

        monkeypatch.setattr(np.random, "default_rng", capturing)
        run_trial(sc, 0)
        built.sort(key=lambda seq: seq.spawn_key)
        assert [seq.spawn_key for seq in built] == [(0,), (1,), (2,)]
        for ours, child in zip(built, np.random.SeedSequence(seed).spawn(3)):
            draws = [default_rng(seq).integers(2**63, size=4).tolist() for seq in (ours, child)]
            assert draws[0] == draws[1]

    @pytest.mark.parametrize("name", sorted(ORACLE_RECORD_PINS))
    def test_oracle_records_match_pins(self, name):
        sc = load(name)
        assert sc.noise.is_oracle
        records = [run_trial(sc, i).to_json_dict() for i in range(sc.trials)]
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        assert digest[:16] == ORACLE_RECORD_PINS[name]


class TestProperties:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_tracing_does_not_perturb_and_oracle_never_false_success(self, name):
        # Writing a trace draws nothing and changes no state, so a traced
        # trial's record equals the untraced one; and success under oracle
        # perception is judged on the truth itself.
        traced, plain = load(name), load(name)
        for i in range(4):
            sink = io.StringIO()
            assert run_trial(traced, i, trace_sink=sink) == run_trial(plain, i)
            assert sink.getvalue().count("\n") >= 2
        if plain.noise.is_oracle:
            _, records = run_trials(plain)
            assert not any(r.false_success for r in records)

    def test_teleport_to_taken_zone_lands_on_a_free_one(self):
        # A fixed destination zone that another object holds used to fail 8
        # of these 40 trials with "two objects share a counter zone".
        raw = json.loads(scenario_path("teleport_cage_reactive").read_text())
        sc = load("teleport_cage_reactive", disturbances=raw["disturbances"] + [
            {"trigger": {"at_tick": 0},
             "kind": {"kind": "teleport_object", "object": "spam",
                      "destination": {"zone": 0}}},
        ])
        assert sc.trials == 40
        _, records = run_trials(sc)
        assert all(
            r.status in ("succeeded", "stuck", "budget_exhausted", "no_plan")
            for r in records
        )


@dataclasses.dataclass(frozen=True)
class _NeverFires(executive.Disturbance):
    """A trigger that matches no tick."""

    def matches(self, tick, started, truth):
        return False


class TestDisturbanceWatch:
    """run checks the triggers only on the ticks where one can match."""

    @pytest.mark.parametrize("name, overrides", [
        ("put_away_both_zero_shot", {}),
        ("teleport_cage_reactive", {}),
        ("put_away_spam_oracle", {"disturbances": [
            {"trigger": {"at_tick": 12}, "kind": {"kind": "detach_gripper"}},
            {"trigger": {"at_tick": 40}, "kind": {"kind": "set_drawer", "extension": 0.0}},
        ]}),
    ])
    def test_runs_equal_a_reference_that_checks_every_tick(self, monkeypatch, name, overrides):
        sc = load(name, **overrides)
        # Pending all run long, a trigger that watches every atom and never
        # fires makes run check every trigger on every tick whose truth is
        # not empty: the reference.
        every = (1 << len(sc.grounded.vocabulary)) - 1
        reference = dataclasses.replace(
            sc, disturbances=sc.disturbances + (_NeverFires("detach_gripper", bit=every),)
        )
        outcomes, checked = [], []
        real_run, real_fire = executive.run, executive._fire_disturbances

        def recording_run(*args, **kwargs):
            outcomes.append(real_run(*args, **kwargs))
            return outcomes[-1]

        def recording_fire(sim, pending, tick, *args):
            checked.append(tick)
            return real_fire(sim, pending, tick, *args)

        monkeypatch.setattr(executive, "run", recording_run)
        monkeypatch.setattr(executive, "_fire_disturbances", recording_fire)
        fired_ticks, checks = 0, {"watched": 0, "reference": 0}
        for i in range(50):
            traces, histories = [], []
            for scenario, kind in ((sc, "watched"), (reference, "reference")):
                sink = io.StringIO()
                del checked[:]
                run_trial(scenario, i, trace_sink=sink)
                traces.append(sink.getvalue())
                histories.append(outcomes[-1].history)
                checks[kind] += len(checked)
            # Every tick line holds that tick's fired list.
            assert traces[0] == traces[1]
            assert histories[0] == histories[1]
            ticks = [line for line in traces[0].splitlines() if '"type": "tick"' in line]
            # The tick that ends an episode early checks no trigger.
            loop_ticks = len(ticks) - (outcomes[-1].status != "budget_exhausted")
            assert checked == list(range(loop_ticks))
            fired_ticks += sum('"disturbances_fired": []' not in line for line in ticks)
        assert fired_ticks  # the seeds fire triggers
        assert checks["watched"] < checks["reference"]


class TestPlanMemo:
    """run_trial keeps one chain per estimate mask on the loaded Scenario."""

    @pytest.mark.parametrize(
        "name", ["put_away_spam_noisy", "teleport_cage_reactive"]
    )
    def test_shared_scenario_matches_fresh_loads(self, name):
        shared = load(name)
        for i in range(30):
            sink_shared, sink_fresh = io.StringIO(), io.StringIO()
            record = run_trial(shared, i, trace_sink=sink_shared)
            assert record == run_trial(load(name), i, trace_sink=sink_fresh)
            assert sink_shared.getvalue() == sink_fresh.getvalue()
        # Repeated estimates hit the memo.
        assert 1 <= len(shared._chains_by_mask) < 30

    def test_plan_once_per_mask_and_chain_once_per_plan(self, monkeypatch):
        planned, built, plans = [], [], {}
        real_plan, real_build = harness.plan, harness.build_chain

        def counting_plan(grounded, init, **kwargs):
            planned.append(init.mask)
            result = real_plan(grounded, init=init, **kwargs)
            if result.solved:
                plans[init.mask] = tuple(op.index for op in result.plan.steps)
            return result

        def counting_build(the_plan):
            built.append(tuple(op.index for op in the_plan.steps))
            return real_build(the_plan)

        monkeypatch.setattr(harness, "plan", counting_plan)
        monkeypatch.setattr(harness, "build_chain", counting_build)
        sc = load("put_away_spam_noisy", trials=30)
        run_trials(sc)
        assert sorted(planned) == sorted(set(planned)) == sorted(sc._chains_by_mask)
        # One build per distinct plan; masks that share a plan share its chain.
        assert sorted(built) == sorted(set(built)) == sorted(set(plans.values()))
        assert len(plans) > len(built)  # the seeds hold masks that share a plan
        for mask, indices in plans.items():
            assert sc._chains_by_mask[mask] is sc._chains_by_plan[indices]

    def test_selection_memo_holds_truth_masks_and_chains_one_per_plan(self):
        # Each chain's selection memo grows with the truth masks the trials
        # visit, never with a noisy estimate's masks.
        sc = load("put_away_spam_noisy")
        bits = {name: 1 << k for k, name in enumerate(sc.grounded.vocabulary.names)}
        truths, estimates = set(), set()
        for i in range(200):
            sink = io.StringIO()
            run_trial(sc, i, trace_sink=sink)
            for line in map(json.loads, sink.getvalue().splitlines()):
                if line["type"] == "tick":
                    truths.add(sum(bits[name] for name in line["true_atoms"]))
                    estimates.add(sum(bits[name] for name in line["estimated_atoms"]))
        assert estimates - truths  # the seeds hold estimate-only masks
        chains = {id(chain): chain for chain in sc._chains_by_mask.values() if chain}
        assert set(chains) == {id(chain) for chain in sc._chains_by_plan.values()}
        assert len(chains) == len(sc._chains_by_plan) < len(sc._chains_by_mask)
        keys = [mask for chain in chains.values() for mask, _ in chain.selections]
        assert keys and set(keys) <= truths

    def test_unsolved_plan_is_no_plan_on_miss_and_hit(self, monkeypatch):
        calls = []

        def unsolvable(grounded, **kwargs):
            calls.append(kwargs["init"].mask)
            return PlanResult("unsolvable")

        monkeypatch.setattr(harness, "plan", unsolvable)
        sc = load("put_away_spam_oracle")
        first, again = run_trial(sc, 0), run_trial(sc, 0)
        assert first.status == again.status == "no_plan"
        assert first == again
        assert len(calls) == 1

    def test_pool_plans_once_per_mask_per_range(self, monkeypatch):
        # Every range of two scenarios runs on one in-process executor, so
        # one scenario object serves all of them, and its memo is warm from
        # a serial run.  Each range still plans once per distinct estimate
        # mask it meets, as on a fresh worker.
        class InlineExecutor:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        planned = []
        real_plan = harness.plan

        def counting_plan(grounded, init, **kwargs):
            planned.append(init.mask)
            return real_plan(grounded, init=init, **kwargs)

        monkeypatch.setattr(harness, "plan", counting_plan)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(harness, "_worker_scenarios", ())
        names, jobs = ("put_away_spam_noisy", "teleport_cage_reactive"), 3
        scenarios = [load(name, trials=20) for name in names]
        expected = 0
        for name, scenario in zip(names, scenarios):
            for chunk in harness._ranges(scenario.trials, jobs):
                del planned[:]
                harness._run_range(load(name, trials=20), chunk, None)
                expected += len(planned)
                assert len(planned) == len(set(planned))
        # The serial run warms the loaded scenarios' memos.
        serial = [run_trials(scenario)[1] for scenario in scenarios]
        assert all(scenario._chains_by_mask for scenario in scenarios)
        warm = [chain for sc in scenarios for chain in sc._chains_by_plan.values()]

        # Each range starts with no chain, so with no selection memo, and
        # the chains it builds are its own.
        started_empty, range_chains = [], []
        real_range = harness._run_range

        def recording_range(scenario, indices, trace_dir):
            started_empty.append(not scenario._chains_by_mask and not scenario._chains_by_plan)
            records = real_range(scenario, indices, trace_dir)
            range_chains.extend(scenario._chains_by_plan.values())
            return records

        monkeypatch.setattr(harness, "_run_range", recording_range)
        del planned[:]
        with harness.queue_trials(scenarios, jobs) as queued:
            records = [
                run_trials(scenario, jobs, futures=futures)[1]
                for scenario, futures in zip(scenarios, queued)
            ]
        assert len(planned) == expected
        assert records == serial
        assert started_empty == [True] * len(names) * jobs
        assert len({id(chain) for chain in range_chains + warm}) == len(range_chains + warm)

    def test_spawn_workers_equal_the_serial_run(self, monkeypatch):
        # Spawned workers get the scenarios pickled, warm memos included;
        # each range still runs on an empty-memo copy.
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        ))
        names = ("put_away_spam_noisy", "teleport_cage_reactive")
        scenarios = [load(name, trials=8) for name in names]
        serial = [run_trials(scenario)[1] for scenario in scenarios]
        assert all(scenario._chains_by_mask for scenario in scenarios)
        with harness.queue_trials(scenarios, 2) as queued:
            records = [
                run_trials(scenario, 2, futures=futures)[1]
                for scenario, futures in zip(scenarios, queued)
            ]
        assert records == serial

    def test_scenario_frozen_and_memo_empty_after_replace(self, tmp_path):
        used = load("put_away_spam_noisy", trials=10)
        run_trials(used, trace_dir=tmp_path)
        assert used._chains_by_mask and used._atoms_text_by_mask
        with pytest.raises(dataclasses.FrozenInstanceError):
            used.trials = 3
        copy = dataclasses.replace(used, trials=3)
        assert copy._chains_by_mask == {} and copy._atoms_text_by_mask == {}

    def test_atom_text_memo_holds_the_traced_truth_masks(self):
        # The memo grows with the distinct truth masks a trace lists, never
        # with a noisy estimate's masks, which mostly differ per trial.
        sc = load("put_away_spam_noisy")
        bits = {name: 1 << k for k, name in enumerate(sc.grounded.vocabulary.names)}
        truths, estimates = set(), set()
        for i in range(10):
            sink = io.StringIO()
            run_trial(sc, i, trace_sink=sink)
            for line in map(json.loads, sink.getvalue().splitlines()):
                if line["type"] == "tick":
                    truths.add(sum(bits[name] for name in line["true_atoms"]))
                    estimates.add(sum(bits[name] for name in line["estimated_atoms"]))
        assert estimates - truths  # the seeds hold estimate-only masks
        assert set(sc._atoms_text_by_mask) == truths
        names_of = sc.grounded.vocabulary.names_of
        assert all(text == json.dumps(names_of(mask))
                   for mask, text in sc._atoms_text_by_mask.items())


class TestTraces:
    def trace_lines(self, scenario):
        sink = io.StringIO()
        record = run_trial(scenario, 0, trace_sink=sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert sink.getvalue().splitlines() == [json.dumps(l, sort_keys=True) for l in lines]
        return record, lines

    def test_trace_structure(self):
        sc = load("put_away_spam_oracle", trials=1)
        record, lines = self.trace_lines(sc)
        assert lines[0]["type"] == "header"
        assert lines[0]["seed"] == record.seed
        assert lines[0]["config_digest"]
        assert lines[-1]["type"] == "outcome"
        assert lines[-1]["status"] == "succeeded"
        ticks = [l for l in lines if l["type"] == "tick"]
        assert len(ticks) == record.ticks
        for l in ticks:
            assert l["true_atoms"] == sorted(l["true_atoms"])
            assert l["estimated_atoms"] == l["true_atoms"]  # oracle mode

    def test_config_digest_pins_the_merged_scenario(self):
        # The header's config_digest is the first 16 hex digits of the
        # SHA-256 of the JSON list of the scenario JSON after overrides and
        # the text of its domain and problem files, dumped with sorted keys;
        # a trials override is part of what it hashes.
        raw = json.loads(scenario_path("put_away_spam_oracle").read_text(encoding="utf-8"))
        texts = [kitchen_source(), problem_source("put_away_spam")]

        def digest(merged):
            payload = json.dumps([merged, *texts], sort_keys=True)
            return hashlib.sha256(payload.encode()).hexdigest()[:16]

        headers = {}
        for trials in (None, 1):
            sc = load("put_away_spam_oracle", **({} if trials is None else {"trials": trials}))
            headers[trials] = self.trace_lines(sc)[1][0]["config_digest"]
        assert headers[None] == digest(raw)
        assert headers[1] == digest({**raw, "trials": 1}) != headers[None]

    def test_config_digest_covers_the_problem_text(self, tmp_path):
        # The same scenario JSON naming the same paths, with only the
        # .dprob edited, runs another task; it used to keep the digest.
        digests = [
            load_scenario(scenario_copy(tmp_path, "put_away_spam_oracle", problem=text)).config_digest
            for text in (
                problem_source("put_away_spam"),
                problem_source("put_away_spam").replace(
                    "(obj_is_in_drawer spam)", "(obj_is_in_drawer sugar)"
                ),
            )
        ]
        assert digests[0] != digests[1]

    def test_disturbance_appears_in_trace(self):
        sc = load("teleport_cage_reactive", trials=1)
        _, lines = self.trace_lines(sc)
        fired = [l for l in lines if l.get("disturbances_fired")]
        assert fired and fired[0]["disturbances_fired"] == ["teleport_object"]

    def test_no_plan_trial_is_header_and_outcome(self, monkeypatch):
        # No shipped scenario reaches no_plan, so the search is made to
        # fail: the trial then runs no tick and starts no operator.
        monkeypatch.setattr(
            harness, "plan", lambda grounded, **kwargs: PlanResult("unsolvable")
        )
        record, lines = self.trace_lines(load("put_away_spam_oracle", trials=1))
        assert (record.status, record.ticks, record.recoveries) == ("no_plan", 0, 0)
        assert record.false_success is False and record.operator_history == []
        assert [line["type"] for line in lines] == ["header", "outcome"]
        assert lines[1] == {"type": "outcome", **record.to_json_dict()}

    def test_predicate_trigger_with_spaces_fires(self):
        # The loader matches the atom name without its whitespace, so
        # whitespace inside it neither fails the load nor stops the trigger.
        def fired(atom):
            sc = load("put_away_spam_oracle", trials=1, disturbances=[
                {"trigger": {"when_predicate": atom},
                 "kind": {"kind": "set_drawer", "extension": 0.0}}
            ])
            _, lines = self.trace_lines(sc)
            return [(l["tick"], l["disturbances_fired"])
                    for l in lines if l.get("disturbances_fired")]

        spaced = fired("obj_is_in_drawer( spam )")
        assert spaced == fired("obj_is_in_drawer(spam)")
        assert [kinds for _, kinds in spaced] == [["set_drawer"]]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_line_is_canonical_json(self, name):
        # run_trial writes tick lines from cached text; each must be what
        # json.dumps(..., sort_keys=True) writes of the object it holds.
        # The seeds reach a fired disturbance, a noisy estimate off the
        # truth and the open loop's goal-check line; trace_lines checks
        # the same of a no_plan trial.
        sc = load(name)
        sinks = [io.StringIO() for _ in range(3)]
        records = [run_trial(sc, i, trace_sink=sink) for i, sink in enumerate(sinks)]
        texts = [sink.getvalue() for sink in sinks]
        lines = [line for text in texts for line in text.splitlines()]
        assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)
        ticks = [json.loads(line) for line in lines if '"type": "tick"' in line]
        if name == "put_away_both_zero_shot":
            assert any(tick["disturbances_fired"] for tick in ticks)
        if name == "put_away_spam_noisy":
            assert any(tick["estimated_atoms"] != tick["true_atoms"] for tick in ticks)
        if name == "teleport_cage_open_loop":
            assert len(ticks) == sum(r.ticks + 1 for r in records)
        # Index 0 again on the warm scenario, and on a fresh load.
        warm, fresh = io.StringIO(), io.StringIO()
        run_trial(sc, 0, trace_sink=warm)
        run_trial(load(name), 0, trace_sink=fresh)
        assert warm.getvalue() == fresh.getvalue() == texts[0]

    def test_replay_is_byte_identical(self):
        for name in ("put_away_spam_oracle", "put_away_spam_noisy",
                     "put_away_both_zero_shot"):
            sink1, sink2 = io.StringIO(), io.StringIO()
            run_trial(load(name, trials=1), 0, trace_sink=sink1)
            run_trial(load(name, trials=1), 0, trace_sink=sink2)
            assert sink1.getvalue() == sink2.getvalue()


class TestReport:
    def test_table_shape(self):
        sc = load("put_away_spam_oracle", trials=2)
        metrics, _ = run_trials(sc)
        text = report([metrics, metrics])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two data rows
        assert "success" in lines[0]
        assert "100.0%" in lines[2]

    def test_json_keys_are_the_dataclass_fields(self):
        # Each field is declared once: both JSON writers read the dataclass
        # fields, and the results reader checks the same names.  Attributes
        # set on an instance outside its fields stay out of the JSON.
        metrics, records = run_trials(load("put_away_spam_oracle", trials=1))
        vars(records[0])["extra"] = 1

        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert list(records[0].to_json_dict()) == names(harness.TrialRecord)
        assert list(metrics.to_json_dict()) == names(harness.Metrics)
        assert list(harness._METRIC_FIELDS) == names(harness.Metrics)

    def test_results_payload_reads_back(self):
        metrics, records = run_trials(load("put_away_spam_oracle", trials=2))
        payload = harness.results_payload([(metrics, records)])
        assert payload["format_version"] == harness.RESULTS_FORMAT_VERSION
        assert harness.read_results(payload) == [metrics]

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            report([])

    def test_metrics_fields(self):
        records = []
        sc = load("put_away_spam_oracle", trials=3)
        _, records = run_trials(sc)
        metrics = compute_metrics("x", records)
        assert metrics.trials == 3
        assert 0.0 <= metrics.success_rate <= 1.0
        assert metrics.false_success_rate == 0.0


class TestObjectsStartInDrawer:
    def test_put_away_when_object_begins_inside(self):
        # Objects sampled inside the drawer: with the drawer open the plan
        # collapses to close-and-done; with it closed the goal already
        # holds.  Either way the trial must succeed with no pick phase.
        sc = load(
            "put_away_spam_oracle",
            trials=12,
            initial={"objects": "anywhere", "object_in_drawer_prob": 1.0,
                     "drawer": "mixed", "arm": "driving"},
        )
        metrics, records = run_trials(sc)
        assert metrics.success_rate == 1.0
        for r in records:
            assert "grasp_obj(spam)" not in r.operator_history


def test_harness_alone_holds_the_formats():
    # The modules holding a "format_version" dict key or keyword, or a
    # *FORMAT_VERSION constant.
    holders = set()
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            keys = node.keys if isinstance(node, ast.Dict) else []
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            if (
                any(isinstance(k, ast.Constant) and k.value == "format_version" for k in keys)
                or isinstance(node, ast.keyword) and node.arg == "format_version"
                or any(getattr(t, "id", "").endswith("FORMAT_VERSION") for t in targets)
            ):
                holders.add(path.name)
    assert holders == {"harness.py"}


def test_documented_format_versions_are_the_harness_constants():
    # The one "format_version" of each section's example in docs/formats.md.
    doc = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
    sections = {
        part.split("\n", 1)[0]: part
        for part in re.split(r"^## ", doc.read_text(encoding="utf-8"), flags=re.M)
    }
    versions = {
        "plan.json": harness.PLAN_FORMAT_VERSION,
        "chain.json": harness.CHAIN_FORMAT_VERSION,
        "Scenario files": harness.SCENARIO_FORMAT_VERSION,
        "Trace files (JSONL)": harness.FORMAT_VERSION,
        "results.json": harness.RESULTS_FORMAT_VERSION,
    }
    for heading, version in versions.items():
        documented = re.findall(r'"format_version": (\d+)', sections[heading])
        assert documented == [str(version)], heading
