#!/usr/bin/env python3
"""Write perfbench/reference.json, the outcomes run.py checks trials against.

    python3 perfbench/make_reference.py

For every scenario of every workload it runs the shipped trial protocol
(trials 0 .. trials-1 at the scenario's own base_seed, which is seed 0 of the
benchmark) and stores each trial's status, ticks, recoveries, false_success
and operator_history.  Record it once from a trusted commit; a later change
that alters any of these fields then shows as failed trials.
"""

from __future__ import annotations

import json

from run import OUTCOME_FIELDS, REFERENCE, WORKLOADS, Spec, import_program, load_all, outcome


def main() -> None:
    harness, _ = import_program()
    names = sorted({name for scenarios, _ in WORKLOADS.values() for name in scenarios})
    specs = [Spec.load(name) for name in names]
    lines = []
    for spec, scenario in zip(specs, load_all(harness, specs, 0)):
        rows = [
            json.dumps(outcome(harness.run_trial(scenario, i).to_json_dict()))
            for i in range(spec.trials)
        ]
        lines.append(f'    "{spec.name}": [\n      ' + ",\n      ".join(rows) + "\n    ]")
    REFERENCE.write_text(
        '{\n  "fields": ' + json.dumps(list(OUTCOME_FIELDS)) + ',\n  "scenarios": {\n'
        + ",\n".join(lines) + "\n  }\n}\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE}: {len(specs)} scenarios")


if __name__ == "__main__":
    main()
