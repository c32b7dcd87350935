#!/usr/bin/env bash
# Write every output CI compares between a pull request and its base commit.
#
# Usage: scripts/pr_outputs.sh TREE OUT
#
# TREE is a checkout of the repository (its own src/ is run); OUT is a new
# or empty directory.  Two trees whose outputs are byte-identical give an
# empty `diff -r` of their OUT directories, and so do two runs on one tree.
# CI runs it on a pull request and on its base commit; to check a change
# before pushing, run it on the working tree and on a checkout of the
# parent (`git worktree add ../base HEAD`) and compare the two OUT
# directories with `diff -r`, leaving out readme/example.py, which is the
# README text itself.
# Under OUT:
#   out/J          results, report and every trace of all shipped scenarios
#                  on J = 1, 2 and 3 workers
#   seed3/J        the same at --seed 3 --trials 7, on J = 1 and 3 workers
#   busy           300 serial trials at --seed 11 of put_away_spam_noisy and
#                  put_away_both_zero_shot, whose truth and selection change
#                  most often
#   plans          the plan and the chain of every shipped problem
#   execute        one traced execute run of every shipped scenario (record
#                  line, exit code and trace)
#   readme         the stdout of TREE's own README library example
#   windows        a bench of put_away_spam_noisy at windows 1, 2, 4, 5, 64,
#                  65 and 70
#   negative       plan, chain and a traced bench of put_away_spam_oracle's 20
#                  trials with the goal literal (not (drawer_is_open)) in
#                  place of (drawer_is_closed), each with its exit code
#   truths         put_away_both.jsonl: the truth evaluate_world gives each
#                  of the 9216 worlds over spam and sugar (12 arm regions,
#                  gripper open or shut, 4 attachments, drawer open, in
#                  transit or closed, 4 pose kinds each, moving or not), one
#                  canonical JSON line of its fields and atom names each
#   spans          a traced bench of put_away_spam_oracle's 20 trials with
#                  the duration of back_off fixed at 3 ticks (no draw), of
#                  pull_drawer drawn from 1 to 2**40 (a 64-bit draw) and of
#                  lower from 1 to 2**31 + 1 (a 32-bit draw rejected about
#                  half the time); two disturbances cut the long ones short
#                  (the drawer opens as pull_drawer starts, the gripper lets
#                  go as lower_obj_into_drawer starts), so the draws after
#                  them show how many words each one took
# Three workers place uneven ranges, in an order that depends on
# scheduling, across scenario boundaries.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 TREE OUT" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
root=$(cd "$2" && pwd)

for jobs in 1 2 3; do
  out="$root/out/$jobs"
  mkdir -p "$out"
  (cd "$src" && PYTHONPATH=src python -m chainreact.cli bench \
    --scenarios src/chainreact/data/scenarios/*.json --jobs "$jobs" \
    --trace-dir "$out/traces" --out "$out/results.json" > "$out/stdout.txt")
  (cd "$src" && PYTHONPATH=src python -m chainreact.cli report \
    --results "$out/results.json" > "$out/report.txt")
done
# A second seed and trial count, serial and on three workers.
for jobs in 1 3; do
  out="$root/seed3/$jobs"
  mkdir -p "$out"
  (cd "$src" && PYTHONPATH=src python -m chainreact.cli bench \
    --scenarios src/chainreact/data/scenarios/*.json --seed 3 --trials 7 \
    --jobs "$jobs" --trace-dir "$out/traces" --out "$out/results.json" \
    > "$out/stdout.txt")
done
# The two scenarios whose truth and selection change most often, at 300
# trials each.
out="$root/busy"
mkdir -p "$out"
(cd "$src" && PYTHONPATH=src python -m chainreact.cli bench \
  --scenarios src/chainreact/data/scenarios/put_away_spam_noisy.json \
  src/chainreact/data/scenarios/put_away_both_zero_shot.json \
  --trials 300 --seed 11 --trace-dir "$out/traces" --out "$out/results.json" \
  > "$out/stdout.txt")
# plan and chain on every shipped problem.
out="$root/plans"
mkdir -p "$out"
for problem in "$src"/src/chainreact/data/problems/*.dprob; do
  name=$(basename "$problem" .dprob)
  (cd "$src" && PYTHONPATH=src python -m chainreact.cli plan \
    --domain src/chainreact/data/kitchen.dpdl \
    --problem "src/chainreact/data/problems/$name.dprob" \
    --out "$out/$name.plan.json" 2> "$out/$name.plan.stderr")
  (cd "$src" && PYTHONPATH=src python -m chainreact.cli chain \
    --domain src/chainreact/data/kitchen.dpdl \
    --problem "src/chainreact/data/problems/$name.dprob" \
    --plan "$out/$name.plan.json" --out "$out/$name.chain.json")
done
# execute on every shipped scenario; a trial that does not succeed exits 1,
# which is recorded, not fatal.
out="$root/execute"
mkdir -p "$out"
for scenario in "$src"/src/chainreact/data/scenarios/*.json; do
  name=$(basename "$scenario" .json)
  (cd "$src" && PYTHONPATH=src python -m chainreact.cli execute \
    --scenario "src/chainreact/data/scenarios/$name.json" --seed 7 \
    --trace "$out/$name.trace.jsonl" > "$out/$name.record.json") \
    || echo "exit $?" >> "$out/$name.record.json"
done
# The README library example of this tree, run in this tree.
out="$root/readme"
mkdir -p "$out"
awk '/^```python$/ {f = 1; next} /^```$/ {f = 0} f' "$src/README.md" > "$out/example.py"
(cd "$src" && PYTHONPATH=src python "$out/example.py" > "$out/stdout.txt")
# put_away_spam_noisy off the shipped window 3: the general majority loop
# once warm, and warm-ups of 64 to 70 ticks that fill or span two flip
# blocks.  The copies sit next to scenarios/ and keep its relative domain
# and problem paths, so config_digest, and with it each trace header, is the
# same in both trees; 10 trials of at most 300 ticks keep it to seconds.
sweep="$src/src/chainreact/data/window_sweep"
mkdir -p "$sweep"
for window in 1 2 4 5 64 65 70; do
  python -c 'import json, sys; s = json.load(open(sys.argv[1])); w = int(sys.argv[2]); s.update(name=f"put_away_spam_noisy_w{w}", trials=10, max_ticks=300); s["perception"]["window"] = w; json.dump(s, open(sys.argv[3], "w"), indent=2, sort_keys=True)' \
    "$src/src/chainreact/data/scenarios/put_away_spam_noisy.json" "$window" \
    "$sweep/w$window.json"
done
out="$root/windows"
mkdir -p "$out"
(cd "$src" && PYTHONPATH=src python -m chainreact.cli bench \
  --scenarios src/chainreact/data/window_sweep/*.json \
  --trace-dir "$out/traces" --out "$out/results.json" > "$out/stdout.txt")
# A negative goal: put_away_spam with (not (drawer_is_open)) in place of
# (drawer_is_closed), and a copy of put_away_spam_oracle that uses it.  Like
# the sweep's copies they sit under data/ with relative paths, so
# config_digest is the same in both trees.  A command that fails records
# its exit code, not fatal: a tree whose chain builder refuses negative
# goals exits 2.
negative="$src/src/chainreact/data/negative_goal"
mkdir -p "$negative"
sed 's/(drawer_is_closed)))/(not (drawer_is_open))))/' \
  "$src/src/chainreact/data/problems/put_away_spam.dprob" > "$negative/put_away_spam_not_open.dprob"
python -c 'import json, sys; s = json.load(open(sys.argv[1])); s.update(name="put_away_spam_not_open_oracle", problem="put_away_spam_not_open.dprob"); json.dump(s, open(sys.argv[2], "w"), indent=2, sort_keys=True)' \
  "$src/src/chainreact/data/scenarios/put_away_spam_oracle.json" "$negative/oracle.json"
out="$root/negative"
mkdir -p "$out"
files=(--domain src/chainreact/data/kitchen.dpdl
       --problem src/chainreact/data/negative_goal/put_away_spam_not_open.dprob)
(cd "$src" && PYTHONPATH=src python -m chainreact.cli plan "${files[@]}" \
  --out "$out/plan.json" 2> "$out/plan.stderr") || echo "exit $?" >> "$out/plan.stderr"
(cd "$src" && PYTHONPATH=src python -m chainreact.cli chain "${files[@]}" \
  --plan "$out/plan.json" --out "$out/chain.json" 2> "$out/chain.stderr") \
  || echo "exit $?" >> "$out/chain.stderr"
(cd "$src" && PYTHONPATH=src python -m chainreact.cli bench \
  --scenarios src/chainreact/data/negative_goal/oracle.json \
  --trace-dir "$out/traces" --out "$out/results.json" > "$out/stdout.txt" \
  2> "$out/stderr.txt") || echo "exit $?" >> "$out/stderr.txt"
# The truth table of put_away_both over every world of its key space, built
# through the public WorldState and evaluate_world only, so that this script
# also runs on trees older than the simulator's rule table.
out="$root/truths"
mkdir -p "$out"
(cd "$src" && PYTHONPATH=src python - > "$out/put_away_both.jsonl") <<'EOF'
import dataclasses, itertools, json
from pathlib import Path
from chainreact import ground, parse_domain, parse_problem
from chainreact.kitchen import WorldState, evaluate_world

data = Path("src/chainreact/data")
domain = parse_domain((data / "kitchen.dpdl").read_text(encoding="utf-8")).value
problem = parse_problem(
    (data / "problems/put_away_both.dprob").read_text(encoding="utf-8"), domain
).value
grounded = ground(domain, problem)
regions = [(kind, None) for kind in (
    "driving", "above_counter", "near_handle", "front_of_drawer", "over_drawer", "in_drawer"
)] + [(kind, target) for kind in ("approach", "around") for target in ("handle", "spam", "sugar")]
kinds = ["counter", "held", "over_drawer", "in_drawer"]


def pose(kind, zone):
    return ("counter", zone) if kind == "counter" else (kind,)


for region, aperture, attached, ext, spam, sugar, moving in itertools.product(
    regions, (1.0, 0.0), (None, "handle", "spam", "sugar"), (1.0, 0.4, 0.0),
    kinds, kinds, (False, True),
):
    world = WorldState(
        region, aperture, attached, ext, {"spam": pose(spam, 0), "sugar": pose(sugar, 1)}, moving
    )
    atoms = grounded.vocabulary.names_of(evaluate_world(world, grounded))
    print(json.dumps({**dataclasses.asdict(world), "atoms": atoms}, sort_keys=True))
EOF
# Every path of the primitive duration draw (see spans in the header), in a
# copy of put_away_spam_oracle that sits under data/ with relative paths,
# like the sweep's.
spans="$src/src/chainreact/data/span_draws"
mkdir -p "$spans"
python -c '
import json, sys
s = json.load(open(sys.argv[1]))
s.update(name="put_away_spam_span_draws")
s["primitives"]["bindings"] = {
    "back_off": {"min_ticks": 3, "max_ticks": 3},
    "pull_drawer": {"min_ticks": 1, "max_ticks": 2**40},
    "lower": {"min_ticks": 1, "max_ticks": 2**31 + 1},
}
s["disturbances"] = [
    {"trigger": {"when_operator": "pull_drawer"},
     "kind": {"kind": "set_drawer", "extension": 1.0}},
    {"trigger": {"when_operator": "lower_obj_into_drawer"},
     "kind": {"kind": "detach_gripper"}},
]
json.dump(s, open(sys.argv[2], "w"), indent=2, sort_keys=True)
' "$src/src/chainreact/data/scenarios/put_away_spam_oracle.json" "$spans/oracle.json"
out="$root/spans"
mkdir -p "$out"
(cd "$src" && PYTHONPATH=src python -m chainreact.cli bench \
  --scenarios src/chainreact/data/span_draws/oracle.json \
  --trace-dir "$out/traces" --out "$out/results.json" > "$out/stdout.txt")
