#!/usr/bin/env bash
# Print how long a fresh process takes to load every shipped scenario.
#
# Usage: scripts/cold_load.sh TREE [RUNS]
#
# TREE is a checkout of the repository (its own src/ is run).  Each of RUNS
# fresh processes (default 5) imports chainreact.harness, then times one
# load_scenario call per file in src/chainreact/data/scenarios/, in name
# order.  Prints the median and every run, in milliseconds.  Nothing is
# loaded twice in one process, so no load hits the parse cache.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 TREE [RUNS]" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
runs=${2:-5}
code='
import glob, time
from chainreact.harness import load_scenario
paths = sorted(glob.glob("src/chainreact/data/scenarios/*.json"))
start = time.perf_counter()
for path in paths:
    load_scenario(path)
print(f"{(time.perf_counter() - start) * 1e3:.2f}")
'
times=$(for _ in $(seq "$runs"); do
  (cd "$src" && PYTHONPATH=src python -c "$code")
done | sort -n)
median=$(echo "$times" | awk '{t[NR] = $1} END {print (NR % 2) ? t[(NR + 1) / 2] : (t[NR / 2] + t[NR / 2 + 1]) / 2}')
echo "cold load of the shipped scenarios: median ${median} ms over ${runs} processes ($(echo $times))"
