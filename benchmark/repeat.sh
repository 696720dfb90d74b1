#!/usr/bin/env bash
# Runs the whole benchmark N times on the same code and prints, per
# (workload, end-to-end metric), min / median / max and the relative spread:
# the distance between the first and third quartile as a share of the median
# (Python's statistics.quantiles(values, n=4)), the figure the bounds in
# BENCHMARK.json are set from. Exits non-zero if a run fails, answers wrongly,
# or a spread exceeds its metric's bound (setup_s is reported, not gated:
# its bound guards the median against work moved into set-up).
#
#   benchmark/repeat.sh [N=5] [--vary-seed]
#
# SEED (default 1) is the seed of every run; with --vary-seed run i uses
# SEED+i, which adds the input-to-input spread the driver also sees.
set -euo pipefail

cd "$(dirname "$0")/.."
runs="${1:-5}"
vary_seed=0
[[ "${2:-}" == "--vary-seed" ]] && vary_seed=1
seed="${SEED:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p benchmark/out
results="$(mktemp -d benchmark/out/repeat.XXXXXX)"
trap 'rm -rf "$results"' EXIT

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $workloads; do
  for ((i = 0; i < runs; i++)); do
    run_seed=$((seed + i * vary_seed))
    echo "run $((i + 1))/$runs of $workload (seed $run_seed)" >&2
    benchmark/run.sh --workload "$workload" --seed "$run_seed" --seconds "$seconds" --trace 0 \
      2>/dev/null | tail -n 1 >>"$results/$workload.jsonl"
  done
done

python3 - "$results" <<'PY'
import json, statistics, sys, pathlib

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
failed = False
print(f"{'workload':<12} {'metric':<16} {'min':>12} {'median':>12} {'max':>12} {'spread':>8} {'bound':>7}")
for workload in (w["name"] for w in spec["workloads"]):
    rows = [json.loads(line) for line in open(pathlib.Path(sys.argv[1]) / f"{workload}.jsonl")]
    if not all(r["correct"] and r["failed"] == 0 for r in rows):
        print(f"{workload}: a run failed or answered wrongly")
        failed = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        over = name != "setup_s" and spread > bound
        failed |= over
        print(f"{workload:<12} {name:<16} {min(values):>12.4f} {median:>12.4f} {max(values):>12.4f} "
              f"{spread * 100:>7.2f}% {bound * 100:>6.0f}%{'  OVER' if over else ''}")
sys.exit(1 if failed else 0)
PY
