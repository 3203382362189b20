#!/usr/bin/env bash
# Noise calibration: runs every BENCHMARK.json workload N times at
# run_seconds, seed i+1 in round i, alternating the workload order between
# rounds, then prints for each (metric, workload) pair the median, the
# quartiles, the interquartile spread and the max/min spread as shares of
# the median, next to the metric's bound. An interquartile spread above a
# third of the bound is flagged: give that workload more work per run rather
# than widen the bound.
#
#   benchmark/calibrate.sh N        (from the repository root)
#
# Raw results are appended to .bench_build/calibrate.jsonl.
set -euo pipefail

n=${1:?usage: benchmark/calibrate.sh N}
out=.bench_build/calibrate.jsonl
mkdir -p .bench_build
: > "$out"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')

for ((i = 0; i < n; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    mapfile -t order < <(printf '%s\n' "${workloads[@]}" | tac)
  fi
  for w in "${order[@]}"; do
    seed=$((i + 1))
    result=$(python3 benchmark/run.py --workload "$w" --seed "$seed" \
               --seconds "$seconds" --trace 0 | tail -n 1)
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $result}" >> "$out"
    echo "round $((i + 1))/$n $w done" >&2
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
print("%-15s %-17s %12s %12s %12s %7s %7s %6s" %
      ("workload", "metric", "median", "q1", "q3", "iqr%", "range%", "bound%"))
for w in spec["workloads"]:
    mine = [r["result"] for r in runs if r["workload"] == w["name"]]
    bad = [r for r in mine if not r["correct"] or r["failed"]]
    if bad:
        print("%s: %d runs reported failed operations" % (w["name"], len(bad)))
    for m in spec["end_to_end"]:
        v = [r["metrics"][m["name"]]["value"] for r in mine]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        iqr = (q3 - q1) / med * 100
        rng = (max(v) - min(v)) / med * 100
        flag = "  > bound/3" if iqr > m["bound"] * 100 / 3 else ""
        print("%-15s %-17s %12.6g %12.6g %12.6g %7.2f %7.2f %6.1f%s" %
              (w["name"], m["name"], med, q1, q3, iqr, rng, m["bound"] * 100, flag))
EOF
