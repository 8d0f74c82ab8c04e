#!/usr/bin/env bash
# Run every workload of the end-to-end benchmark, each in its own process,
# and summarise every (metric, workload) pair as median and quartiles.
#
#   bench_e2e/run_e2e.sh [--runs N] [--seed S] [--trace]
#
# Run i uses seed S+i, and every run measures for 10 s, as BENCHMARK.json's
# run_seconds does.  Workload order alternates between runs (forward, then
# reversed) so slow drift of a shared machine does not always land on the
# same workload.  Per-run results are kept in .bench_build/run_e2e.jsonl and
# the benchmark's reports in .bench_build/run_e2e.log.
#
# Exits non-zero if any run fails, any output check fails, or any run
# exceeds the time cap (180 s; 900 s for the first run, which builds).
set -euo pipefail
cd "$(dirname "$0")/.."

runs=10
seed=1
trace=0
while (($#)); do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
seconds=10
workloads="scan_warm scan_cold ec_degraded write_rf3 open_browse visapult"

mkdir -p .bench_build
out=.bench_build/run_e2e.jsonl
log=.bench_build/run_e2e.log
: >"$out"
: >"$log"
status=0
first=1
for ((i = 0; i < runs; i++)); do
  order=$workloads
  if ((i % 2)); then order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' '); fi
  for w in $order; do
    cap=180
    if ((first)); then cap=900; first=0; fi
    s=$((seed + i))
    start=$(date +%s)
    if ! line=$(python3 bench_e2e/run.py --workload "$w" --seed "$s" \
        --seconds "$seconds" --trace "$trace" 2>>"$log" | tail -n 1) ||
        [[ -z "$line" ]]; then
      echo "FAIL: $w seed=$s did not produce a result (see $log)" >&2
      status=1
      continue
    fi
    elapsed=$(($(date +%s) - start))
    if ((elapsed > cap)); then
      echo "FAIL: $w seed=$s took ${elapsed} s (cap ${cap} s)" >&2
      status=1
    fi
    echo "{\"workload\": \"$w\", \"seed\": $s, \"elapsed_s\": $elapsed, \"result\": $line}" >>"$out"
    echo "run $((i + 1))/$runs $w seed=$s ${elapsed}s" >&2
  done
done

python3 - "$out" <<'EOF' || status=1
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
by = {}
for r in rows:
    for name, m in r["result"]["metrics"].items():
        by.setdefault((name, m["unit"]), {}).setdefault(r["workload"], []).append(m["value"])
print(f"{'metric':36} {'workload':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
for (name, unit), per in sorted(by.items()):
    for w, vals in per.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name + ' [' + unit + ']':36} {w:12} {len(vals):3d} {med:12.5g} "
              f"{q1:12.5g} {q3:12.5g} {spread:8.1%}")
attempted = sum(r["result"]["attempted"] for r in rows)
failed = sum(r["result"]["failed"] for r in rows)
print(f"{len(rows)} runs, {attempted} ops attempted, {failed} failed, "
      f"{len(bad)} runs with failed checks")
sys.exit(1 if bad else 0)
EOF
exit "$status"
