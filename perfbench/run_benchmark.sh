#!/usr/bin/env bash
# Run every workload of BENCHMARK.json in its own process, untraced and then
# traced, print every metric as "workload metric value unit", and write one
# combined JSON (with the machine stamp) to DIR/perfbench-seed<S>.json.
# Exits non-zero if any repeat failed its checks.
#
#   perfbench/run_benchmark.sh [--seed S] [--out DIR]
set -euo pipefail

cd "$(dirname "$0")/.."
seed=1
out=.bench_build/results
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed S] [--out DIR]" >&2; exit 2 ;;
  esac
done
mkdir -p "$out" .bench_build
logs=$(mktemp -d .bench_build/run_benchmark.XXXXXX)
trap 'rm -rf "$logs"' EXIT

read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

status=0
for w in $workloads; do
  for trace in 0 1; do
    if ! python3 perfbench/run.py --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" \
        > "$logs/$w.$trace.log" 2> "$logs/$w.$trace.err"; then
      echo "run_benchmark: $w --trace $trace exited non-zero" >&2
      cat "$logs/$w.$trace.err" >&2
      status=1
    fi
  done
done

python3 - "$logs" "$out/perfbench-seed$seed.json" "$seed" "$workloads" <<'EOF' || status=1
import json, sys
logs, path, seed, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4].split()
report = {"seed": seed, "machine": None, "workloads": {}}
ok = True
for w in workloads:
    entry = report["workloads"][w] = {}
    for trace in ("0", "1"):
        lines = open(f"{logs}/{w}.{trace}.log").read().splitlines()
        for line in lines:
            if line.startswith("# machine: "):
                report["machine"] = json.loads(line[len("# machine: "):])
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{w} trace {trace}: no result", file=sys.stderr)
            ok = False
            continue
        entry["untraced" if trace == "0" else "traced"] = result
        attempted, failed = result["attempted"], result["failed"]
        print(f"{w:14s} error_rate{'' if trace == '0' else '.traced':8s} "
              f"{failed / attempted:<14.6g} ratio")
        for name, m in result["metrics"].items():
            print(f"{w:14s} {name:26s} {m['value']:<14.6g} {m['unit']}")
        ok = ok and result["correct"] and failed == 0
json.dump(report, open(path, "w"), indent=1, sort_keys=True)
print(f"wrote {path}")
sys.exit(0 if ok else 1)
EOF
exit "$status"
