#!/usr/bin/env sh
# CI driver for the test lanes (mirrors the CMakePresets test presets, for
# environments whose cmake predates presets):
#
#   scripts/ci.sh unit      # fast lane: ctest -L unit (seconds) — includes
#                           # the 2-worker sweep_smoke and example smokes
#   scripts/ci.sh full      # tier-1: everything incl. the bench gate
#   scripts/ci.sh nightly   # tier-1 + the 1000-schedule sim_fuzz lane
#   scripts/ci.sh sweep     # the sweep lane alone (-L sweep): worker
#                           # fan-out, kill-and-resume, byte-determinism
#   scripts/ci.sh figures   # figure-reproduction smoke (-L figures): a
#                           # reduced-grid `sweep_run --preset` run per
#                           # figure class, 2 workers, series tables
#   scripts/ci.sh obs       # observability lane (-L obs): tracer
#                           # transparency (bit-identical trajectories
#                           # with tracing on), trace JSON shape, registry
#                           # hostile-name round-trips
#   scripts/ci.sh serving   # serving-workload lane (-L serving): the
#                           # reduced `--preset serving` grid (closed-loop
#                           # clients, Zipf skew, latency histograms)
#                           # through the 2-worker sharded path
#   scripts/ci.sh scale     # 100k-node bench_scale smoke with the
#                           # double-run bit-identity check (the 1M proof
#                           # runs in the nightly lane)
#   scripts/ci.sh asan      # unit lane under ASan+UBSan in a separate
#                           # build-asan tree (never mixes with Release
#                           # objects or the bench gate)
#   scripts/ci.sh loc       # the line metric ROADMAP tracks: lines of
#                           # *.cpp/*.hpp under src/, bench/ and tools/
#                           # that are neither blank nor start with //,
#                           # per directory and in total (no build)
#   scripts/ci.sh perfbench # builds the repository benchmark (perfbench/)
#                           # against this tree and runs two workloads
#                           # for 5 s each: figure-fig4 (the sweep
#                           # shard/merge path) and scale-20k (the >2000-
#                           # node check path: event-queue integrity and
#                           # the bus in-flight check on a ~250k-event
#                           # queue); fails unless each result line
#                           # reports "correct": true and "failed": 0
#
# Re-baseline bookkeeping: `cmake --build build --target archive_baseline`
# copies bench/BENCH_baseline.json into bench/history/ (regen_goldens does
# it automatically); once >= 3 history files exist the configure step run
# here switches bench_compare_gate to --trend median-of-history gating at
# a 15% threshold.
#
# Warnings are errors in every lane (SOC_WERROR=ON is the default).
set -eu

lane="${1:-full}"
root="$(cd "$(dirname "$0")/.." && pwd)"

# The asan lane configures its own tree; sanitized objects must never mix
# with the Release tree whose binaries write BENCH_*.json.
if [ "$lane" = "asan" ]; then
  cmake -B "$root/build-asan" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DSOC_SANITIZE=address,undefined
  cmake --build "$root/build-asan" -j
  cd "$root/build-asan"
  exec ctest -L unit --output-on-failure -j8
fi

if [ "$lane" = "loc" ]; then
  cd "$root"
  total=0
  for dir in src bench tools; do
    n=$(find "$dir" -name '*.cpp' -o -name '*.hpp' | sort | xargs cat |
        grep -c -v -e '^[[:space:]]*$' -e '^[[:space:]]*//')
    printf '%-6s %6d\n' "$dir" "$n"
    total=$((total + n))
  done
  printf '%-6s %6d\n' total "$total"
  exit 0
fi

# The perfbench lane builds through the benchmark's own runner (into
# .bench_build/): nothing in the other lanes compiles perfbench.cpp, so an
# src/ API change that breaks it would otherwise go unseen.
if [ "$lane" = "perfbench" ]; then
  cd "$root"
  mkdir -p .bench_build
  for workload in figure-fig4 scale-20k; do
    out=".bench_build/ci-perfbench-$workload.out"
    status=0
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
        --trace 0 > "$out" || status=$?
    cat "$out"
    [ "$status" -eq 0 ] || exit "$status"
    python3 - "$out" "$workload" <<'EOF'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
result = json.loads(lines[-1]) if lines else {}
ok = result.get("correct") is True and result.get("failed") == 0
print("perfbench lane:", sys.argv[2], "OK" if ok else "FAILED", file=sys.stderr)
sys.exit(0 if ok else 1)
EOF
  done
  exit 0
fi

cmake -B "$root/build" -S "$root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$root/build" -j

cd "$root/build"
case "$lane" in
  unit)
    ctest -L unit --output-on-failure -j8
    ;;
  sweep)
    ctest -L sweep --output-on-failure -j8
    ;;
  figures)
    ctest -L figures --output-on-failure -j8
    ;;
  serving)
    ctest -L serving --output-on-failure -j8
    ;;
  obs)
    ctest -L obs --output-on-failure -j8
    ;;
  scale)
    # Serialized on purpose: the scale run is itself the measurement.
    ctest -C scale -L scale --output-on-failure
    ;;
  full)
    ctest --output-on-failure -j8
    ;;
  nightly)
    # -C nightly runs every default-lane test plus the CONFIGURATIONS
    # nightly entries (the large sim_fuzz budget).
    ctest -C nightly --output-on-failure -j8
    ;;
  *)
    echo "usage: scripts/ci.sh [unit|sweep|figures|obs|serving|scale|full|nightly|asan|loc|perfbench]" >&2
    exit 2
    ;;
esac
