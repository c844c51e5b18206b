#!/usr/bin/env python3
"""Build the benchmark once per checkout, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds `perfbench` (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, and passes the
arguments through.  The workload's last stdout line is its JSON result.
Build output goes to stderr.  A failed build exits non-zero without a
result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def target_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(build_dir: Path) -> bool:
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = target_dir() / "perfbench"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(target_dir() / "perfbench-work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
