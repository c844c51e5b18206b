#!/usr/bin/env python3
"""Run each workload once per seed, untraced, and report how far each
end-to-end metric spreads across the seeds: (q3 - q1) / median, with the
quartiles of statistics.quantiles(values, n=4), next to the metric's bound
in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workload W ...] [--out FILE]

Each run lasts BENCHMARK.json's run_seconds.  Exits non-zero if a run fails
or prints no result.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # The human-readable lines also give the unscaled CPU seconds and the
    # machine stamp.
    for line in lines:
        if line.startswith("repeat_s ") and " unscaled=" in line:
            values["unscaled_cpu_s"] = float(line.split(" unscaled=")[1])
        if line.startswith("# machine: "):
            values["machine"] = json.loads(line[len("# machine: "):])
    return values


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="at least 2")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", help="write values and spreads as JSON")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    report = {}
    machine = None
    for w in workloads:
        runs = []
        for seed in seeds:
            try:
                runs.append(run_once(w, seed, bench["run_seconds"]))
            except RuntimeError as e:
                print(f"spread: {e}", file=sys.stderr)
                return 1
        machine = runs[-1].get("machine", machine)
        report[w] = {}
        # unscaled_cpu_s has no bound: it shows what the scaling removes.
        for m in bench["end_to_end"] + [{"name": "unscaled_cpu_s",
                                          "bound": None}]:
            values = [r[m["name"]] for r in runs]
            s = spread(values)
            report[w][m["name"]] = {"median": statistics.median(values),
                                    "spread": round(s, 4), "values": values}
            print(f"{w:14s} {m['name']:24s} median {statistics.median(values):<12.6g}"
                  f" spread {s:6.3f}  bound {m['bound']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine, "seeds": list(seeds), "workloads": report},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
