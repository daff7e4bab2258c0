#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/steadiness.py --workload unsafeiter-join --seeds 1-10
    python3 perfbench/steadiness.py --workload iterator-warm --seeds 1-3 --trace 1

For every metric it prints the median over the runs, the quartiles, and the
spread: the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``).  With ``--trace 0`` it also
prints each metric's bound from ``BENCHMARK.json`` and whether the spread is
within a third of it.  With ``--trace 1`` it prints each timed layer's share
of its pipeline (``cli.monitor_s`` or ``cli.slice_s``).  All run results go
to ``perfbench/.work/steadiness-<workload>-trace<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for chunk in text.split(","):
        low, _, high = chunk.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7 (default 1-10)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            print("seed %d: exit %d, no result" % (seed, done.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)

    out_dir = os.path.join(HERE, ".work")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "steadiness-%s-trace%d.json" % (args.workload, args.trace))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": args.seconds, "runs": runs}, handle, indent=1)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("%-26s %8s %12s %12s %12s %7s %s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound / share"))
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        if args.trace == 0:
            note = "%.2f %s" % (bounds[name], "ok" if spread < bounds[name] / 3 else "WIDE")
        elif name.endswith("_s") and name not in ("cli.monitor_s", "cli.slice_s"):
            root = "cli.slice_s" if name.startswith("slicer.") else "cli.monitor_s"
            note = "%.1f%% of %s" % (100 * median / statistics.median(
                run["metrics"][root]["value"] for run in runs), root)
        else:
            note = ""
        print("%-26s %8s %12.6g %12.6g %12.6g %7.4f %s" % (
            name, first["unit"], median, q1, q3, spread, note))
    print("failed/attempted: %d/%d" % (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
