#!/usr/bin/env python3
"""Benchmark ``slicemon`` end to end, or layer by layer with ``--trace 1``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload iterator-warm --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` into a scratch directory
under ``perfbench/.work`` and removed afterwards.  With ``--trace 0`` the run
times ``slicemon monitor`` and ``slicemon slice`` as child processes and the
library loop in-process, on one CPU and rescaled by a reference kernel
(``reference.py``); with ``--trace 1`` it runs the same pipelines
in-process with spans around the calls into each module.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  Metric names, units and workloads
are those of ``BENCHMARK.json`` at the repository root; README.md next to
this file explains each of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from endtoend import Cli, Tally, measure  # noqa: E402
from workloads import GENERATORS, Workload, library_workloads, make_workload, render_trace  # noqa: E402

UNITS = {
    "setup_s": "s",
    "monitor_ev_per_s": "1/s",
    "first_report_s": "s",
    "peak_rss_mb": "MB",
    "slice_ev_per_s": "1/s",
    "event_latency_p50_us": "us",
    "event_latency_p99_us": "us",
}


def write_inputs(work: Workload, work_dir: str) -> dict[str, str]:
    """Write the workload's spec and traces into ``work_dir``; return their paths."""
    paths = {
        "spec": os.path.join(work_dir, "property.spec"),
        "monitor": os.path.join(work_dir, "monitor.trace"),
        "slice": os.path.join(work_dir, "slice.trace"),
    }
    for key, text in (
        ("spec", work.spec_text),
        ("monitor", render_trace(work.monitor_trace)),
        ("slice", render_trace(work.slice_trace)),
    ):
        with open(paths[key], "w", encoding="utf-8") as handle:
            handle.write(text)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slicemon", "cli.py")):
        print("error: no slicemon sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for this process, the launcher and every child, so that the
    # reference kernel runs on the CPU whose speed it measures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM, unwind as on an exception: stop the launcher, delete the inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=os.path.join(HERE, ".work"))
    tally = Tally()
    try:
        if args.trace:
            from traced import traced_run

            work = make_workload(args.workload, args.seed)
            metrics = traced_run(work, write_inputs(work, work_dir), args.seconds, tally)
        else:
            with Cli(SRC, work_dir) as cli:  # started before the inputs exist: see Cli
                library = library_workloads(args.workload, args.seed)
                work = library[0]
                values = measure(cli, work, library, write_inputs(work, work_dir), args.seconds, tally)
            print("%d rounds; library loop: %d timed events; reference kernel: median %.2f ms" % (
                values.pop("rounds"), values.pop("latency_events"), values.pop("kernel_ms")), file=sys.stderr)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for note in tally.notes[:10]:
        print("FAILED: %s" % note, file=sys.stderr)
    print(
        "failed_ratio: %d/%d = %.4f" % (tally.failed, tally.attempted, tally.failed / max(tally.attempted, 1)),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
