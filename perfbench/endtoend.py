"""End-to-end measurements: the CLI as child processes, the library in-process.

The load is closed-loop with one client: each child gets its trace file as
stdin and reads it as fast as it can, and the next child starts only after
the previous one has exited.  Every run is checked against the workload's
expected output; a wrong exit code or a differing stdout counts as failed.
Timings are rescaled by the reference kernel run around them
(``reference.py``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from reference import kernel_s, rescale
from workloads import Workload, render_trace


@dataclass
class ProcessRun:
    """One finished child: wall time, first-line time, peak RSS, output.

    ``kernel_s`` holds the reference kernel's times just before and just
    after the child ran.
    """

    wall_s: float
    first_line_s: float | None
    peak_rss_mb: float
    exit_code: int
    kernel_s: tuple[float, float]
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    """Operations attempted and failed, with a note for each failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


class Cli:
    """Runs ``slicemon`` subcommands from a source tree as child processes.

    The children are spawned by ``launcher.py``, which this object starts at
    once: create it before the benchmark process allocates much, so that
    the children's peak RSS is their own (see the launcher's docstring).
    """

    def __init__(self, src_dir: str, work_dir: str):
        self.work_dir = work_dir
        self.argv0 = [sys.executable, "-m", "slicemon.cli"]
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src_dir),
        )

    def run(self, args: list[str], stdin_path: str | None) -> ProcessRun:
        out_path = os.path.join(self.work_dir, "stdout.txt")
        err_path = os.path.join(self.work_dir, "stderr.txt")
        request = {
            "argv": self.argv0 + args,
            "stdin": stdin_path,
            "stdout": out_path,
            "stderr": err_path,
            "cwd": self.work_dir,
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited with code %s" % self.launcher.wait())
        reply = json.loads(line)
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        return ProcessRun(
            wall_s=reply["wall_s"],
            first_line_s=reply["first_line_s"],
            peak_rss_mb=reply["maxrss_kb"] / 1024.0,  # ru_maxrss is in KiB on Linux
            exit_code=reply["exit_code"],
            kernel_s=tuple(reply["kernel_s"]),
            stdout=stdout,
            stderr=stderr,
        )

    def close(self) -> None:
        """Stop the launcher and wait until it has ended."""
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def __enter__(self) -> "Cli":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def expected_stdout(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def library_pass(spec, trace_text: str) -> tuple[list[str], list[float]]:
    """One pass of the README's library loop: ``check_event``, ``feed``, ``render``.

    Parses the trace (untimed) and feeds it to a fresh engine.  Returns the
    report lines and each event's latency in seconds, in trace order.
    """
    from slicemon import IndexedMonitor, parse_trace

    clock = time.perf_counter
    events = parse_trace(trace_text)
    engine = IndexedMonitor(spec.machine, trigger=spec.trigger)
    check_event, feed = spec.check_event, engine.feed
    lines, latencies = [], []
    for event in events:
        started = clock()
        check_event(event)
        for report in feed(event):
            lines.append(report.render())
        latencies.append(clock() - started)
    return lines, latencies


#: ``setup_s`` spawns per round: single spawns vary by tens of percent.
SETUP_SPAWNS = 2

#: Fewest library-loop events per round.  Fresh-bindings splits its events
#: over six short traces; passing over all six every round would leave few
#: rounds for the CLI metrics, and one a round too few passes per event.
ROUND_EVENTS = 1500

#: Fewest passes over each library trace: every event's latency is a median of them.
MIN_PASSES = 3


def measure(
    cli: Cli, work: Workload, library: list[Workload], paths: dict[str, str], seconds: float,
    tally: Tally, min_passes: int = MIN_PASSES,
) -> dict[str, float]:
    """Every end-to-end metric, as medians over rounds that interleave all phases.

    A round is ``SETUP_SPAWNS`` empty-trace ``monitor`` spawns, one
    ``monitor`` run, one ``slice`` run and library-loop passes over the
    next traces of ``library`` in turn, until they timed ``ROUND_EVENTS``
    events.  Interleaving spreads a slow spell of the machine over every
    metric instead of one.  Rounds repeat until ``seconds`` have passed and
    every library trace had ``min_passes`` passes.  Every timing is rescaled by the reference kernel run around it
    (see ``reference.py``).

    An event's latency is the median over the passes of its latency at its
    position in its trace.  Passes replay the same events on fresh engines,
    so that median keeps the cost of the event and drops the timer ticks and
    other interruptions that hit one pass and not the next: at the p99 of
    iterator-warm, those alone moved the pooled percentile by tens of
    percent between runs.  The percentiles are taken over all events of
    ``library``.
    """
    from slicemon import parse_property_spec

    setup_args = ["monitor", "--spec", paths["spec"], "--trace", "-"]
    monitor_args = ["monitor", "--algo", "c", "--spec", paths["spec"], "--trace", "-"]
    slice_args = ["slice", "--instance", "all", "--trace", paths["slice"]]
    want_reports = expected_stdout(work.reports)
    want_rows = expected_stdout(work.slice_rows)
    spec = parse_property_spec(work.spec_text)
    traces = [render_trace(lib.monitor_trace) for lib in library]

    cli.run(setup_args, None)  # warm-up: bytecode cache and page cache
    setups, rates, firsts, rss, slice_rates, kernels = [], [], [], [], [], []
    passes: list[list[list[float]]] = [[] for _ in library]  # per trace, per pass
    turns = list(zip(library, traces, passes))
    deadline = time.perf_counter() + seconds
    rounds = turn = 0
    while turn < min_passes * len(turns) or time.perf_counter() < deadline:
        rounds += 1
        for _ in range(SETUP_SPAWNS):
            run = cli.run(setup_args, None)
            tally.check(run.exit_code == 0 and not run.stdout, _note("setup", run, b""))
            setups.append(rescale(run.wall_s, *run.kernel_s))
            kernels += run.kernel_s

        run = cli.run(monitor_args, paths["monitor"])
        tally.check(
            run.exit_code == work.monitor_exit and run.stdout == want_reports,
            _note("monitor", run, want_reports),
        )
        rates.append(len(work.monitor_trace) / rescale(run.wall_s, *run.kernel_s))
        first = run.first_line_s if run.first_line_s is not None else run.wall_s
        firsts.append(rescale(first, *run.kernel_s))
        rss.append(run.peak_rss_mb)
        kernels += run.kernel_s

        run = cli.run(slice_args, None)
        tally.check(run.exit_code == 0 and run.stdout == want_rows, _note("slice", run, want_rows))
        slice_rates.append(len(work.slice_trace) / rescale(run.wall_s, *run.kernel_s))
        kernels += run.kernel_s

        timed = 0
        while timed < ROUND_EVENTS:
            lib, trace_text, runs = turns[turn % len(turns)]
            turn += 1
            before = kernel_s()
            lines, latencies = library_pass(spec, trace_text)
            after = kernel_s()
            kernels += (before, after)
            runs.append([rescale(latency, before, after) for latency in latencies])
            timed += len(latencies)
            tally.check(lines == lib.reports, "library loop: %d report lines, %d expected" % (
                len(lines), len(lib.reports)))

    latencies = [statistics.median(at) for runs in passes for at in zip(*runs)]
    cuts = statistics.quantiles(latencies, n=100)
    return {
        "setup_s": statistics.median(setups),
        "monitor_ev_per_s": statistics.median(rates),
        "first_report_s": statistics.median(firsts),
        "peak_rss_mb": statistics.median(rss),
        "slice_ev_per_s": statistics.median(slice_rates),
        "event_latency_p50_us": cuts[49] * 1e6,
        "event_latency_p99_us": cuts[98] * 1e6,
        "latency_events": len(latencies),
        "rounds": rounds,
        "kernel_ms": statistics.median(kernels) * 1e3,
    }


def _note(what: str, run: ProcessRun, expected: bytes) -> str:
    """One line saying how a run went wrong, for the failure list."""
    stdout = "as expected" if run.stdout == expected else "%d bytes, %d expected" % (
        len(run.stdout), len(expected))
    stderr = run.stderr.decode(errors="replace").strip().splitlines()
    return "%s: exit %d, stdout %s%s" % (what, run.exit_code, stdout, "; " + stderr[-1] if stderr else "")
