"""Traced run: the ``monitor`` and ``slice`` pipelines in-process, with spans.

The two pipelines repeat what ``slicemon.cli`` does for those subcommands,
calling the same public functions, so the benchmark can put a span around
each call into a module: ``specfile``, ``patterns``, ``events``,
``machines``, ``parametric``, ``slicer`` and the CLI's own rendering.  Spans
are aggregated in memory, per path of span names, into a count and a total;
self time is a span's total minus its children's totals.  The span table is
written to ``perfbench/.work/spans-<workload>.json`` and to stderr at
the end of the run.

Each round runs both pipelines untraced and then traced; tracing overhead is
the traced wall time over the untraced one.  Counts come from the traced
pipelines: the ``Machine`` proxy counts steps and the engines' ``RunStats``
count the rest.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

from endtoend import Tally
from workloads import Workload

clock = time.perf_counter

#: Per-layer metric -> unit, in ``BENCHMARK.json`` order.
UNITS = {
    "specfile.parse_s": "s",
    "events.parse_s": "s",
    "machines.check_event_s": "s",
    "parametric.feed_s": "s",
    "parametric.index_s": "s",
    "machines.step_s": "s",
    "machines.steps": "count",
    "parametric.compat_checks": "count",
    "parametric.defines": "count",
    "parametric.join_yield": "ratio",
    "parametric.peak_instances": "count",
    "cli.render_s": "s",
    "cli.reports": "count",
    "cli.monitor_s": "s",
    "slicer.feed_s": "s",
    "slicer.dump_s": "s",
    "slicer.table_size": "count",
    "cli.slice_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Aggregated spans: per path of span names, a count and a total time."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.path = ""

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        outer = self.path
        path = self.path = outer + "/" + name if outer else name
        started = clock()
        try:
            return fn(*args)
        finally:
            self.add(path, 1, clock() - started)
            self.path = outer

    def add(self, path: str, count: int, total: float) -> None:
        entry = self.spans.setdefault(path, [0, 0.0])
        entry[0] += count
        entry[1] += total

    def total(self, path: str) -> float:
        return self.spans.get(path, (0, 0.0))[1]

    def table(self) -> list[dict]:
        """Rows of name, parent, count, total and self time, in path order."""
        rows = []
        for path, (count, total) in sorted(self.spans.items()):
            parent, _, name = path.rpartition("/")
            children = sum(
                t for p, (_, t) in self.spans.items() if p.rpartition("/")[0] == path
            )
            rows.append({
                "path": path, "name": name, "parent": parent or None,
                "count": count, "total_s": total, "self_s": total - children,
            })
        return rows


def timed_machine(machine, tracer: Tracer, path: str):
    """A ``Machine`` that delegates to ``machine`` and times every ``step``.

    Steps are summed inline and added to the tracer as one span at the end
    (``flush``): a span object per step would cost more than the step.
    """
    from slicemon import Machine

    class TimedMachine(Machine):
        steps = 0
        step_s = 0.0

        def initial(self):
            return machine.initial()

        def step(self, state, name):
            started = clock()
            state = machine.step(state, name)
            self.step_s += clock() - started
            self.steps += 1
            return state

        def output(self, state):
            return machine.output(state)

        def flush(self) -> None:
            tracer.add(path, self.steps, self.step_s)

    return TimedMachine()


@contextlib.contextmanager
def traced_compile_regex(tracer: Tracer):
    """Put a span around ``specfile``'s calls into ``patterns.compile_regex``."""
    from slicemon import specfile

    original = specfile.compile_regex
    specfile.compile_regex = lambda *args: tracer.call("patterns.compile_regex", original, *args)
    try:
        yield
    finally:
        specfile.compile_regex = original


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def monitor_pipeline(paths: dict[str, str]) -> list[str]:
    """``slicemon monitor --algo c``, untraced; returns the report lines."""
    from slicemon import IndexedMonitor, parse_property_spec, parse_trace

    spec = parse_property_spec(read(paths["spec"]))
    engine = IndexedMonitor(spec.machine, trigger=spec.trigger)
    lines = []
    for event in parse_trace(read(paths["monitor"])):
        spec.check_event(event)
        for report in engine.feed(event):
            lines.append(report.render())
    return lines


def slice_pipeline(paths: dict[str, str]) -> list[str]:
    """``slicemon slice --instance all``, untraced; returns the rows."""
    from slicemon import SliceTable, parse_trace

    table = SliceTable()
    table.feed_all(parse_trace(read(paths["slice"])))
    return dump(table)


def dump(table) -> list[str]:
    return ["%s\t%s" % (b.encode(), " ".join(table.slice_of(b))) for b in table.instances()]


def traced_monitor(paths: dict[str, str], tracer: Tracer) -> tuple[list[str], dict]:
    """The monitor pipeline with spans; returns report lines and counts."""
    from slicemon import IndexedMonitor, parse_property_spec, parse_trace

    call = tracer.call
    with traced_compile_regex(tracer):
        spec = call("specfile.parse", parse_property_spec, read(paths["spec"]))
    events = call("events.parse", parse_trace, read(paths["monitor"]))
    machine = timed_machine(spec.machine, tracer, tracer.path + "/parametric.feed/machines.step")
    engine = IndexedMonitor(machine, trigger=spec.trigger)
    lines = []
    for event in events:
        call("machines.check_event", spec.check_event, event)
        for report in call("parametric.feed", engine.feed, event):
            lines.append(call("cli.render", report.render))
    machine.flush()
    stats = engine.stats
    return lines, {
        "machines.steps": machine.steps,
        "parametric.compat_checks": stats.compat_checks,
        "parametric.defines": stats.defines,
        "parametric.join_yield": stats.defines / stats.compat_checks if stats.compat_checks else 0.0,
        "parametric.peak_instances": stats.peak_instances,
        "cli.reports": len(lines),
    }


def traced_slice(paths: dict[str, str], tracer: Tracer) -> tuple[list[str], dict]:
    """The slice pipeline with spans; returns the rows and the table size."""
    from slicemon import SliceTable, parse_trace

    call = tracer.call
    events = call("events.parse", parse_trace, read(paths["slice"]))
    table = SliceTable()
    for event in events:
        call("slicer.feed", table.feed, event)
    rows = call("slicer.dump", dump, table)
    return rows, {"slicer.table_size": len(table)}


#: Per-layer metric -> span path whose total it reports.
SPAN_METRICS = {
    "specfile.parse_s": "cli.monitor/specfile.parse",
    "events.parse_s": "cli.monitor/events.parse",
    "machines.check_event_s": "cli.monitor/machines.check_event",
    "parametric.feed_s": "cli.monitor/parametric.feed",
    "machines.step_s": "cli.monitor/parametric.feed/machines.step",
    "cli.render_s": "cli.monitor/cli.render",
    "cli.monitor_s": "cli.monitor",
    "slicer.feed_s": "cli.slice/slicer.feed",
    "slicer.dump_s": "cli.slice/slicer.dump",
    "cli.slice_s": "cli.slice",
}


def traced_run(
    work: Workload, paths: dict[str, str], seconds: float, tally: Tally, min_rounds: int = 3
) -> dict:
    """Every per-layer metric, as medians over rounds; writes the span table."""
    want_reports, want_rows = work.reports, work.slice_rows
    per_round: dict[str, list[float]] = {
        name: [] for name in [*SPAN_METRICS, "parametric.index_s", "trace.overhead_ratio"]
    }
    total = Tracer()
    counts: dict = {}
    deadline = clock() + seconds
    rounds = 0
    while rounds < min_rounds or clock() < deadline:
        rounds += 1
        started = clock()
        tally.check(monitor_pipeline(paths) == want_reports, "untraced monitor pipeline")
        tally.check(slice_pipeline(paths) == want_rows, "untraced slice pipeline")
        untraced = clock() - started

        tracer = Tracer()
        started = clock()
        lines, counts = tracer.call("cli.monitor", traced_monitor, paths, tracer)
        tally.check(lines == want_reports, "traced monitor pipeline")
        rows, slice_counts = tracer.call("cli.slice", traced_slice, paths, tracer)
        tally.check(rows == want_rows, "traced slice pipeline")
        traced = clock() - started
        counts.update(slice_counts)

        for name, path in SPAN_METRICS.items():
            per_round[name].append(tracer.total(path))
        per_round["parametric.index_s"].append(
            tracer.total(SPAN_METRICS["parametric.feed_s"]) - tracer.total(SPAN_METRICS["machines.step_s"])
        )
        per_round["trace.overhead_ratio"].append(traced / untraced)
        for path, (count, span_total) in tracer.spans.items():
            total.add(path, count, span_total)

    values = {name: statistics.median(v) for name, v in per_round.items()}
    values.update(counts)
    write_spans(work, total, rounds)
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def write_spans(work: Workload, tracer: Tracer, rounds: int) -> None:
    """Write the span table, summed over all traced rounds, to a file and stderr."""
    rows = tracer.table()
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s.json" % work.name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": work.name, "rounds": rounds, "spans": rows}, handle, indent=1)
    print("%-52s %10s %10s %10s" % ("span (summed over %d rounds)" % rounds, "count", "total_s", "self_s"), file=sys.stderr)
    for row in rows:
        print("%-52s %10d %10.4f %10.4f" % (row["path"], row["count"], row["total_s"], row["self_s"]), file=sys.stderr)
