"""Command line front end.

Subcommands: ``slice`` (dump slices of a trace), ``monitor`` (stream verdict
reports for a property over a trace), ``selfcheck`` (randomized differential
checking), ``bench`` (CSV throughput numbers).

Exit codes: 0 success / nothing triggered; 1 malformed or unreadable input
(trace, property file, pattern, alphabet mismatch); 2 binding domain exceeded
the enumeration cap; 3 at least one report triggered; 4 selfcheck mismatch.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

from .bindings import (
    DEFAULT_DOMAIN_CAP,
    BindingFormatError,
    CapExceeded,
    ParamInstance,
)
from .events import ParamMismatch, ParseError, UnknownEvent, parse_trace
from .parametric import BaselineMonitor, IndexedMonitor
from .patterns import PatternSyntaxError, UnknownEventInPattern
from .selfcheck import run_selfcheck
from .slicer import SliceTable
from .specfile import SpecFormatError, parse_property_spec
from .workloads import (
    adversarial_machine,
    adversarial_workload,
    iterator_machine,
    iterator_workload,
)


class InputFileError(Exception):
    """A ``--trace`` or ``--spec`` file is missing, unreadable or a directory."""


#: Malformed or unreadable input, reported with exit code 1.  Anything else
#: propagates with its traceback, so a fault of the program is never reported
#: as bad input.
INPUT_ERRORS = (
    BindingFormatError,
    ParseError,
    SpecFormatError,
    PatternSyntaxError,
    UnknownEventInPattern,
    UnknownEvent,
    ParamMismatch,
    UnicodeDecodeError,  # a trace or property file that is not UTF-8
    InputFileError,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFileError("%s: %s" % (path, exc.strerror or exc)) from exc


def cmd_slice(args: argparse.Namespace) -> int:
    trace = parse_trace(_read_text(args.trace))
    table = SliceTable(cap=args.cap)
    table.feed_all(trace)
    if args.instance == "all":
        for binding in table.instances():
            print("%s\t%s" % (binding.encode(), " ".join(table.slice_of(binding))))
    else:
        binding = ParamInstance.parse(args.instance)
        print(" ".join(table.lookup(binding)))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    spec = parse_property_spec(_read_text(args.spec))
    trace = parse_trace(_read_text(args.trace))
    engine_cls = BaselineMonitor if args.algo == "b" else IndexedMonitor
    engine = engine_cls(
        spec.machine,
        trigger=spec.trigger,
        report_every=args.report_every,
        cap=args.cap,
    )
    triggered = False
    for event in trace:
        spec.check_event(event)
        for report in engine.feed(event):
            print(report.render())
            triggered = True
    return 3 if triggered else 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    result = run_selfcheck(
        count=args.counts,
        seed=args.seed,
        unsafe_no_snapshot=args.unsafe_no_snapshot,
        skip_join_phase=args.skip_join_phase,
    )
    if result.passed:
        for line in result.summary_lines():
            print(line)
        return 0
    print("MISMATCH after %d traces (seed %d)" % (result.traces, args.seed))
    print(result.failure.render())
    return 4


def cmd_bench(args: argparse.Namespace) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["workload", "trace_size", "algo", "events_per_second",
         "peak_instances", "monitor_steps"]
    )
    workloads = (
        ("iterator", iterator_workload, iterator_machine),
        ("adversarial", adversarial_workload, adversarial_machine),
    )
    for label, make_events, make_machine in workloads:
        for size in args.counts:
            events = make_events(size)
            for algo, engine_cls in (("b", BaselineMonitor), ("c", IndexedMonitor)):
                engine = engine_cls(make_machine(), cap=args.cap)
                started = time.perf_counter()
                engine.feed_all(events)
                elapsed = time.perf_counter() - started
                writer.writerow(
                    [
                        label,
                        size,
                        algo,
                        "%.0f" % (size / elapsed if elapsed else float("inf")),
                        engine.stats.peak_instances,
                        engine.stats.monitor_steps,
                    ]
                )
    return 0


def size_list(text: str) -> list[int]:
    return [int(chunk) for chunk in text.split(",") if chunk.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicemon",
        description="Slice and monitor parameter-carrying event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cap", type=int, default=DEFAULT_DOMAIN_CAP,
            help="max parameters per binding before lookups refuse (default %d)"
            % DEFAULT_DOMAIN_CAP,
        )

    p_slice = sub.add_parser("slice", help="write slices of a trace to stdout")
    p_slice.add_argument("--trace", required=True, help="trace file, or - for stdin")
    p_slice.add_argument(
        "--instance", default="all",
        help="binding to slice for, e.g. 'a=a1,b=b1'; '' is the empty binding; "
        "'all' lists every table row (default)",
    )
    add_common(p_slice)
    p_slice.set_defaults(func=cmd_slice)

    p_mon = sub.add_parser("monitor", help="stream verdict reports for a property")
    p_mon.add_argument("--spec", required=True, help="property file")
    p_mon.add_argument("--trace", required=True, help="trace file, or - for stdin")
    p_mon.add_argument(
        "--algo", choices=("b", "c"), default="c",
        help="engine: b = baseline full-scan, c = indexed (default)",
    )
    p_mon.add_argument(
        "--report-every", action="store_true",
        help="report on every trigger hit instead of deduplicating repeats",
    )
    add_common(p_mon)
    p_mon.set_defaults(func=cmd_monitor)

    p_check = sub.add_parser("selfcheck", help="differential checks on random traces")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--counts", type=int, default=1000, help="number of random traces"
    )
    p_check.add_argument(
        "--unsafe-no-snapshot", action="store_true",
        help="(debug) run the slicer without its snapshot discipline",
    )
    p_check.add_argument(
        "--skip-join-phase", action="store_true",
        help="(debug) run the indexed engine without its join step",
    )
    p_check.set_defaults(func=cmd_selfcheck)

    p_bench = sub.add_parser("bench", help="print throughput CSV to stdout")
    p_bench.add_argument(
        "--counts", type=size_list, default="1000",
        help="comma-separated workload sizes (default 1000)",
    )
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
