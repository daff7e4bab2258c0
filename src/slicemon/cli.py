"""Command line front end.

Subcommands: ``slice`` (dump slices of a trace), ``monitor`` (print verdict
reports for a property over a trace), ``selfcheck`` (randomized differential
checking).  The benchmark is ``perfbench/``, outside the package.

``slice`` and ``monitor`` stream their trace (a file, or stdin for ``-``):
each line is parsed and fed as it is read, through
:func:`slicemon.events.iter_trace`, and no list of events is kept.
``monitor`` writes each event's report lines with one write and flushes
them, so a reader sees a report before the input ends.  A malformed line,
or an event outside the property's alphabet, exits 1 after the reports of
the lines before it; the property file is read whole first.

Exit codes: 0 success / nothing triggered; 1 malformed or unreadable input
(trace, property file, pattern, alphabet mismatch); 2 a usage error; 3 at
least one report triggered; 4 selfcheck mismatch; 70 an internal fault,
with its traceback on standard error; 141 the reader closed standard output.

Each subcommand imports the modules it runs when it starts, not when this
module loads: ``monitor`` loads neither the slicer nor the selfcheck, and
:mod:`slicemon.patterns` only for a ``pattern:`` line; ``slice`` loads no
property-file parser.  A run spends much of its time starting up, and
every module it imports is compiled again where no bytecode is cached.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from typing import Iterator, TextIO

from .bindings import BindingFormatError, ParamInstance
from .events import ParamMismatch, ParseError, UnknownEvent, iter_trace


class InputFileError(Exception):
    """A ``--trace`` or ``--spec`` file is missing, unreadable or a directory."""


#: Malformed or unreadable input, reported with exit code 1.  Any other
#: exception is a fault of the program: its traceback goes to stderr and the
#: exit code is 70, so it is never reported as bad input.
INPUT_ERRORS = (
    BindingFormatError,
    ParseError,  # also a malformed property file or ``pattern:`` line
    UnknownEvent,
    ParamMismatch,
    UnicodeDecodeError,  # a trace or property file that is not UTF-8
    InputFileError,
)


@contextlib.contextmanager
def _open_input(path: str) -> Iterator[TextIO]:
    """A ``--trace`` or ``--spec`` file, or stdin for ``-``, open for reading.

    Both are strict UTF-8, whatever the locale, with Python's text-file line
    endings: the rule :func:`iter_trace` applies to strings too.
    """
    if path == "-":
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        try:
            yield stdin
        finally:
            stdin.detach()  # leave sys.stdin's buffer open
        return
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputFileError("%s: %s" % (path, exc.strerror or exc)) from exc
    with handle:
        yield handle


def cmd_slice(args: argparse.Namespace) -> int:
    from .slicer import SliceTable

    table = SliceTable()
    with _open_input(args.trace) as lines:
        table.feed_all(iter_trace(lines))
    if args.instance == "all":
        for encoding, words in table.rows():
            print("%s\t%s" % (encoding, " ".join(words)))
    else:
        binding = ParamInstance.parse(args.instance)
        print(" ".join(table.lookup(binding)))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    from .parametric import BaselineMonitor, IndexedMonitor
    from .specfile import parse_property_spec

    with _open_input(args.spec) as handle:
        spec = parse_property_spec(handle.read())
    engine_cls = BaselineMonitor if args.algo == "b" else IndexedMonitor
    engine = engine_cls(
        spec.machine,
        trigger=spec.trigger,
        report_every=args.report_every,
    )
    write, flush = sys.stdout.write, sys.stdout.flush
    triggered = False
    with _open_input(args.trace) as lines:
        for event in iter_trace(lines, spec.check_event):
            reports = engine.feed(event)
            if reports:
                # One write per event, flushed, so the reader sees each
                # report before the input ends.
                write("".join(report.render() + "\n" for report in reports))
                flush()
                triggered = True
    return 3 if triggered else 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .parametric import IndexedMonitor
    from .selfcheck import NoSnapshotSliceTable, SkipJoinPhaseMonitor, run_selfcheck
    from .slicer import SliceTable

    result = run_selfcheck(
        count=args.counts,
        seed=args.seed,
        indexed_class=SkipJoinPhaseMonitor if args.skip_join_phase else IndexedMonitor,
        table_class=NoSnapshotSliceTable if args.unsafe_no_snapshot else SliceTable,
    )
    if result.passed:
        for line in result.summary_lines():
            print(line)
        return 0
    print("MISMATCH after %d traces (seed %d)" % (result.traces, args.seed))
    print(result.failure.render())
    return 4


def count_value(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % count)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicemon",
        description="Slice and monitor parameter-carrying event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_slice = sub.add_parser("slice", help="write slices of a trace to stdout")
    p_slice.add_argument("--trace", required=True, help="trace file, or - for stdin")
    p_slice.add_argument(
        "--instance", default="all",
        help="binding to slice for, e.g. 'a=a1,b=b1'; '' is the empty binding; "
        "'all' lists every table row (default)",
    )
    p_slice.set_defaults(func=cmd_slice)

    p_mon = sub.add_parser("monitor", help="print verdict reports for a property")
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
    p_mon.set_defaults(func=cmd_monitor)

    p_check = sub.add_parser("selfcheck", help="differential checks on random traces")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--counts", type=count_value, default=1000, help="number of random traces"
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

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone (``| head``).  Send what is still buffered to
        # devnull so that the flush at exit stays quiet, and exit as SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 70  # EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
