"""Command line front end.

Subcommands: ``slice`` (dump slices of a trace), ``monitor`` (print verdict
reports for a property over a trace), ``selfcheck`` (randomized differential
checking).  The benchmark is ``perfbench/``, outside the package.

``slice`` and ``monitor`` stream their trace (a file, or stdin for ``-``):
each line is parsed and fed as it is read, through
:func:`slicemon.events.iter_trace`, and no list of events is kept.  Trace
and property files are UTF-8, a leading byte-order mark is skipped, and
their lines follow the one rule of :mod:`slicemon.events`.  ``monitor``
writes each event's report lines with one write and flushes them, so a
reader sees a report before the input ends.  A malformed line, or an
event outside the property's alphabet, exits 1 after the reports of the
lines before it; the property file is read whole first, so ``--spec`` and
``--trace`` cannot both be ``-``.  ``slice`` writes its table
:data:`ROWS_PER_WRITE` rows at a time.

Exit codes: 0 success / nothing triggered; 1 malformed or unreadable input,
which is exactly an :class:`~slicemon.bindings.InputError` (trace, property
file, pattern, binding, alphabet mismatch, a file that is missing or not
UTF-8, ``-`` with stdin closed), reported as one ``error:`` line; 2 a usage
error; 3 at least one report triggered; 4 selfcheck mismatch; 70 an
internal fault, with its traceback on standard error; 141 the reader
closed standard output.

Each subcommand imports the modules it runs when it starts, not when this
module loads: ``monitor`` loads neither the slicer nor the selfcheck, and
:mod:`slicemon.patterns` only for a ``pattern:`` line; ``slice`` loads no
property-file parser.  A run spends much of its time starting up, and
every module it imports is compiled again where no bytecode is cached.

The process entry point is :func:`run`, for ``python -m slicemon.cli`` and
the ``slicemon`` script; :func:`main` is the in-process API and returns
the exit code.  :func:`run` flushes stdout and stderr once :func:`main`
returns and ends the process with :func:`os._exit`, skipping the
interpreter's teardown of every loaded module and object, which costs
about 10 ms a run.  So the ``atexit`` handlers that other code registered
do not run.  Under a tracer or profiler (``python -m cProfile``,
coverage, pdb) the process exits normally, so that they write their
output.  A usage error or ``--help`` exits from :mod:`argparse` as usual.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from itertools import islice
from typing import Iterator, NoReturn, TextIO

from .bindings import InputError, ParamInstance
from .events import iter_trace

#: Table rows that ``slice`` joins into one write, so that an unbuffered
#: stdout is not written once per row, and the joined text stays bounded.
ROWS_PER_WRITE = 256


@contextlib.contextmanager
def _open_input(path: str) -> Iterator[TextIO]:
    """A ``--trace`` or ``--spec`` file, or stdin for ``-``, open for reading.

    Both are strict UTF-8, whatever the locale, less a leading byte-order
    mark, with Python's text-file line endings: the rule :func:`iter_trace`
    applies to strings too.  A missing or unreadable file, closed stdin and
    bytes that are not UTF-8 raise :class:`InputError`.
    """
    if path == "-":
        if sys.stdin is None:  # fd 0 was closed when the process started
            raise InputError("-: standard input is closed")
        stream = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
        close = stream.detach  # leave sys.stdin's buffer open
    else:
        try:
            stream = open(path, "r", encoding="utf-8-sig")
        except OSError as exc:
            raise InputError("%s: %s" % (path, exc.strerror or exc)) from exc
        close = stream.close
    try:
        yield stream
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from exc
    finally:
        close()


def cmd_slice(args: argparse.Namespace) -> int:
    from .slicer import SliceTable

    table = SliceTable()
    with _open_input(args.trace) as lines:
        table.feed_all(iter_trace(lines))
    if args.instance == "all":
        rows = ("%s\t%s\n" % (encoding, " ".join(words)) for encoding, words in table.rows())
        # Every row holds at least its tab and newline, so "" is the end.
        while block := "".join(islice(rows, ROWS_PER_WRITE)):
            sys.stdout.write(block)
    else:
        binding = ParamInstance.parse(args.instance)
        print(" ".join(table.lookup(binding)))
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    if args.spec == args.trace == "-":
        args.usage_error("--spec and --trace cannot both read standard input")
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
    from .selfcheck import run_selfcheck

    result = run_selfcheck(count=args.counts, seed=args.seed)
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
    p_mon.set_defaults(func=cmd_monitor, usage_error=p_mon.error)

    p_check = sub.add_parser("selfcheck", help="differential checks on random traces")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--counts", type=count_value, default=1000, help="number of random traces"
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
        return _reader_gone(sys.stdout)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 70  # EX_SOFTWARE


def _reader_gone(stream: TextIO) -> int:
    """The reader of ``stream`` has gone (``| head``): exit as SIGPIPE.

    What is still buffered goes to devnull, so that a flush at exit stays
    quiet.
    """
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return 141


def _traced() -> bool:
    """Whether a tracer or profiler runs, which writes its output at exit."""
    # Python 3.12+: cProfile, and coverage's "sysmon" core, use sys.monitoring.
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def run() -> NoReturn:
    """Run :func:`main` as the process, and end it without interpreter teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # its fd was closed when the process started
            continue
        try:
            stream.flush()
        except BrokenPipeError:
            code = _reader_gone(stream)
        except Exception:
            import traceback

            traceback.print_exc()
            code = 70
    if _traced():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
