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
:data:`ROWS_PER_WRITE` rows at a time, and one binding's slice once the
trace has ended, so that a malformed line prints none of it.

Exit codes: 0 success / nothing triggered; 1 malformed or unreadable input,
which is exactly an :class:`~slicemon.bindings.InputError` (trace, property
file, pattern, binding, alphabet mismatch, a file that is missing or not
UTF-8, ``-`` with stdin closed), reported as one ``error:`` line; 2 a usage
error; 3 at least one report triggered; 4 selfcheck mismatch; 70 an
internal fault, with its traceback on standard error; 141 the reader
closed standard output.

A run spends much of its time starting up, and every module it imports is
compiled again where no bytecode is cached, so a run imports only what it
runs.  Each subcommand imports its modules when it starts, not when this
module loads.  ``monitor`` loads the property-file parser, the machines and
the indexed engine: :mod:`slicemon.patterns` only for a ``pattern:`` line,
:mod:`slicemon.counters` only for a ``balance`` or ``ratio`` property, and
:mod:`slicemon.reference` only for ``--algo b``.  ``slice`` loads the
slicer and the indexed engine for ``--instance all``; for one binding it
streams the trace through :func:`slicemon.events.slice_trace`, the
definition, and loads no table, engine or machine.  Neither loads the
selfcheck.

The options of every subcommand are declared once, in :data:`COMMANDS`.
:func:`parse_args` reads a well-formed command line straight from that
table, so that a run loads neither :mod:`argparse` nor the :mod:`gettext`
and :mod:`locale` it imports.  :mod:`slicemon.usage`, which builds
argparse's parser from the same table, is imported only for ``-h`` and
``--help``, for a usage error found later (``--spec - --trace -``), and for
every command line the table's reader declines: an abbreviated, unknown,
missing or repeated option, a value that starts with ``-`` (other than
``-``), a value outside its choices or not a number, and ``--``.  So help
and usage errors are argparse's alone.

The process entry point is :func:`run`, for ``python -m slicemon.cli`` and
the ``slicemon`` script; :func:`main` is the in-process API and returns
the exit code.  :func:`run` flushes stdout and stderr once :func:`main`
returns and ends the process with :func:`os._exit`, skipping the
interpreter's teardown of every loaded module and object, which costs
about 10 ms a run.  So the ``atexit`` handlers that other code registered
do not run.  Under a tracer or profiler (``python -m cProfile``,
coverage, pdb) the process exits normally, so that they write their
output.  A usage error or ``--help`` exits from argparse as usual.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import Iterator, NoReturn, TextIO

from .bindings import InputError, ParamInstance
from .events import iter_trace, slice_trace

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


def cmd_slice(args: SimpleNamespace) -> int:
    if args.instance != "all":
        # A malformed binding is reported before any of the trace is read.
        binding = ParamInstance.parse(args.instance)
        with _open_input(args.trace) as lines:
            words = slice_trace(iter_trace(lines), binding)
        print(" ".join(words))
        return 0
    from .slicer import SliceTable

    with _open_input(args.trace) as lines:
        table = SliceTable().feed_all(iter_trace(lines))
    rows = ("%s\t%s\n" % (encoding, " ".join(words)) for encoding, words in table.rows())
    # Every row holds at least its tab and newline, so "" is the end.
    while block := "".join(islice(rows, ROWS_PER_WRITE)):
        sys.stdout.write(block)
    return 0


def cmd_monitor(args: SimpleNamespace) -> int:
    if args.spec == args.trace == "-":
        from .usage import build_parsers

        build_parsers(COMMANDS)[1]["monitor"].error(
            "--spec and --trace cannot both read standard input"
        )
    if args.algo == "b":
        from .reference import BaselineMonitor as engine_cls
    else:
        from .parametric import IndexedMonitor as engine_cls
    from .specfile import parse_property_spec

    with _open_input(args.spec) as handle:
        spec = parse_property_spec(handle.read())
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


def cmd_selfcheck(args: SimpleNamespace) -> int:
    from .selfcheck import run_selfcheck

    result = run_selfcheck(count=args.counts, seed=args.seed)
    if result.passed:
        for line in result.summary_lines():
            print(line)
        return 0
    print("MISMATCH after %d traces (seed %d)" % (result.traces, args.seed))
    print(result.failure.render())
    return 4


def int_value(text: str) -> int:
    """An integer option's value; a ValueError says what is wrong with it."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("invalid int value: %r" % text) from None


def count_value(text: str) -> int:
    """A count option's value, at least 1; a ValueError says what is wrong with it."""
    count = int_value(text)
    if count < 1:
        raise ValueError("must be at least 1, got %d" % count)
    return count


#: Each subcommand's help line, the function that runs it, and its options,
#: each with the keywords of ``ArgumentParser.add_argument`` for it.  Every
#: option that is not required has a default.
COMMANDS = {
    "slice": ("write slices of a trace to stdout", cmd_slice, {
        "--trace": dict(required=True, help="trace file, or - for stdin"),
        "--instance": dict(
            default="all",
            help="binding to slice for, e.g. 'a=a1,b=b1'; '' is the empty binding; "
            "'all' lists every table row (default)",
        ),
    }),
    "monitor": ("print verdict reports for a property", cmd_monitor, {
        "--spec": dict(required=True, help="property file"),
        "--trace": dict(required=True, help="trace file, or - for stdin"),
        "--algo": dict(
            choices=("b", "c"), default="c",
            help="engine: b = baseline full-scan, c = indexed (default)",
        ),
        "--report-every": dict(
            action="store_true", default=False,
            help="report on every trigger hit instead of deduplicating repeats",
        ),
    }),
    "selfcheck": ("differential checks on random traces", cmd_selfcheck, {
        "--seed": dict(type=int_value, default=0),
        "--counts": dict(type=count_value, default=1000, help="number of random traces"),
    }),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The subcommand and options of a command line.

    A well-formed one is read straight from :data:`COMMANDS`
    (:func:`_read_options`); argparse parses every other, so that its help
    and its usage errors are the only ones, and it is imported only then.
    """
    args = _read_options(argv)
    if args is None:
        from .usage import build_parsers

        args = SimpleNamespace(**vars(build_parsers(COMMANDS)[0].parse_args(argv)))
    return args


def _read_options(argv: list[str]) -> SimpleNamespace | None:
    """The options of a well-formed command line, or None: then argparse decides.

    Well formed is a subcommand, then each of its options at most once, as
    ``--name value`` or ``--name=value``, or a flag alone, with every
    required option given.  A value is ``-`` or does not start with ``-``,
    converts by its type and is one of its choices.  Anything else, among it
    ``--help``, an abbreviated option and ``--``, is declined.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    given = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.partition("=")
        option = options.get(flag)
        if option is None or flag in given:
            return None
        if option.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None:
                return None
        if value.startswith("-") and value != "-":
            return None
        if "type" in option:
            try:
                value = option["type"](value)
            except ValueError:
                return None
        if value not in option.get("choices", (value,)):
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, option in options.items():
        if flag not in given and option.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, option.get("default")))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
