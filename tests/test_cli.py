"""Command line: subcommands, output bytes, and the exit-code contract."""

from __future__ import annotations

import functools
import gc
import importlib
import io
import os
import pkgutil
import re
import select
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import slicemon
from slicemon import bindings, cli, events, patterns, selfcheck, specfile, usage
from slicemon.bindings import InputError
from slicemon.cli import main
from slicemon.events import render_trace
from slicemon.parametric import _EngineBase

from .conftest import FIXTURES, REPO
from .mutants import SkipJoinPhaseMonitor


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


def child_env(**extra: str) -> dict[str, str]:
    """Environment for running the CLI as a child process from this checkout."""
    path = [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


SLICEMON = [sys.executable, "-m", "slicemon.cli"]


# -- slice -------------------------------------------------------------------


def test_slice_all(capsys):
    code, out, err = run(capsys, "slice", "--trace", fx("abc.trace"))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "\te6 e11"  # empty binding row
    assert lines[1] == "a=a1\te1 e5 e6 e11"
    assert lines[-1] == "a=a2,b=b1,c=c1\te2 e3 e4 e6 e7 e8 e9 e11"
    # rows are sorted by (binding size, encoding)
    keys = [line.split("\t")[0] for line in lines]
    assert keys == sorted(keys, key=lambda k: (k.count("=") if k else 0, k))


def test_slice_single_instance(capsys):
    code, out, _ = run(
        capsys, "slice", "--trace", fx("abc.trace"), "--instance", "a=a2,b=b1"
    )
    assert (code, out) == (0, "e2 e3 e4 e6 e7 e11\n")


def test_slice_off_table_instance(capsys):
    code, out, _ = run(
        capsys, "slice", "--trace", fx("abc.trace"), "--instance", "a=a1,b=b2,c=c1"
    )
    assert (code, out) == (0, "e1 e5 e6 e8 e11\n")


def test_slice_empty_instance(capsys):
    code, out, _ = run(capsys, "slice", "--trace", fx("abc.trace"), "--instance", "")
    assert (code, out) == (0, "e6 e11\n")


def test_slice_reads_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"go x=1\ngo y=2\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "slice", "--trace", "-", "--instance", "x=1,y=2")
    assert (code, out) == (0, "go go\n")


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_undecodable_stdin_exits_1(locale):
    done = subprocess.run(
        SLICEMON + ["slice", "--trace", "-"], input=b"e x=\xff\n",
        capture_output=True, env=child_env(LC_ALL=locale), timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert b"error: 'utf-8' codec can't decode" in done.stderr


def test_closed_output_pipe_exits_141(tmp_path):
    trace = tmp_path / "big.trace"
    trace.write_text("".join("e x=%d\n" % i for i in range(20000)), encoding="utf-8")
    with subprocess.Popen(
        SLICEMON + ["slice", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as child:
        assert child.stdout.readline() == b"\t\n"  # the empty binding, empty slice
        child.stdout.close()  # about 200 kB of rows are still to come
        _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, b"")


@pytest.mark.parametrize(
    "argv",
    [["slice", "--trace", "-"], ["monitor", "--spec", fx("hasnext.spec"), "--trace", "-"]],
    ids=["slice", "monitor"],
)
def test_closed_stdin_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", None)  # as Python sets it when fd 0 is closed
    assert run(capsys, *argv) == (1, "", "error: -: standard input is closed\n")


def test_spawned_with_closed_stdin_exits_1():
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" <&-'] + SLICEMON + ["slice", "--trace", "-"],
        capture_output=True, env=child_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        1, b"", b"error: -: standard input is closed\n"
    )


class CountingStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_slice_writes_its_table_in_blocks(monkeypatch, tmp_path):
    trace = tmp_path / "t.trace"
    values = range(2 * cli.ROWS_PER_WRITE + 4)  # and the empty binding's row
    trace.write_text("".join("e x=%d\n" % i for i in values), encoding="utf-8")
    # A tab sorts before every digit, so the rows sort as their encodings do.
    expected = "\t\n" + "".join(sorted("x=%d\te\n" % i for i in values))
    stdout = CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["slice", "--trace", str(trace)]) == 0
    assert [block.count("\n") for block in stdout.writes] == [
        cli.ROWS_PER_WRITE, cli.ROWS_PER_WRITE, 5
    ]
    assert "".join(stdout.writes) == expected


@pytest.mark.parametrize("piped", ["spec", "spec-and-trace"])
def test_monitor_cannot_read_spec_and_trace_from_stdin(capsys, tmp_path, monkeypatch, piped):
    data = (FIXTURES / "hasnext.spec").read_bytes()
    if piped == "spec-and-trace":
        data += (FIXTURES / "hasnext.trace").read_bytes()
    trace_through("stdin", data, tmp_path, monkeypatch)
    code, out, err = in_process(capsys, "monitor", "--spec", "-", "--trace", "-")
    assert (code, out) == (2, "")
    assert err.startswith("usage: slicemon monitor ")
    assert err.endswith(
        "slicemon monitor: error: --spec and --trace cannot both read standard input\n"
    )


def test_monitor_reads_its_spec_from_stdin(capsys, tmp_path, monkeypatch):
    spec = trace_through("stdin", (FIXTURES / "hasnext.spec").read_bytes(), tmp_path, monkeypatch)
    assert run(capsys, "monitor", "--spec", spec, "--trace", fx("hasnext.trace")) == run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")
    )


# -- monitor -----------------------------------------------------------------


@pytest.mark.parametrize("algo", ["b", "c"])
def test_monitor_locking(capsys, algo):
    code, out, _ = run(
        capsys, "monitor", "--spec", fx("locking.spec"),
        "--trace", fx("locking.trace"), "--algo", algo,
    )
    assert code == 3  # a report line triggered
    assert out == "6\tfail\tr=r2\tend\n"


def test_monitor_hasnext(capsys):
    code, out, _ = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")
    )
    assert (code, out) == (3, "4\tfail\ti=i2\tnext\n")


def test_monitor_unsafeiter(capsys):
    code, out, _ = run(
        capsys, "monitor", "--spec", fx("unsafeiter.spec"),
        "--trace", fx("unsafeiter.trace"),
    )
    assert (code, out) == (3, "5\tmatch\ti=i1,v=v1\tnext\n")


def test_monitor_nothing_triggered(capsys, tmp_path):
    trace = tmp_path / "ok.trace"
    trace.write_text("success u=u1\nfailure u=u1\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "monitor", "--spec", fx("ratio.spec"), "--trace", str(trace)
    )
    assert (code, out) == (0, "")


def test_monitor_report_every(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    # i2 keeps calling next while exhausted: fail is parked from event 3 on
    trace.write_text(
        "hasnextfalse i=i2\nnext i=i2\nnext i=i2\nnext i=i2\n", encoding="utf-8"
    )
    code, out, _ = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert (code, out) == (3, "2\tfail\ti=i2\tnext\n")
    code, out, _ = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace),
        "--report-every",
    )
    assert code == 3
    assert out.splitlines() == [
        "2\tfail\ti=i2\tnext",
        "3\tfail\ti=i2\tnext",
        "4\tfail\ti=i2\tnext",
    ]


def test_monitor_reports_of_one_event_in_binding_order(capsys, tmp_path):
    spec = tmp_path / "two.spec"
    spec.write_text(
        "property TwoEvents\nparams: k\nevent hit(k)\nevent tick()\n"
        "monitor: regex\npattern: (hit | tick) (hit | tick) (hit | tick)*\n"
        "report: match\n",
        encoding="utf-8",
    )
    trace = tmp_path / "t.trace"
    # bindings arrive in reverse encoding order; the first tick completes
    # every one of them at once
    trace.write_text(
        "hit k=4\nhit k=3\nhit k=2\nhit k=10\nhit k=1\ntick\n", encoding="utf-8"
    )
    for algo in ("b", "c"):
        code, out, _ = run(
            capsys, "monitor", "--spec", str(spec), "--trace", str(trace),
            "--algo", algo,
        )
        assert code == 3
        assert out.splitlines() == [
            "6\tmatch\tk=%s\ttick" % k for k in ("1", "10", "2", "3", "4")
        ]


# -- streaming -------------------------------------------------------------------


def test_monitor_reports_before_the_input_ends():
    with subprocess.Popen(
        SLICEMON + ["monitor", "--spec", fx("hasnext.spec"), "--trace", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(),
    ) as child:
        child.stdin.write(b"next i=i1\n")
        child.stdin.flush()
        ready, _, _ = select.select([child.stdout], [], [], 60)
        assert ready, "no report while stdin is still open"
        assert child.stdout.readline() == b"1\tfail\ti=i1\tnext\n"
        child.stdin.close()
        assert child.wait(timeout=60) == 3


def test_error_exits_1_after_the_reports_of_earlier_lines(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("next i=i1\nhasnexttrue i=i2\n3bad\nnext i=i2\n", encoding="utf-8")
    code, out, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert (code, out) == (1, "1\tfail\ti=i1\tnext\n")
    assert err == "error: line 3: bad event name '3bad'\n"


def iterator_trace(path, events: int) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for k in range(events // 2):
            handle.write("hasnexttrue i=i%d\nnext i=i%d\n" % (k % 100, k % 100))
    return str(path)


def test_monitor_memory_does_not_grow_with_the_trace(capsys, tmp_path):
    # 100 iterators: the table, the bindings and the distinct lines stay the
    # same however long the trace is, and so must the peak.
    argv = ["monitor", "--spec", fx("hasnext.spec"), "--trace"]
    assert main(argv + [iterator_trace(tmp_path / "warm.trace", 1000)]) == 0
    peaks = []
    for events in (10_000, 100_000):
        path = iterator_trace(tmp_path / "t.trace", events)
        # Both runs start with the collector's generations empty, so it runs
        # at the same points in each: a well-formed run leaves no reference
        # cycles (test_a_run_leaves_no_cyclic_garbage), but the test's own
        # objects may.
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv + [path]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert capsys.readouterr().out == ""
    # Measured: about 145 kB for both; reading the whole trace first peaked
    # at 4.7 MB and 48 MB.
    assert peaks[1] < peaks[0] * 1.1


def test_slice_instance_memory_does_not_follow_the_join_closure(capsys, tmp_path):
    # Every x=K joins every y=K': the join closure has 40,401 bindings,
    # quadratic in the 400 events, but the slice of x=1,y=1 is two names.
    path = tmp_path / "pairs.trace"
    path.write_text("".join("a x=%d\nb y=%d\n" % (k, k) for k in range(200)), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["slice", "--trace", str(path), "--instance", "x=1,y=1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "a b\n"
    # Measured: about 0.15 MB; building the table and looking the binding up
    # in it peaked at 11.8 MB.
    assert peak < 1_000_000


def test_slice_instance_memory_does_not_follow_the_distinct_bindings(capsys, tmp_path):
    # 20,000 distinct bindings, five times the line cache: the reader lets
    # its interned bindings go with its cached lines.
    path = tmp_path / "fresh.trace"
    path.write_text("".join("a x=%d\n" % k for k in range(20_000)), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["slice", "--trace", str(path), "--instance", "x=1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "a\n"
    # Measured: about 1.4 MB; an intern dict kept for the whole run peaked
    # at 4.3 MB.
    assert peak < 2_000_000


# -- the line rule -------------------------------------------------------------


def trace_through(
    source: str, data: bytes, tmp_path, monkeypatch, name: str = "t.trace"
) -> str:
    """``--trace`` (or ``--spec``) argument that feeds ``data`` from a file or from stdin."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        return "-"
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_lines_end_only_at_newline_crlf_and_cr(capsys, tmp_path, monkeypatch, source):
    data = "a x=1\r\nb x=2\x0c\rc\u2028x=3\nd\n".encode()
    trace = trace_through(source, data, tmp_path, monkeypatch)
    code, out, _ = run(capsys, "slice", "--trace", trace)
    assert (code, out) == (0, "\td\nx=1\ta d\nx=2\tb d\nx=3\tc d\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("data, line", [
    (b"ok\r\nnext i=1\x0cnext i=2\r\n", 2),
    ("ok\rok\rnext i=1\u2028next i=2\n".encode(), 3),
])
def test_error_line_numbers_follow_the_line_rule(
    capsys, tmp_path, monkeypatch, source, data, line
):
    trace = trace_through(source, data, tmp_path, monkeypatch)
    code, out, err = run(capsys, "slice", "--trace", trace)
    assert (code, out) == (1, "")
    assert err == "error: line %d: expected param=value, got 'next'\n" % line


def test_spec_lines_follow_the_line_rule(capsys, tmp_path, monkeypatch):
    # The form feed is whitespace inside line 6, not a line break, so the
    # spec declares no event ``bogus`` and its line 6 is malformed.
    spec = tmp_path / "p.spec"
    text = (FIXTURES / "hasnext.spec").read_text(encoding="utf-8")
    spec.write_text(
        text.replace("event next(i)\n", "event next(i)\x0cevent bogus(i)\n"),
        encoding="utf-8",
    )
    trace = trace_through("stdin", b"bogus i=1\n", tmp_path, monkeypatch)
    code, out, err = run(capsys, "monitor", "--spec", str(spec), "--trace", trace)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 6: event 'next' uses undeclared parameter")


BOM = "\ufeff".encode()


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, monkeypatch, source):
    text = (FIXTURES / "hasnext.trace").read_bytes()
    trace = trace_through(source, BOM + text, tmp_path, monkeypatch)
    assert run(capsys, "slice", "--trace", trace) == run(
        capsys, "slice", "--trace", fx("hasnext.trace")
    )
    spec = (FIXTURES / "hasnext.spec").read_bytes()
    spec = trace_through(source, BOM + spec, tmp_path, monkeypatch, name="t.spec")
    reports = run(capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace"))
    assert reports[0] == 3
    assert run(capsys, "monitor", "--spec", spec, "--trace", fx("hasnext.trace")) == reports
    # Only the first character may be a byte-order mark.
    trace = trace_through(source, text + BOM + text, tmp_path, monkeypatch)
    assert run(capsys, "slice", "--trace", trace) == (
        1, "", "error: line %d: bad event name '\\ufeffhasnexttrue'\n" % (text.count(b"\n") + 1)
    )


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_undecodable_input_keeps_the_codec_message(capsys, tmp_path, monkeypatch, source):
    trace = trace_through(source, b"open f=\xff\n", tmp_path, monkeypatch)
    assert run(capsys, "slice", "--trace", trace) == (
        1, "", "error: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
    )


# -- the process entry point ---------------------------------------------------


def spawned(*argv: str, command: list[str] = SLICEMON) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m slicemon.cli`` read through pipes.

    Stdout is block-buffered, as Python makes a pipe by default, so that
    output left in the buffer at exit would be missing.
    """
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run(
        command + list(argv), stdin=subprocess.DEVNULL, capture_output=True,
        env=env, timeout=60,
    )
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def in_process(capsys, *argv: str) -> tuple[int, str, str]:
    """``run`` for ``main``, with a usage error's ``SystemExit`` as its code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exited:
        captured = capsys.readouterr()
        return exited.code, captured.out, captured.err


def test_spawned_slice_writes_every_row(capsys, tmp_path):
    # About 200 kB of rows, more than a pipe holds: a row left in the
    # buffer at exit would be missing.
    trace = tmp_path / "big.trace"
    trace.write_text("".join("e x=%d\n" % i for i in range(20000)), encoding="utf-8")
    expected = run(capsys, "slice", "--trace", str(trace), "--instance", "all")
    assert expected[1].count("\n") == 20001
    assert spawned("slice", "--trace", str(trace), "--instance", "all") == expected


@pytest.mark.parametrize(
    "argv,code",
    [
        (["slice", "--trace", fx("abc.trace")], 0),
        (["slice", "--trace", fx("missing.trace")], 1),
        (["monitor", "--trace", fx("locking.trace")], 2),
        (["monitor", "--spec", fx("locking.spec"), "--trace", fx("locking.trace")], 3),
    ],
    ids=["ok", "bad-input", "usage", "triggered"],
)
def test_spawned_run_exits_as_main_returns(capsys, argv, code):
    expected = in_process(capsys, *argv)
    assert expected[0] == code
    assert spawned(*argv) == expected


BROKEN_FEED = """\
import sys
from slicemon.cli import run
from slicemon.parametric import _EngineBase

def broken_feed(self, event):
    raise ValueError("internal fault")

_EngineBase.feed = broken_feed
sys.argv[0] = "slicemon"
run()
"""


def test_spawned_fault_exits_70():
    done = subprocess.run(
        [sys.executable, "-c", BROKEN_FEED, "monitor", "--spec", fx("hasnext.spec"),
         "--trace", fx("hasnext.trace")],
        stdin=subprocess.DEVNULL, capture_output=True, env=child_env(), timeout=60,
    )
    assert (done.returncode, done.stdout) == (70, b"")
    assert done.stderr.startswith(b"Traceback (most recent call last):")
    assert done.stderr.endswith(b"ValueError: internal fault\n")


class Unflushable:
    """A stream on ``fd`` whose flush raises ``exc``."""

    def __init__(self, exc: Exception, fd: int):
        self.exc, self.fd = exc, fd

    def flush(self):
        raise self.exc

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "exc,code", [(None, 0), (BrokenPipeError(), 141), (OSError(28, "disk full"), 70)],
    ids=["closed", "broken-pipe", "other"],
)
def test_run_flushes_stdout_then_exits(capsys, monkeypatch, exc, code):
    read, write = os.pipe()
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(cli, "_traced", lambda: False)
    monkeypatch.setattr("sys.stdout", None if exc is None else Unflushable(exc, write))

    def exit_now(status):
        raise SystemExit(status)

    monkeypatch.setattr(os, "_exit", exit_now)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.run()
    finally:
        os.close(read)
        os.close(write)
    err = capsys.readouterr().err
    assert exited.value.code == code
    assert err.endswith("OSError: [Errno 28] disk full\n") if code == 70 else err == ""


def test_profiled_run_prints_reports_and_stats():
    code, out, err = spawned(
        "monitor", "--spec", fx("locking.spec"), "--trace", fx("locking.trace"),
        command=[sys.executable, "-m", "cProfile", "-m", "slicemon.cli"],
    )
    assert (code, err) == (0, "")  # cProfile catches the SystemExit
    assert out.startswith("6\tfail\tr=r2\tend\n")
    assert "function calls" in out and "ncalls" in out


def test_slicemon_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"slicemon": "slicemon.cli:run"}


# -- what each subcommand loads ------------------------------------------------

LOADED = """\
import sys
before = set(sys.modules)
from slicemon.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


def modules_loaded_by(*argv: str) -> set[str]:
    """Modules a fresh interpreter imports to run ``main(argv)``."""
    child = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], env=child_env(),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return set(child.stderr.splitlines()[-1].split())


#: What no well-formed ``monitor`` or ``slice`` run loads: argparse (and
#: the gettext it imports) only parses what the option table declines.
NEVER_LOADED = {
    "argparse",
    "gettext",
    "dataclasses",
    "inspect",
    "traceback",
    "slicemon.counters",
    "slicemon.reference",
    "slicemon.selfcheck",
    "slicemon.usage",
}


def test_monitor_loads_only_what_it_runs(tmp_path):
    empty = tmp_path / "empty.trace"
    empty.write_text("", encoding="utf-8")
    unwanted = NEVER_LOADED | {"slicemon.slicer"}
    # only a pattern: line (unsafeiter.spec) needs the pattern compiler
    for spec, compiles_a_pattern in [("hasnext.spec", False), ("unsafeiter.spec", True)]:
        loaded = modules_loaded_by("monitor", "--spec", fx(spec), "--trace", str(empty))
        assert "slicemon.parametric" in loaded
        assert ("slicemon.patterns" in loaded) is compiles_a_pattern, spec
        assert loaded & unwanted == set(), spec


def test_slice_loads_only_what_it_runs():
    unwanted = NEVER_LOADED | {"slicemon.patterns", "slicemon.specfile"}
    for instance in [], ["--instance", "all"]:
        loaded = modules_loaded_by("slice", "--trace", fx("abc.trace"), *instance)
        assert "slicemon.slicer" in loaded
        assert loaded & unwanted == set(), instance
    # one binding's slice is read from the trace by the definition: no table
    loaded = modules_loaded_by("slice", "--trace", fx("abc.trace"), "--instance", "a=a1")
    table = {"slicemon.slicer", "slicemon.parametric", "slicemon.machines", "slicemon.reference"}
    assert loaded & (unwanted | table) == set()


def test_the_reference_module_is_loaded_for_its_engine_alone(tmp_path):
    empty = tmp_path / "empty.trace"
    empty.write_text("", encoding="utf-8")
    monitor = ["monitor", "--spec", fx("hasnext.spec"), "--trace", str(empty)]
    assert "slicemon.reference" in modules_loaded_by(*monitor, "--algo", "b")
    assert "slicemon.reference" not in modules_loaded_by(*monitor, "--algo", "c")
    # a binding's slice is the definition's, not a scan of the table
    lookup = modules_loaded_by("slice", "--trace", fx("abc.trace"), "--instance", "a=a1")
    assert "slicemon.reference" not in lookup


@pytest.mark.parametrize("spec", ["ratio.spec", "balanced.spec"])
def test_only_a_counting_property_loads_the_counting_machines(tmp_path, spec):
    empty = tmp_path / "empty.trace"
    empty.write_text("", encoding="utf-8")
    loaded = modules_loaded_by("monitor", "--spec", fx(spec), "--trace", str(empty))
    assert "slicemon.counters" in loaded
    assert "slicemon.patterns" not in loaded


GARBAGE = """\
import gc
import sys
gc.set_debug(gc.DEBUG_SAVEALL)
from slicemon.cli import main
code = main(sys.argv[1:])
gc.collect()
print(len(gc.garbage), sorted({type(obj).__name__ for obj in gc.garbage}), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")],
        ["monitor", "--spec", fx("unsafeiter.spec"), "--trace", fx("unsafeiter.trace")],
        ["slice", "--trace", fx("abc.trace")],
    ],
    ids=["monitor-fsm", "monitor-pattern", "slice"],
)
def test_a_run_leaves_no_cyclic_garbage(argv):
    # DEBUG_SAVEALL keeps every object the collector finds unreachable.
    child = subprocess.run(
        [sys.executable, "-c", GARBAGE, *argv], env=child_env(),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode in (0, 3), child.stderr
    assert child.stderr == "0 []\n"


# -- exit-code contract --------------------------------------------------------


def test_malformed_trace_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("open f\n", encoding="utf-8")
    code, out, err = run(capsys, "slice", "--trace", str(bad))
    assert (code, out) == (1, "")
    assert "error: line 1" in err


def test_malformed_spec_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("monitor: fsm\n", encoding="utf-8")
    code, _, err = run(
        capsys, "monitor", "--spec", str(bad), "--trace", fx("hasnext.trace")
    )
    assert code == 1
    assert "property" in err


def test_bad_pattern_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "property P\nevent a()\nmonitor: regex\npattern: a |\n", encoding="utf-8"
    )
    code, _, err = run(
        capsys, "monitor", "--spec", str(bad), "--trace", fx("hasnext.trace")
    )
    assert code == 1
    assert "error:" in err


def test_bad_pattern_error_names_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "property P\nevent a()\nmonitor: regex\npattern: a)\nreport: match\n",
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "monitor", "--spec", str(bad), "--trace", fx("hasnext.trace")
    )
    assert code == 1
    assert err == "error: line 4: unexpected ')' (at position 1)\n"


def test_deeply_nested_pattern_exits_1(capsys, tmp_path):
    # 400 nested groups would overflow the parser's stack; past the
    # nesting limit the pattern is a syntax error like any other.
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "property P\nevent a()\nmonitor: regex\npattern: %s\nreport: match\n"
        % ("(" * 400 + "a" + ")" * 400),
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "monitor", "--spec", str(bad), "--trace", fx("hasnext.trace")
    )
    assert code == 1
    assert err == "error: line 4: groups nested deeper than 100 (at position 100)\n"


def test_undeclared_event_in_trace_exits_1(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("frobnicate i=i1\n", encoding="utf-8")
    code, _, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert code == 1
    assert "not declared" in err


def test_undeclared_event_error_names_its_line(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("hasnexttrue i=i1\nnext i=i1\nbogus i=1\n", encoding="utf-8")
    code, out, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert (code, out) == (1, "")
    assert err == "error: line 3: event 'bogus' is not declared by property SafeIteration\n"


def test_param_mismatch_error_names_its_line(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("hasnexttrue i=i1\nnext j=1\n", encoding="utf-8")
    code, out, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert (code, out) == (1, "")
    assert err == "error: line 2: event 'next' carries parameters (j) but declares (i)\n"


def test_param_mismatch_exits_1(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("next\n", encoding="utf-8")
    code, _, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert code == 1
    assert "carries parameters" in err


def test_bad_instance_argument_exits_1(capsys):
    # a trace line ends at '#', so no value may hold one
    for instance in ["no-equals-sign", "x=a#b"]:
        code, out, err = run(
            capsys, "slice", "--trace", fx("abc.trace"), "--instance", instance
        )
        assert (code, out) == (1, ""), instance
        assert "error:" in err


def test_bad_instance_is_reported_before_the_trace_is_read(capsys, tmp_path):
    trace = tmp_path / "bad.trace"
    trace.write_text("open f\n", encoding="utf-8")  # line 1 is malformed too
    code, out, err = run(capsys, "slice", "--trace", str(trace), "--instance", "1=1")
    assert (code, out, err) == (1, "", "error: bad parameter name '1'\n")


def test_undecodable_trace_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(b"open f=\xff\n")
    code, out, err = run(capsys, "slice", "--trace", str(bad))
    assert (code, out) == (1, "")
    assert "utf-8" in err


def test_missing_trace_exits_1(capsys, tmp_path):
    missing = str(tmp_path / "missing.trace")
    code, out, err = run(capsys, "slice", "--trace", missing)
    assert (code, out) == (1, "")
    assert err == "error: %s: No such file or directory\n" % missing


def test_missing_spec_exits_1(capsys, tmp_path):
    missing = str(tmp_path / "missing.spec")
    code, out, err = run(
        capsys, "monitor", "--spec", missing, "--trace", fx("hasnext.trace")
    )
    assert (code, out) == (1, "")
    assert err == "error: %s: No such file or directory\n" % missing


def test_directory_as_trace_exits_1(capsys, tmp_path):
    code, out, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(tmp_path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: " % tmp_path)


#: One bad input for each exception class slicemon raises for bad input,
#: given the parsed ``hasnext.spec``.
BAD_INPUTS = {
    bindings.BindingFormatError: lambda spec: bindings.ParamInstance.parse("x"),
    events.ParseError: lambda spec: events.parse_trace("e x"),
    events.DuplicateParam: lambda spec: events.parse_trace("e x=1 x=2"),
    events.UnknownEvent: lambda spec: spec.check_event(events.ParametricEvent("e")),
    events.ParamMismatch: lambda spec: spec.check_event(events.ParametricEvent("next")),
    patterns.PatternSyntaxError: lambda spec: patterns.compile_regex("(a", ["a"]),
    patterns.UnknownEventInPattern: lambda spec: patterns.compile_regex("b", ["a"]),
    specfile.SpecFormatError: lambda spec: specfile.parse_property_spec("params: x\n"),
}


def test_every_input_error_class_is_an_input_error(hasnext_spec):
    modules = [
        importlib.import_module("slicemon." + info.name)
        for info in pkgutil.iter_modules(slicemon.__path__)
    ]
    defined = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__.startswith("slicemon.")
    }
    assert defined == set(BAD_INPUTS) | {InputError}
    assert issubclass(InputError, ValueError)
    for cls, bad in BAD_INPUTS.items():
        assert issubclass(cls, InputError)
        with pytest.raises(cls) as info:
            bad(hasnext_spec)
        assert type(info.value) is cls


@pytest.mark.parametrize(
    "exc,code", [(InputError("bad input"), 1), (ValueError("internal fault"), 70)],
    ids=["input-error", "value-error"],
)
def test_only_an_input_error_exits_1(capsys, monkeypatch, exc, code):
    def broken_feed(self, event):
        raise exc

    monkeypatch.setattr(_EngineBase, "feed", broken_feed)
    status, out, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")
    )
    assert (status, out) == (code, "")
    if code == 1:
        assert err == "error: bad input\n"
    else:
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("ValueError: internal fault\n")


def test_internal_value_error_is_not_malformed_input(capsys, monkeypatch):
    def broken_feed(self, event):
        raise ValueError("internal fault")

    monkeypatch.setattr(_EngineBase, "feed", broken_feed)
    code, out, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")
    )
    assert (code, out) == (70, "")
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("ValueError: internal fault\n")
    assert "error:" not in err


def test_wide_bindings_slice_and_monitor(capsys, tmp_path):
    # a 40-parameter binding has 2^40 sub-bindings, too many to enumerate
    names = ["p%d" % i for i in range(40)]
    wide_items = ["%s=v" % name for name in names]
    trace = tmp_path / "wide.trace"
    trace.write_text("e " + " ".join(wide_items) + "\nf p1=v\n", encoding="utf-8")
    off_table = ",".join(["p0=w"] + wide_items[1:])
    code, out, err = run(capsys, "slice", "--trace", str(trace), "--instance", off_table)
    assert (code, out, err) == (0, "f\n", "")
    spec = tmp_path / "wide.spec"
    spec.write_text(
        "property Wide\n"
        "params: %s\n"
        "event e(%s)\n"
        "event f(p1)\n"
        "monitor: regex\n"
        "pattern: e f\n"
        "report: match\n" % (", ".join(names), ", ".join(names)),
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "monitor", "--algo", "b", "--spec", str(spec), "--trace", str(trace)
    )
    wide = ",".join("%s=v" % name for name in sorted(names))  # name-sorted
    assert (code, out, err) == (3, "2\tmatch\t%s\tf\n" % wide, "")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["selfcheck", "--counts", "-4"], "--counts: must be at least 1, got -4"),
        (["selfcheck", "--counts", "abc"], "--counts: invalid int value: 'abc'"),
        (["selfcheck", "--seed", "abc"], "--seed: invalid int value: 'abc'"),
    ],
    ids=["negative-trace-count", "non-numeric-trace-count", "non-numeric-seed"],
)
def test_out_of_range_numbers_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out) == (2, "")
    assert message in captured.err


# -- option parsing -------------------------------------------------------------

#: Command lines read straight from the option table.
READ_DIRECTLY = [
    ["slice", "--trace", fx("abc.trace")],
    ["slice", "--trace", "-"],
    ["slice", "--trace=" + fx("abc.trace"), "--instance=a=a1,b=b1"],
    ["slice", "--instance", "", "--trace", fx("abc.trace")],
    ["slice", "--trace=", "--instance", "all"],
    ["monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")],
    ["monitor", "--trace", "t", "--spec", "s", "--algo", "b", "--report-every"],
    ["monitor", "--report-every", "--spec=s", "--trace=-", "--algo=c"],
    ["monitor", "--spec", "-", "--trace", "-"],  # a usage error, once the command runs
    ["selfcheck"],
    ["selfcheck", "--counts", "30", "--seed", "7"],
    ["selfcheck", "--seed=+7", "--counts= 30 "],
    ["selfcheck", "--counts", "1_000", "--seed", "0"],
]

#: Command lines left to argparse: it reads the first ones, and prints its
#: help or a usage error for the rest.
LEFT_TO_ARGPARSE = [
    ["slice", "--tr", "t"],
    ["monitor", "--spec", "s", "--trace", "t", "--report"],
    ["monitor", "--spec", "s", "--trace=t", "--al", "b"],
    ["selfcheck", "--seed", "-3"],
    ["selfcheck", "--counts", "30", "--seed=-3"],
    ["slice", "--trace", "t", "--trace", "u"],
    ["monitor", "--spec", "s", "--trace", "t", "--report-every", "--report-every"],
    [],
    ["-h"],
    ["--help"],
    ["slice", "-h"],
    ["monitor", "--spec", "s", "--trace", "t", "--help"],
    ["bogus"],
    ["--trace", "t", "slice"],
    ["slice"],
    ["slice", "--trace"],
    ["slice", "--trace", "t", "extra"],
    ["slice", "--trace", "t", "-x"],
    ["slice", "--trace", "t", "--instance", "-x=1"],
    ["slice", "--trace", "t", "--"],
    ["slice", "--", "--trace", "t"],
    ["monitor", "--spec", "s"],
    ["monitor", "--spec", "s", "--trace", "t", "--algo", "x"],
    ["monitor", "--spec", "s", "--trace", "t", "--algo=x"],
    ["monitor", "--spec", "s", "--trace", "t", "--report-every=1"],
    ["monitor", "--spec", "s", "--trace", "--algo"],
    ["selfcheck", "--counts", "abc"],
    ["selfcheck", "--counts", "0"],
    ["selfcheck", "--counts=-4"],
    ["selfcheck", "--seed", "1.5"],
]


def argparse_outcome(capsys, argv: list[str]):
    """What argparse's parser for the option table makes of ``argv``."""
    try:
        return vars(usage.build_parsers(cli.COMMANDS)[0].parse_args(argv))
    except SystemExit as exited:
        captured = capsys.readouterr()
        return exited.code, captured.out, captured.err


def test_a_well_formed_command_line_reads_as_argparse_reads_it(capsys, monkeypatch):
    expected = [argparse_outcome(capsys, argv) for argv in READ_DIRECTLY]

    def no_argparse(commands):
        raise AssertionError("argparse is not needed")

    monkeypatch.setattr(usage, "build_parsers", no_argparse)
    for argv, parsed in zip(READ_DIRECTLY, expected):
        assert vars(cli.parse_args(argv)) == parsed, argv


def test_every_other_command_line_is_left_to_argparse(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    build_parsers = usage.build_parsers
    calls = []

    def counted(commands):
        calls.append(None)
        return build_parsers(commands)

    for argv in LEFT_TO_ARGPARSE:
        expected = argparse_outcome(capsys, argv)
        monkeypatch.setattr(usage, "build_parsers", counted)
        try:
            outcome = vars(cli.parse_args(argv))
        except SystemExit as exited:
            captured = capsys.readouterr()
            outcome = exited.code, captured.out, captured.err
        monkeypatch.setattr(usage, "build_parsers", build_parsers)
        assert (outcome, len(calls)) == (expected, 1), argv
        calls.clear()


#: ``--help`` of the command and of each subcommand, at 80 columns.
HELP = {
    "": """\
usage: slicemon [-h] {slice,monitor,selfcheck} ...

Slice and monitor parameter-carrying event traces.

positional arguments:
  {slice,monitor,selfcheck}
    slice               write slices of a trace to stdout
    monitor             print verdict reports for a property
    selfcheck           differential checks on random traces

options:
  -h, --help            show this help message and exit
""",
    "slice": """\
usage: slicemon slice [-h] --trace TRACE [--instance INSTANCE]

options:
  -h, --help           show this help message and exit
  --trace TRACE        trace file, or - for stdin
  --instance INSTANCE  binding to slice for, e.g. 'a=a1,b=b1'; '' is the empty
                       binding; 'all' lists every table row (default)
""",
    "monitor": """\
usage: slicemon monitor [-h] --spec SPEC --trace TRACE [--algo {b,c}]
                        [--report-every]

options:
  -h, --help      show this help message and exit
  --spec SPEC     property file
  --trace TRACE   trace file, or - for stdin
  --algo {b,c}    engine: b = baseline full-scan, c = indexed (default)
  --report-every  report on every trigger hit instead of deduplicating repeats
""",
    "selfcheck": """\
usage: slicemon selfcheck [-h] [--seed SEED] [--counts COUNTS]

options:
  -h, --help       show this help message and exit
  --seed SEED
  --counts COUNTS  number of random traces
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda command: command or "slicemon")
def test_help_reads_as_before(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    assert in_process(capsys, *argv) == (0, HELP[command], "")


# -- selfcheck ------------------------------------------------------------------


def test_selfcheck_ok(capsys):
    code, out, _ = run(capsys, "selfcheck", "--counts", "30", "--seed", "7")
    assert code == 0
    assert out.splitlines() == [
        "ok: slicing 30/30",
        "ok: engine-pair 30/30",
        "ok: verdicts 30/30",
        "ok: reports 30/30",
    ]


def test_selfcheck_mismatch_exits_4(capsys, monkeypatch):
    # The CLI checks the shipped engines only; a mutant reaches it through
    # the one seam the tests use, run_selfcheck's keywords.
    broken = functools.partial(
        selfcheck.run_selfcheck, indexed_class=SkipJoinPhaseMonitor
    )
    monkeypatch.setattr(selfcheck, "run_selfcheck", broken)
    code, out, err = run(capsys, "selfcheck", "--counts", "1000")
    result = broken(count=1000, seed=0)
    assert (code, err) == (4, "")
    lines = out.splitlines()
    assert lines[0] == "MISMATCH after %d traces (seed 0)" % result.traces
    assert lines[1] == "check:  engine-pair"
    assert out.endswith("--- minimized trace ---\n" + render_trace(result.failure.trace))


@pytest.mark.parametrize("flag", ["--unsafe-no-snapshot", "--skip-join-phase"])
def test_selfcheck_has_no_debug_flags(capsys, flag):
    with pytest.raises(SystemExit) as exited:
        main(["selfcheck", "--counts", "10", flag])
    captured = capsys.readouterr()
    assert (exited.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: %s" % flag in captured.err


# -- README ------------------------------------------------------------------


def readme_examples() -> list[tuple[str, str, int | None]]:
    """Each README ``slicemon slice`` or ``monitor`` example: command, stdout, exit code.

    In a ``console`` block a ``$`` line is a command and the lines up to the
    next one are its output.  The exit code is the output of an ``echo $?``
    right after the command, or None if there is none.
    """
    blocks = re.findall(r"```console\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    examples = []
    for block in blocks:
        commands: list[list[str]] = []
        for line in block.splitlines(keepends=True):
            if line.startswith("$ "):
                commands.append([line[2:].strip(), ""])
            elif commands:
                commands[-1][1] += line
        commands.append(["", ""])
        for (command, out), (after, code) in zip(commands, commands[1:]):
            if command.startswith(("slicemon slice ", "slicemon monitor ")):
                examples.append((command, out, int(code) if after == "echo $?" else None))
    return examples


def test_readme_console_examples_print_what_they_show(capsys, monkeypatch):
    examples = readme_examples()
    assert len(examples) >= 3 and any(code is not None for *_, code in examples)
    monkeypatch.chdir(REPO)
    for command, out, expected_code in examples:
        code, printed, _ = run(capsys, *shlex.split(command)[1:])
        assert printed == out, command
        if expected_code is not None:
            assert code == expected_code, command
