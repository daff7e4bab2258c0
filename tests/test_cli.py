"""Command line: subcommands, output bytes, and the exit-code contract."""

from __future__ import annotations

import csv
import io

import pytest

from slicemon.cli import main
from slicemon.parametric import _EngineBase

from .conftest import FIXTURES


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


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
    monkeypatch.setattr("sys.stdin", io.StringIO("go x=1\ngo y=2\n"))
    code, out, _ = run(capsys, "slice", "--trace", "-", "--instance", "x=1,y=2")
    assert (code, out) == (0, "go go\n")


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


def test_undeclared_event_in_trace_exits_1(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("frobnicate i=i1\n", encoding="utf-8")
    code, _, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert code == 1
    assert "not declared" in err


def test_param_mismatch_exits_1(capsys, tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("next\n", encoding="utf-8")
    code, _, err = run(
        capsys, "monitor", "--spec", fx("hasnext.spec"), "--trace", str(trace)
    )
    assert code == 1
    assert "carries parameters" in err


def test_bad_instance_argument_exits_1(capsys):
    code, _, err = run(
        capsys, "slice", "--trace", fx("abc.trace"), "--instance", "no-equals-sign"
    )
    assert code == 1
    assert "error:" in err


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


def test_internal_value_error_is_not_malformed_input(capsys, monkeypatch):
    def broken_feed(self, event):
        raise ValueError("internal fault")

    monkeypatch.setattr(_EngineBase, "feed", broken_feed)
    with pytest.raises(ValueError, match="internal fault"):
        main(["monitor", "--spec", fx("hasnext.spec"), "--trace", fx("hasnext.trace")])
    assert "error:" not in capsys.readouterr().err


def test_cap_exceeded_exits_2(capsys, tmp_path):
    wide = tmp_path / "wide.trace"
    wide.write_text(
        "e " + " ".join("p%d=v" % i for i in range(11)) + "\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "slice", "--trace", str(wide))
    assert code == 2
    assert "exceeding the enumeration cap" in err
    # a raised cap accepts the same trace
    code, out, _ = run(capsys, "slice", "--trace", str(wide), "--cap", "11")
    assert code == 0


# -- selfcheck ------------------------------------------------------------------


def test_selfcheck_ok(capsys):
    code, out, _ = run(capsys, "selfcheck", "--counts", "30", "--seed", "7")
    assert code == 0
    assert out.splitlines() == [
        "ok: slicing 30/30",
        "ok: engine-pair 30/30",
        "ok: verdicts 30/30",
    ]


def test_selfcheck_catches_snapshot_mutant(capsys):
    code, out, _ = run(
        capsys, "selfcheck", "--counts", "1000", "--unsafe-no-snapshot"
    )
    assert code == 4
    assert out.startswith("MISMATCH after ")
    assert "check:  slicing" in out


def test_selfcheck_catches_join_phase_mutant(capsys):
    code, out, _ = run(capsys, "selfcheck", "--counts", "1000", "--skip-join-phase")
    assert code == 4
    assert "check:  engine-pair" in out


# -- bench ---------------------------------------------------------------------


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--counts", "60,80")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "workload", "trace_size", "algo", "events_per_second",
        "peak_instances", "monitor_steps",
    ]
    body = rows[1:]
    # 2 workloads x 2 sizes x 2 engines
    assert len(body) == 8
    assert {row[0] for row in body} == {"iterator", "adversarial"}
    assert {row[2] for row in body} == {"b", "c"}
    for row in body:
        assert int(row[1]) in (60, 80)
        assert float(row[3]) > 0
        assert int(row[4]) >= 1
        assert int(row[5]) == int(row[1])  # one monitor step per event here
