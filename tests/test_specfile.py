"""Property-file parsing: every kind, every rejection branch."""

from __future__ import annotations

import pytest

from slicemon.events import parse_trace
from slicemon.counters import BalanceMachine, RatioMachine
from slicemon.machines import FsmMachine, Verdict
from slicemon.specfile import SpecFormatError, parse_property_spec

from .conftest import FIXTURES

MINIMAL_RATIO = """\
property P
params: u
event success(u)
event failure(u)
monitor: ratio
success: success
"""


def err(source: str) -> SpecFormatError:
    with pytest.raises(SpecFormatError) as info:
        parse_property_spec(source)
    return info.value


# -- the four kinds, via the shipped fixtures -------------------------------------


def test_regex_fixture(locking_spec):
    spec = locking_spec
    assert spec.name == "ScopedLocking"
    assert spec.params == ("r",)
    assert set(spec.events) == {"begin", "end", "acquire", "release"}
    assert spec.events["acquire"] == ("r",)
    assert spec.events["begin"] == ()
    assert spec.kind == "regex"
    assert isinstance(spec.machine, FsmMachine)
    assert spec.trigger == {Verdict.FAIL}


def test_fsm_fixture(hasnext_spec):
    spec = hasnext_spec
    assert spec.kind == "fsm"
    assert isinstance(spec.machine, FsmMachine)
    assert spec.machine.initial() == "unknown"
    assert spec.machine.run(["next"]) is Verdict.FAIL
    assert spec.machine.run(["hasnexttrue", "next"]) is Verdict.UNKNOWN


def test_balance_fixture(fixtures):
    spec = parse_property_spec((fixtures / "balanced.spec").read_text(encoding="utf-8"))
    assert spec.kind == "balance"
    assert isinstance(spec.machine, BalanceMachine)
    assert spec.machine.roles == {
        "enter": "begin",
        "exit": "end",
        "inc": "acquire",
        "dec": "release",
    }
    assert spec.trigger == {Verdict.FAIL}


def test_ratio_fixture(fixtures):
    spec = parse_property_spec((fixtures / "ratio.spec").read_text(encoding="utf-8"))
    assert spec.kind == "ratio"
    assert isinstance(spec.machine, RatioMachine)
    assert spec.machine.success_events == {"success"}
    assert spec.trigger == frozenset()  # no report: line at all


def test_report_line_variants():
    spec = parse_property_spec(MINIMAL_RATIO + "report: match, fail\n")
    assert spec.trigger == {Verdict.MATCH, Verdict.FAIL}
    for empty in ("report:\n", "report: ,\n"):
        assert parse_property_spec(MINIMAL_RATIO + empty).trigger == frozenset()


def test_comments_and_blank_lines_ignored():
    source = "# banner\n\n" + MINIMAL_RATIO.replace(
        "monitor: ratio", "monitor: ratio   # kind"
    )
    assert parse_property_spec(source).kind == "ratio"


def spec_fields(source: str) -> tuple:
    spec = parse_property_spec(source)
    machine = (type(spec.machine), vars(spec.machine))
    return spec.name, spec.params, spec.events, spec.kind, spec.trigger, machine


@pytest.mark.parametrize(
    "space", ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028"],
    ids=["tab", "vt", "ff", "fs", "nel", "nbsp", "ls"],
)
def test_any_whitespace_separates_fields(space):
    # Property files and traces share one line rule: a keyword, like any
    # other field, may be followed by any whitespace, not only a space.
    for path in sorted(FIXTURES.glob("*.spec")):
        text = path.read_text(encoding="utf-8")
        assert spec_fields(text.replace(" ", space)) == spec_fields(text), path.name
    for path in sorted(FIXTURES.glob("*.trace")):
        text = path.read_text(encoding="utf-8")
        assert parse_trace(text.replace(" ", space)) == parse_trace(text), path.name


# -- rejection branches ------------------------------------------------------------


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"])
def test_only_newline_crlf_and_cr_end_a_line(separator):
    for ending in ("\r\n", "\r"):
        spec = parse_property_spec(MINIMAL_RATIO.replace("\n", ending))
        assert spec.events == {"success": ("u",), "failure": ("u",)}
    # Any other line separator is whitespace inside the line, as in a trace.
    error = err("property P\nparams: i\nevent next(i)%sevent bogus(i)\n" % separator)
    assert error.line == 3
    assert "event 'next' uses undeclared parameter" in str(error)


def test_must_start_with_property():
    assert err("params: x\n").line == 1
    assert "property" in str(err("params: x\n"))


def test_duplicate_property_line():
    assert "duplicate" in str(err("property A\nproperty B\n"))


def test_bad_identifiers():
    assert err("property 9bad\n").line == 1
    assert err("property P\nparams: 9x\n").line == 2


def test_event_declaration_errors():
    base = "property P\nparams: i\n"
    assert "event name(params)" in str(err(base + "event next\n"))
    assert "undeclared parameter" in str(err(base + "event next(q)\n"))
    assert "declared twice" in str(err(base + "event next(i)\nevent next(i)\n"))
    repeated = err(base + "event next(i, i)\n")
    assert repeated.line == 3
    assert "event 'next' repeats parameter 'i'" in str(repeated)
    repeated = err(base + "params: j, i\n")
    assert repeated.line == 3
    assert "parameter 'i' declared twice" in str(repeated)
    assert err("property P\nparams: i, i\n").line == 2


def test_monitor_line_errors():
    base = "property P\nevent tick()\n"
    assert "unknown monitor kind" in str(err(base + "monitor: turing\n"))
    assert "duplicate" in str(err(base + "monitor: ratio\nmonitor: ratio\n"))
    assert "missing 'monitor:'" in str(err(base))


def test_report_errors():
    assert "unknown verdict" in str(err(MINIMAL_RATIO + "report: maybe\n"))
    assert "duplicate" in str(err(MINIMAL_RATIO + "report: fail\nreport: fail\n"))


@pytest.mark.parametrize(
    "source, line",
    [
        ("property P\nparams: a,,b\n", 2),
        ("property P\nparams: a\nevent e(a,)\n", 3),
        (MINIMAL_RATIO + "report: fail,\n", 7),
    ],
)
def test_an_empty_item_beside_a_named_one_is_an_error(source, line):
    # A list that names nothing (``report:``, ``report: ,``) stays empty;
    # an empty item next to a named one is a typo, not a shorter list.
    error = err(source)
    assert error.line == line
    assert "empty item" in str(error)


def test_payload_keywords_require_matching_kind():
    assert "only valid after 'monitor: regex'" in str(
        err("property P\nevent a()\npattern: a\n")
    )
    assert "only valid after 'monitor: fsm'" in str(
        err(MINIMAL_RATIO + "state s initial\n")
    )
    assert "only valid after 'monitor: balance'" in str(
        err(MINIMAL_RATIO + "roles: enter=success exit=failure inc=success dec=failure\n")
    )
    assert "only valid after 'monitor: ratio'" in str(
        err("property P\nevent a()\nmonitor: fsm\nsuccess: a\n")
    )


def test_fsm_payload_errors():
    base = "property P\nevent go()\nmonitor: fsm\n"
    assert "expected 'state name [initial]'" in str(err(base + "state s wrong\n"))
    assert "declared twice" in str(err(base + "state s\nstate s\n"))
    assert "expected 'trans from event to'" in str(err(base + "state s\ntrans s go\n"))
    assert "undeclared state" in str(err(base + "state s initial\ntrans s go t\n"))
    assert "undeclared event" in str(err(base + "state s initial\ntrans s jump s\n"))
    assert "duplicate transition" in str(
        err(base + "state s initial\ntrans s go s\ntrans s go s\n")
    )
    assert "expected 'label state verdict'" in str(err(base + "state s\nlabel s\n"))
    assert "undeclared state" in str(err(base + "label ghost fail\n"))
    assert "unknown verdict" in str(err(base + "state s\nlabel s maybe\n"))
    relabeled = err(base + "state s initial\nlabel s fail\nlabel s match\n")
    assert relabeled.line == 6
    assert "state 's' labeled twice" in str(relabeled)
    assert "exactly one initial" in str(err(base + "state s\n"))
    assert "exactly one initial" in str(err(base + "state s initial\nstate t initial\n"))


def test_regex_payload_errors():
    base = "property P\nevent a()\nmonitor: regex\n"
    assert "duplicate 'pattern:'" in str(err(base + "pattern: a\npattern: a\n"))
    assert "needs a 'pattern:'" in str(err(base))
    unbalanced = err(base + "pattern: a)\n")
    assert unbalanced.line == 4
    assert "unexpected ')' (at position 1)" in str(unbalanced)
    unknown = err(base + "pattern: a b\nevent b()\n")
    assert unknown.line == 4
    assert "undeclared event 'b'" in str(unknown)
    late = err(base + "pattern: a\nevent b()\n")
    assert late.line == 5
    assert "event 'b' declared after the 'pattern:' line" in str(late)


def test_balance_payload_errors():
    base = "property P\nevent b()\nevent e()\nevent i()\nevent d()\nmonitor: balance\n"
    assert "expected enter=" in str(err(base + "roles: lock=b\n"))
    assert "undeclared event" in str(err(base + "roles: enter=zz\n"))
    assert "assigned twice" in str(err(base + "roles: enter=b enter=e\n"))
    shared = err(base + "roles: enter=b exit=b inc=i dec=i\n")
    assert shared.line == 7
    assert "event 'b' assigned to roles 'enter' and 'exit'" in str(shared)
    assert "all four roles" in str(err(base + "roles: enter=b exit=e\n"))
    twice = err(
        base
        + "roles: enter=b exit=e inc=i dec=d\n"
        + "roles: enter=e exit=b inc=d dec=i\n"
    )
    assert twice.line == 8
    assert "duplicate 'roles:' line" in str(twice)
    assert "needs a 'roles:'" in str(err(base))


def test_ratio_payload_errors():
    base = "property P\nevent ok()\nmonitor: ratio\n"
    assert "undeclared event" in str(err(base + "success: nope\n"))
    assert "duplicate 'success:'" in str(err(base + "success: ok\nsuccess: ok\n"))
    assert "needs a 'success:'" in str(err(base))
    for empty in ("success:\n", "success: \n", "success: ,\n"):
        named_none = err(base + empty)
        assert named_none.line == 4
        assert "'success:' names no event" in str(named_none)


def test_unrecognized_line():
    assert "unrecognized" in str(err("property P\nfrobnicate: yes\n"))


def test_missing_pieces():
    assert "missing 'property'" in str(err(""))
    assert "declares no events" in str(err("property P\nmonitor: ratio\n"))
