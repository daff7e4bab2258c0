"""Trace text format and the definitional slice."""

from __future__ import annotations

from collections import deque

import pytest

from slicemon import events
from slicemon.bindings import EMPTY, ParamInstance
from slicemon.events import (
    DuplicateParam,
    ParamMismatch,
    ParametricEvent,
    ParseError,
    UnknownEvent,
    iter_trace,
    parse_trace,
    render_trace,
)
from slicemon.reference import binding_closure, slice_trace


def test_parse_basic():
    events = parse_trace("open f=log\nwrite f=log n=3\nclose f=log\n")
    assert [e.name for e in events] == ["open", "write", "close"]
    assert events[1].instance == ParamInstance({"f": "log", "n": "3"})


def test_parse_skips_comments_and_blanks():
    text = "# header\n\nopen f=a   # trailing\n   \nclose f=a\n"
    events = parse_trace(text)
    assert [e.name for e in events] == ["open", "close"]


def test_parse_event_without_params():
    (event,) = parse_trace("tick")
    assert event.instance == EMPTY
    assert event.render() == "tick"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_trace("ok\n3bad\n")
    assert info.value.line == 2

    with pytest.raises(ParseError) as info:
        parse_trace("open f\n")
    assert info.value.line == 1
    assert "param=value" in str(info.value)

    with pytest.raises(ParseError):
        parse_trace("open 9f=x\n")
    with pytest.raises(ParseError):
        parse_trace("open f=\n")
    with pytest.raises(ParseError):
        parse_trace("open f=a,b\n")  # "," separates pairs in an encoding


def test_duplicate_param_rejected():
    with pytest.raises(DuplicateParam) as info:
        parse_trace("open f=a f=b\n")
    assert info.value.line == 1


def test_events_are_values():
    event = ParametricEvent("next", ParamInstance({"i": "1"}))
    same = ParametricEvent("next", ParamInstance({"i": "1"}))
    assert event == same and hash(event) == hash(same) and len({event, same}) == 1
    assert event != ParametricEvent("next", ParamInstance({"i": "2"}))
    assert event != ParametricEvent("hasnext", ParamInstance({"i": "1"}))
    assert event != ("next", event.instance)
    assert ParametricEvent("tick") == ParametricEvent("tick", EMPTY)
    assert repr(event) == "ParametricEvent(name='next', instance=ParamInstance('i=1'))"


def test_render_round_trip():
    text = "open f=log\ntick\nwrite f=log n=3\n"
    assert render_trace(parse_trace(text)) == text


def test_slice_trace_hand_checked():
    trace = parse_trace(
        "e1 p=a1\n"
        "e2 p=a2\n"
        "e3 q=b1\n"
        "e4 p=a2 q=b1\n"
        "e5 p=a1\n"
        "e6\n"
    )
    a1 = ParamInstance({"p": "a1"})
    a2b1 = ParamInstance({"p": "a2", "q": "b1"})
    assert slice_trace(trace, EMPTY) == ("e6",)
    assert slice_trace(trace, a1) == ("e1", "e5", "e6")
    assert slice_trace(trace, a2b1) == ("e2", "e3", "e4", "e6")
    # a binding unrelated to anything in the trace still sees the ground events
    assert slice_trace(trace, ParamInstance({"r": "zz"})) == ("e6",)


def test_slice_of_empty_trace():
    assert slice_trace([], ParamInstance({"x": "1"})) == ()


def test_binding_closure():
    trace = [
        ParametricEvent("a", ParamInstance({"x": "1"})),
        ParametricEvent("b", ParamInstance({"y": "2"})),
    ]
    closed = binding_closure(trace)
    assert closed == {
        EMPTY,
        ParamInstance({"x": "1"}),
        ParamInstance({"y": "2"}),
        ParamInstance({"x": "1", "y": "2"}),
    }


# -- the line rule -------------------------------------------------------------


def test_lines_end_only_at_newline_crlf_and_cr():
    # \x0c and \u2028 are whitespace inside a line, as when a file is read.
    trace = parse_trace("a x=1\r\nb x=2\x0c\rc\u2028x=3\nd\n")
    assert [e.render() for e in trace] == ["a x=1", "b x=2", "c x=3", "d"]


@pytest.mark.parametrize("text, line", [
    ("ok\r\nok\r\nnext i=1\x0cnext i=2\r\n", 3),
    ("ok\rnext i=1\u2028next i=2\n", 2),
    ("ok a=1\x0bb=2\x1cc=3\x85d=4\u2029e=5\n3bad\n", 2),
])
def test_error_line_numbers_follow_the_line_rule(text, line):
    with pytest.raises(ParseError) as info:
        parse_trace(text)
    assert info.value.line == line


# -- streaming, interning and the check ----------------------------------------


def test_iter_trace_yields_each_event_as_its_line_arrives():
    def lines():
        yield "first x=1\n"
        raise AssertionError("read past the first line")

    assert next(iter_trace(lines())) == ParametricEvent("first", ParamInstance({"x": "1"}))


def test_repeated_lines_and_bindings_are_interned():
    trace = parse_trace("a x=1\nb x=1\na x=1\ntick\nb  x=1\n")
    assert trace[0] is trace[2]
    assert trace[0] is not trace[1] and trace[1] == trace[4]
    assert len({id(e.instance) for e in trace if e.instance}) == 1
    assert trace[3].instance is EMPTY


def test_each_interned_binding_is_its_own_key():
    bindings = {EMPTY: EMPTY}
    for lineno, raw in enumerate(["a x=1", "b y=2 x=1", "c x=1 y=2", "d x=1", "tick"], 1):
        events._parse_line(raw, lineno, bindings)
    assert len(bindings) == 3
    assert all(key is value for key, value in bindings.items())
    assert all(type(key) is ParamInstance for key in bindings)


def test_check_runs_once_per_distinct_line():
    seen = []
    trace = list(iter_trace("a x=1\nb x=1\na x=1\na x=1\nb x=2\n", seen.append))
    assert [e.render() for e in seen] == ["a x=1", "b x=1", "b x=2"]
    assert len(trace) == 5


def test_alphabet_errors_from_check_name_their_line(hasnext_spec):
    with pytest.raises(UnknownEvent) as info:
        parse_check("next i=1\n\nbogus i=1\n", hasnext_spec)
    assert str(info.value) == "line 3: event 'bogus' is not declared by property SafeIteration"
    with pytest.raises(ParamMismatch) as info:
        parse_check("next i=1\nnext j=1\n", hasnext_spec)
    assert str(info.value) == "line 2: event 'next' carries parameters (j) but declares (i)"


def test_check_after_a_cache_clear_is_not_skipped(hasnext_spec, monkeypatch):
    # With room for two lines, a stream cycling over three lines misses the
    # cache on every line, so every line is checked, up to the undeclared
    # event at the end.  Events are dropped as they are read, as the CLI
    # does, so a new event may take the address of one the cache let go.
    monkeypatch.setattr(events, "LINE_CACHE_SIZE", 2)
    checked = []

    def check(event):
        checked.append(event.render())
        hasnext_spec.check_event(event)

    text = "".join("next i=%d\n" % (n % 3) for n in range(3000)) + "bogus i=1\n"
    with pytest.raises(UnknownEvent, match="^line 3001: "):
        deque(iter_trace(text, check), maxlen=0)
    assert len(checked) == 3001


def parse_check(text, spec):
    return list(iter_trace(text, spec.check_event))
