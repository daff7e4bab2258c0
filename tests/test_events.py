"""Trace text format and the definitional slice."""

from __future__ import annotations

import pytest

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.events import (
    DuplicateParam,
    ParametricEvent,
    ParseError,
    binding_closure,
    parse_trace,
    render_trace,
    slice_trace,
)


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
