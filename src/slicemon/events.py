"""Parameter-carrying events, traces, and the definitional slice.

A parametric event is a base event name plus a binding of parameter names to
values; a parametric trace is a finite sequence of them.  The *slice* of a
trace for a binding ``b`` keeps, in order, the names of exactly those events
whose own binding is less informative than ``b`` — that one-line reduct is the
ground truth every online table in this package is checked against.

The text format, one event per line::

    eventname param=value param=value   # comment
    # blank lines and full-line comments are ignored

Parameter names are identifiers, values are any non-empty run of characters
without whitespace, ``=``, ``,`` or ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .bindings import EMPTY, ParamInstance, _NAME_RE, _VALUE_RE, join_closure

__all__ = [
    "DuplicateParam",
    "ParamMismatch",
    "ParseError",
    "ParametricEvent",
    "UnknownEvent",
    "binding_closure",
    "parse_trace",
    "render_trace",
    "slice_trace",
]


class ParseError(ValueError):
    """A trace line could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class DuplicateParam(ParseError):
    """The same parameter name appeared twice in one event."""


class UnknownEvent(ValueError):
    """An event name is not part of the property's declared alphabet."""


class ParamMismatch(ValueError):
    """An event carries a different parameter set than its declaration."""


@dataclass(frozen=True)
class ParametricEvent:
    """A base event name together with the binding it was observed under."""

    name: str
    instance: ParamInstance = field(default=EMPTY)

    def render(self) -> str:
        if not self.instance:
            return self.name
        return self.name + " " + " ".join("%s=%s" % item for item in self.instance)


def parse_trace(source: str | Iterable[str]) -> list[ParametricEvent]:
    """Parse trace text (or an iterable of lines) into events.

    Raises :class:`ParseError` (with the offending line number) on malformed
    lines and :class:`DuplicateParam` when one event binds a name twice.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    events: list[ParametricEvent] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name = tokens[0]
        if not _NAME_RE.match(name):
            raise ParseError(lineno, "bad event name %r" % name)
        mapping: dict[str, str] = {}
        for token in tokens[1:]:
            pname, eq, value = token.partition("=")
            if not eq:
                raise ParseError(lineno, "expected param=value, got %r" % token)
            if not _NAME_RE.match(pname):
                raise ParseError(lineno, "bad parameter name %r" % pname)
            if not _VALUE_RE.match(value):
                raise ParseError(lineno, "bad parameter value %r" % value)
            if pname in mapping:
                raise DuplicateParam(lineno, "parameter %r bound twice" % pname)
            mapping[pname] = value
        events.append(
            ParametricEvent(name, ParamInstance._wrap(tuple(sorted(mapping.items()))))
        )
    return events


def render_trace(trace: Iterable[ParametricEvent]) -> str:
    """Inverse of :func:`parse_trace` (modulo comments and blank lines)."""
    return "\n".join(event.render() for event in trace) + "\n"


def slice_trace(
    trace: Iterable[ParametricEvent], binding: ParamInstance
) -> tuple[str, ...]:
    """The definitional slice: names of events whose binding refines into ``binding``.

    Order is preserved; an event survives exactly when its own binding is less
    informative than (or equal to) ``binding``.  This one-liner is the ground
    truth the incremental tables are differentially tested against — keep it
    obvious.
    """
    return tuple(
        event.name for event in trace if event.instance.less_informative(binding)
    )


def binding_closure(trace: Iterable[ParametricEvent]) -> set[ParamInstance]:
    """Join closure of the bindings carried by the trace (the slice-table domain)."""
    return join_closure(event.instance for event in trace)

