"""Parameter-carrying events and traces.

A parametric event is a base event name plus a binding of parameter names to
values; a parametric trace is a finite sequence of them.  The *slice* of a
trace for a binding ``b`` keeps, in order, the names of exactly those events
whose own binding is less informative than ``b`` — that one-line reduct,
:func:`slice_trace`, is the ground truth every online table in this
package is checked against, and ``slicemon slice --instance`` prints it.

The text format, one event per line::

    eventname param=value param=value   # comment
    # blank lines and full-line comments are ignored

Parameter names are identifiers, values are any non-empty run of characters
without whitespace, ``=``, ``,`` or ``#``.

This module also owns the line rule that traces and property files share
(:func:`_line_text`).  Lines end at ``\n``, ``\r\n`` or ``\r`` — the rule
Python applies when it reads a text file — whether the input comes as a
string, a file or standard input.  Other characters that ``str.splitlines``
would split on (``\x0b``, ``\x0c``, ``\x1c``–``\x1e``, ``\x85``,
``\u2028``, ``\u2029``) are whitespace inside a line.  A line's text is
what comes before its first ``#``, stripped; a line with no text is
skipped; and any run of whitespace (``str.split``'s) separates its fields.

:func:`iter_trace` is the one parser: it yields each event as its line
arrives, and keeps at most :data:`LINE_CACHE_SIZE` distinct lines and the
bindings they carry, so a trace of any length is read in bounded memory.
Within one run, a line seen before yields the same :class:`ParametricEvent`
object, and equal bindings are one :class:`ParamInstance` object, until
that many distinct lines fill the cache and both caches start over.
"""

from __future__ import annotations

import io
from typing import Callable, Iterable, Iterator

from .bindings import EMPTY, InputError, ParamInstance, _NAME_RE, _VALUE_RE

__all__ = [
    "DuplicateParam",
    "ParamMismatch",
    "ParseError",
    "ParametricEvent",
    "UnknownEvent",
    "iter_trace",
    "parse_trace",
    "render_trace",
    "slice_trace",
]


class ParseError(InputError):
    """An input line could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class DuplicateParam(ParseError):
    """The same parameter name appeared twice in one event."""


class UnknownEvent(InputError):
    """An event name is not part of the property's declared alphabet."""


class ParamMismatch(InputError):
    """An event carries a different parameter set than its declaration."""


class ParametricEvent:
    """A base event name together with the binding it was observed under.

    A value: events are equal when their names and bindings are.  Like a
    binding it is immutable by convention (the fields are plain slots, read
    on every event), and :func:`iter_trace` hands one object to every line
    that reads the same.
    """

    __slots__ = ("name", "instance")

    def __init__(self, name: str, instance: ParamInstance = EMPTY):
        self.name = name
        self.instance = instance

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.instance == other.instance

    def __hash__(self) -> int:
        return hash((self.name, self.instance))

    def __repr__(self) -> str:
        return "ParametricEvent(name=%r, instance=%r)" % (self.name, self.instance)

    def render(self) -> str:
        if not self.instance:
            return self.name
        return self.name + " " + " ".join("%s=%s" % item for item in self.instance)


#: Distinct lines whose events :func:`iter_trace` keeps for reuse.  When the
#: cache holds this many it is emptied, and so is the intern dict of
#: bindings, so a stream of ever new lines grows neither without bound.
LINE_CACHE_SIZE = 4096


def iter_trace(
    lines: str | Iterable[str],
    check: Callable[[ParametricEvent], None] | None = None,
) -> Iterator[ParametricEvent]:
    """Yield the events of trace text (or an iterable of lines) as they arrive.

    Raises :class:`ParseError` (with the offending line number) on malformed
    lines and :class:`DuplicateParam` when one event binds a name twice.

    ``check`` (say, ``MonitorSpec.check_event``) runs once per distinct
    line, before its event is cached: a cached event has always passed it,
    also after the cache was emptied.  An :class:`UnknownEvent` or
    :class:`ParamMismatch` it raises is raised again with ``line N: `` in
    front of its message.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)
    events: dict[str, ParametricEvent] = {}
    bindings: dict[ParamInstance, ParamInstance] = {EMPTY: EMPTY}
    for lineno, raw in enumerate(lines, 1):
        event = events.get(raw)
        if event is None:
            event = _parse_line(raw, lineno, bindings)
            if event is None:
                continue
            if check is not None:
                try:
                    check(event)
                except (UnknownEvent, ParamMismatch) as exc:
                    raise type(exc)("line %d: %s" % (lineno, exc)) from None
            if len(events) >= LINE_CACHE_SIZE:
                events.clear()
                bindings = {EMPTY: EMPTY}
            events[raw] = event
        yield event


def _line_text(raw: str) -> str:
    """The text of one trace or property-file line: before its first ``#``, stripped.

    "" is a blank or comment line.  ``.split()`` gives the fields.
    """
    return raw.split("#", 1)[0].strip()


def _parse_line(
    raw: str, lineno: int, bindings: dict[ParamInstance, ParamInstance]
) -> ParametricEvent | None:
    """The event on one line, or None for a blank or comment line.

    ``bindings`` maps each binding seen so far to itself, the one object
    for it; a binding equals its item tuple, so the tuple finds it, and a
    new one is added.
    """
    tokens = _line_text(raw).split()
    if not tokens:
        return None
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
    items = tuple(sorted(mapping.items()))
    instance = bindings.get(items)
    if instance is None:
        instance = ParamInstance._wrap(items)
        bindings[instance] = instance
    return ParametricEvent(name, instance)


def parse_trace(source: str | Iterable[str]) -> list[ParametricEvent]:
    """All events of trace text (or an iterable of lines): :func:`iter_trace` as a list."""
    return list(iter_trace(source))


def render_trace(trace: Iterable[ParametricEvent]) -> str:
    """Inverse of :func:`parse_trace` (modulo comments and blank lines)."""
    return "\n".join(event.render() for event in trace) + "\n"


def slice_trace(trace: Iterable[ParametricEvent], binding: ParamInstance) -> tuple[str, ...]:
    """The definitional slice: names of events whose binding refines into ``binding``.

    Order is preserved; an event survives exactly when its own binding is less
    informative than (or equal to) ``binding``.  This one-liner is the ground
    truth the incremental tables are differentially tested against, and what
    ``slicemon slice --instance`` prints from :func:`iter_trace` — keep it
    obvious.
    """
    return tuple(event.name for event in trace if event.instance.less_informative(binding))
