"""Property files: a small line format declaring alphabet, machine and triggers.

Example (regex kind)::

    property ScopedLocking
    params: r
    event begin()
    event end()
    event acquire(r)
    event release(r)
    monitor: regex
    pattern: (begin (ε | acquire (acquire | release)* release) end)*
    report: fail

The ``monitor:`` line picks the machine kind and decides which payload lines
are legal afterwards:

* ``fsm``     — ``state <name> [initial]``, ``trans <from> <event> <to>``,
  ``label <state> match|fail|unknown`` (unlabeled states are ``unknown``;
  missing transitions go to an absorbing unknown-labeled sink);
* ``regex``   — a single ``pattern:`` line, over the events declared above it;
* ``balance`` — ``roles: enter=<ev> exit=<ev> inc=<ev> dec=<ev>``;
* ``ratio``   — ``success: <ev>`` naming the events counted as successes.

``report:`` lists the verdicts that produce report lines; it may be empty or
omitted entirely (then nothing triggers).

Lines follow the rule trace lines follow (:mod:`slicemon.events`): ``#``
starts a comment, blank lines are ignored, lines end at ``\n``, ``\r\n``
or ``\r``, and any whitespace separates a line's keyword from the rest.
Names are identifiers, and ``params:``, the arguments of an ``event`` and
``report:`` and ``success:`` are comma-separated lists.

Each kind's machine is imported only for its kind: :mod:`slicemon.patterns`
for ``regex``, :mod:`slicemon.counters` for ``balance`` and ``ratio``.
"""

from __future__ import annotations

import io
from typing import Iterable

from .bindings import InputError, _NAME_RE
from .events import ParseError, _line_text
from .machines import FsmMachine, MonitorSpec, Verdict

__all__ = ["SpecFormatError", "parse_property_spec"]

KINDS = ("fsm", "regex", "balance", "ratio")

#: Keywords a file may use at most once.
ONCE = frozenset({"property", "monitor:", "report:", "pattern:", "roles:", "success:"})

#: Payload keywords, each legal only after its kind's ``monitor:`` line.
KIND_OF = {
    "pattern:": "regex",
    "state": "fsm", "trans": "fsm", "label": "fsm",
    "roles:": "balance",
    "success:": "ratio",
}


class SpecFormatError(ParseError):
    """A property file is malformed; carries the 1-based line number."""


def _identifier(lineno: int, text: str, what: str) -> str:
    if not _NAME_RE.match(text):
        raise SpecFormatError(lineno, "bad %s %r" % (what, text))
    return text


def _comma_list(lineno: int, text: str) -> list[str]:
    """The items of a comma-separated list, stripped; a list of empty items names none.

    An empty item beside a named one is an error.
    """
    items = [item.strip() for item in text.split(",")]
    if any(items) and not all(items):
        raise SpecFormatError(lineno, "empty item in the list %r" % text.strip())
    return [item for item in items if item]


def _declared(lineno: int, name: str, declared: dict, what: str = "event") -> str:
    if name not in declared:
        raise SpecFormatError(lineno, "undeclared %s %r" % (what, name))
    return name


def _verdict(lineno: int, tag: str) -> Verdict:
    try:
        return Verdict(tag)
    except ValueError:
        raise SpecFormatError(lineno, "unknown verdict %r" % tag) from None


def compile_regex(pattern: str, alphabet: Iterable[str]) -> FsmMachine:
    """:func:`slicemon.patterns.compile_regex`, imported on first use.

    Only a ``pattern:`` line needs it, so fsm, balance and ratio properties
    never load :mod:`slicemon.patterns`.  It stays a module attribute, which
    :func:`parse_property_spec` looks up on every call, so that a caller can
    wrap it: perfbench's traced run times it that way.
    """
    from .patterns import compile_regex

    return compile_regex(pattern, alphabet)


def parse_property_spec(source: str) -> MonitorSpec:
    """Parse property-file text into a validated :class:`MonitorSpec`."""
    name: str | None = None
    params: list[str] = []
    events: dict[str, tuple[str, ...]] = {}
    kind: str | None = None
    trigger: set[Verdict] = set()
    seen: set[str] = set()  # keywords met so far

    pattern_machine: FsmMachine | None = None
    fsm_states: dict[str, bool] = {}  # name -> declared initial?
    fsm_trans: dict[tuple[str, str], str] = {}
    fsm_labels: dict[str, Verdict] = {}
    roles: dict[str, str] | None = None
    success: list[str] | None = None

    for lineno, raw in enumerate(io.StringIO(source, newline=None), 1):
        line = _line_text(raw)
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword):].lstrip()

        if name is None and keyword != "property":
            raise SpecFormatError(lineno, "file must start with a 'property' line")
        if keyword in KIND_OF and kind != KIND_OF[keyword]:
            raise SpecFormatError(
                lineno, "%r is only valid after 'monitor: %s'" % (keyword, KIND_OF[keyword])
            )
        if keyword in seen and keyword in ONCE:
            raise SpecFormatError(lineno, "duplicate %r line" % keyword)
        seen.add(keyword)

        if keyword == "property":
            name = _identifier(lineno, rest, "property name")
        elif keyword == "params:":
            for param in _comma_list(lineno, rest):
                param = _identifier(lineno, param, "parameter")
                if param in params:
                    raise SpecFormatError(lineno, "parameter %r declared twice" % param)
                params.append(param)
        elif keyword == "event":
            if "(" not in rest or not rest.endswith(")"):
                raise SpecFormatError(lineno, "expected 'event name(params)'")
            ev_name, _, arglist = rest[:-1].partition("(")
            ev_name = _identifier(lineno, ev_name.strip(), "event name")
            if ev_name in events:
                raise SpecFormatError(lineno, "event %r declared twice" % ev_name)
            if "pattern:" in seen:
                raise SpecFormatError(
                    lineno, "event %r declared after the 'pattern:' line" % ev_name
                )
            ev_params = []
            for param in _comma_list(lineno, arglist):
                if param not in params:
                    raise SpecFormatError(
                        lineno, "event %r uses undeclared parameter %r" % (ev_name, param)
                    )
                if param in ev_params:
                    raise SpecFormatError(
                        lineno, "event %r repeats parameter %r" % (ev_name, param)
                    )
                ev_params.append(param)
            events[ev_name] = tuple(ev_params)
        elif keyword == "monitor:":
            if rest not in KINDS:
                raise SpecFormatError(
                    lineno, "unknown monitor kind %r (expected one of %s)"
                    % (rest, ", ".join(KINDS))
                )
            kind = rest
        elif keyword == "report:":
            trigger.update(_verdict(lineno, tag) for tag in _comma_list(lineno, rest))

        elif keyword == "pattern:":
            try:
                pattern_machine = compile_regex(rest, events)
            except InputError as exc:  # a bad pattern, or an undeclared event in it
                raise SpecFormatError(lineno, str(exc)) from exc
        elif keyword == "state":
            fields = rest.split()
            if len(fields) not in (1, 2) or (len(fields) == 2 and fields[1] != "initial"):
                raise SpecFormatError(lineno, "expected 'state name [initial]'")
            state = _identifier(lineno, fields[0], "state name")
            if state in fsm_states:
                raise SpecFormatError(lineno, "state %r declared twice" % state)
            fsm_states[state] = len(fields) == 2
        elif keyword == "trans":
            fields = rest.split()
            if len(fields) != 3:
                raise SpecFormatError(lineno, "expected 'trans from event to'")
            src, ev_name, dst = fields
            for state in (src, dst):
                _declared(lineno, state, fsm_states, "state")
            _declared(lineno, ev_name, events)
            if (src, ev_name) in fsm_trans:
                raise SpecFormatError(
                    lineno, "duplicate transition from %r on %r" % (src, ev_name)
                )
            fsm_trans[(src, ev_name)] = dst
        elif keyword == "label":
            fields = rest.split()
            if len(fields) != 2:
                raise SpecFormatError(lineno, "expected 'label state verdict'")
            state, tag = fields
            _declared(lineno, state, fsm_states, "state")
            if state in fsm_labels:
                raise SpecFormatError(lineno, "state %r labeled twice" % state)
            fsm_labels[state] = _verdict(lineno, tag)
        elif keyword == "roles:":
            roles = {}
            for token in rest.split():
                role, eq, ev_name = token.partition("=")
                if not eq or role not in ("enter", "exit", "inc", "dec"):
                    raise SpecFormatError(lineno, "expected enter=/exit=/inc=/dec= pairs")
                _declared(lineno, ev_name, events)
                if role in roles:
                    raise SpecFormatError(lineno, "role %r assigned twice" % role)
                for other, taken in roles.items():
                    if taken == ev_name:
                        raise SpecFormatError(
                            lineno,
                            "event %r assigned to roles %r and %r" % (ev_name, other, role),
                        )
                roles[role] = ev_name
            if set(roles) != {"enter", "exit", "inc", "dec"}:
                raise SpecFormatError(lineno, "roles: must assign all four roles")
        elif keyword == "success:":
            success = [_declared(lineno, ev_name, events) for ev_name in _comma_list(lineno, rest)]
            if not success:
                raise SpecFormatError(lineno, "'success:' names no event")
        else:
            raise SpecFormatError(lineno, "unrecognized line %r" % line)

    # -- whole-file validation and machine construction --------------------------

    if name is None:
        raise SpecFormatError(1, "missing 'property' line")
    if not events:
        raise SpecFormatError(1, "property declares no events")
    if kind is None:
        raise SpecFormatError(1, "missing 'monitor:' line")

    if kind == "regex":
        if pattern_machine is None:
            raise SpecFormatError(1, "regex monitor needs a 'pattern:' line")
        machine = pattern_machine
    elif kind == "fsm":
        initials = [s for s, is_init in fsm_states.items() if is_init]
        if len(initials) != 1:
            raise SpecFormatError(1, "fsm monitor needs exactly one initial state")
        machine = FsmMachine(initials[0], fsm_trans, fsm_labels, events)
    elif kind == "balance":
        if roles is None:
            raise SpecFormatError(1, "balance monitor needs a 'roles:' line")
        from .counters import BalanceMachine

        machine = BalanceMachine(roles["enter"], roles["exit"], roles["inc"], roles["dec"])
    else:
        if success is None:
            raise SpecFormatError(1, "ratio monitor needs a 'success:' line")
        from .counters import RatioMachine

        machine = RatioMachine(success)

    return MonitorSpec(
        name=name,
        params=tuple(params),
        events=events,
        kind=kind,
        machine=machine,
        trigger=frozenset(trigger),
    )
