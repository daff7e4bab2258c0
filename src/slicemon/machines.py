"""Base monitors: deterministic verdict machines over plain event names.

A machine consumes one event name at a time and labels every reachable state
with a verdict.  The three-way verdicts are ``match`` (the word read so far
satisfies the property), ``fail`` (no continuation can satisfy it) and
``unknown``; the ratio machine instead reports a running success/total pair.
This module holds the base class and the finite-state machine; the counting
machines, ``balance`` and ``ratio``, are in :mod:`slicemon.counters`.

Machine states are values: they must be immutable and comparable (strings,
ints, tuples).  The parametric engines copy states between table entries by
plain assignment, which is only sound under that contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Hashable, Iterable, Mapping

from .bindings import _name_of
from .events import ParametricEvent, ParamMismatch, UnknownEvent

__all__ = ["FsmMachine", "Machine", "MonitorSpec", "Verdict"]

State = Hashable


class Verdict(Enum):
    """Three-way verdict for a finite word."""

    MATCH = "match"
    FAIL = "fail"
    UNKNOWN = "unknown"

    # Equality is identity, so the identity hash agrees with it, and runs
    # in C where ``Enum.__hash__`` hashes the member's name in Python: a
    # trigger test hashes the verdict of every step whose verdict changed.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        # ``_value_`` is a plain attribute; ``value`` is a Python-level
        # descriptor, read on every rendered report.
        return self._value_


#: Read once here: ``Verdict.UNKNOWN`` looks the member up through the enum
#: class on every call, in Python.
_UNKNOWN = Verdict.UNKNOWN


class Machine(ABC):
    """Deterministic monitor: initial state, step function, state labeling.

    ``sinks`` lists absorbing states: every event name of the alphabet steps
    such a state back to itself, so its output never changes again.  A
    machine that cannot tell leaves it empty, which is always sound.
    """

    sinks: frozenset[State] = frozenset()

    @abstractmethod
    def initial(self) -> State:
        """State before any event."""

    @abstractmethod
    def step(self, state: State, name: str) -> State:
        """Successor state after consuming one event name."""

    @abstractmethod
    def output(self, state: State):
        """Verdict attached to a state.

        A :class:`Verdict`, or a :class:`~slicemon.counters.Ratio` for the
        ratio machine.
        """

    def run(self, names: Iterable[str]):
        """Verdict after consuming a whole word (convenience for tests/docs)."""
        state = self.initial()
        for name in names:
            state = self.step(state, name)
        return self.output(state)


#: Reserved state name for transitions a finite-state table leaves undefined.
STUCK = "<stuck>"


class FsmMachine(Machine):
    """Finite-state machine given by a transition table, total over its alphabet.

    States are any hashable values: names from fsm files, ints from compiled
    patterns.  The table is stored as one row per state mapping every event
    name of the alphabet to a successor.  Moves the table leaves out go to an
    implicit absorbing ``<stuck>`` state; unlabeled states (``<stuck>`` too)
    read ``unknown``.  ``sinks`` holds the states whose row maps every name
    to the state itself: ``<stuck>``, and a compiled pattern's empty subset.

    Stepping a name outside the alphabet raises :class:`KeyError`; validate
    events first with :meth:`MonitorSpec.check_event`, as the CLI does.
    """

    def __init__(
        self,
        initial: State,
        transitions: Mapping[tuple[State, str], State],
        labels: Mapping[State, Verdict],
        alphabet: Iterable[str],
    ):
        self._initial = initial
        self._labels = dict(labels)
        self.alphabet = frozenset(alphabet)
        states = {initial} | {s for s, _ in transitions} | set(transitions.values())
        if STUCK in states:
            raise ValueError("state name %r is reserved" % STUCK)
        for _, name in transitions:
            if name not in self.alphabet:
                raise ValueError("transition on undeclared event %r" % name)
        for state in self._labels:
            if state not in states:
                raise ValueError("label for undeclared state %r" % state)
        self.states = frozenset(states)
        self._rows = {
            state: dict.fromkeys(self.alphabet, STUCK) for state in states | {STUCK}
        }
        for (state, name), target in transitions.items():
            self._rows[state][name] = target
        self.sinks = frozenset(
            state
            for state, row in self._rows.items()
            if all(target == state for target in row.values())
        )

    def initial(self) -> State:
        return self._initial

    def step(self, state: State, name: str) -> State:
        return self._rows[state][name]

    def output(self, state: State) -> Verdict:
        return self._labels.get(state, _UNKNOWN)


class MonitorSpec:
    """A parsed property: alphabet, parameters, machine, and report triggers.

    ``events`` maps each declared event name to the tuple of parameter names
    it must carry; ``trigger`` is the set of verdicts that produce a report.
    """

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        events: dict[str, tuple[str, ...]],
        kind: str,
        machine: Machine,
        trigger: frozenset[Verdict],
    ):
        self.name = name
        self.params = params
        self.events = events
        self.kind = kind
        self.machine = machine
        self.trigger = trigger
        #: Each declared event's parameter names, sorted as a binding's are.
        self._carries = {name: tuple(sorted(names)) for name, names in events.items()}

    def check_event(self, event: ParametricEvent) -> None:
        """Validate one trace event against the declared alphabet.

        Raises :class:`UnknownEvent` for undeclared names and
        :class:`ParamMismatch` when the carried parameter set differs from
        the declaration.
        """
        expected = self._carries.get(event.name)
        if expected is None:
            raise UnknownEvent(
                "event %r is not declared by property %s" % (event.name, self.name)
            )
        carried = tuple(map(_name_of, event.instance))  # ``.names``, without the property call
        if carried != expected:
            raise ParamMismatch(
                "event %r carries parameters (%s) but declares (%s)"
                % (event.name, ",".join(carried), ",".join(self.events[event.name]))
            )
