"""Base monitors: deterministic verdict machines over plain event names.

A machine consumes one event name at a time and labels every reachable state
with a verdict.  The three-way verdicts are ``match`` (the word read so far
satisfies the property), ``fail`` (no continuation can satisfy it) and
``unknown``; the ratio machine instead reports a running success/total pair.

Machine states are values: they must be immutable and comparable (strings,
ints, tuples).  The parametric engines copy states between table entries by
plain assignment, which is only sound under that contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Hashable, Iterable, Mapping

from .events import ParametricEvent, ParamMismatch, UnknownEvent

__all__ = [
    "BalanceMachine",
    "FsmMachine",
    "Machine",
    "MonitorSpec",
    "Ratio",
    "RatioMachine",
    "Verdict",
]

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


class Ratio:
    """Running success/total counter pair reported by the ratio machine.

    A value, compared and hashed by its two counts.
    """

    __slots__ = ("successes", "total")

    def __init__(self, successes: int, total: int):
        self.successes = successes
        self.total = total

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.successes == other.successes and self.total == other.total

    def __hash__(self) -> int:
        return hash((self.successes, self.total))

    def __repr__(self) -> str:
        return "Ratio(successes=%r, total=%r)" % (self.successes, self.total)

    def __str__(self) -> str:
        return "%d/%d" % (self.successes, self.total)


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
        """Verdict attached to a state (a :class:`Verdict` or a :class:`Ratio`)."""

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
        return self._labels.get(state, Verdict.UNKNOWN)


class BalanceMachine(Machine):
    """Counter-with-depth monitor for properly nested sections.

    Two bracket pairs are tracked: ``enter``/``exit`` sections and
    ``inc``/``dec`` counted operations inside the current section.  The state
    is ``(violated, counters)`` where ``counters`` holds one count per open
    section (outermost first).  A violation — decrementing below zero, leaving
    a section with a nonzero count, or an ``exit`` with no open section — is
    sticky and can never be repaired, hence ``fail``.  Every violation leads
    to the one state ``VIOLATED``, whatever the counters were, so that state
    is the machine's sink.  The word matches exactly when nothing is open
    and the outer count is zero; otherwise a proper completion still exists
    and the verdict is ``unknown``.

    Event names outside the four roles leave the state unchanged.
    """

    #: The one violated state; it keeps no counters.
    VIOLATED = (True, ())
    sinks = frozenset([VIOLATED])

    def __init__(self, enter: str, exit: str, inc: str, dec: str):
        self.roles = {"enter": enter, "exit": exit, "inc": inc, "dec": dec}
        self._enter, self._exit, self._inc, self._dec = enter, exit, inc, dec

    def initial(self) -> tuple[bool, tuple[int, ...]]:
        return (False, (0,))

    def step(self, state, name):
        violated, counters = state
        if violated:
            return state
        if name == self._enter:
            return (False, counters + (0,))
        if name == self._exit:
            if len(counters) == 1 or counters[-1] != 0:
                return self.VIOLATED
            return (False, counters[:-1])
        if name == self._inc:
            return (False, counters[:-1] + (counters[-1] + 1,))
        if name == self._dec:
            if counters[-1] == 0:
                return self.VIOLATED
            return (False, counters[:-1] + (counters[-1] - 1,))
        return state

    def output(self, state) -> Verdict:
        violated, counters = state
        if violated:
            return Verdict.FAIL
        if len(counters) == 1 and counters[0] == 0:
            return Verdict.MATCH
        return Verdict.UNKNOWN


class RatioMachine(Machine):
    """Success/total counter: total ticks on every event, successes on some."""

    def __init__(self, success_events: Iterable[str]):
        self.success_events = frozenset(success_events)

    def initial(self) -> tuple[int, int]:
        return (0, 0)

    def step(self, state, name):
        successes, total = state
        return (successes + (1 if name in self.success_events else 0), total + 1)

    def output(self, state) -> Ratio:
        return Ratio(*state)


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
        carried = event.instance.names
        if carried != expected:
            raise ParamMismatch(
                "event %r carries parameters (%s) but declares (%s)"
                % (event.name, ",".join(carried), ",".join(self.events[event.name]))
            )
