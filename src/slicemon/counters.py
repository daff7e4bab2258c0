"""Counting machines: the ``balance`` and ``ratio`` kinds of property file.

Their states count, so unlike a finite-state machine they have no
transition table.  :mod:`slicemon.specfile` imports this module only for
a ``monitor: balance`` or ``monitor: ratio`` line.
"""

from __future__ import annotations

from typing import Iterable

from .machines import Machine, Verdict

__all__ = ["BalanceMachine", "Ratio", "RatioMachine"]

#: Read once here, not through the enum class on every ``output`` call.
_FAIL, _MATCH, _UNKNOWN = Verdict.FAIL, Verdict.MATCH, Verdict.UNKNOWN


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
            return _FAIL
        if len(counters) == 1 and counters[0] == 0:
            return _MATCH
        return _UNKNOWN


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
