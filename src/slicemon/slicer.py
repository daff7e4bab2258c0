"""Online trace slicing: one pass, one table, all slices at once.

Slicing is monitoring with a machine whose state is the word read so far:
:class:`SliceTable` runs the parametric engines' define/join/apply loop
(:class:`slicemon.parametric.IndexedMonitor`) over such a word machine.  Its
table starts with just the empty binding, mapped to the empty slice; per
event with binding ``b``, every join of ``b`` with a table entry receives the
slice of the most informative entry at or below it, plus the event.  After
feeding a whole trace, the table's domain is exactly the join closure of the
bindings seen, and arbitrary bindings — also ones outside the domain — can
be answered by one lookup.
"""

from __future__ import annotations

from typing import Iterable

from .bindings import DEFAULT_DOMAIN_CAP, ParamInstance, max_below, ordered
from .events import ParametricEvent
from .machines import Machine
from .parametric import IndexedMonitor

__all__ = ["SliceTable"]


class _WordMachine(Machine):
    """State: the word read so far, as a cons list ``(name, previous)``.

    ``None`` is the empty word.  Appending costs O(1) and shares the prefix
    with every table entry the state was copied from.
    """

    def initial(self) -> None:
        return None

    def step(self, state, name: str):
        return (name, state)

    def output(self, state) -> None:
        return None


def _word(state) -> tuple[str, ...]:
    names = []
    while state is not None:
        name, state = state
        names.append(name)
    names.reverse()
    return tuple(names)


class SliceTable:
    """Incrementally maintained map from bindings to slices.

    Invariants (checked by the test suite): the domain is join-closed and
    contains the empty binding, and every entry equals the definitional slice
    of the events fed so far.

    ``unsafe_no_snapshot`` disables the pre-event snapshot discipline: joins
    are then defined one at a time against the *growing* table, so a fresh
    join can wrongly source a slice that already absorbed the current event
    (double-append).  The flag exists so the selfcheck provably detects that
    corruption; never enable it otherwise.
    """

    def __init__(
        self, *, cap: int = DEFAULT_DOMAIN_CAP, unsafe_no_snapshot: bool = False
    ):
        self._engine = IndexedMonitor(_WordMachine(), cap=cap)
        self._engine._unsafe_no_snapshot = unsafe_no_snapshot
        self._table = self._engine.delta

    # -- feeding -------------------------------------------------------------

    def feed(self, event: ParametricEvent) -> None:
        """Extend the table with one event."""
        self._engine.feed(event)

    def feed_all(self, trace: Iterable[ParametricEvent]) -> "SliceTable":
        self._engine.feed_all(trace)
        return self

    @property
    def events_fed(self) -> int:
        return self._engine.stats.events

    # -- queries --------------------------------------------------------------

    def instances(self) -> list[ParamInstance]:
        """The table domain (join-closed), in the canonical order."""
        return ordered(self._table)

    def __contains__(self, binding: ParamInstance) -> bool:
        return binding in self._table

    def __len__(self) -> int:
        return len(self._table)

    def slice_of(self, binding: ParamInstance) -> tuple[str, ...]:
        """Entry for a binding that is present in the table."""
        return _word(self._table[binding])

    def lookup(self, binding: ParamInstance) -> tuple[str, ...]:
        """Slice for an arbitrary binding, also ones outside the table.

        The answer is the entry of the most informative table binding at or
        below the query — which equals the definitional slice for the query.
        """
        return _word(self._table[max_below(binding, self._table, self._engine.cap)])

    def as_dict(self) -> dict[ParamInstance, tuple[str, ...]]:
        return {binding: _word(state) for binding, state in self._table.items()}
