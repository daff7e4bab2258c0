"""Online trace slicing: one pass, one table, all slices at once.

Slicing is monitoring with a machine whose state is the word read so far:
:class:`SliceTable` runs the parametric engines' define/join/apply loop
(:class:`slicemon.parametric.IndexedMonitor`) over such a word machine.  Its
table starts with just the empty binding, mapped to the empty slice; per
event with binding ``b``, every join of ``b`` with a table entry receives the
slice of the most informative entry at or below it, plus the event.  After
feeding a whole trace, the table's domain is exactly the join closure of the
bindings seen, and arbitrary bindings — also ones outside the domain, of any
width — can be answered by one scan of the table for the widest entry below
them (:meth:`SliceTable.lookup`).  That is the paper's slicing theorem, and
the selfcheck and the tests check it against the definition; ``slicemon
slice --instance`` reads a binding's slice from the trace by the definition
(:func:`slicemon.events.slice_trace`) and builds no table.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .bindings import ParamInstance, ordered
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
    """

    #: The engine that runs the word machine.
    engine_class = IndexedMonitor

    def __init__(self):
        self._engine = self.engine_class(_WordMachine())
        self._table = self._engine.delta

    # -- feeding -------------------------------------------------------------

    def feed(self, event: ParametricEvent) -> None:
        """Extend the table with one event."""
        self._engine.feed(event)

    def feed_all(self, trace: Iterable[ParametricEvent]) -> "SliceTable":
        self._engine.feed_all(trace)
        return self

    # -- queries --------------------------------------------------------------

    def instances(self) -> list[ParamInstance]:
        """The table domain (join-closed), in the canonical order."""
        return ordered(self._table)

    def rows(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        """Each binding's encoding with its slice, in the canonical order.

        The sort key holds the encoding, so each binding is encoded once.
        """
        keyed = sorted(
            (len(binding), binding.encode(), state)
            for binding, state in self._table.items()
        )
        for _, encoding, state in keyed:
            yield encoding, _word(state)

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
        It scans the table (``max_below``) rather than asking the engine's
        join finder for a source, so it checks those sources from an
        independent route.
        Its callers are the selfcheck's off-table ``slicing`` probes and the
        tests, which hold it against :func:`slicemon.events.slice_trace`.
        """
        from .reference import max_below

        return _word(self._table[max_below(binding, self._table)])
