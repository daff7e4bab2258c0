"""Reference semantics: the definitions the online tables are checked against.

The verdicts run over the definitional slice
(:func:`definitional_verdicts`, over :func:`slicemon.events.slice_trace`),
the join closure a slicing table reaches (:func:`join_closure`,
:func:`binding_closure`), the widest member below a binding
(:func:`max_below`), and the full-scan engine (:class:`BaselineMonitor`,
``slicemon monitor --algo b``).  Each is the
simple, obvious form of what :class:`slicemon.parametric.IndexedMonitor`
and :class:`slicemon.slicer.SliceTable` do incrementally.

The selfcheck, ``--algo b``, :meth:`SliceTable.lookup` (which only the
selfcheck and the tests call) and the test suite import this module;
``slicemon monitor`` with the indexed engine and ``slicemon slice`` do not
load it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bindings import EMPTY, ParamInstance
from .events import ParametricEvent, slice_trace
from .machines import Machine
from .parametric import _EngineBase

__all__ = [
    "BaselineMonitor",
    "binding_closure",
    "definitional_verdicts",
    "join_closure",
    "joins_with",
    "max_below",
]


def joins_with(
    instance: ParamInstance, instances: Iterable[ParamInstance]
) -> set[ParamInstance]:
    """All defined joins of ``instance`` with members of ``instances``.

    When ``instances`` contains the empty binding the result contains
    ``instance`` itself; incompatible members contribute nothing.
    """
    out: set[ParamInstance] = set()
    for member in instances:
        joined = instance.join(member)
        if joined is not None:
            out.add(joined)
    return out


def join_closure(instances: Iterable[ParamInstance]) -> set[ParamInstance]:
    """Smallest join-closed superset (always includes the empty binding).

    The result is the table domain an online slicer reaches after feeding
    events carrying ``instances``, and it is built the same way, one pass per
    binding: a binding not yet in the set adds its joins with every member.
    The set stays join-closed, because ``(b⊔m)⊔(b⊔n) = b⊔(m⊔n)``.
    """
    closed: set[ParamInstance] = {EMPTY}
    for instance in instances:
        if instance not in closed:
            closed |= joins_with(instance, closed)
    return closed


def max_below(
    instance: ParamInstance, members: Iterable[ParamInstance]
) -> ParamInstance:
    """Most informative member that is at-or-below ``instance``, in one scan.

    ``members`` must be join-closed, and so contain the empty binding, which
    guarantees an answer.  The members below ``instance`` are then closed
    under join too (a join of two bindings below ``instance`` is below it),
    so the join of them all is a member and strictly wider than any other:
    the maximum is unique, and it is the widest member below ``instance``.
    The scan keeps the first member of the largest size it meets, which
    matters only for a set that is not join-closed.  ``instance`` itself is
    returned when it is a member.
    """
    best = None
    size = -1
    for member in members:
        if len(member) > size and member.less_informative(instance):
            best, size = member, len(member)
    if best is None:
        raise ValueError(
            "binding set is missing the empty binding (not join-closed): %r"
            % (instance,)
        )
    return best


def binding_closure(trace: Iterable[ParametricEvent]) -> set[ParamInstance]:
    """Join closure of the bindings carried by the trace (the slice-table domain)."""
    return join_closure(event.instance for event in trace)


def definitional_verdicts(
    machine: Machine, trace: Sequence[ParametricEvent]
) -> dict[ParamInstance, object]:
    """Ground-truth verdicts: run the machine over each definitional slice.

    Covers every binding in the join closure of the trace's bindings — the
    same domain the engines materialize.  Used as the reference side of the
    differential tests; intentionally built on :func:`slice_trace` rather
    than any incremental table.
    """
    return {
        binding: machine.run(slice_trace(trace, binding))
        for binding in binding_closure(trace)
    }


class BaselineMonitor(_EngineBase):
    """Full-scan engine: finds affected bindings by scanning the whole table."""

    def _joins(self, binding: ParamInstance) -> dict[frozenset[str], dict]:
        # The binding's own group first; the scan is counted once per event,
        # by ``_above``.
        delta = self.delta
        groups: dict[frozenset[str], dict[ParamInstance, ParamInstance]] = {
            binding.domain: {binding: EMPTY}
        }
        for member in delta:
            joined = binding.join(member)
            if joined is not None and joined not in delta:
                groups.setdefault(joined.domain, {})[joined] = member
        return groups

    def _above(self, binding: ParamInstance) -> list[ParamInstance]:
        self.stats.compat_checks += len(self.delta)
        parking = self._parking
        return [
            other
            for other, state in self.delta.items()
            if state not in parking
            and other != binding
            and binding.less_informative(other)
        ]

    def _below(self, groups: dict[frozenset[str], dict]) -> None:
        delta = self.delta
        for joins in groups.values():
            for joined in joins:
                joins[joined] = max_below(joined, delta)
