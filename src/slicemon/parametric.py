"""Parametric monitoring: one base monitor state per observed binding.

A parametric monitor is the base monitor run on every trace slice.  Both
engines share one define/join/apply loop, :meth:`_EngineBase.feed`: for a
fresh binding it defines every missing join of the binding with the table,
each copied from its ``max_below`` source in the pre-event table; then it
steps the binding and its defined strict extensions, except those parked in
a sink state that cannot report.  Each step reads only its own binding's
state, so the steps may run in any order; the reports of one event come out
in ``binding_order``.  The engines differ only in the two finders the loop
calls:

* :class:`BaselineMonitor` scans the whole table — simple, and the semantic
  yardstick;
* :class:`IndexedMonitor` looks both up in a domain-keyed index of the
  defined bindings, without scanning the table or checking compatibility.

Both produce identical state tables, verdicts and report streams, which the
test suite checks event by event against each other and against the
definitional slice semantics.  :class:`slicemon.slicer.SliceTable` runs the
same loop with a machine whose state is the word read so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bindings import (
    DEFAULT_DOMAIN_CAP,
    EMPTY,
    ParamInstance,
    binding_order,
    joins_with,
    max_below,
    ordered,
    strict_subinstances_desc,
)
from .events import ParametricEvent, binding_closure, slice_trace
from .machines import Machine, Verdict

__all__ = [
    "BaselineMonitor",
    "IndexedMonitor",
    "RunStats",
    "VerdictReport",
    "definitional_verdicts",
]


@dataclass(frozen=True)
class VerdictReport:
    """One report line: where, what, and for which binding.

    ``index`` is the 1-based position of the triggering event in the trace.
    """

    index: int
    verdict: object
    instance: ParamInstance
    event_name: str

    def render(self) -> str:
        return "%d\t%s\t%s\t%s" % (
            self.index,
            self.verdict,
            self.instance.encode(),
            self.event_name,
        )


@dataclass
class RunStats:
    """Per-run work counters (used by the benchmark and the cost tests).

    ``monitor_steps`` counts the monitor steps taken, and ``skipped_steps``
    the bindings an event reached that were parked and so not stepped
    (their sum is the number of bindings the events reached).
    ``compat_checks`` counts the join candidates examined to find the
    bindings each event affects (every table entry for the baseline; a
    fresh binding and its indexed neighbours for the indexed engine).
    ``defines`` counts new table entries, and ``peak_instances`` tracks the
    largest table size reached.  All are totals, so a run's stats stay the
    same size however long it is.
    """

    events: int = 0
    monitor_steps: int = 0
    skipped_steps: int = 0
    compat_checks: int = 0
    defines: int = 0
    peak_instances: int = 0


class _EngineBase:
    """The define/join/apply loop, tables, triggers and report policy.

    Subclasses supply the two finders: ``_joins(binding)`` lists the joins of
    a binding that is not in the table with every table entry, and
    ``_at_or_above(binding)`` the defined bindings at or above one that is.
    Both add the join candidates they examine to ``stats.compat_checks``.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        trigger: Iterable[Verdict] = (),
        report_every: bool = False,
        cap: int = DEFAULT_DOMAIN_CAP,
    ):
        self.machine = machine
        self.trigger = frozenset(trigger)
        self.report_every = report_every
        self.cap = cap
        self.delta: dict[ParamInstance, object] = {EMPTY: machine.initial()}
        self.gamma: dict[ParamInstance, object] = {}
        self.stats = RunStats(peak_instances=1)
        #: Sinks a step can land in without reporting, and the bindings
        #: parked in one of them by such a step.
        self._parking = frozenset(
            state
            for state in machine.sinks
            if not (report_every and machine.output(state) in self.trigger)
        )
        self._parked: set[ParamInstance] = set()

    def instances(self) -> list[ParamInstance]:
        """The table domain, in the canonical order."""
        return ordered(self.delta)

    def feed_all(self, trace: Iterable[ParametricEvent]) -> list[VerdictReport]:
        reports: list[VerdictReport] = []
        for event in trace:
            reports.extend(self.feed(event))
        return reports

    def feed(self, event: ParametricEvent) -> list[VerdictReport]:
        """Step every state whose slice the event extends; return the reports.

        A verdict is reported when it belongs to the trigger set and differs
        from the binding's previously recorded verdict (so a machine parked
        in a verdict state reports once, not on every event) — unless
        ``report_every`` asked for the undeduplicated stream.  The reports
        come in ``binding_order`` of their bindings; the order of the steps
        is unspecified.

        A step that lands in one of the machine's sinks parks its binding
        unless the sink's verdict would be reported again under
        ``report_every``.  A parked binding is not stepped again: its state
        would stay the sink, its verdict is already in ``gamma`` and would
        not change, and so no report would come of it.  It keeps its table
        entry and index keys, so ``delta``, ``gamma`` and the reports are
        those of stepping it.  A binding is parked only after a step of its
        own, never for a state it holds without one: a join copied from a
        parked source, or the empty binding starting in a sink, has no
        verdict recorded yet and may report on its first step.
        """
        stats = self.stats
        stats.events += 1
        delta = self.delta
        binding = event.instance
        if binding in delta:
            touched = self._at_or_above(binding)
        else:
            # The joins of a fresh binding with the table are exactly the
            # bindings the event affects.  Each missing one copies the state
            # of its most informative defined sub-binding, read before any
            # define so that no join copies a state this event created.
            touched = self._joins(binding)
            missing = [joined for joined in touched if joined not in delta]
            sources = [max_below(joined, delta, self.cap) for joined in missing]
            for joined, source in zip(missing, sources):
                self._define(joined, source)

        machine = self.machine
        gamma = self.gamma
        trigger = self.trigger
        report_every = self.report_every
        parked = self._parked
        parking = self._parking
        index = stats.events
        reports: list[VerdictReport] = []
        skipped = 0
        for affected in touched:
            if affected in parked:
                skipped += 1
                continue
            delta[affected] = state = machine.step(delta[affected], event.name)
            verdict = machine.output(state)
            if verdict != gamma.get(affected, _NEVER):
                gamma[affected] = verdict
                if verdict in trigger:
                    reports.append(VerdictReport(index, verdict, affected, event.name))
            elif report_every and verdict in trigger:
                reports.append(VerdictReport(index, verdict, affected, event.name))
            if parking and state in parking:
                parked.add(affected)
        stats.monitor_steps += len(touched) - skipped
        if skipped:
            stats.skipped_steps += skipped
        if len(delta) > stats.peak_instances:
            stats.peak_instances = len(delta)
        if len(reports) > 1:
            reports.sort(key=lambda report: binding_order(report.instance))
        return reports

    def _define(self, binding: ParamInstance, source: ParamInstance) -> None:
        """Create a table entry as a copy of a strictly less informative one."""
        delta = self.delta
        assert binding not in delta, "binding already defined"
        assert source != binding and source.less_informative(binding), (
            "copy source must be strictly less informative"
        )
        delta[binding] = delta[source]
        self.stats.defines += 1


#: Sentinel distinguishing "never evaluated" from any real verdict.
_NEVER = object()


class BaselineMonitor(_EngineBase):
    """Full-scan engine: finds affected bindings by scanning the whole table."""

    def _joins(self, binding: ParamInstance) -> list[ParamInstance]:
        # The empty binding is always present, so the binding itself is one
        # of the joins.
        self.stats.compat_checks += len(self.delta)
        return list(joins_with(binding, self.delta))

    def _at_or_above(self, binding: ParamInstance) -> list[ParamInstance]:
        self.stats.compat_checks += len(self.delta)
        return [other for other in self.delta if binding.less_informative(other)]


class IndexedMonitor(_EngineBase):
    """Index-guided engine: touches only states the event can affect.

    ``extensions[(sub, domain)]`` holds the defined bindings of ``domain``
    strictly more informative than ``sub``; keys exist only for strict
    sub-bindings of defined bindings.  A defined binding at or above ``b``
    is ``b`` or sits in ``extensions[(b, domain)]`` for its domain.  A
    binding compatible with ``b`` and of a domain ``D`` not within ``b``'s
    agrees with ``b`` on their shared names, so the compatible neighbours
    of a fresh binding in ``D`` are exactly ``extensions[(b restricted to D,
    D)]``: no compatibility checks, no sort.
    """

    def __init__(self, machine: Machine, **options):
        super().__init__(machine, **options)
        self.extensions: dict[tuple, set[ParamInstance]] = {}
        #: Domains of the defined bindings; each maps to itself, so index
        #: keys share one domain object.
        self._domains: dict[frozenset[str], frozenset[str]] = {}

    def _joins(self, binding: ParamInstance) -> list[ParamInstance]:
        extensions = self.extensions
        joins = {binding}
        examined = 1
        for domain in self._domains:
            neighbours = extensions.get((binding.restrict(domain), domain))
            if neighbours:
                examined += len(neighbours)
                joins.update(neighbour.join(binding) for neighbour in neighbours)
        self.stats.compat_checks += examined
        return list(joins)

    def _at_or_above(self, binding: ParamInstance) -> list[ParamInstance]:
        extensions = self.extensions
        found = [binding]
        for domain in self._domains:
            found.extend(extensions.get((binding, domain), ()))
        return found

    def _define(self, binding: ParamInstance, source: ParamInstance) -> None:
        super()._define(binding, source)
        names = frozenset(binding.names)
        domain = self._domains.setdefault(names, names)
        extensions = self.extensions
        for sub in strict_subinstances_desc(binding, self.cap):
            extensions.setdefault((sub, domain), set()).add(binding)


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
