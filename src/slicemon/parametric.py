"""Parametric monitoring: one base monitor state per observed binding.

A parametric monitor is the base monitor run on every trace slice.  Both
engines share one define/join/apply loop, :meth:`_EngineBase.feed`: for a
fresh binding it defines every missing join of the binding with the table,
each copied from its most informative defined sub-binding in the pre-event
table; then it steps the binding and its defined strict extensions, except
those parked in a sink state that cannot report.  Each step reads only its
own binding's state, so the steps may run in any order; the reports of one
event come out in ``binding_order``.  The engines differ only in the three
finders the loop calls:

* :class:`BaselineMonitor` scans the whole table for the joins, for the
  bindings at or above, and for a join's source, the widest binding below
  it (``max_below``) — simple, and the semantic yardstick;
* :class:`IndexedMonitor` looks the first two up in a domain-keyed index of
  the defined bindings, holding only the keys its lookups can ask for, and
  finds a source by restricting the join to each table domain within it.
  It neither scans the table nor checks compatibility.

Both produce identical state tables, verdicts and report streams, which the
test suite checks event by event against each other and against the
definitional slice semantics.  :class:`slicemon.slicer.SliceTable` runs the
same loop with a machine whose state is the word read so far.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .bindings import (
    EMPTY,
    ParamInstance,
    binding_order,
    joins_with,
    max_below,
    ordered,
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


class VerdictReport:
    """One report line: where, what, and for which binding.

    ``index`` is the 1-based position of the triggering event in the trace.
    A value, compared and hashed by its four fields.
    """

    __slots__ = ("index", "verdict", "instance", "event_name")

    def __init__(
        self, index: int, verdict: object, instance: ParamInstance, event_name: str
    ):
        self.index = index
        self.verdict = verdict
        self.instance = instance
        self.event_name = event_name

    def _fields(self) -> tuple:
        return (self.index, self.verdict, self.instance, self.event_name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "VerdictReport(index=%r, verdict=%r, instance=%r, event_name=%r)" % (
            self._fields()
        )

    def render(self) -> str:
        return "%d\t%s\t%s\t%s" % (
            self.index,
            self.verdict,
            self.instance.encode(),
            self.event_name,
        )


class RunStats:
    """Per-run work counters, read by the cost tests and by perfbench's traced runs.

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

    __slots__ = (
        "events",
        "monitor_steps",
        "skipped_steps",
        "compat_checks",
        "defines",
        "peak_instances",
    )

    def __init__(
        self,
        events: int = 0,
        monitor_steps: int = 0,
        skipped_steps: int = 0,
        compat_checks: int = 0,
        defines: int = 0,
        peak_instances: int = 0,
    ):
        self.events = events
        self.monitor_steps = monitor_steps
        self.skipped_steps = skipped_steps
        self.compat_checks = compat_checks
        self.defines = defines
        self.peak_instances = peak_instances


class _EngineBase:
    """The define/join/apply loop, tables, triggers and report policy.

    Subclasses supply the three finders: ``_joins(binding)`` lists the joins
    of a binding that is not in the table with every table entry,
    ``_at_or_above(binding)`` the defined bindings at or above one that is,
    and ``_below(binding)`` the most informative defined binding strictly
    below a join that is not.  The first two add the join candidates they
    examine to ``stats.compat_checks``.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        trigger: Iterable[Verdict] = (),
        report_every: bool = False,
    ):
        self.machine = machine
        self.trigger = frozenset(trigger)
        self.report_every = report_every
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
            sources = [self._below(joined) for joined in missing]
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

    def _below(self, binding: ParamInstance) -> ParamInstance:
        return max_below(binding, self.delta)


class IndexedMonitor(_EngineBase):
    """Index-guided engine: touches only states the event can affect.

    ``extensions[(sub, domain)]`` holds the defined bindings of ``domain``
    strictly more informative than ``sub``.  The finders only ever look up
    keys ``(b restricted to E∩D, D)``, where ``E`` is the domain of an
    event's binding ``b`` and ``D`` a table domain, so only keys of that
    shape are written.  The *query domains* are the empty domain, every
    table domain and every domain a fresh event binding has carried; a
    defined binding of ``D`` is indexed under its restriction to ``E∩D``
    for every query domain ``E`` with ``E∩D ⊊ D`` (the *cuts* of ``D``).
    A domain that turns into a query domain adds its cuts to every table
    domain, and backfills their defined bindings under them, before its
    first lookup; a binding already in the table has a query domain, so
    the warm path never needs that check.

    * A defined binding at or above ``b`` is ``b`` or sits in
      ``extensions[(b, domain)]`` for its domain.
    * A binding compatible with a fresh ``b`` and of a domain ``D`` not
      within ``b``'s agrees with ``b`` on their shared names, so the
      compatible neighbours of ``b`` in ``D`` are exactly
      ``extensions[(b restricted to D, D)]``: no compatibility checks, no
      sort.
    * Every defined binding below a missing join ``j`` is ``j`` restricted
      to a table domain ``D ⊊ dom(j)``.  These restrictions that are
      defined are join-closed, since the table is, so their maximum is the
      join of them all and has the strictly widest domain among them:
      probing ``D`` widest first, the first defined restriction is the
      source.
    """

    def __init__(self, machine: Machine, **options):
        super().__init__(machine, **options)
        self.extensions: dict[tuple, set[ParamInstance]] = {}
        #: Table domains other than the empty one.  Each maps to itself, so
        #: that index keys share one domain object, and to its cuts, each
        #: with the getter of that cut's items from a binding's items.
        self._domains: dict[frozenset[str], tuple[frozenset[str], dict]] = {}
        self._queries: set[frozenset[str]] = {frozenset()}
        #: Per domain of a fresh binding, the table domains ``D`` in which it
        #: can have neighbours, each with the getter of its items on ``D``;
        #: per domain of a missing join, the getters of its restrictions to
        #: the table domains strictly within it, widest first.  Both are
        #: cleared when a table domain is added.
        self._probes: dict[frozenset[str], list[tuple[frozenset[str], Callable]]] = {}
        self._sources: dict[frozenset[str], list[Callable]] = {}

    def _joins(self, binding: ParamInstance) -> list[ParamInstance]:
        query = frozenset(binding.names)
        probes = self._probes.get(query)
        if probes is None:
            if query not in self._queries:
                self._add_query(query)
            probes = self._probes[query] = [
                (domain, _cut(query, domain & query))
                for domain in self._domains
                if not domain <= query
            ]
        extensions = self.extensions
        items = binding._items
        wrap = ParamInstance._wrap
        joins = {binding}
        examined = 1
        for domain, cut in probes:
            neighbours = extensions.get((wrap(cut(items)), domain))
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

    def _below(self, binding: ParamInstance) -> ParamInstance:
        names = frozenset(binding.names)
        sources = self._sources.get(names)
        if sources is None:
            within = sorted(
                (domain for domain in self._domains if domain < names),
                key=len,
                reverse=True,
            )
            sources = self._sources[names] = [_cut(names, part) for part in within]
        delta = self.delta
        items = binding._items
        wrap = ParamInstance._wrap
        for cut in sources:
            sub = wrap(cut(items))
            if sub in delta:
                return sub
        return EMPTY

    def _define(self, binding: ParamInstance, source: ParamInstance) -> None:
        super()._define(binding, source)
        names = frozenset(binding.names)
        domain, cuts = self._domains.get(names) or self._add_domain(names)
        extensions = self.extensions
        items = binding._items
        wrap = ParamInstance._wrap
        for cut in cuts.values():
            extensions.setdefault((wrap(cut(items)), domain), set()).add(binding)

    def _add_domain(self, domain: frozenset[str]) -> tuple[frozenset[str], dict]:
        """Make ``domain`` a table domain, and so a query domain."""
        cuts = {}
        for query in self._queries:
            part = query & domain
            if part != domain and part not in cuts:
                cuts[part] = _cut(domain, part)
        entry = self._domains[domain] = (domain, cuts)
        self._probes.clear()
        self._sources.clear()
        self._add_query(domain)
        return entry

    def _add_query(self, query: frozenset[str]) -> None:
        """Make ``query`` a query domain: give every table domain its cut."""
        self._queries.add(query)
        for domain, cuts in self._domains.values():
            part = query & domain
            if part != domain and part not in cuts:
                cuts[part] = _cut(domain, part)
                self._backfill(domain, cuts[part])

    def _backfill(self, domain: frozenset[str], cut: Callable) -> None:
        """Index the defined bindings of ``domain`` under a new cut."""
        extensions = self.extensions
        wrap = ParamInstance._wrap
        # The empty domain is a query domain, so the key of the empty cut
        # holds every defined binding of the domain.
        for member in extensions[(EMPTY, domain)]:
            extensions.setdefault((wrap(cut(member._items)), domain), set()).add(member)


def _cut(domain: frozenset[str], part: frozenset[str]) -> Callable[[tuple], tuple]:
    """Getter of the items on ``part`` from a ``domain`` binding's sorted items."""
    positions = [i for i, name in enumerate(sorted(domain)) if name in part]
    if len(positions) > 1:
        return itemgetter(*positions)
    # One position alone would return the item, not a tuple; a slice does not.
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


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
