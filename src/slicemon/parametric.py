"""Parametric monitoring: one base monitor state per observed binding.

A parametric monitor is the base monitor run on every trace slice.  Its
one table is ``delta``, a state per binding; the verdicts, ``gamma``, are
the machine's output on those states, derived on demand.  The table starts
as the empty binding in the machine's initial state.  Both engines share
one define/join/apply loop, :meth:`_EngineBase.feed`.  A binding is
*fresh* if the table does not hold it, or if it is the empty binding
before its first step; for a fresh binding the loop defines every missing
join of it with the table, the binding itself among them, each copied from
its most informative defined sub-binding in the pre-event table and given
its first step at once (:meth:`_EngineBase._define`), so every binding's
first step is a define.  Then it steps the event's binding, if it was not
fresh, and the binding's defined strict extensions, except those parked in
a sink state that cannot report, which the state table alone records.
Each step reads only its own binding's state, so the steps may run in any
order; the reports of one event come out in ``binding_order``.  One dict
carries the missing joins from finder to define, grouped by domain, the
binding's own group first, each join mapped to its source; the define
hands each group on to the index hook with the joins its first step left
parked, so the indexed engine files every new join once, on its side,
without reading the table again.  The engines differ only in the two
finders the loop calls:

* :class:`slicemon.reference.BaselineMonitor` scans the whole table for
  the live strict extensions of a binding, for its missing joins, and
  for each join's source, the widest binding below it (``max_below``) —
  simple, and the semantic yardstick;
* :class:`IndexedMonitor` looks them up in a domain-keyed index of the
  defined bindings, holding only the keys its lookups can ask for, and
  only in the domains where they can hit.  A merged join's source is the
  widest neighbour it is built from, which the merge records with it; the
  fresh binding's is found by restricting it to each table domain within
  its own, widest first, and is the empty binding if none of those
  restrictions is defined.  It neither scans the table nor checks
  compatibility.  Only a fresh binding's merge probes read the parked side
  of the index, which keeps only the keys they ask for.

Both produce identical state tables, verdicts and report streams, which the
test suite checks event by event against each other and against the
definitional slice semantics of :mod:`slicemon.reference`.
:class:`slicemon.slicer.SliceTable` runs the same loop with a machine
whose state is the word read so far.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable

from .bindings import EMPTY, ParamInstance, binding_order
from .events import ParametricEvent
from .machines import Machine, Verdict

__all__ = ["IndexedMonitor", "RunStats", "VerdictReport"]


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
            self.index, self.verdict, self.instance.encode(), self.event_name
        )


class RunStats:
    """Per-run work counters, read by the cost tests and by perfbench's traced runs.

    ``monitor_steps`` counts the monitor steps taken, and ``skipped_steps``
    the bindings an event reached that were parked and so not stepped
    (their sum is the number of bindings the events reached).  A new join's
    first step counts as one, also when it is born parked and takes its
    source's sink state without a machine step (:meth:`_EngineBase._define`).  An
    event reaches its binding and the binding's live strict extensions,
    and, if the binding is fresh, its missing joins with the table, itself
    among them; so a skip is only ever a known binding parked itself.
    ``compat_checks`` counts the candidates examined to find the bindings
    each event affects: every table entry, once per event, for the
    baseline; a fresh binding and its indexed merge neighbours for the
    indexed engine, whose extension lookups examine no candidate, so the
    first ground event, whose empty binding is fresh, counts 1 there.
    ``probes`` counts the restrictions of fresh bindings that the indexed
    engine's join finder looks up in ``delta`` for their sources; the
    baseline, which scans the table for sources, leaves it at 0.  All are
    totals, so a run's stats stay the same size however long it is.

    ``defines``, the new table entries, and ``peak_instances``, the largest
    table size reached, are read from the engine's ``table``, which never
    shrinks and starts with the empty binding alone.
    """

    __slots__ = ("events", "monitor_steps", "skipped_steps", "compat_checks", "probes", "_table")

    def __init__(self, table: dict):
        self.events = self.monitor_steps = self.skipped_steps = 0
        self.compat_checks = self.probes = 0
        self._table = table

    @property
    def defines(self) -> int:
        return len(self._table) - 1

    @property
    def peak_instances(self) -> int:
        return len(self._table)


class _EngineBase:
    """The define/join/apply loop, the state table, triggers and report policy.

    Subclasses supply the two finders, each with one job:
    ``_above(binding)`` returns the defined strict extensions of a binding,
    not parked, whether the table holds the binding or not; the loop steps
    the binding itself unless it is parked or fresh.  ``_joins(binding)``
    returns, for a fresh binding, its own group, ``{dom(b): {b: source}}``,
    first, then its missing joins with the table, ``{b ⊔ m : m in delta,
    compatible} − delta``, as ``{domain: {join: source}}``, no group empty:
    the joins with its *neighbours*, the table entries incomparable with it
    (a join with an entry comparable with the binding is the binding or the
    entry).  A join's *source* is its most informative binding strictly
    below it in the pre-event table; the empty binding is its own source.
    The binding's defined joins extend it, and ``_above`` reaches them if
    live; the loop calls it after ``_joins``, which makes the binding's
    domain a query domain of the indexed engine.  The finders add the
    candidates they examine to ``stats.compat_checks``; the baseline's
    table scan counts once per event, in ``_above``, which every event
    calls.  The indexed ``_joins`` adds its source probes to
    ``stats.probes``.

    Two hooks note what the loop did.  ``_index(domain, joins, parked)``
    is called per group of one domain an event defined, the fresh
    binding's first, right after ``_define`` gave the group its first
    step: ``joins`` is the group, a dict whose keys are its joins, and
    ``parked`` is what ``_define`` returned, the joins that step left in a
    parking sink, empty if the machine has none; every other join of the
    group is live.  ``_park`` is called when a step parks a binding
    defined before the event.  ``delta`` is the one per-binding
    record: a binding is parked when its state is a parking sink, and it
    has a verdict once stepped.  Every binding is stepped when it is
    defined, and the empty binding, in the table from the start, is
    defined at the first ground event; ``_started`` records that define.
    """

    def __init__(
        self, machine: Machine, *, trigger: Iterable[Verdict] = (), report_every: bool = False
    ):
        self.machine = machine
        self.trigger = frozenset(trigger)
        self.report_every = report_every
        self.delta: dict[ParamInstance, object] = {EMPTY: machine.initial()}
        self._started = False
        self.stats = RunStats(self.delta)
        #: Sinks a step can land in without reporting.  A binding whose
        #: state is one of them is parked, unless it is the empty binding
        #: before its first step, which has no verdict yet.
        self._parking = frozenset(
            state
            for state in machine.sinks
            if not (report_every and machine.output(state) in self.trigger)
        )

    @property
    def gamma(self) -> dict[ParamInstance, object]:
        """The verdict of every stepped binding: the output of its state.

        A new dict, built from ``delta`` on every read, so a caller that
        needs it more than once per event reads it once and keeps it.
        """
        output, started = self.machine.output, self._started
        return {b: output(s) for b, s in self.delta.items() if b or started}

    def feed_all(self, trace: Iterable[ParametricEvent]) -> list[VerdictReport]:
        reports: list[VerdictReport] = []
        for event in trace:
            reports.extend(self.feed(event))
        return reports

    def feed(self, event: ParametricEvent) -> list[VerdictReport]:
        """Step every state whose slice the event extends; return the reports.

        A verdict is reported when it belongs to the trigger set and differs
        from the binding's verdict before the step, the output of its state
        before the step (so a machine parked in a verdict state reports
        once, not on every event) — unless ``report_every`` asked for the
        undeduplicated stream.  A binding's first step has no verdict
        before it, and reports any trigger verdict.  The reports come in
        ``binding_order`` of their bindings; the order of the steps is
        unspecified.

        An event on a fresh binding defines the joins ``_joins`` returns,
        the binding itself among them, each with its source in the
        pre-event table: each group is defined, and given its first step,
        by ``_define``, and indexed.  The first ground event is such an
        event: the empty binding takes its first step there.  The loop
        steps only the bindings stepped before the event: the binding, if it
        was not fresh, and what ``_above`` returns, found before any define.

        A step that lands in one of the machine's sinks parks its binding
        unless the sink's verdict would be reported again under
        ``report_every``.  A parked binding is not stepped again: its state
        would stay the sink, its verdict would not change, and so no report
        would come of it.  It keeps its table entry, so joins are still
        copied from it, and ``delta`` and the reports are those of stepping
        it; ``_above`` does not list it, and the loop does not reach it.
        Every binding whose state is a parking sink is parked, but the empty
        binding before its first step: starting in a sink, it has no verdict
        yet, and its define may report.
        """
        stats = self.stats
        stats.events += 1
        delta, parking = self.delta, self._parking
        binding = event.instance
        reports: list[VerdictReport] = []
        state = delta.get(binding, _NEVER)
        if state is not _NEVER and (binding or self._started):
            touched = self._above(binding)
            # No state is tested against an empty ``parking``: a word
            # machine's state hashes in the length of its word.
            if parking and state in parking:
                stats.skipped_steps += 1
            else:
                touched.append(binding)
        else:
            # The joins of a fresh binding with the table are exactly the
            # bindings the event affects: its defined strict extensions,
            # which ``_above`` finds if they are live, and its missing
            # joins, the binding itself among them.  Each missing one
            # copies the state of its most informative defined
            # sub-binding, all found by ``_joins`` before any define, so
            # that no join copies a state this event created.
            if not binding:
                self._started = True
            groups = self._joins(binding)
            touched = self._above(binding)
            for domain, joins in groups.items():
                self._index(domain, joins, self._define(joins, event, reports))

        # Binding ``machine.output`` to a local measured ×1.11 on warm events
        # that step nothing, most of unsafeiter-join's (CHANGES.md).
        machine, trigger, report_every = self.machine, self.trigger, self.report_every
        index = stats.events
        for affected in touched:
            before = delta[affected]
            delta[affected] = state = machine.step(before, event.name)
            verdict = machine.output(state)
            if verdict in trigger and (report_every or verdict != machine.output(before)):
                reports.append(VerdictReport(index, verdict, affected, event.name))
            if parking and state in parking:
                self._park(affected)
        stats.monitor_steps += len(touched)
        # Sorting lone reports too measured ×1.16 fresh-bindings p50 latency (CHANGES.md).
        if len(reports) > 1:
            reports.sort(key=lambda report: binding_order(report.instance))
        return reports

    def _define(
        self, joins: dict[ParamInstance, ParamInstance], event: ParametricEvent,
        reports: list[VerdictReport],
    ) -> list[ParamInstance]:
        """Create a group's table entries, each its source's state after one step.

        ``joins`` maps each join to its source.  Each source is in the
        table and strictly less informative than its join, and no join is
        in the table yet, but one: the empty binding at its first step is
        the one join already in the table, defined from itself.  The test
        suite's differential checks assert this.

        A join copied from a source whose state is a parking sink is *born
        parked*: its first step would leave it in that sink, so it takes
        the state without a machine step.  So does the empty binding that
        starts in a sink, as a sink steps to itself.  Every first step
        counts in ``monitor_steps``, and reports its verdict to ``reports``
        if it is a trigger, as no verdict was recorded before.  Under
        ``report_every`` no parking sink's verdict is one.  ``defines``,
        read from the table's size, counts only the entries it gains.

        It returns the joins that their first step left in a parking sink,
        born parked or stepped there, in the group's order, which the loop
        passes to ``_index``.  A machine with no parking sink, such as the
        slicer's word machine or a toggle, gets an empty list, and no state
        of it is tested against the empty ``parking``.
        """
        delta, parking, machine = self.delta, self._parking, self.machine
        trigger, name, index = self.trigger, event.name, self.stats.events
        parked = []
        for joined, source in joins.items():
            state = delta[source]
            if parking and state in parking:
                parked.append(joined)
            else:
                state = machine.step(state, name)
                if parking and state in parking:
                    parked.append(joined)
            delta[joined] = state
            verdict = machine.output(state)
            if verdict in trigger:
                reports.append(VerdictReport(index, verdict, joined, name))
        self.stats.monitor_steps += len(joins)
        return parked

    def _park(self, binding: ParamInstance) -> None:
        """Note that a step parked a binding defined before the event."""

    def _index(
        self, domain: frozenset[str], joins: dict[ParamInstance, ParamInstance],
        parked: list[ParamInstance],
    ) -> None:
        """Note a group of bindings of ``domain`` that this event defined, and which parked."""


#: Sentinel for a binding not in the table.
_NEVER = object()


class IndexedMonitor(_EngineBase):
    """Index-guided engine: touches only states the event can affect.

    The index has two sides: ``extensions[key]`` holds the live bindings of
    the key, and ``parked_extensions[key]`` the parked ones.  A key is
    ``(cut items, D)``: under it sit the defined bindings of domain ``D``
    strictly more informative than the binding with those items (a plain
    name-sorted item tuple).  The finders only ever look up keys ``(items of
    b restricted to E∩D, D)``, where ``E`` is the domain of an event's
    binding ``b`` and ``D`` a table domain, so only keys of that shape are
    written, and only for the *query domains* ``E``: the domains of the
    bindings stepped so far.  The empty domain is one from the first ground
    event on; before it, the empty cut ``((), D)`` serves only a merge with
    a table domain that shares no name with ``D``.  A live binding of ``D``
    is indexed under its restriction to ``E∩D`` for every query domain ``E``
    with ``E∩D ⊊ D`` (the *cuts* of ``D``); a domain with no cuts has no
    key.  Only a merge probe, from a query domain incomparable with ``D``,
    reads the parked side, so a parked binding of ``D`` sits only under
    those cuts (its *parked cuts*); if no query domain is incomparable with
    ``D``, it sits under no key, and only its state in ``delta`` says that
    it is parked.  A fresh binding is one of its own joins, so this event
    steps it: its domain, if new, becomes a query domain before its first
    lookup.  A new query domain gets its cuts, and adds its cut to every
    query domain; one scan of ``delta`` then backfills the defined bindings
    under the cuts that are new, each on its side.  A binding stepped before
    has a query domain, so the warm path never needs that check.

    A join's keys are written once, by ``_index``, on the side its first
    step left it, which ``_define`` reports with its group: the write reads
    no state, and a parked join of a domain with no parked cut is not even
    visited.  No step of the event that defined a join reaches it.  An
    indexed live binding that parks later moves once, and a live set it
    leaves empty is deleted.

    * The extension finder returns the live bindings under ``(b's items,
      D)``: a parked binding is never stepped.  Only a domain ``D`` wider
      than ``b``'s can hold a strict extension of ``b``, so it reads the
      query domains widest first and stops at the first that is not wider.
      A fresh ``b``'s domain, the empty one too, is a query domain once
      the join finder ran, so its keys are there too.
    * A binding compatible with a fresh ``b`` and of a domain ``D``
      incomparable with ``b``'s agrees with ``b`` on their shared names, so
      the compatible neighbours of ``b`` in ``D`` are exactly the bindings
      under ``(b's items restricted to D, D)``: no compatibility checks,
      no sort.  Both sides are looked up, so that the table stays
      join-closed, and the items of ``b`` and of a neighbour are put in
      name order by the *merge plan* of ``(E, D)``.  A merged join already
      in the table extends ``b``, so it is left to the extension finder.
    * Every defined binding below a missing join ``j`` is ``j`` restricted
      to a table domain ``D ⊊ dom(j)``.  These restrictions that are
      defined are join-closed, since the table is, so their maximum ``s``,
      the source, is the join of them all and has the one widest domain
      among them.  For the fresh binding ``b`` itself, the join finder
      probes the table domains within ``b``'s, widest first: the first hit
      is ``s``, and if none hits, ``s`` is the empty binding.  A merged join
      ``j = b ⊔ n`` needs no probe.  Its source ``s`` is at least the
      neighbour ``n``; so it is not below ``b``, which ``n`` is not, and not
      above ``b`` either, or it would be at least ``b ⊔ n = j``.  So ``s`` is
      a neighbour of ``b`` whose join with ``b`` is ``j``, and the widest of
      them.  The merge plan lists the neighbour domains narrowest first, so
      ``s`` is the last to record itself with ``j``, and stays ``j``'s
      source.

    A binding equals its item tuple, so the extension finder looks its
    keys up with the binding itself, and the join finder probes ``delta``
    with item tuples, making a binding only of a join that is missing and
    of a fresh binding's source that it finds.
    """

    def __init__(self, machine: Machine, **options):
        super().__init__(machine, **options)
        self.extensions: dict[tuple, set[ParamInstance]] = {}
        self.parked_extensions: dict[tuple, set[ParamInstance]] = {}
        #: The query domains.  Each maps to itself, so that index keys share
        #: one domain object, to its cuts, each with the getter of that
        #: cut's items from a binding's items, and to its parked cuts, a
        #: part of them.
        self._domains: dict[frozenset[str], tuple[frozenset[str], dict, dict]] = {}
        #: The query domains, widest first.
        self._widest: list[frozenset[str]] = []
        #: Per domain of a fresh binding, its ``_plan``, and the getters of
        #: its restrictions to the table domains strictly within it, widest
        #: first.  Both are cleared when a query domain is added.
        self._plans: dict[frozenset[str], list[tuple]] = {}
        self._sources: dict[frozenset[str], list[Callable]] = {}

    def _joins(self, binding: ParamInstance) -> dict[frozenset[str], dict]:
        query = binding.domain
        # Planning every fresh binding anew measured ×1.21 unsafeiter-join p99 (CHANGES.md).
        plan = self._plans.get(query)
        if plan is None:
            if query not in self._domains:
                # The binding is one of its joins: this event defines it.
                self._add_domain(query)
            plan = self._plans[query] = self._plan(query)
        groups = {query: {binding: self._source(binding, query)}}
        examined = 1
        delta, wrap = self.delta, ParamInstance._wrap
        sides = (self.extensions, self.parked_extensions)
        for domain, cut, joined, merge in plan:
            key = (cut(binding), domain)
            for side in sides:
                neighbours = side.get(key)
                if neighbours:
                    examined += len(neighbours)
                    group = groups.get(joined) or {}
                    merged = map(merge, map(binding.__add__, neighbours))
                    for items, neighbour in zip(merged, neighbours):
                        if items not in delta:
                            group[wrap(items)] = neighbour
                    if group:
                        groups[joined] = group
        self.stats.compat_checks += examined
        return groups

    def _plan(self, query: frozenset[str]) -> list[tuple]:
        """``(D, cut, D∪query, merge plan)`` per table domain ``D`` incomparable with query.

        The merge plan gets a join's items, in name order, from the
        binding's items followed by a neighbour's, and each join is
        recorded with its neighbour.  The entries come narrowest domain
        first, so when several reach one missing join, the widest of their
        neighbours is the last to record itself, and stays the join's
        source.
        """
        plan = []
        for domain in reversed(self._widest):
            if not (domain <= query or query <= domain):
                joined = domain | query
                names = sorted(query) + sorted(domain)
                merge = itemgetter(*map(names.index, sorted(joined)))
                plan.append((domain, _cut(query, domain & query), joined, merge))
        return plan

    def _above(self, binding: ParamInstance) -> list[ParamInstance]:
        extensions = self.extensions
        size = len(binding)
        found = []
        for domain in self._widest:
            if len(domain) <= size:  # no strict extension of the binding
                break
            found.extend(extensions.get((binding, domain), ()))
        return found

    def _source(self, binding: ParamInstance, domain: frozenset[str]) -> ParamInstance:
        """A fresh binding's source: its widest defined restriction to a table domain, or EMPTY."""
        # Deriving them anew measured ×1.20 unsafeiter-join p99 (CHANGES.md).
        sources = self._sources.get(domain)
        if sources is None:
            sources = self._sources[domain] = [
                _cut(domain, part) for part in self._widest if part and part < domain
            ]
        delta = self.delta
        for probes, cut in enumerate(sources, 1):
            items = cut(binding)
            if items in delta:
                self.stats.probes += probes
                return ParamInstance._wrap(items)
        self.stats.probes += len(sources)
        return EMPTY

    def _index(
        self, domain: frozenset[str], joins: dict[ParamInstance, ParamInstance],
        parked: list[ParamInstance],
    ) -> None:
        """Write the keys of a group of this event's joins, each on its side, once.

        The live joins, those not in ``parked``, go under the domain's cuts,
        and the parked ones under its parked cuts, if it has any.  The side
        of each comes from ``_define``'s filing, so ``delta`` is not read.
        """
        domain, cuts, parked_cuts = self._domains.get(domain) or self._add_domain(domain)
        if not cuts:  # no lookup asks for them yet; a new cut's backfill will index them
            return
        if len(parked) < len(joins):
            _file(self.extensions, domain, cuts, joins.keys() - parked if parked else joins)
        if parked and parked_cuts:
            _file(self.parked_extensions, domain, parked_cuts, parked)

    def _park(self, binding: ParamInstance) -> None:
        """Move a live binding's keys to the parked side, under its parked cuts.

        The empty domain has no cuts, so the empty binding moves nowhere.
        """
        domain, cuts, parked_cuts = self._domains[binding.domain]
        live = self.extensions
        for cut in cuts.values():
            key = (cut(binding), domain)
            members = live[key]
            if len(members) == 1:
                del live[key]
            else:
                members.remove(binding)
        _file(self.parked_extensions, domain, parked_cuts, (binding,))

    def _add_domain(self, domain: frozenset[str]) -> tuple[frozenset[str], dict, dict]:
        """Make ``domain`` a query domain.

        It gets its cut by every query domain, and every query domain gets
        its cut by it; one ``_backfill`` indexes the defined bindings under
        the cuts that are new.  The cut of two incomparable domains is a
        parked cut of both, and no other is.
        """
        cuts, parked_cuts, fills = {}, {}, {}
        for other, other_cuts, parked_other_cuts in self._domains.values():
            part = other & domain
            if part != domain and part not in cuts:
                cuts[part] = _cut(domain, part)
            if part == other:
                continue
            live = parked = None
            if part not in other_cuts:
                live = other_cuts[part] = _cut(other, part)
            if part != domain:
                parked_cuts[part] = cuts[part]
                if part not in parked_other_cuts:
                    parked = parked_other_cuts[part] = other_cuts[part]
            if live or parked:
                fills[tuple(sorted(other))] = (other, live, parked)
        entry = self._domains[domain] = (domain, cuts, parked_cuts)
        self._widest = sorted(self._domains, key=len, reverse=True)
        self._plans.clear()
        self._sources.clear()
        if fills:
            self._backfill(fills)
        return entry

    def _backfill(self, fills: dict[tuple[str, ...], tuple]) -> None:
        """Index the defined bindings under their domains' new cuts, in one scan of ``delta``.

        ``fills`` maps the names of a domain to the domain, its new cut on
        the live side and its new cut on the parked side, each None if it
        has none.
        """
        live, parked, parking = self.extensions, self.parked_extensions, self._parking
        for member, state in self.delta.items():
            fill = fills.get(member.names)
            if fill is not None:
                domain, cut, parked_cut = fill
                side = live
                if parking and state in parking:
                    side, cut = parked, parked_cut
                if cut is not None:
                    side.setdefault((cut(member), domain), set()).add(member)


def _file(
    side: dict[tuple, set], domain: frozenset[str], cuts: dict, members: Iterable[ParamInstance]
) -> None:
    """Add ``members``, bindings of ``domain``, to ``side`` under each of ``cuts``."""
    for cut in cuts.values():
        for member in members:
            key = (cut(member), domain)
            keyed = side.get(key)
            if keyed is None:
                side[key] = {member}
            else:
                keyed.add(member)


def _cut(domain: frozenset[str], part: frozenset[str]) -> Callable[[tuple], tuple]:
    """Getter of the plain item tuple on ``part`` from a ``domain`` binding."""
    positions = [i for i, name in enumerate(sorted(domain)) if name in part]
    if len(positions) > 1:
        return itemgetter(*positions)
    # One position alone would return the item, not a tuple; a slice does not.
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))

