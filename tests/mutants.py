"""Deliberately broken engines that the selfcheck must catch.

Each takes one shortcut the real engine must not take: a subclass of
:class:`IndexedMonitor`, or, for the slicer, a :class:`SliceTable` that
runs one.  :data:`MUTANTS` lists every mutant the selfcheck is tested
against, with the ``run_selfcheck`` keywords that run it and the check
expected to catch it; all of them live here, and none in ``src/``.  A new
shortcut adds its mutant here, and the tests that iterate the list pick it
up.  ``run_selfcheck`` runs ``engine-pair`` before ``reports`` on each
trace, and it compares the report streams without ``report_every``: only a
mutant whose fault shows under ``report_every`` alone, on the first trace
that shows it at all, can name ``reports`` as its catcher.
:func:`mutant_run` runs each mutant's selfcheck once per test session, for
every test that reads it.
"""

from __future__ import annotations

import functools

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.machines import FsmMachine, Verdict
from slicemon.parametric import IndexedMonitor
from slicemon.reference import max_below
from slicemon.selfcheck import SelfCheckResult, run_selfcheck
from slicemon.slicer import SliceTable

from .oracles import restrict


class SkipJoinPhaseMonitor(IndexedMonitor):
    """Mutant: a fresh binding affects only itself and its extensions.

    It never defines the joins of a fresh binding with its neighbours, so
    the combinations they stand for are missed.  Its join finder returns
    the binding's own group alone, and ``_above`` still reaches the
    binding's extensions.
    """

    def _joins(self, binding: ParamInstance) -> dict:
        groups = super()._joins(binding)
        return {binding.domain: groups[binding.domain]}


class NoSnapshotMonitor(IndexedMonitor):
    """Mutant: defines each join from ``max_below`` on the growing table.

    Its join finder defines each join as soon as it has found its source.
    The fresh binding's group comes first, so a join found later can copy
    the fresh binding, or another join that this event created, instead of
    its pre-event source; the loop's own define then copies the same source
    again, by then given its own first step, and steps it once more.  The
    growing table is not join-closed, so ``max_below`` may meet several
    widest members below a join; the scan runs over the table in reverse
    order of definition, so the one defined last (by this event, when there
    is one) wins.  Scanned oldest first, the mutant would meet a pre-event
    source first and, on the smallest case (``setb b=1`` then ``seta
    a=1``), copy the right slice.
    """

    def _joins(self, binding: ParamInstance) -> dict:
        groups = super()._joins(binding)
        delta = self.delta
        for joins in groups.values():
            for joined in joins:
                joins[joined] = source = max_below(joined, reversed(delta))
                delta[joined] = delta[source]
        return groups


class NoSnapshotSliceTable(SliceTable):
    """Mutant slicer: a :class:`SliceTable` that runs :class:`NoSnapshotMonitor`."""

    engine_class = NoSnapshotMonitor


class ParkFailMonitor(IndexedMonitor):
    """Mutant: parks a binding in any ``fail``-labelled state, as if a sink.

    A parked binding is never stepped again, so one that would leave a
    ``fail`` state that is not absorbing keeps its stale state and verdict.
    """

    def __init__(self, machine: FsmMachine, **options):
        super().__init__(machine, **options)
        self._parking |= {
            state for state in machine.states if machine.output(state) is Verdict.FAIL
        }


class StaleIndexMonitor(IndexedMonitor):
    """Mutant: a new table domain's cut covers only bindings defined later.

    The bindings already defined are not indexed under the new cuts, so a
    fresh binding of a new domain misses its neighbours among them, and a
    binding that later arrives warm misses its defined extensions.
    """

    def _backfill(self, fills) -> None:
        pass


class StaleParkedIndexMonitor(IndexedMonitor):
    """Mutant: a new parked cut covers only bindings that park later.

    One scan of ``delta`` backfills both sides of the index under the new
    cuts; this mutant backfills the live side alone.  A fresh binding of a
    new domain then misses its parked neighbours of an incomparable
    domain, and the joins with them are never defined.
    """

    def _backfill(self, fills) -> None:
        super()._backfill({names: (domain, cut, None) for names, (domain, cut, _) in fills.items()})


class UnfilledGroundMonitor(IndexedMonitor):
    """Mutant: the empty domain joins the query domains unfilled.

    The first ground event defines the empty binding, whose domain then
    becomes a query domain and gives every table domain its empty cut; this
    mutant skips the backfill that indexes the bindings already defined
    under those cuts.  That ground event, and every later one, then misses
    the live bindings defined before it.
    """

    def _backfill(self, fills) -> None:
        if next(reversed(self._domains)):  # the domain just added is not the empty one
            super()._backfill(fills)


class LiveOnlyJoinsMonitor(IndexedMonitor):
    """Mutant: a fresh binding joins only with live bindings.

    Its join finder reads the live side of the index alone, so the joins
    with parked bindings are never defined and the table is no longer
    join-closed.  Each missing join it finds takes the neighbour it was
    found by as its source.
    """

    def _joins(self, binding: ParamInstance) -> dict:
        query = binding.domain
        if query not in self._domains:
            self._add_domain(query)
        groups = {query: {binding: self._source(binding, query)}}
        for domain in self._domains:
            if not (domain <= query or query <= domain):
                sub = restrict(binding, domain & query)
                for neighbour in self.extensions.get((sub, domain), ()):
                    joined = neighbour.join(binding)
                    if joined not in self.delta:
                        groups.setdefault(domain | query, {})[joined] = neighbour
        return groups


class SmallestSourceMonitor(IndexedMonitor):
    """Mutant: copies a missing join from its least informative source above its neighbour.

    It probes the table domains within the join that are wider than the
    neighbour it was merged from, or than the empty binding for the fresh
    binding itself, smallest first, so the first defined restriction it
    meets is not the most informative one.
    """

    def _joins(self, binding: ParamInstance) -> dict:
        groups = super()._joins(binding)
        groups[binding.domain][binding] = EMPTY
        for domain, joins in groups.items():
            within = sorted((other for other in self._domains if other < domain), key=len)
            for joined, least in joins.items():
                subs = (restrict(joined, other) for other in within if len(other) > len(least))
                joins[joined] = next((sub for sub in subs if sub in self.delta), least)
        return groups


class StalePlanMonitor(IndexedMonitor):
    """Mutant: caches a merge plan per neighbour domain, not per pair of domains.

    The first event domain to meet neighbours of a domain ``D`` fixes the
    positions that build every later join with ``D``, so a fresh binding of
    another domain merges its items with a neighbour's in the wrong order.
    The cache also keys on the event domain's size, so that the stale
    positions still pick a join of the right length and the engine runs on
    to a wrong table instead of failing on an index.
    """

    def __init__(self, machine: FsmMachine, **options):
        super().__init__(machine, **options)
        self._stale: dict[tuple, object] = {}

    def _plan(self, query: frozenset[str]) -> list[tuple]:
        return [
            (domain, cut, joined, self._stale.setdefault((domain, len(query)), merge))
            for domain, cut, joined, merge in super()._plan(query)
        ]


class SilentBirthMonitor(IndexedMonitor):
    """Mutant: a new join's first step never reports.

    ``_define`` gives each join it creates its first step, or, born parked,
    its source's sink state, and this mutant drops the report that the
    verdict earns when it is a trigger, as if a verdict copied from a
    source were a verdict already reported.
    """

    def _define(self, joins, event, reports):
        super()._define(joins, event, [])


class EmptyCutParkedMonitor(IndexedMonitor):
    """Mutant: the parked side keeps no cut but the empty one.

    A fresh binding finds its parked neighbours of an incomparable domain
    under the cut by the names the two domains share; when they share any,
    it finds none, and the joins with them are never defined.
    """

    def _add_domain(self, domain: frozenset[str]) -> tuple:
        entry = super()._add_domain(domain)
        for _, _, parked_cuts in self._domains.values():
            for part in [part for part in parked_cuts if part]:
                del parked_cuts[part]
        for key in [key for key in self.parked_extensions if key[0]]:
            del self.parked_extensions[key]
        return entry


class LoneEmptySourceMonitor(IndexedMonitor):
    """Mutant: a fresh binding with no other missing join copies the empty binding.

    When the join finder returns the binding's own group alone, this mutant
    gives the binding ``EMPTY`` as its source instead of its most
    informative defined sub-binding, as if a binding that adds no other join
    had nothing below it either.
    """

    def _joins(self, binding: ParamInstance) -> dict:
        groups = super()._joins(binding)
        if len(groups) == 1:
            groups[binding.domain][binding] = EMPTY
        return groups


class StaleWiderMonitor(IndexedMonitor):
    """Mutant: a new table domain joins the end of the widest-first list.

    The extension finder stops at the first domain in the list no wider
    than the event's binding, so the strict extensions of a domain added
    after a narrower one are never reached, by a warm event or a fresh one.
    """

    def _add_domain(self, domain: frozenset[str]) -> tuple:
        widest = self._widest
        entry = super()._add_domain(domain)
        self._widest = widest + [domain]
        return entry


class NarrowestFloorMonitor(IndexedMonitor):
    """Mutant: its merge plans list the neighbour domains widest first.

    When several neighbours reach one missing join, the last to record
    itself stays the join's source, with no probe.  Here that is the
    narrowest of them, so the join copies a neighbour below its source.
    """

    def _plan(self, query: frozenset[str]) -> list[tuple]:
        return sorted(super()._plan(query), key=lambda entry: len(entry[0]), reverse=True)


class UnguardedEmptyMonitor(IndexedMonitor):
    """Mutant: steps the empty binding's first ground event on the warm path.

    The empty binding is in the table before its first step, and it may
    start in a sink.  The loop takes the first ground event on the fresh
    path, where ``_define`` gives the empty binding that step and reports
    any trigger verdict.  This mutant records the step as taken before the
    event, and makes the empty domain a query domain, as the fresh path
    would, so that the event's extensions are still found.  The warm path
    then skips the empty binding in a sink, or steps it to the verdict it
    started with, and its first verdict is never reported.
    """

    def feed(self, event):
        if not (event.instance or self._started):
            self._add_domain(frozenset())
            self._started = True
        return super().feed(event)


class RotatedFloorMonitor(IndexedMonitor):
    """Mutant: a merged join takes another neighbour of its index key as its source.

    The neighbours of one domain that a fresh binding meets sit under one
    key, and each reaches its own join; this mutant rotates their sources
    among those joins.  A merged join copies its neighbour without a probe,
    so where a key holds several neighbours, each join copies one that is
    not below it.
    """

    def _joins(self, binding: ParamInstance) -> dict:
        groups = super()._joins(binding)
        for joins in list(groups.values())[1:]:
            by_key: dict[frozenset, list] = {}
            for joined, source in joins.items():
                by_key.setdefault(source.domain, []).append(joined)
            for keyed in by_key.values():
                sources = [joins[joined] for joined in keyed]
                joins.update(zip(keyed, sources[1:] + sources[:1]))
        return groups


#: (name, ``run_selfcheck`` keywords, the check that must catch it).
MUTANTS = [
    ("snapshot", {"table_class": NoSnapshotSliceTable}, "slicing"),
    ("join-phase", {"indexed_class": SkipJoinPhaseMonitor}, "engine-pair"),
    ("park-fail", {"indexed_class": ParkFailMonitor}, "engine-pair"),
    ("stale-index", {"indexed_class": StaleIndexMonitor}, "engine-pair"),
    ("stale-parked-index", {"indexed_class": StaleParkedIndexMonitor}, "engine-pair"),
    ("smallest-source", {"indexed_class": SmallestSourceMonitor}, "engine-pair"),
    ("live-only-joins", {"indexed_class": LiveOnlyJoinsMonitor}, "engine-pair"),
    ("stale-plan", {"indexed_class": StalePlanMonitor}, "engine-pair"),
    ("silent-birth", {"indexed_class": SilentBirthMonitor}, "engine-pair"),
    ("empty-cut-parked", {"indexed_class": EmptyCutParkedMonitor}, "engine-pair"),
    ("lone-empty-source", {"indexed_class": LoneEmptySourceMonitor}, "engine-pair"),
    ("stale-wider", {"indexed_class": StaleWiderMonitor}, "engine-pair"),
    ("narrowest-floor", {"indexed_class": NarrowestFloorMonitor}, "engine-pair"),
    ("unguarded-empty", {"indexed_class": UnguardedEmptyMonitor}, "engine-pair"),
    ("unfilled-ground", {"indexed_class": UnfilledGroundMonitor}, "engine-pair"),
    ("rotated-floor", {"indexed_class": RotatedFloorMonitor}, "engine-pair"),
]


@functools.lru_cache(maxsize=None)
def mutant_run(name: str) -> SelfCheckResult:
    """The seed-0, 1,000-trace selfcheck of a ``MUTANTS`` mutant, run once per session."""
    kwargs = next(kwargs for mutant, kwargs, _ in MUTANTS if mutant == name)
    return run_selfcheck(count=1000, seed=0, **kwargs)
