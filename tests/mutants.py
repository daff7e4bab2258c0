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

    It never defines the joins of a fresh binding with the table, so the
    combinations they stand for are missed.  Its groups hold only defined
    bindings, so no floor of theirs is ever read.
    """

    def _joins(self, binding: ParamInstance) -> tuple[frozenset[str], dict]:
        groups: dict[frozenset[str], dict] = {}
        for found in self._above(binding):
            groups.setdefault(found.domain, {})[found] = None
        return binding.domain, groups


class NoSnapshotMonitor(IndexedMonitor):
    """Mutant: defines each join from ``max_below`` on the growing table.

    Its source finder defines each join as soon as it has found its source.
    The loop asks for the fresh binding's source first, so a join found
    later can copy the fresh binding, or another join that this event
    created, instead of its pre-event source; the loop's own define then
    copies the same source again, by then given its own first step, and
    steps it once more.  The growing table is not join-closed, so
    ``max_below`` may meet several widest members below a join; the scan
    runs over the table in reverse order of definition, so the one defined
    last (by this event, when there is one) wins.  Scanned oldest first,
    the mutant would meet a pre-event source first and, on the smallest
    case (``setb b=1`` then ``seta a=1``), copy the right slice.
    """

    def _below(self, domain: frozenset[str], missing, joins) -> list[ParamInstance]:
        delta = self.delta
        sources = []
        for joined in missing:
            source = max_below(joined, reversed(delta))
            delta[joined] = delta[source]
            sources.append(source)
        return sources


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

    def _backfill(self, domain, cut, side) -> None:
        pass


class StaleParkedIndexMonitor(IndexedMonitor):
    """Mutant: a new parked cut covers only bindings that park later.

    The parked side has no key that holds every parked binding of a
    domain, so its backfill scans ``delta``; this mutant skips it.  A
    fresh binding of a new domain then misses its parked neighbours of an
    incomparable domain, and the joins with them are never defined.
    """

    def _backfill(self, domain, cut, side) -> None:
        if side is self.extensions:
            super()._backfill(domain, cut, side)


class LiveOnlyJoinsMonitor(IndexedMonitor):
    """Mutant: a fresh binding joins only with live bindings.

    Its join finder reads the live side of the index alone, so the joins
    with parked bindings are never defined and the table is no longer
    join-closed.  Each join it finds has its neighbour as its floor.
    """

    def _joins(self, binding: ParamInstance) -> tuple[frozenset[str], dict]:
        query = binding.domain
        if query not in self._domains:
            self._add_domain(query)
        groups: dict[frozenset[str], dict] = {}
        for domain in self._domains:
            if not domain <= query:
                sub = restrict(binding, domain & query)
                for neighbour in self.extensions.get((sub, domain), ()):
                    groups.setdefault(domain | query, {})[neighbour.join(binding)] = neighbour
        return query, groups


class SmallestSourceMonitor(IndexedMonitor):
    """Mutant: copies a missing join from its least informative source above its floor.

    It probes the table domains within the join that are wider than the
    join's floor smallest first, so the first defined restriction it meets
    is not the most informative one.
    """

    def _below(self, domain: frozenset[str], missing, joins) -> list[ParamInstance]:
        within = sorted((other for other in self._domains if other < domain), key=len)
        sources = []
        for joined in missing:
            floor = joins[joined] if joins else EMPTY
            subs = (restrict(joined, other) for other in within if len(other) > len(floor))
            sources.append(next((sub for sub in subs if sub in self.delta), floor))
        return sources


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
            (domain, cut, joined, self._stale.setdefault((domain, len(query)), merge), *rest)
            for domain, cut, joined, merge, *rest in super()._plan(query)
        ]


class SilentBirthMonitor(IndexedMonitor):
    """Mutant: a new join's first step never reports.

    ``_define`` gives each join it creates its first step, or, born parked,
    its source's sink state, and this mutant drops the report that the
    verdict earns when it is a trigger, as if a verdict copied from a
    source were a verdict already reported.
    """

    def _define(self, joins, sources, event, reports):
        super()._define(joins, sources, event, [])


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
    """Mutant: a fresh binding that meets no neighbour copies the empty binding.

    The loop defines a fresh binding itself, apart from its neighbour
    groups.  When the join finder returns no group, this mutant sources the
    binding from ``EMPTY`` instead of its most informative defined
    sub-binding, as if a binding that joins with nothing had nothing below
    it either.
    """

    _lone = False

    def _joins(self, binding: ParamInstance) -> tuple[frozenset[str], dict]:
        query, groups = super()._joins(binding)
        self._lone = not groups
        return query, groups

    def _below(self, domain: frozenset[str], missing, joins) -> list[ParamInstance]:
        if self._lone:  # the loop asks for the fresh binding's source first
            return [EMPTY] * len(missing)
        return super()._below(domain, missing, joins)


class StaleWiderMonitor(IndexedMonitor):
    """Mutant: a new table domain joins the end of the widest-first list.

    The warm finder stops at the first domain in the list no wider than
    the event's binding, so the strict extensions of a domain added after
    a narrower one are never reached by a warm event.
    """

    def _add_domain(self, domain: frozenset[str]) -> tuple:
        widest = self._widest
        entry = super()._add_domain(domain)
        self._widest = widest + [domain]
        return entry


class NeighbourSourceMonitor(IndexedMonitor):
    """Mutant: a merged join takes its floor, a neighbour, as its source without probing.

    A table domain may lie strictly between the neighbour's domain and the
    join's, and a wider defined restriction of the join there is the most
    informative one.  The fresh binding's own group is probed as usual.
    """

    def _below(self, domain: frozenset[str], missing, joins) -> list[ParamInstance]:
        if joins:
            return [joins[joined] for joined in missing]
        return super()._below(domain, missing, joins)


class UnguardedEmptyMonitor(IndexedMonitor):
    """Mutant: reads a binding in a parking sink as parked, the empty one too.

    The empty binding is in the table before its first step, and it may
    start in a sink.  The loop reads it as parked only once ``_started``
    records that step; this mutant sets the flag from the start, so
    parked-ness is the state test alone.  A ground event then skips the
    empty binding in a sink, and its first verdict is never reported; its
    verdict reads as recorded before any ground event.
    """

    def __init__(self, machine: FsmMachine, **options):
        super().__init__(machine, **options)
        self._started = True


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
    ("stale-wider", {"indexed_class": StaleWiderMonitor}, "reports"),
    ("neighbour-source", {"indexed_class": NeighbourSourceMonitor}, "engine-pair"),
    ("unguarded-empty", {"indexed_class": UnguardedEmptyMonitor}, "engine-pair"),
]


@functools.lru_cache(maxsize=None)
def mutant_run(name: str) -> SelfCheckResult:
    """The seed-0, 1,000-trace selfcheck of a ``MUTANTS`` mutant, run once per session."""
    kwargs = next(kwargs for mutant, kwargs, _ in MUTANTS if mutant == name)
    return run_selfcheck(count=1000, seed=0, **kwargs)
