"""Deliberately broken engines that the selfcheck must catch.

Each is a subclass of :class:`IndexedMonitor` that takes one shortcut the
real engine must not take.  :data:`MUTANTS` lists every mutant the
selfcheck is tested against, with the ``run_selfcheck`` keywords that run
it and the check expected to catch it; two of them live in
:mod:`slicemon.selfcheck`, where the CLI's debug flags reach them.  A new
shortcut adds its mutant here, and the tests that iterate the list pick it
up.
"""

from __future__ import annotations

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.machines import FsmMachine, Verdict
from slicemon.parametric import IndexedMonitor
from slicemon.selfcheck import NoSnapshotSliceTable, SkipJoinPhaseMonitor


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


class LiveOnlyJoinsMonitor(IndexedMonitor):
    """Mutant: a fresh binding joins only with live bindings.

    Its join finder reads the live side of the index alone, so the joins
    with parked bindings are never defined and the table is no longer
    join-closed.
    """

    def _joins(self, binding: ParamInstance) -> dict[frozenset[str], set]:
        query = binding.domain
        if query not in self._domains:
            self._add_domain(query)
        groups = {query: {binding}}
        for domain in self._domains:
            if not domain <= query:
                sub = binding.restrict(domain & query)
                for neighbour in self.extensions.get((sub, domain), ()):
                    groups.setdefault(domain | query, set()).add(neighbour.join(binding))
        return groups


class SmallestSourceMonitor(IndexedMonitor):
    """Mutant: copies a missing join from its least informative defined source.

    It probes the table domains within the join smallest first, so the
    first defined restriction it meets is not the most informative one.
    """

    def _below(self, domain: frozenset[str], joins: set) -> list[ParamInstance]:
        within = sorted((other for other in self._domains if other < domain), key=len)
        sources = []
        for joined in joins:
            subs = (joined.restrict(other) for other in within)
            sources.append(next((sub for sub in subs if sub in self.delta), EMPTY))
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
            (domain, cut, joined, self._stale.setdefault((domain, len(query)), merge), sides)
            for domain, cut, joined, merge, sides in super()._plan(query)
        ]


class SilentBirthMonitor(IndexedMonitor):
    """Mutant: a join born parked never reports.

    A join copied from a parked source takes its source's verdict without
    a step, and this mutant drops the report that verdict earns when it is
    a trigger, as if a verdict copied were a verdict already reported.
    """

    def _bear(self, joins, sources, event, reports) -> list[ParamInstance]:
        return super()._bear(joins, sources, event, [])


class EmptyCutParkedMonitor(IndexedMonitor):
    """Mutant: the parked side keeps each binding under its empty cut only.

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


#: (name, ``run_selfcheck`` keywords, the check that must catch it).
MUTANTS = [
    ("snapshot", {"table_class": NoSnapshotSliceTable}, "slicing"),
    ("join-phase", {"indexed_class": SkipJoinPhaseMonitor}, "engine-pair"),
    ("park-fail", {"indexed_class": ParkFailMonitor}, "engine-pair"),
    ("stale-index", {"indexed_class": StaleIndexMonitor}, "engine-pair"),
    ("smallest-source", {"indexed_class": SmallestSourceMonitor}, "engine-pair"),
    ("live-only-joins", {"indexed_class": LiveOnlyJoinsMonitor}, "engine-pair"),
    ("stale-plan", {"indexed_class": StalePlanMonitor}, "engine-pair"),
    ("silent-birth", {"indexed_class": SilentBirthMonitor}, "engine-pair"),
    ("empty-cut-parked", {"indexed_class": EmptyCutParkedMonitor}, "engine-pair"),
]
