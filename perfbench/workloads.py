"""Seeded workloads for the benchmark, each with its expected outputs.

A workload is a property file, a trace, and the exact stdout that
``slicemon monitor`` and ``slicemon slice --instance all`` must print for
them.  The expected outputs come from a small model written for each
workload's shape; no slicemon code takes part in deciding what is correct,
so this module imports nothing from the package.

* ``iterator-warm`` — every binding repeats.  Expected reports are the
  planted violations (known when they are planted); slices come from
  grouping events by binding.
* ``unsafeiter-join`` — the two-parameter join shape.  Expected reports come
  from one small automaton per (collection, iterator) pair; slices from
  merging per-collection and per-iterator event lists.
* ``fresh-bindings`` — every event carries a new binding that joins with
  nothing, so each binding's slice is its one ``probe`` and each event
  reports ``match``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["GENERATORS", "Workload", "library_workloads", "make_workload", "render_trace"]

Binding = tuple  # name-sorted ((param, value), ...)


@dataclass(frozen=True)
class Workload:
    """Inputs for one workload and seed, with the outputs they must produce.

    ``monitor_trace`` feeds ``slicemon monitor``; ``slice_trace`` feeds
    ``slicemon slice`` and is a prefix of it, which keeps one slice run
    short.  ``reports`` and ``slice_rows`` are the expected stdout lines,
    without newlines.
    """

    name: str
    spec_text: str
    monitor_trace: list[tuple[str, Binding]]
    slice_trace: list[tuple[str, Binding]]
    reports: list[str]
    slice_rows: list[str]

    @property
    def monitor_exit(self) -> int:
        """Exit code of ``slicemon monitor``: 3 when anything is reported."""
        return 3 if self.reports else 0


def render_event(name: str, binding: Binding) -> str:
    return " ".join([name] + ["%s=%s" % item for item in binding])


def render_trace(events: list[tuple[str, Binding]]) -> str:
    return "".join(render_event(name, binding) + "\n" for name, binding in events)


def encode(binding: Binding) -> str:
    return ",".join("%s=%s" % item for item in binding)


def report_line(index: int, verdict: str, binding: Binding, name: str) -> str:
    return "%d\t%s\t%s\t%s" % (index, verdict, encode(binding), name)


def slice_rows(slices: dict[Binding, list[str]]) -> list[str]:
    """``slice --instance all`` lines: rows by binding size, then encoding."""
    order = sorted(slices, key=lambda b: (len(b), encode(b)))
    return ["%s\t%s" % (encode(b), " ".join(slices[b])) for b in order]


# -- iterator-warm -------------------------------------------------------------

HASNEXT_SPEC = """\
property SafeIteration
params: i
event hasnexttrue(i)
event hasnextfalse(i)
event next(i)
monitor: fsm
state unknown initial
state more
state none
state error
trans unknown hasnexttrue more
trans unknown hasnextfalse none
trans unknown next error
trans more hasnexttrue more
trans more hasnextfalse more
trans more next unknown
trans none hasnexttrue none
trans none hasnextfalse none
trans none next error
trans error hasnexttrue error
trans error hasnextfalse error
trans error next error
label error fail
report: fail
"""


def iterator_warm(
    seed: int, events: int = 15000, iterators: int = 100, planted: int = 5,
    slice_events: int = 5000,
) -> Workload:
    """Iterators visited round-robin, each visit ``hasnexttrue`` then ``next``.

    ``planted`` iterators (chosen by the seed) get one extra, bare ``next``
    after their visit in one of the first three rounds.  That event takes
    the iterator to ``error``, which is absorbing, so the expected report
    stream is exactly one ``fail`` line per planted event.  The spec is
    ``fixtures/hasnext.spec``.  ``slice`` gets the first ``slice_events``.
    """
    rng = random.Random(seed)
    order = rng.sample(range(iterators), iterators)
    plant_round = {k: rng.randrange(3) for k in rng.sample(range(iterators), planted)}
    trace: list[tuple[str, Binding]] = []
    reports: list[str] = []
    rnd = 0
    while len(trace) < events:
        for k in order:
            binding = (("i", "it%d" % k),)
            trace.append(("hasnexttrue", binding))
            trace.append(("next", binding))
            if plant_round.get(k) == rnd:
                trace.append(("next", binding))
                reports.append(report_line(len(trace), "fail", binding, "next"))
        rnd += 1
    del trace[events:]
    prefix = trace[:slice_events]
    slices: dict[Binding, list[str]] = {(): []}
    for name, binding in prefix:
        slices.setdefault(binding, []).append(name)
    return Workload("iterator-warm", HASNEXT_SPEC, trace, prefix, reports, slice_rows(slices))


# -- unsafeiter-join -----------------------------------------------------------

UNSAFEITER_SPEC = """\
property UnsafeIteration
params: v, i
event create(v, i)
event update(v)
event next(i)
monitor: regex
pattern: create next* update+ next
report: match
"""

# States of ``create next* update+ next`` along one pair's slice.
_START, _CREATED, _UPDATED, _MATCHED, _DEAD = range(5)
_NEXT_STATE = {
    "create": {_START: _CREATED},
    "next": {_CREATED: _CREATED, _UPDATED: _MATCHED},
    "update": {_CREATED: _UPDATED, _UPDATED: _UPDATED},
}


def unsafeiter_join(
    seed: int,
    events: int = 1500,
    collections: int = 20,
    slots: int = 4,
    slice_events: int = 300,
) -> Workload:
    """Collections with fixed iterator slots; 10% create, 20% update, 70% next.

    A warm-up, each part in seeded order, creates every slot's iterator,
    updates every collection, then advances every iterator once.  Each of
    those first ``next i`` events joins with every collection, so the table
    reaches all (collection, iterator) pairs within the warm-up, in steps
    of the same size for every seed.  The remaining events come in exactly
    the shares above, shuffled, each on a random slot: ``update v`` advances
    every pair of its collection and ``next i`` every pair of its iterator.
    The spec is ``fixtures/unsafeiter.spec``.

    Only a pair's own slice (its creates, its collection's updates, its
    iterator's nexts) decides its verdict, and ``match`` is left by the
    very next event of the slice.  So the engine reports exactly when a
    pair's automaton enters ``_MATCHED``, and a pair that matches has
    already been joined into the table by then.
    """
    rng = random.Random(seed)
    owners = {"c%d.%d" % (c, s): "c%d" % c for c in range(collections) for s in range(slots)}
    iterators = sorted(owners)
    all_collections = sorted(set(owners.values()))
    trace: list[tuple[str, Binding]] = []
    trace += [("create", (("i", it), ("v", owners[it]))) for it in rng.sample(iterators, len(iterators))]
    trace += [("update", (("v", v),)) for v in rng.sample(all_collections, len(all_collections))]
    trace += [("next", (("i", it),)) for it in rng.sample(iterators, len(iterators))]
    rest = max(events - len(trace), 0)
    kinds = ["create"] * (rest // 10) + ["update"] * (rest // 5)
    kinds += ["next"] * (rest - len(kinds))
    rng.shuffle(kinds)
    for kind in kinds:
        it = rng.choice(iterators)
        if kind == "create":
            trace.append(("create", (("i", it), ("v", owners[it]))))
        elif kind == "update":
            trace.append(("update", (("v", owners[it]),)))
        else:
            trace.append(("next", (("i", it),)))
    del trace[events:]

    state: dict[tuple[str, str], int] = {}
    reports: list[str] = []
    for index, (name, binding) in enumerate(trace, 1):
        params = dict(binding)
        if name == "create":
            pairs = [(params["v"], params["i"])]
        elif name == "update":
            pairs = [(params["v"], it) for it in iterators]
        else:
            pairs = [(v, params["i"]) for v in all_collections]
        for pair in pairs:
            new = _NEXT_STATE[name].get(state.get(pair, _START), _DEAD)
            state[pair] = new
            if new == _MATCHED:
                v, it = pair
                reports.append(report_line(index, "match", (("i", it), ("v", v)), name))

    prefix = trace[:slice_events]
    return Workload(
        "unsafeiter-join", UNSAFEITER_SPEC, trace, prefix, reports, _unsafeiter_slices(prefix)
    )


def _unsafeiter_slices(trace: list[tuple[str, Binding]]) -> list[str]:
    """Slice rows for a create/update/next trace, without any join search.

    The table holds the empty binding, each updated collection, each
    advanced iterator, each created pair, and every (updated collection,
    advanced iterator) pair.  A pair's slice merges its creates, its
    collection's updates and its iterator's nexts, by position.
    """
    creates: dict[tuple[str, str], list[int]] = {}
    updates: dict[str, list[int]] = {}
    nexts: dict[str, list[int]] = {}
    for pos, (name, binding) in enumerate(trace):
        params = dict(binding)
        if name == "create":
            creates.setdefault((params["v"], params["i"]), []).append(pos)
        elif name == "update":
            updates.setdefault(params["v"], []).append(pos)
        else:
            nexts.setdefault(params["i"], []).append(pos)
    names = [name for name, _ in trace]
    slices: dict[Binding, list[str]] = {(): []}
    for v, positions in updates.items():
        slices[(("v", v),)] = [names[p] for p in positions]
    for it, positions in nexts.items():
        slices[(("i", it),)] = [names[p] for p in positions]
    pairs = set(creates) | {(v, it) for v in updates for it in nexts}
    for v, it in pairs:
        positions = sorted(creates.get((v, it), []) + updates.get(v, []) + nexts.get(it, []))
        slices[(("i", it), ("v", v))] = [names[p] for p in positions]
    return slice_rows(slices)


# -- fresh-bindings ------------------------------------------------------------

TOGGLE_SPEC = """\
property Toggle
params: x, y, z
event probe(x, y, z)
monitor: fsm
state even initial
state odd
trans even probe odd
trans odd probe even
label odd match
report: match
"""


def fresh_bindings(seed: int, events: int = 500) -> Workload:
    """Every event is ``probe`` with three values never used before.

    No two bindings are compatible and no sub-binding is ever defined, so
    each binding's slice is its own single ``probe``, which takes the
    toggle from ``even`` to ``odd`` (``match``): one report per event.
    """
    rng = random.Random(seed)
    values = ["%08x" % n for n in rng.sample(range(16 ** 8), 3 * events)]
    trace = [
        ("probe", (("x", values[3 * j]), ("y", values[3 * j + 1]), ("z", values[3 * j + 2])))
        for j in range(events)
    ]
    reports = [report_line(j, "match", binding, name) for j, (name, binding) in enumerate(trace, 1)]
    slices: dict[Binding, list[str]] = {(): []}
    slices.update((binding, [name]) for name, binding in trace)
    return Workload("fresh-bindings", TOGGLE_SPEC, trace, trace, reports, slice_rows(slices))


GENERATORS = {
    "iterator-warm": iterator_warm,
    "unsafeiter-join": unsafeiter_join,
    "fresh-bindings": fresh_bindings,
}


def make_workload(name: str, seed: int, **sizes: int) -> Workload:
    """The named workload for ``seed``; ``sizes`` override the default sizes."""
    return GENERATORS[name](seed, **sizes)


#: Fewest events the library loop times, so that its p99 has 30 events beyond it.
LIBRARY_EVENTS = 3000


def library_workloads(name: str, seed: int) -> list[Workload]:
    """The seed's workload, then more of the same kind until ``LIBRARY_EVENTS`` events.

    The library loop needs that many distinct events for its p99, but
    fresh-bindings costs the square of its length, so it gets six traces
    of 500 events rather than one of 3,000.  The extra seeds come from
    ``seed``.
    """
    works = [make_workload(name, seed)]
    rng = random.Random(seed)
    while sum(len(work.monitor_trace) for work in works) < LIBRARY_EVENTS:
        works.append(make_workload(name, rng.getrandbits(48)))
    return works
