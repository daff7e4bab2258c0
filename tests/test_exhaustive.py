"""Bounded-exhaustive differential check: every small trace, once per renaming.

The scope is every non-empty trace of at most four events over ``a(x)``,
``b(y, z)`` and ``c(x, y)``, with the values ``1`` and ``2``, taken once
per renaming of each parameter's values: 1,633 traces.  Every one must
pass the selfcheck's slicing check and, on each of two fixed machines, its
``engine-pair`` and ``reports`` checks.  The ``MUTANTS`` this scope catches
are pinned with the check that catches each first, and so are the ones it
cannot catch.
"""

from __future__ import annotations

import itertools

import pytest

from slicemon.bindings import ParamInstance
from slicemon.events import ParametricEvent
from slicemon.machines import FsmMachine, Verdict
from slicemon.parametric import IndexedMonitor
from slicemon.selfcheck import _check_engine_pair, _check_reports, _check_slicing
from slicemon.slicer import SliceTable

from .mutants import MUTANTS

KINDS = (("a", ("x",)), ("b", ("y", "z")), ("c", ("x", "y")))

#: ``a`` leads to a match that ``b`` leaves; ``c`` ends in a fail-labelled sink.
FAIL_SINK = FsmMachine(
    "s",
    {
        ("s", "a"): "m", ("s", "b"): "s", ("s", "c"): "dead",
        ("m", "a"): "m", ("m", "b"): "s", ("m", "c"): "dead",
        **{("dead", name): "dead" for name in "abc"},
    },
    {"m": Verdict.MATCH, "dead": Verdict.FAIL},
    "abc",
)

#: A count modulo 3 that ``a`` and ``c`` raise by one and ``b`` by two: no
#: sink, every step changes the verdict, and the fail state is left again.
COUNTER = FsmMachine(
    0,
    {(count, name): (count + rise) % 3 for count in range(3) for name, rise in zip("abc", (1, 2, 1))},
    {1: Verdict.MATCH, 2: Verdict.FAIL},
    "abc",
)


def small_traces(up_to: int = 4) -> list[list[ParametricEvent]]:
    """Every non-empty trace of at most ``up_to`` events whose parameters each start at ``1``.

    Renaming each parameter's values apart maps every trace over the
    values ``1`` and ``2`` onto exactly one such trace.
    """
    found: list[list[ParametricEvent]] = []

    def grow(trace: list[ParametricEvent], valued: frozenset[str]) -> None:
        if trace:
            found.append(trace)
        if len(trace) == up_to:
            return
        for name, params in KINDS:
            choices = [("1", "2") if param in valued else ("1",) for param in params]
            for values in itertools.product(*choices):
                event = ParametricEvent(name, ParamInstance(dict(zip(params, values))))
                grow(trace + [event], valued | set(params))

    grow([], frozenset())
    return found


TRACES = small_traces()


def first_catch(indexed_class=IndexedMonitor, table_class=SliceTable):
    """The first check that fails in the scope, and its trace; None if all pass."""
    for trace in TRACES:
        if _check_slicing(trace, [], table_class) is not None:
            return "slicing", trace
        for machine in (FAIL_SINK, COUNTER):
            if _check_engine_pair(trace, machine, indexed_class) is not None:
                return "engine-pair", trace
            if _check_reports(trace, machine, indexed_class) is not None:
                return "reports", trace
    return None


#: The check that first catches each mutant in the scope, or None.
CAUGHT = {
    "snapshot": "slicing",
    "join-phase": "engine-pair",
    "park-fail": "engine-pair",
    "stale-index": "engine-pair",
    "stale-parked-index": "engine-pair",
    # A join's table domains above its floor are never of two widths here.
    "smallest-source": None,
    "live-only-joins": "engine-pair",
    # No two query domains of one size share an incomparable table domain.
    "stale-plan": None,
    "silent-birth": "engine-pair",
    "empty-cut-parked": "engine-pair",
    "lone-empty-source": "engine-pair",
    "stale-wider": "engine-pair",
    "neighbour-source": "engine-pair",
    # No event is ground, so the empty binding is never stepped.
    "unguarded-empty": None,
}


def test_scope_is_every_small_trace_up_to_renaming():
    assert len(TRACES) == 1633
    assert len({tuple(trace) for trace in TRACES}) == len(TRACES)
    assert list(CAUGHT) == [name for name, _, _ in MUTANTS]


def test_real_engines_pass_every_small_trace():
    assert first_catch() is None


@pytest.mark.parametrize("name, kwargs", [m[:2] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_small_traces_catch_the_pinned_mutants(name, kwargs):
    caught = first_catch(**kwargs)
    assert (caught and caught[0]) == CAUGHT[name]
