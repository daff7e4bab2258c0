"""Bounded-exhaustive differential check: every small trace, once per renaming.

The scope is every non-empty trace of at most three events over ``a(x)``,
``b(y, z)``, ``c(x, y)``, ``d(y)``, ``e(z)``, ``f(x, y, z)``, a ground
``g`` and ``h(y, z)``, with the values ``1`` and ``2``, taken once per
renaming of each parameter's values: 2,989 traces.  ``h`` shares its
parameters with ``b`` and leads elsewhere, so that two neighbours of one
domain can hold different states within three events.  Every trace must
pass the selfcheck's slicing check and, on each of three fixed machines,
its ``engine-pair`` and ``reports`` checks.  Every one of the ``MUTANTS``
is caught in this scope, and the check that catches each first is pinned.
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

KINDS = (
    ("a", ("x",)), ("b", ("y", "z")), ("c", ("x", "y")), ("d", ("y",)), ("e", ("z",)),
    ("f", ("x", "y", "z")), ("g", ()), ("h", ("y", "z")),
)
NAMES = "abcdefgh"

#: ``a``, ``d``, ``f`` and ``h`` lead to a match that ``b`` and ``e`` leave;
#: ``c`` ends in a fail-labelled sink; ``g`` keeps the state.
FAIL_SINK = FsmMachine(
    "s",
    {
        **{(state, name): "m" for state in "sm" for name in "adfh"},
        **{(state, name): "s" for state in "sm" for name in "be"},
        **{(state, "c"): "dead" for state in "sm"},
        **{(state, "g"): state for state in "sm"},
        **{("dead", name): "dead" for name in NAMES},
    },
    {"m": Verdict.MATCH, "dead": Verdict.FAIL},
    NAMES,
)

#: A count modulo 3 that ``a``, ``c``, ``d``, ``g`` and ``h`` raise by one
#: and ``b``, ``e`` and ``f`` by two: no sink, every step changes the
#: verdict, and the fail state is left again.
COUNTER = FsmMachine(
    0,
    {
        (count, name): (count + rise) % 3
        for count in range(3) for name, rise in zip(NAMES, (1, 2, 1, 1, 2, 2, 1, 1))
    },
    {1: Verdict.MATCH, 2: Verdict.FAIL},
    NAMES,
)

#: Starts in a match sink: the empty binding is in a sink before its first
#: step, which a ground ``g`` takes and which must report.
WON = FsmMachine("won", {("won", name): "won" for name in NAMES}, {"won": Verdict.MATCH}, NAMES)

MACHINES = (FAIL_SINK, COUNTER, WON)


def small_traces(up_to: int = 3) -> list[list[ParametricEvent]]:
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
        for machine in MACHINES:
            if _check_engine_pair(trace, machine, indexed_class) is not None:
                return "engine-pair", trace
            if _check_reports(trace, machine, indexed_class) is not None:
                return "reports", trace
    return None


#: The check that first catches each mutant in the scope.
CAUGHT = {
    "snapshot": "slicing",
    "join-phase": "engine-pair",
    "park-fail": "engine-pair",
    "stale-index": "engine-pair",
    "stale-parked-index": "engine-pair",
    "smallest-source": "engine-pair",
    "live-only-joins": "engine-pair",
    "stale-plan": "engine-pair",
    "silent-birth": "engine-pair",
    "misfiled-join": "reports",
    "empty-cut-parked": "engine-pair",
    "lone-empty-source": "engine-pair",
    "stale-wider": "engine-pair",
    "narrowest-floor": "engine-pair",
    "unguarded-empty": "engine-pair",
    "unfilled-ground": "reports",
    "rotated-floor": "engine-pair",
}


def test_scope_is_every_small_trace_up_to_renaming():
    assert len(TRACES) == 2989
    assert len({tuple(trace) for trace in TRACES}) == len(TRACES)
    assert list(CAUGHT) == [name for name, _, _ in MUTANTS]


def test_real_engines_pass_every_small_trace():
    assert first_catch() is None


@pytest.mark.parametrize("name, kwargs", [m[:2] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_small_traces_catch_the_pinned_mutants(name, kwargs):
    caught = first_catch(**kwargs)
    assert (caught and caught[0]) == CAUGHT[name]
