"""The randomized differential selfcheck, including mutant detection."""

from __future__ import annotations

import inspect

import pytest

from slicemon import selfcheck
from slicemon.bindings import EMPTY, ParamInstance
from slicemon.events import ParametricEvent
from slicemon.machines import FsmMachine, Verdict
from slicemon.parametric import IndexedMonitor
from slicemon.reference import BaselineMonitor
from slicemon.selfcheck import (
    _check_engine_pair,
    _check_reports,
    _check_slicing,
    _check_verdicts,
    _minimize,
    run_selfcheck,
)
from slicemon.slicer import SliceTable

from .mutants import (
    MUTANTS,
    NoSnapshotSliceTable,
    SilentBirthMonitor,
    UnfilledGroundMonitor,
    mutant_run,
)


def test_clean_run_passes():
    result = run_selfcheck(count=60, seed=5)
    assert result.passed
    assert result.failure is None
    assert (result.traces, result.slicing_ok, result.engine_pair_ok,
            result.verdicts_ok, result.reports_ok) == (60, 60, 60, 60, 60)
    assert result.summary_lines() == [
        "ok: slicing 60/60",
        "ok: engine-pair 60/60",
        "ok: verdicts 60/60",
        "ok: reports 60/60",
    ]


def test_same_seed_is_deterministic():
    first = run_selfcheck(count=25, seed=42)
    second = run_selfcheck(count=25, seed=42)
    assert first.passed and second.passed
    assert first.summary_lines() == second.summary_lines()


@pytest.mark.parametrize("name, kwargs, check", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_caught(name, kwargs, check):
    result = mutant_run(name)
    assert not result.passed
    assert result.failure.check == check
    assert result.traces <= 1000


def test_snapshot_mutant_is_caught_and_minimized():
    result = mutant_run("snapshot")
    assert not result.passed
    assert result.failure.check == "slicing"
    # the minimized trace still fails the table check on its own
    assert _check_slicing(result.failure.trace, [], NoSnapshotSliceTable) is not None
    # ... and is genuinely small: the bug needs only a couple of events
    assert len(result.failure.trace) <= 4
    rendered = result.failure.render()
    assert "check:  slicing" in rendered
    assert "minimized trace" in rendered


def test_selfcheck_module_defines_no_engine_or_slicer():
    # A deliberately broken engine or slicer belongs in tests/mutants.py:
    # the selfcheck checks the program that ships, and takes its mutants
    # through run_selfcheck's keywords.
    shipped = (IndexedMonitor, BaselineMonitor, SliceTable)
    defined = [
        cls for _, cls in inspect.getmembers(selfcheck, inspect.isclass)
        if cls.__module__ == selfcheck.__name__
    ]
    assert defined  # CheckFailure and SelfCheckResult at least
    assert [cls.__name__ for cls in defined if issubclass(cls, shipped)] == []


def test_reports_check_catches_a_dropped_dedup():
    class NoDedupMonitor(IndexedMonitor):
        def __init__(self, machine, **options):
            super().__init__(machine, **options)
            self.report_every = True

    # two match states that alternate, so no binding is ever parked
    machine = FsmMachine(
        "s", {("s", "a"): "t", ("t", "a"): "s"},
        {"s": Verdict.MATCH, "t": Verdict.MATCH}, ["a"],
    )
    trace = [ParametricEvent("a"), ParametricEvent("a")]
    assert _check_reports(trace, machine, IndexedMonitor) is None
    assert "report_every=False" in _check_reports(trace, machine, NoDedupMonitor)


def test_reports_check_alone_catches_a_silent_birth():
    # The engine-pair check runs first and meets the missing report against
    # the baseline; the reports check must see it against the definitional
    # slices too, on the same minimized trace.
    failure = mutant_run("silent-birth").failure
    assert failure is not None
    assert _check_reports(failure.trace, failure.machine, IndexedMonitor) is None
    detail = _check_reports(failure.trace, failure.machine, SilentBirthMonitor)
    assert "report_every=False" in detail


def test_unguarded_empty_mutant_is_caught_by_its_missing_first_report():
    # The mutant takes the first ground event on the warm path, which
    # skips the empty binding's first step in a sink, so the match that
    # step earns is never reported.
    result = mutant_run("unguarded-empty")
    failure = result.failure
    assert (result.traces, failure.check) == (4, "engine-pair")
    assert failure.detail == "event 1: baseline reported ['1\\tmatch\\t\\td'], indexed reported []"
    assert [(event.name, event.instance) for event in failure.trace] == [("d", EMPTY)]


def test_verdicts_check_compares_which_bindings_have_one():
    class EagerEmptyMonitor(IndexedMonitor):
        def __init__(self, machine, **options):
            super().__init__(machine, **options)
            self._started = True

    machine = FsmMachine("s", {("s", "a"): "s"}, {}, ["a"])
    trace = [ParametricEvent("a", ParamInstance({"x": "v1"}))]
    assert _check_verdicts(trace, machine, IndexedMonitor) is None
    assert "2 bindings have a verdict, the definition steps 1" == _check_verdicts(
        trace, machine, EagerEmptyMonitor
    )


def test_a_crash_is_a_counterexample():
    # The mutant raises KeyError on some traces; the check it was raised
    # in fails, and minimization goes on past candidates that crash.
    result = run_selfcheck(count=400, seed=23, indexed_class=UnfilledGroundMonitor)
    failure = result.failure
    assert failure is not None
    check = {
        "engine-pair": _check_engine_pair,
        "verdicts": _check_verdicts,
        "reports": _check_reports,
    }[failure.check]
    assert check(failure.trace, failure.machine, UnfilledGroundMonitor) == failure.detail


#: ``s -a-> t`` with ``t`` labelled match, and the one trace the pinned
#: details and crashes below run on.
MATCH_ON_A = FsmMachine("s", {("s", "a"): "t"}, {"t": Verdict.MATCH}, ["a"])
A_X1 = [ParametricEvent("a", ParamInstance({"x": "v1"}))]


def test_a_crash_of_the_checked_engine_is_its_detail():
    class CrashingMonitor(IndexedMonitor):
        def feed(self, event):
            raise KeyError("boom")

    assert _check_engine_pair(A_X1, MATCH_ON_A, CrashingMonitor) == (
        "event 1: raised KeyError: 'boom'"
    )
    assert _check_verdicts(A_X1, MATCH_ON_A, CrashingMonitor) == "raised KeyError: 'boom'"
    assert _check_reports(A_X1, MATCH_ON_A, CrashingMonitor) == (
        "report_every=False: raised KeyError: 'boom'"
    )


def test_a_crash_of_the_definitions_escapes():
    # an event outside the machine's alphabet stops the baseline engine
    # first: the fault is not the checked engine's, so it is not a finding
    with pytest.raises(KeyError):
        _check_engine_pair([ParametricEvent("b")], MATCH_ON_A, IndexedMonitor)


def test_slicing_check_pins_a_wrong_lookup():
    class EmptyLookupTable(SliceTable):
        def lookup(self, binding):
            return ()

    probe = ParamInstance({"x": "v1", "y": "v2"})
    assert _check_slicing(A_X1, [probe], SliceTable) is None
    assert _check_slicing(A_X1, [probe], EmptyLookupTable) == (
        "lookup(x=v1,y=v2) = '', definition says 'a'"
    )


def test_engine_pair_check_pins_a_wrong_verdict_table():
    class NoVerdictsMonitor(IndexedMonitor):
        @property
        def gamma(self):
            return {}

    assert _check_engine_pair(A_X1, MATCH_ON_A, IndexedMonitor) is None
    assert _check_engine_pair(A_X1, MATCH_ON_A, NoVerdictsMonitor) == (
        "event 1: verdict tables diverge"
    )


def test_verdicts_check_pins_an_extra_binding():
    class ExtraBindingMonitor(IndexedMonitor):
        def feed_all(self, trace):
            reports = super().feed_all(trace)
            self.delta[ParamInstance({"y": "v9"})] = self.machine.initial()
            return reports

    assert _check_verdicts(A_X1, MATCH_ON_A, IndexedMonitor) is None
    assert _check_verdicts(A_X1, MATCH_ON_A, ExtraBindingMonitor) == (
        "table domain has 3 bindings, definition yields 2"
    )


def test_verdicts_check_pins_a_wrong_verdict():
    class AllFailMonitor(IndexedMonitor):
        @property
        def gamma(self):
            return dict.fromkeys(super().gamma, Verdict.FAIL)

    assert _check_verdicts(A_X1, MATCH_ON_A, AllFailMonitor) == (
        "verdict for x=v1 is fail, definition says match"
    )


def test_minimize_deletes_irrelevant_events():
    trace = [ParametricEvent(name) for name in ("a", "b", "bad", "c", "d")]
    minimized = _minimize(trace, lambda t: any(e.name == "bad" for e in t))
    assert [e.name for e in minimized] == ["bad"]


def test_minimize_never_returns_empty():
    trace = [ParametricEvent("a"), ParametricEvent("b")]
    minimized = _minimize(trace, lambda t: True)
    assert len(minimized) == 1
