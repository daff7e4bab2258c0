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
    _check_reports,
    _check_slicing,
    _check_verdicts,
    _minimize,
    run_selfcheck,
)
from slicemon.slicer import SliceTable

from .mutants import MUTANTS, NoSnapshotSliceTable, SilentBirthMonitor, mutant_run


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


def test_minimize_deletes_irrelevant_events():
    trace = [ParametricEvent(name) for name in ("a", "b", "bad", "c", "d")]
    minimized = _minimize(trace, lambda t: any(e.name == "bad" for e in t))
    assert [e.name for e in minimized] == ["bad"]


def test_minimize_never_returns_empty():
    trace = [ParametricEvent("a"), ParametricEvent("b")]
    minimized = _minimize(trace, lambda t: True)
    assert len(minimized) == 1
