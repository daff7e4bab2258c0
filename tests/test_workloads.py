"""The fixed workloads double as fixed-point cost checks for the engines."""

from __future__ import annotations

from slicemon.machines import Verdict
from slicemon.parametric import IndexedMonitor
from slicemon.reference import BaselineMonitor

from .oracles import checked_defines, feed_counting
from .workloads import (
    adversarial_machine,
    adversarial_workload,
    iterator_machine,
    iterator_workload,
)


def test_iterator_workload_shape():
    events = iterator_workload(6, iterators=2)
    assert [(e.name, e.instance.encode()) for e in events] == [
        ("hasnexttrue", "i=it0"),
        ("next", "i=it0"),
        ("hasnexttrue", "i=it1"),
        ("next", "i=it1"),
        ("hasnexttrue", "i=it0"),
        ("next", "i=it0"),
    ]


def test_iterator_workload_never_fails():
    engine = IndexedMonitor(iterator_machine(), trigger=[Verdict.FAIL])
    assert engine.feed_all(iterator_workload(400)) == []


def test_iterator_costs_indexed_engine():
    events = iterator_workload(400, iterators=10)
    engine = IndexedMonitor(iterator_machine())
    touched, checks = feed_counting(engine, events)
    stats = engine.stats
    # one state stepped per event: bindings are mutually incompatible
    assert touched == [1] * 400
    assert stats.monitor_steps == 400
    assert stats.peak_instances == 11  # empty binding + 10 iterators
    assert stats.defines == 10
    # after the warm-up defines, repeat events never check compatibility
    assert checks[20:] == [0] * 380
    assert sum(checks) == 10


def test_adversarial_workload_shape():
    events = adversarial_workload(3)
    assert [e.name for e in events] == ["probe"] * 3
    encodings = [e.instance.encode() for e in events]
    assert encodings[0] == "x=v0,y=v0,z=v0"
    assert len(set(encodings)) == 3


def test_adversarial_costs_both_engines():
    count = 120
    events = adversarial_workload(count)
    baseline = checked_defines(BaselineMonitor(adversarial_machine()))
    indexed = checked_defines(IndexedMonitor(adversarial_machine()))
    base_touched, base_checks = feed_counting(baseline, events)
    touched, checks = feed_counting(indexed, events)
    for engine in (baseline, indexed):
        assert engine.stats.peak_instances == count + 1
        # every define, each fresh binding's own, went through the oracle
        assert engine._define.defines == engine.stats.defines == count
    # nothing ever joins: each event defines and touches only itself
    assert base_touched == [1] * count
    assert touched == base_touched
    # the baseline scans the whole table per event ...
    assert base_checks == list(range(1, count + 1))
    # ... while the indexed engine examines only the fresh binding itself:
    # no index entry holds a neighbour of it
    assert checks == [1] * count
