"""Tests for the benchmark itself: generators, expected-output models, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from slicemon import (
    BaselineMonitor,
    IndexedMonitor,
    ParamInstance,
    binding_closure,
    definitional_verdicts,
    ordered,
    parse_property_spec,
    parse_trace,
    slice_trace,
)

import run
import traced
from endtoend import Cli, Tally, measure
from workloads import GENERATORS, make_workload, render_trace

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

#: Sizes small enough for the definitional checks, which rerun every prefix.
SMALL = {
    "iterator-warm": dict(events=120, iterators=8, planted=3),
    "unsafeiter-join": dict(events=70, collections=3, slots=2, slice_events=50),
    "fresh-bindings": dict(events=25),
}


def small(name: str, seed: int):
    return make_workload(name, seed, **SMALL[name])


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    assert make_workload(name, 7) == make_workload(name, 7)
    assert make_workload(name, 7).monitor_trace != make_workload(name, 8).monitor_trace


def definitional_reports(spec, events) -> list[str]:
    """Report lines derived from definitional verdicts of every trace prefix.

    After event ``k``, each binding of the prefix's join closure that the
    event's binding refines into reports its verdict when it is a trigger
    and differs from the binding's verdict after event ``k - 1`` (no verdict
    when the binding was not in that closure yet).
    """
    lines = []
    before: dict = {}
    for k in range(1, len(events) + 1):
        after = definitional_verdicts(spec.machine, events[:k])
        event = events[k - 1]
        for binding in ordered(b for b in after if event.instance.less_informative(b)):
            verdict = after[binding]
            if verdict in spec.trigger and verdict != before.get(binding):
                lines.append("%d\t%s\t%s\t%s" % (k, verdict, binding.encode(), event.name))
        before = after
    return lines


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_models_agree_with_engines_and_definitions(name, seed):
    work = small(name, seed)
    assert work.reports, "a workload with no reports checks nothing"
    spec = parse_property_spec(work.spec_text)
    events = parse_trace(render_trace(work.monitor_trace))
    for event in events:
        spec.check_event(event)
    for engine_cls in (BaselineMonitor, IndexedMonitor):
        engine = engine_cls(spec.machine, trigger=spec.trigger)
        assert [r.render() for r in engine.feed_all(events)] == work.reports
    assert definitional_reports(spec, events) == work.reports

    sliced = parse_trace(render_trace(work.slice_trace))
    rows = [row.split("\t") for row in work.slice_rows]
    bindings = [ParamInstance.parse(encoding) for encoding, _ in rows]
    assert bindings == ordered(binding_closure(sliced))
    for binding, (_, names) in zip(bindings, rows):
        assert " ".join(slice_trace(sliced, binding)) == names


def benchmark_metrics(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def test_end_to_end_metric_names_match_benchmark_json(tmp_path):
    work = small("fresh-bindings", 0)
    tally = Tally()
    with Cli(run.SRC, str(tmp_path)) as cli:
        values = measure(
            cli, work, [work, small("fresh-bindings", 1)], run.write_inputs(work, str(tmp_path)), 0,
            tally, min_passes=1,
        )
    assert tally.attempted > 0 and tally.failed == 0, tally.notes
    assert values.pop("latency_events") == 50
    assert set(values) - {"rounds", "kernel_ms"} == set(run.UNITS)
    assert run.UNITS == benchmark_metrics("end_to_end")


def test_per_layer_metric_names_match_benchmark_json(tmp_path):
    work = small("unsafeiter-join", 0)
    tally = Tally()
    metrics = traced.traced_run(work, run.write_inputs(work, str(tmp_path)), 0, tally, min_rounds=1)
    assert tally.attempted > 0 and tally.failed == 0, tally.notes
    assert {name: m["unit"] for name, m in metrics.items()} == benchmark_metrics("per_layer")


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iterator-warm", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
