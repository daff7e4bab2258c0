"""Parametric engines: baseline vs indexed, verdicts vs definitional slices."""

from __future__ import annotations

import random

import pytest

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.events import ParametricEvent, binding_closure, parse_trace
from slicemon.machines import FsmMachine, RatioMachine, Verdict
from slicemon.parametric import (
    BaselineMonitor,
    IndexedMonitor,
    VerdictReport,
    definitional_verdicts,
)
from slicemon.patterns import compile_regex
from slicemon.selfcheck import SkipJoinPhaseMonitor

from .oracles import check_index, feed_counting, random_binding
from .workloads import adversarial_machine, adversarial_workload


def both_engines(machine, **kwargs):
    return BaselineMonitor(machine, **kwargs), IndexedMonitor(machine, **kwargs)


def read_fixture(fixtures, name: str) -> str:
    return (fixtures / name).read_text(encoding="utf-8")


# -- fixture flows -----------------------------------------------------------------


def test_locking_fixture_reports(fixtures, locking_spec):
    trace = parse_trace(read_fixture(fixtures, "locking.trace"))
    for engine in both_engines(locking_spec.machine, trigger=locking_spec.trigger):
        reports = engine.feed_all(trace)
        assert [r.render() for r in reports] == ["6\tfail\tr=r2\tend"]
        assert engine.gamma.get(ParamInstance({"r": "r1"})) is Verdict.MATCH
        assert engine.gamma.get(ParamInstance({"r": "r2"})) is Verdict.FAIL
        # ground events keep the empty binding's own monitor advancing
        assert engine.gamma.get(EMPTY) is Verdict.MATCH


def test_hasnext_fixture_reports(fixtures, hasnext_spec):
    trace = parse_trace(read_fixture(fixtures, "hasnext.trace"))
    for engine in both_engines(hasnext_spec.machine, trigger=hasnext_spec.trigger):
        reports = engine.feed_all(trace)
        assert [r.render() for r in reports] == ["4\tfail\ti=i2\tnext"]


def test_unsafeiter_fixture_reports(fixtures, unsafeiter_spec):
    trace = parse_trace(read_fixture(fixtures, "unsafeiter.trace"))
    for engine in both_engines(unsafeiter_spec.machine, trigger=unsafeiter_spec.trigger):
        reports = engine.feed_all(trace)
        assert [r.render() for r in reports] == ["5\tmatch\ti=i1,v=v1\tnext"]


# -- report policy ------------------------------------------------------------------


def absorbing_match_machine() -> FsmMachine:
    return FsmMachine(
        initial="start",
        transitions={("start", "hit"): "won", ("won", "hit"): "won"},
        labels={"won": Verdict.MATCH},
        alphabet=["hit"],
    )


def hits(n: int) -> list[ParametricEvent]:
    return [ParametricEvent("hit", ParamInstance({"k": "1"}))] * n


def test_parked_verdict_reports_once():
    engine = IndexedMonitor(absorbing_match_machine(), trigger=[Verdict.MATCH])
    reports = engine.feed_all(hits(4))
    assert [(r.index, str(r.verdict)) for r in reports] == [(1, "match")]


def test_report_every_disables_dedup():
    engine = IndexedMonitor(
        absorbing_match_machine(), trigger=[Verdict.MATCH], report_every=True
    )
    reports = engine.feed_all(hits(4))
    assert [r.index for r in reports] == [1, 2, 3, 4]


def test_reenter_trigger_reports_again():
    # (a a)* is in the match verdict exactly after even counts
    machine = compile_regex("(a a)*", alphabet=["a"])
    engine = BaselineMonitor(machine, trigger=[Verdict.MATCH])
    events = [ParametricEvent("a", ParamInstance({"k": "1"}))] * 5
    reports = engine.feed_all(events)
    assert [r.index for r in reports] == [2, 4]


def test_no_trigger_means_no_reports():
    engine = IndexedMonitor(RatioMachine(["hit"]))
    assert engine.feed_all(hits(3)) == []
    assert str(engine.gamma.get(ParamInstance({"k": "1"}))) == "3/3"


def test_report_render_format():
    report = VerdictReport(2, Verdict.MATCH, ParamInstance({"x": "1"}), "a")
    assert report.render() == "2\tmatch\tx=1\ta"


def test_reports_are_values():
    report = VerdictReport(2, Verdict.MATCH, ParamInstance({"x": "1"}), "a")
    same = VerdictReport(2, Verdict.MATCH, ParamInstance({"x": "1"}), "a")
    assert report == same and hash(report) == hash(same) and len({report, same}) == 1
    assert report != VerdictReport(3, Verdict.MATCH, ParamInstance({"x": "1"}), "a")
    assert report != VerdictReport(2, Verdict.FAIL, ParamInstance({"x": "1"}), "a")
    assert report != VerdictReport(2, Verdict.MATCH, EMPTY, "a")
    assert report != VerdictReport(2, Verdict.MATCH, ParamInstance({"x": "1"}), "b")
    assert repr(report) == (
        "VerdictReport(index=2, verdict=<Verdict.MATCH: 'match'>, "
        "instance=ParamInstance('x=1'), event_name='a')"
    )


def test_empty_binding_verdict_defined_only_after_ground_event():
    machine = absorbing_match_machine()
    engine = IndexedMonitor(machine)
    engine.feed_all(hits(2))
    assert engine.gamma.get(EMPTY) is None  # never touched
    engine.feed(ParametricEvent("hit"))
    assert engine.gamma.get(EMPTY) is Verdict.MATCH


# -- bindings parked in a sink ------------------------------------------------------


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_join_from_parked_source_reports_on_first_step(engine_class):
    engine = engine_class(absorbing_match_machine(), trigger=[Verdict.MATCH])
    k1 = ParametricEvent("hit", ParamInstance({"k": "1"}))
    k1j2 = ParametricEvent("hit", ParamInstance({"j": "2", "k": "1"}))
    # k=1 parks in "won"; j=2,k=1 is copied from it and has no verdict yet
    reports = engine.feed_all([k1, k1j2, k1])
    assert [(r.index, r.instance.encode()) for r in reports] == [
        (1, "k=1"),
        (2, "j=2,k=1"),
    ]
    assert engine.gamma[ParamInstance({"j": "2", "k": "1"})] is Verdict.MATCH
    # the third event reaches both bindings and steps neither
    assert (engine.stats.monitor_steps, engine.stats.skipped_steps) == (2, 2)


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_sink_initial_state_reports_for_empty_binding(engine_class):
    machine = FsmMachine("dead", {("dead", "hit"): "dead"}, {"dead": Verdict.FAIL}, ["hit"])
    assert machine.sinks == {"dead", "<stuck>"}
    engine = engine_class(machine, trigger=[Verdict.FAIL])
    reports = engine.feed_all([ParametricEvent("hit"), ParametricEvent("hit")])
    assert [(r.index, r.instance.encode()) for r in reports] == [(1, "")]
    assert engine.gamma == {EMPTY: Verdict.FAIL}
    assert (engine.stats.monitor_steps, engine.stats.skipped_steps) == (1, 1)


def test_reports_of_one_event_come_in_binding_order():
    # two events of any kind reach match, which absorbs
    machine = compile_regex("(hit | tick) (hit | tick) (hit | tick)*", ["hit", "tick"])
    values = ("4", "3", "2", "10", "1")  # reverse encoding order
    trace = [ParametricEvent("hit", ParamInstance({"k": v})) for v in values]
    trace += [ParametricEvent("tick"), ParametricEvent("tick")]
    in_order = ["k=1", "k=10", "k=2", "k=3", "k=4"]
    for report_every, last in ((False, [""]), (True, [""] + in_order)):
        for engine in both_engines(
            machine, trigger=[Verdict.MATCH], report_every=report_every
        ):
            assert [r.instance.encode() for r in engine.feed_all(trace[:5])] == []
            assert [r.instance.encode() for r in engine.feed(trace[5])] == in_order
            assert [r.instance.encode() for r in engine.feed(trace[6])] == last


# -- the two engines agree, and both agree with the definition ----------------------


def random_machine(rng: random.Random, alphabet: tuple[str, ...]) -> FsmMachine:
    states = ["s%d" % i for i in range(rng.randint(2, 4))]
    transitions = {
        (state, name): rng.choice(states) for state in states for name in alphabet
    }
    labels = {
        state: rng.choice((Verdict.MATCH, Verdict.FAIL, Verdict.UNKNOWN))
        for state in states
        if rng.random() < 0.7
    }
    return FsmMachine(states[0], transitions, labels, alphabet)


def random_trace(rng: random.Random, alphabet, max_len=14) -> list[ParametricEvent]:
    return [
        ParametricEvent(rng.choice(alphabet), random_binding(rng))
        for _ in range(rng.randint(0, max_len))
    ]


def test_engines_agree_event_by_event_and_with_definition():
    rng = random.Random(99)
    alphabet = ("a", "b", "c")
    for _ in range(40):
        machine = random_machine(rng, alphabet)
        trace = random_trace(rng, alphabet)
        baseline, indexed = both_engines(
            machine, trigger=[Verdict.MATCH, Verdict.FAIL]
        )
        for position, event in enumerate(trace, 1):
            assert baseline.feed(event) == indexed.feed(event)
            assert baseline.delta == indexed.delta
            assert baseline.gamma == indexed.gamma
            check_index(indexed, trace[:position])
        # both engines materialize the join closure of the seen bindings
        closure = binding_closure(trace)
        assert set(baseline.delta) == closure
        # ... and their states replay the definitional slices
        reference = definitional_verdicts(machine, trace)
        for binding in closure:
            assert machine.output(baseline.delta[binding]) == reference[binding]
            assert machine.output(indexed.delta[binding]) == reference[binding]
        for binding, verdict in baseline.gamma.items():
            assert verdict == reference[binding]


def test_indexed_engine_cost_shape():
    machine = absorbing_match_machine()
    engine = IndexedMonitor(machine)
    k1 = ParametricEvent("hit", ParamInstance({"k": "1"}))
    k2 = ParametricEvent("hit", ParamInstance({"k": "2"}))
    steps, skipped, checks = feed_counting(
        engine, [k1, k2, k1, k1], ("monitor_steps", "skipped_steps", "compat_checks")
    )
    stats = engine.stats
    # a fresh binding examines itself plus its indexed neighbours (none
    # here: k=1 and k=2 are incompatible); repeat events examine nothing
    assert checks == [1, 1, 0, 0]
    # ... and touch exactly the binding itself (no extensions exist here);
    # k=1 is parked in the absorbing "won" state after its first step
    assert steps == [1, 1, 0, 0]
    assert [a + b for a, b in zip(steps, skipped)] == [1, 1, 1, 1]
    assert stats.defines == 2
    assert stats.peak_instances == 3  # the empty binding plus k=1, k=2


def test_index_size_does_not_grow_with_fresh_bindings():
    # fresh 3-parameter bindings that join with nothing: the finders never
    # ask for a key below one of them, so none is written
    events = adversarial_workload(2000)
    engine = IndexedMonitor(adversarial_machine())
    engine.feed_all(events[:1000])
    keys = len(engine.extensions)
    engine.feed_all(events[1000:])
    assert len(engine.delta) == 2001
    assert len(engine.extensions) == keys <= 1


def test_baseline_engine_scans_whole_table():
    machine = absorbing_match_machine()
    engine = BaselineMonitor(machine)
    _, checks = feed_counting(engine, [
        ParametricEvent("hit", ParamInstance({"k": "1"})),
        ParametricEvent("hit", ParamInstance({"k": "2"})),
        ParametricEvent("hit", ParamInstance({"k": "1"})),
    ])
    assert checks == [1, 2, 3]


def test_skip_join_phase_mutant_misses_combinations():
    machine = absorbing_match_machine()
    baseline = BaselineMonitor(machine)
    broken = SkipJoinPhaseMonitor(machine)
    trace = [
        ParametricEvent("hit", ParamInstance({"x": "1"})),
        ParametricEvent("hit", ParamInstance({"y": "2"})),
    ]
    baseline.feed_all(trace)
    broken.feed_all(trace)
    joined = ParamInstance({"x": "1", "y": "2"})
    assert joined in baseline.delta
    assert joined not in broken.delta


def test_engines_agree_on_a_40_parameter_binding():
    # a 40-parameter binding has 2^40 sub-bindings, too many to enumerate:
    # neither engine's source finder may depend on the width of a join
    wide = {f"p{i}": "v" for i in range(40)}
    trace = [
        ParametricEvent(name, ParamInstance(binding))
        for name, binding in [
            ("a", {"p0": "v", "p1": "v"}),
            ("b", {"p2": "v"}),
            ("b", wide),
            ("a", {**wide, "q": "1"}),
            ("b", {"p0": "v"}),
            ("a", {**wide, "p39": "w"}),
            ("a", {"q": "1"}),
        ]
    ]
    machine = compile_regex("a b+ a", alphabet=["a", "b"])
    baseline, indexed = both_engines(machine, trigger=[Verdict.MATCH])
    reports = baseline.feed_all(trace)
    assert reports and reports == indexed.feed_all(trace)
    assert baseline.delta == indexed.delta
    assert baseline.gamma == indexed.gamma


def test_instances_iterates_deterministically():
    engine = IndexedMonitor(absorbing_match_machine())
    engine.feed(ParametricEvent("hit", ParamInstance({"b": "2"})))
    engine.feed(ParametricEvent("hit", ParamInstance({"a": "1"})))
    encodings = [binding.encode() for binding in engine.instances()]
    assert encodings == ["", "a=1", "b=2", "a=1,b=2"]
