"""Parametric engines: baseline vs indexed, verdicts vs definitional slices."""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import Counter

import pytest

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.counters import BalanceMachine, RatioMachine
from slicemon.events import ParametricEvent, parse_trace
from slicemon.machines import FsmMachine, Verdict
from slicemon.parametric import IndexedMonitor, VerdictReport
from slicemon.reference import BaselineMonitor, binding_closure, definitional_verdicts, max_below
from slicemon.patterns import compile_regex
from slicemon.slicer import SliceTable
from slicemon.specfile import parse_property_spec

from .mutants import (
    SkipJoinPhaseMonitor, StaleParkedIndexMonitor, StaleWiderMonitor, UnguardedEmptyMonitor,
)
from .oracles import feed_counting, parked, random_binding
from .workloads import (
    adversarial_machine, adversarial_workload, iterator_machine, iterator_workload,
    unsafeiter_workload,
)


def both_engines(machine, **kwargs):
    """The two engines on one machine."""
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


@pytest.mark.parametrize("name", ["locking", "hasnext", "unsafeiter", "balanced"])
@pytest.mark.parametrize("report_every", [False, True])
def test_engines_agree_on_fixture_work(fixtures, name, report_every):
    spec = parse_property_spec(read_fixture(fixtures, name + ".spec"))
    trace = parse_trace(read_fixture(fixtures, name + ".trace"))
    baseline, indexed = both_engines(
        spec.machine, trigger=spec.trigger, report_every=report_every
    )
    assert baseline.feed_all(trace) == indexed.feed_all(trace)
    for field in ("monitor_steps", "skipped_steps", "defines"):
        assert getattr(baseline.stats, field) == getattr(indexed.stats, field), field


#: ``monitor --spec fixtures/balanced.spec --trace fixtures/balanced.trace``,
#: with and without ``--report-every``: as before violated states were one sink.
BALANCED_REPORTS = {
    False: ["3\tfail\tl=l1\trelease", "9\tfail\tl=l3\tend"],
    True: [
        "3\tfail\tl=l1\trelease",
        "5\tfail\tl=l1\tend",
        "6\tfail\tl=l1\tbegin",
        "7\tfail\tl=l1\tacquire",
        "9\tfail\tl=l1\tend",
        "9\tfail\tl=l3\tend",
        "10\tfail\tl=l1\tbegin",
        "10\tfail\tl=l3\tbegin",
        "11\tfail\tl=l3\trelease",
        "12\tfail\tl=l1\tend",
        "12\tfail\tl=l3\tend",
    ],
}


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
@pytest.mark.parametrize("report_every", [False, True])
def test_balance_violation_parks_its_binding(fixtures, engine_class, report_every):
    class CountingBalance(BalanceMachine):
        from_violated = 0

        def step(self, state, name):
            if state[0]:
                CountingBalance.from_violated += 1
            return super().step(state, name)

    spec = parse_property_spec(read_fixture(fixtures, "balanced.spec"))
    machine = CountingBalance(**spec.machine.roles)
    assert machine.sinks == {BalanceMachine.VIOLATED}
    trace = parse_trace(read_fixture(fixtures, "balanced.trace"))
    engine = engine_class(machine, trigger=spec.trigger, report_every=report_every)
    lines = [report.render() for report in engine.feed_all(trace)]
    assert lines == BALANCED_REPORTS[report_every]
    violated = [ParamInstance({"l": "l1"}), ParamInstance({"l": "l3"})]
    assert [engine.delta[b] for b in violated] == [BalanceMachine.VIOLATED] * 2
    assert [engine.gamma[b] for b in violated] == [Verdict.FAIL] * 2
    if report_every:
        # a reported sink is not parked: l1 and l3 step on to the end
        assert CountingBalance.from_violated == 9
    else:
        # the violating step is the last step of l1 and of l3
        assert CountingBalance.from_violated == 0
        assert parked(engine) == set(violated)


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


def test_a_report_is_not_its_field_tuple():
    report = VerdictReport(2, Verdict.MATCH, ParamInstance({"x": "1"}), "a")
    fields = (2, Verdict.MATCH, ParamInstance({"x": "1"}), "a")
    assert report != fields and fields != report


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
    # k=1 parks in "won"; j=2,k=1 is copied from it, so it is born parked
    # with k=1's verdict, and reports it, as it had no verdict yet
    reports = engine.feed_all([k1, k1j2, k1])
    assert [(r.index, r.instance.encode()) for r in reports] == [
        (1, "k=1"),
        (2, "j=2,k=1"),
    ]
    assert engine.gamma[ParamInstance({"j": "2", "k": "1"})] is Verdict.MATCH
    # the birth counts as a step; the third event steps neither: it
    # reaches k=1 itself, parked, and not its parked extension j=2,k=1
    assert (engine.stats.monitor_steps, engine.stats.skipped_steps) == (2, 1)


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_fresh_binding_does_not_reach_its_parked_joins(engine_class):
    engine = engine_class(absorbing_match_machine(), trigger=[Verdict.MATCH])
    k1j2 = ParametricEvent("hit", ParamInstance({"j": "2", "k": "1"}))
    k1 = ParametricEvent("hit", ParamInstance({"k": "1"}))
    # j=2,k=1 parks in "won"; the fresh k=1 is defined and stepped, but its
    # defined join j=2,k=1 is parked and neither stepped nor skipped
    reports = engine.feed_all([k1j2, k1])
    assert [(r.index, r.instance.encode()) for r in reports] == [
        (1, "j=2,k=1"),
        (2, "k=1"),
    ]
    assert (engine.stats.monitor_steps, engine.stats.skipped_steps) == (2, 0)


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_sink_initial_state_reports_for_empty_binding(engine_class):
    machine = FsmMachine("dead", {("dead", "hit"): "dead"}, {"dead": Verdict.FAIL}, ["hit"])
    assert machine.sinks == {"dead", "<stuck>"}
    engine = engine_class(machine, trigger=[Verdict.FAIL])
    reports = engine.feed_all([ParametricEvent("hit"), ParametricEvent("hit")])
    assert [(r.index, r.instance.encode()) for r in reports] == [(1, "")]
    assert engine.gamma == {EMPTY: Verdict.FAIL}
    assert (engine.stats.monitor_steps, engine.stats.skipped_steps) == (1, 1)


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_initial_match_reports_once_for_empty_binding(engine_class):
    # The initial state is a match but no sink: the first ground event
    # steps the empty binding to the verdict it started with, and that first
    # step reports it, as a define does; the second step keeps it silent.
    machine = FsmMachine(
        "won", {("won", "g"): "won", ("won", "lose"): "lost"}, {"won": Verdict.MATCH},
        ["g", "lose"],
    )
    assert "won" not in machine.sinks
    engine = engine_class(machine, trigger=[Verdict.MATCH])
    ground, stats, seen = ParametricEvent("g"), engine.stats, []
    for _ in range(2):
        lines = [report.render() for report in engine.feed(ground)]
        seen.append((lines, stats.defines, stats.compat_checks, stats.monitor_steps))
    # The baseline scans the one-entry table on every event; the indexed
    # engine examines the fresh empty binding alone, once.
    checks = 2 if engine_class is BaselineMonitor else 1
    assert seen == [(["1\tmatch\t\tg"], 0, 1, 1), ([], 0, checks, 2)]


def test_empty_binding_in_a_sink_is_not_parked_before_its_first_step():
    # Read as parked from the start, the empty binding would never report.
    with pytest.raises(AssertionError):
        test_sink_initial_state_reports_for_empty_binding(UnguardedEmptyMonitor)


def test_pairs_parked_before_a_new_domain_join_with_its_bindings():
    # Two ``a`` events park an {x, y} pair in "done".  No query domain is
    # incomparable with {x, y} until the first {y, z} event, so until then
    # the parked pairs sit under no key; that event's domain gives {x, y}
    # the parked cut by {y}, which the backfill fills from the parked pairs
    # in ``delta``, and the fresh {y, z} bindings find the pairs under it.
    machine = FsmMachine(
        "start",
        {("start", "a"): "once", ("once", "a"): "done", ("done", "a"): "done"},
        {"done": Verdict.MATCH},
        ["a"],
    )

    def a(**values: str) -> ParametricEvent:
        return ParametricEvent("a", ParamInstance(values))

    trace = [a(x="1", y="1")] * 2 + [a(x="2", y="1")] * 2 + [a(x="3", y="2")] * 2
    trace += [a(x="4", y="1"), a(y="1", z="1"), a(y="2", z="2"), a(y="1", z="3")]
    baseline, indexed = both_engines(machine, trigger=[Verdict.MATCH])
    for event in trace:
        assert indexed.feed(event) == baseline.feed(event), event
        assert indexed.delta == baseline.delta and indexed.gamma == baseline.gamma, event
    pairs = {ParamInstance({"x": x, "y": y}) for x, y in (("1", "1"), ("2", "1"), ("3", "2"))}
    assert pairs <= parked(indexed)
    born = {
        pair.join(binding)
        for pair in pairs
        for binding in (event.instance for event in trace[7:])
        if pair.join(binding) is not None
    }
    assert len(born) == 5 and born <= set(indexed.delta)
    # Without the parked side's backfill, the pairs sit under no key the
    # {y, z} bindings probe, and none of the joins with them is defined.
    stale = StaleParkedIndexMonitor(machine, trigger=[Verdict.MATCH])
    stale.feed_all(trace)
    assert born.isdisjoint(stale.delta)


@pytest.mark.parametrize("prefix", [[], [("touch", {"i": "i0", "w": "w1"})]])
def test_group_mixing_live_and_born_parked_joins(prefix):
    # ``kill`` parks a collection in "dead"; ``touch`` leaves one live.  The
    # fresh i=i1 then defines one group of domain {i, v} holding a join
    # copied from the parked v=c1, born parked, and one copied from the
    # live v=c2, stepped.  With the {i, w} prefix, {i, v} has a parked cut
    # by {i} when the group is indexed, so both sides get keys.
    machine = FsmMachine(
        "start",
        {
            ("start", "touch"): "start", ("start", "step"): "start",
            ("start", "kill"): "dead",
            **{("dead", name): "dead" for name in ("touch", "step", "kill")},
        },
        {"dead": Verdict.FAIL},
        ["touch", "kill", "step"],
    )
    events = prefix + [("touch", {"v": "c2"}), ("kill", {"v": "c1"}), ("step", {"i": "i1"})]
    trace = [ParametricEvent(name, ParamInstance(values)) for name, values in events]
    baseline, indexed = both_engines(machine, trigger=[Verdict.FAIL])
    for event in trace:
        assert indexed.feed(event) == baseline.feed(event), event
        assert indexed.delta == baseline.delta and indexed.gamma == baseline.gamma, event
        assert parked(indexed) == parked(baseline), event
    born, live = ParamInstance({"i": "i1", "v": "c1"}), ParamInstance({"i": "i1", "v": "c2"})
    assert born in parked(indexed) and live not in parked(indexed)
    assert indexed.gamma[born] is Verdict.FAIL and indexed.delta[live] == "start"
    on_parked = indexed.parked_extensions.get(((("i", "i1"),), born.domain), set())
    assert on_parked == ({born} if prefix else set())
    assert live in indexed.extensions[((("i", "i1"),), live.domain)]


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


def test_lone_reports_and_slice_rows_encode_each_binding_once(monkeypatch):
    # A binding keeps no encoding.  An event with one report, the only kind
    # the benchmark workloads make, does not sort and so encodes its binding
    # in ``render`` alone; ``rows`` sorts on the encodings it prints.
    machine = compile_regex("(hit | tick) (hit | tick) (hit | tick)*", ["hit", "tick"])
    trace = [
        ParametricEvent("hit", ParamInstance({"k": v})) for v in ("4", "4", "10", "10")
    ]
    encoded = []
    encode = ParamInstance.encode

    def counting(binding):
        encoded.append(binding)
        return encode(binding)

    monkeypatch.setattr(ParamInstance, "encode", counting)
    engine = IndexedMonitor(machine, trigger=[Verdict.MATCH])
    lines = [report.render() for report in engine.feed_all(trace)]
    assert lines == ["2\tmatch\tk=4\thit", "4\tmatch\tk=10\thit"]
    assert len(encoded) == 2
    table = SliceTable().feed_all(trace)
    del encoded[:]
    rows = list(table.rows())
    assert len(encoded) == len(rows) == 3
    assert rows == [(b.encode(), table.slice_of(b)) for b in table.instances()]


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


def random_trace(
    rng: random.Random, alphabet, max_len=14, params=("x", "y", "z")
) -> list[ParametricEvent]:
    return [
        ParametricEvent(rng.choice(alphabet), random_binding(rng, params))
        for _ in range(rng.randint(0, max_len))
    ]


def test_engines_agree_event_by_event_and_with_definition():
    rng = random.Random(99)
    alphabet = ("a", "b", "c")
    # With five names, many table domains lie within a fresh binding's, so
    # the join finder probes several of them for its source.  Their total
    # is pinned: an empty table domain, or a probe of a merged join, whose
    # neighbour is its source, changes it.
    probes = 0
    for params in [("x", "y", "z")] * 40 + [("v", "w", "x", "y", "z")] * 40:
        machine = random_machine(rng, alphabet)
        trace = random_trace(rng, alphabet, params=params)
        baseline, indexed = both_engines(
            machine, trigger=[Verdict.MATCH, Verdict.FAIL]
        )
        for event in trace:
            assert baseline.feed(event) == indexed.feed(event)
            assert baseline.delta == indexed.delta
            assert baseline.gamma == indexed.gamma
        for field in ("monitor_steps", "skipped_steps", "defines"):
            assert getattr(baseline.stats, field) == getattr(indexed.stats, field)
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
        probes += indexed.stats.probes
    assert probes == 381


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


def test_warm_events_do_not_reach_parked_extensions(unsafeiter_spec):
    # The paper's join shape: a lone ``i`` or ``v`` slice can never match, and
    # most (collection, iterator) pairs soon sit in the pattern's dead sink
    # too.  A warm event reaches its own binding, parked or not, and its live
    # extensions, never the parked ones only to skip them.
    events = unsafeiter_workload(600)
    spec = unsafeiter_spec
    engine = IndexedMonitor(spec.machine, trigger=spec.trigger)
    warm_events = skips_avoided = 0
    for event in events:
        binding = event.instance
        warm = binding in engine.delta
        held = parked(engine)
        own = 1 if binding in held else 0
        parked_above = sum(
            1 for other in held
            if other != binding and binding.less_informative(other)
        )
        ((skipped,),) = feed_counting(engine, [event], ("skipped_steps",))
        if warm:
            warm_events += 1
            skips_avoided += parked_above
            assert skipped == own, event
    stats = engine.stats
    assert warm_events > 500 and skips_avoided > 5 * stats.skipped_steps
    assert len(parked(engine)) > len(engine.delta) // 2
    baseline = BaselineMonitor(spec.machine, trigger=spec.trigger)
    assert baseline.feed_all(events) == IndexedMonitor(
        spec.machine, trigger=spec.trigger
    ).feed_all(events)
    assert (baseline.stats.monitor_steps, baseline.stats.skipped_steps) == (
        stats.monitor_steps,
        stats.skipped_steps,
    )


class CountingDict(dict):
    """A dict that counts its ``get`` calls; it stands in for the live side of the index."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)


def test_warm_events_probe_only_wider_domains(unsafeiter_spec):
    # Only a domain wider than a binding's can hold a strict extension of
    # it.  On the UnsafeIterator shape the table domains are {i}, {v} and
    # {i, v}: a warm ``next i`` or ``update v`` looks up one key, in
    # {i, v}, and a warm ``create`` none.
    spec = unsafeiter_spec
    engine = IndexedMonitor(spec.machine, trigger=spec.trigger)
    engine.extensions = extensions = CountingDict()
    warm = Counter()
    for event in unsafeiter_workload(600):
        known = event.instance in engine.delta
        before = extensions.gets
        engine.feed(event)
        if known:
            probes = extensions.gets - before
            assert probes == (1 if len(event.instance) == 1 else 0), event
            warm[event.name] += probes
    assert warm == {"next": 427, "update": 105, "create": 0}
    # One table domain: a warm iterator event looks nothing up.
    engine = IndexedMonitor(iterator_machine())
    engine.extensions = extensions = CountingDict()
    engine.feed_all(iterator_workload(1000))
    assert extensions.gets == 0


@pytest.mark.parametrize("engine_class", [IndexedMonitor, StaleWiderMonitor])
def test_a_domain_added_after_a_warm_lookup_is_probed(engine_class):
    # A warm x=1 first meets a table with the domain {x} alone, then, once
    # x=1,y=1 is defined, must reach it through the wider domain {x, y}.
    machine = adversarial_machine()  # a toggle: no sink, every step shows
    x1, xy = ParamInstance({"x": "1"}), ParamInstance({"x": "1", "y": "1"})
    trace = [ParametricEvent("probe", binding) for binding in (x1, x1, xy, x1)]
    baseline, engine = BaselineMonitor(machine), engine_class(machine)
    assert engine.feed_all(trace[:3]) == baseline.feed_all(trace[:3])
    engine.feed(trace[3])
    baseline.feed(trace[3])
    assert (engine.delta == baseline.delta) is (engine_class is IndexedMonitor)


def test_a_merged_join_takes_its_widest_neighbour_as_floor():
    # x=v2,z=v3 joins y=v1 and y=v1,z=v3 into x=v2,y=v1,z=v3.  The wider
    # neighbour, y=v1,z=v3, is the join's source, and the merge plan lists
    # it last, so it stays the join's source: the join finder takes it
    # without a probe.  Starting from the narrower y=v1, one probe of
    # {y, z} would find the source.
    trace = [
        ParametricEvent("probe", ParamInstance.parse(text))
        for text in ("y=v1,z=v3", "y=v1", "x=v2,z=v3")
    ]
    machine = adversarial_machine()
    baseline, engine = both_engines(machine)
    assert engine.feed_all(trace) == baseline.feed_all(trace)
    assert engine.delta == baseline.delta
    assert (engine.stats.probes, baseline.stats.probes) == (0, 0)


#: ``RunStats`` totals on ``unsafeiter_workload(600)``: reports, events,
#: monitor steps, skipped steps, compat checks, defines, peak table size
#: and source probes.  The indexed engine's compat checks count a fresh
#: binding and its merge neighbours only; its extension lookups count none,
#: on a fresh event as on a warm one.  Neither engine probes: the baseline
#: scans for sources, and the indexed engine takes every merged join's
#: neighbour as its source without a probe.  Each pair is created before
#: any {i} or {v} binding is defined, and a merged join of {i, v} has a
#: neighbour of width 1 as its source, with no table domain between the two.
UNSAFEITER_600_COUNTS = {
    BaselineMonitor: (15, 635, 140, 600, 58650, 95, 96, 0),
    IndexedMonitor: (15, 635, 140, 600, 110, 95, 96, 0),
}


@pytest.mark.parametrize("report_every", [False, True])
@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_unsafeiter_work_counts_are_pinned(unsafeiter_spec, engine_class, report_every):
    spec = unsafeiter_spec
    engine = engine_class(spec.machine, trigger=spec.trigger, report_every=report_every)
    reports = engine.feed_all(unsafeiter_workload(600))
    stats = engine.stats
    assert (
        len(reports),
        stats.events,
        stats.monitor_steps,
        stats.skipped_steps,
        stats.compat_checks,
        stats.defines,
        stats.peak_instances,
        stats.probes,
    ) == UNSAFEITER_600_COUNTS[engine_class]


class CountingMachine:
    """A machine proxy that counts its steps and passes on the sinks."""

    def __init__(self, machine):
        self.machine = machine
        self.sinks = machine.sinks
        self.steps = 0

    def initial(self):
        return self.machine.initial()

    def step(self, state, name):
        self.steps += 1
        return self.machine.step(state, name)

    def output(self, state):
        return self.machine.output(state)


@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
def test_born_parked_joins_step_no_machine(unsafeiter_spec, engine_class):
    # Nearly every join a warm-up ``next i`` defines copies a collection
    # already parked in the pattern's dead sink.  Such a join is born
    # parked: it counts as a step, but no machine step is made for it.
    spec = unsafeiter_spec
    machine = CountingMachine(spec.machine)
    engine = engine_class(machine, trigger=spec.trigger)
    stats = engine.stats
    born_total = reports = 0
    for event in unsafeiter_workload(600):
        table, held = set(engine.delta), parked(engine)
        steps, calls = stats.monitor_steps, machine.steps
        reports += len(engine.feed(event))
        new = set(engine.delta) - table
        born = sum(1 for joined in new if max_below(joined, table) in held)
        assert machine.steps - calls == stats.monitor_steps - steps - born, event
        born_total += born
    assert born_total >= 50 and machine.steps + born_total == stats.monitor_steps
    assert (
        reports, stats.events, stats.monitor_steps, stats.skipped_steps,
        stats.compat_checks, stats.defines, stats.peak_instances, stats.probes,
    ) == UNSAFEITER_600_COUNTS[engine_class]
    if engine_class is IndexedMonitor:
        # No query domain is incomparable with {i, v}: a parked pair sits
        # under no key, and only its state in ``delta`` says it is parked.
        memberships = Counter(
            member for members in engine.parked_extensions.values() for member in members
        )
        pairs = [binding for binding in parked(engine) if len(binding) == 2]
        assert len(pairs) > 50
        assert all(memberships[pair] == 0 for pair in pairs)
        # A live key whose last member parked is deleted, not kept empty.
        assert all(engine.extensions.values())


def test_fresh_events_build_one_domain_merge_joins_and_move_no_new_join(
    monkeypatch, unsafeiter_spec
):
    # A fresh binding's joins come grouped by domain: the event builds its
    # binding's domain once however many joins it defines, merges each join
    # from item tuples without ``ParamInstance.join``, and writes a join it
    # defined to its side of the index once, so ``_park`` never moves one.
    built, joined, moved = [], [], []
    domain, join, park = ParamInstance.domain, ParamInstance.join, IndexedMonitor._park
    monkeypatch.setattr(
        ParamInstance, "domain", property(lambda b: built.append(b) or domain.fget(b))
    )
    monkeypatch.setattr(
        ParamInstance, "join", lambda b, other: joined.append(b) or join(b, other)
    )
    monkeypatch.setattr(
        IndexedMonitor, "_park", lambda self, b: moved.append(b) or park(self, b)
    )
    spec = unsafeiter_spec
    engine = IndexedMonitor(spec.machine, trigger=spec.trigger)
    widest = parked_new = moves = 0
    for event in unsafeiter_workload(600):
        before = set(engine.delta)
        del built[:], moved[:]
        engine.feed(event)
        new = set(engine.delta) - before
        if new:
            assert len(built) <= 1, event
            widest = max(widest, len(new))
            parked_new += len(new & parked(engine))
        assert not new & set(moved), event
        moves += len(moved)
    assert joined == []
    # Fresh events defined several joins each, most parked on their first
    # step, and other steps parked bindings already indexed.
    assert widest >= 4 and parked_new > 20 and moves > 0


def test_table_memory_per_entry(unsafeiter_spec):
    # The state table is the engine's one record per binding: which are
    # parked, and their verdicts, are read from it.  At 10,251 entries,
    # tracemalloc read 92.6 B per entry; a verdict dict kept beside it read
    # 121.4 B, and a set of the parked bindings on top of that 172 B
    # (CHANGES.md).
    events = unsafeiter_workload(2000, collections=50, slots=4, seed=41)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        engine = IndexedMonitor(unsafeiter_spec.machine, trigger=unsafeiter_spec.trigger)
        for event in events:
            engine.feed(event)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(engine.delta) == 10_251
    assert used / len(engine.delta) < 105


def test_index_size_does_not_grow_with_fresh_bindings():
    # fresh 3-parameter bindings that join with nothing, and no ground
    # event: no lookup asks for a key of their one domain, so none is
    # written on either side, whether they stay live or park at once
    events = adversarial_workload(2000)
    won = FsmMachine(
        "s", {("s", "probe"): "won", ("won", "probe"): "won"}, {"won": Verdict.MATCH}, ["probe"]
    )
    for machine in (adversarial_machine(), won):
        engine = IndexedMonitor(machine)
        engine.feed_all(events)
        assert len(engine.delta) == 2001
        assert engine.extensions == engine.parked_extensions == {}
    assert len(parked(engine)) == 2000


def test_a_late_first_ground_event_steps_exactly_the_live_bindings():
    # The empty domain becomes a query domain at the first ground event,
    # which indexes every binding defined before it under its empty cut.
    # Here three domains hold live bindings, in ``m``, and parked ones, in
    # the fail sink ``dead``; ``g`` takes ``m`` to the fail state ``n``.
    transitions = {(state, "live"): "m" for state in "smn"}
    transitions.update({(state, "kill"): "dead" for state in "smn"})
    transitions.update({("s", "g"): "m", ("m", "g"): "n", ("n", "g"): "n"})
    transitions.update({("dead", name): "dead" for name in ("live", "kill", "g")})
    machine = FsmMachine(
        "s", transitions, {"m": Verdict.MATCH, "n": Verdict.FAIL, "dead": Verdict.FAIL},
        ["live", "kill", "g"],
    )
    trace = [
        ParametricEvent(name, ParamInstance.parse(text))
        for name, text in (("live", "x=1"), ("kill", "x=2"), ("live", "y=1"), ("kill", "y=2"))
    ]
    baseline, engine = both_engines(machine, trigger=[Verdict.MATCH, Verdict.FAIL])
    assert engine.feed_all(trace) == baseline.feed_all(trace)
    held = parked(engine)
    live = set(engine.delta) - held - {EMPTY}
    domains = {frozenset("x"), frozenset("y"), frozenset("xy")}
    assert {b.domain for b in live} == {b.domain for b in held} == domains
    steps = engine.stats.monitor_steps
    ground = ParametricEvent("g", EMPTY)
    reports = engine.feed(ground)
    assert reports == baseline.feed(ground)
    assert {report.instance for report in reports} == live | {EMPTY}
    assert engine.stats.monitor_steps - steps == len(live) + 1
    assert engine.stats.monitor_steps == baseline.stats.monitor_steps
    assert engine.delta == baseline.delta


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
