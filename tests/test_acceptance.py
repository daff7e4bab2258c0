"""Acceptance gate: the eight shipping criteria, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines
(``C<n> PASS: ...``); without ``-s`` the criteria are still enforced, only
the printout is captured.  Time budgets are generous wall-clock bounds; the
measured time is printed next to each.
"""

from __future__ import annotations

import random
import time

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.events import parse_trace
from slicemon.parametric import BaselineMonitor, IndexedMonitor
from slicemon.patterns import compile_regex
from slicemon.selfcheck import run_selfcheck
from slicemon.slicer import SliceTable
from slicemon.specfile import parse_property_spec

from .frozen import (
    AFTER_E4,
    AFTER_E6,
    AFTER_E8,
    FINAL,
    FINAL_LOOKUPS,
    LOCKING_FINAL_VERDICTS,
    LOCKING_REPORT_LINES,
)
from .mutants import MUTANTS, mutant_run
from .oracles import (
    DerivativeClassifier,
    all_words,
    feed_counting,
    random_pattern_tree,
    render_pattern,
    to_expr,
)
from .test_bindings import check_lattice_laws
from .workloads import (
    adversarial_machine,
    adversarial_workload,
    iterator_machine,
    iterator_workload,
)


def checkpoint(tag: str, ok: bool, detail: str) -> None:
    line = "%s %s: %s" % (tag, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def encoded(table: SliceTable) -> dict[str, str]:
    return {
        binding.encode(): " ".join(table.slice_of(binding))
        for binding in table.instances()
    }


def test_c1_fixture_replay_matches_frozen_tables(fixtures):
    started = time.perf_counter()
    trace = parse_trace((fixtures / "abc.trace").read_text(encoding="utf-8"))
    mismatches = []
    for prefix, expected in (
        (4, AFTER_E4), (6, AFTER_E6), (8, AFTER_E8), (11, FINAL)
    ):
        got = encoded(SliceTable().feed_all(trace[:prefix]))
        if got != expected:
            mismatches.append("after event %d" % prefix)
    elapsed = time.perf_counter() - started
    checkpoint(
        "C1",
        not mismatches and elapsed < 1.0,
        "4 frozen table snapshots replayed byte-exact%s (%.2fs < 1s)"
        % ("" if not mismatches else "; MISMATCH " + ", ".join(mismatches), elapsed),
    )


def test_c2_nine_frozen_lookups(fixtures):
    started = time.perf_counter()
    trace = parse_trace((fixtures / "abc.trace").read_text(encoding="utf-8"))
    table = SliceTable().feed_all(trace)
    bad = [
        enc
        for enc, slice_text in FINAL_LOOKUPS.items()
        if " ".join(table.lookup(ParamInstance.parse(enc))) != slice_text
    ]
    elapsed = time.perf_counter() - started
    checkpoint(
        "C2",
        not bad and elapsed < 1.0,
        "9 lookups (incl. 2 off-table bindings) answered byte-exact%s (%.2fs < 1s)"
        % ("" if not bad else "; wrong: " + ", ".join(repr(b) for b in bad), elapsed),
    )


def test_c3_locking_property_verdicts(fixtures):
    started = time.perf_counter()
    spec = parse_property_spec((fixtures / "locking.spec").read_text(encoding="utf-8"))
    trace = parse_trace((fixtures / "locking.trace").read_text(encoding="utf-8"))
    problems = []
    for label, engine_cls in (("baseline", BaselineMonitor), ("indexed", IndexedMonitor)):
        engine = engine_cls(spec.machine, trigger=spec.trigger)
        lines = [report.render() for report in engine.feed_all(trace)]
        if lines != LOCKING_REPORT_LINES:
            problems.append("%s reported %r" % (label, lines))
        for enc, verdict in LOCKING_FINAL_VERDICTS.items():
            got = str(engine.gamma.get(ParamInstance.parse(enc)))
            if got != verdict:
                problems.append(
                    "%s verdict for %r is %s, expected %s" % (label, enc, got, verdict)
                )
    elapsed = time.perf_counter() - started
    checkpoint(
        "C3",
        not problems and elapsed < 1.0,
        "lock property: 1 report line + 3 final verdicts on both engines%s (%.2fs < 1s)"
        % ("" if not problems else "; " + "; ".join(problems), elapsed),
    )


def test_c4_differential_battery_1000_traces():
    started = time.perf_counter()
    result = run_selfcheck(count=1000, seed=0)
    elapsed = time.perf_counter() - started
    detail = "1000 seeded traces x (slicing, engine-pair, verdicts, reports) all agree"
    if not result.passed:
        detail = "mismatch after %d traces: %s" % (
            result.traces, result.failure.detail
        )
    checkpoint("C4", result.passed and elapsed < 60.0, "%s (%.1fs < 60s)" % (detail, elapsed))


def test_c5_lattice_law_suite():
    started = time.perf_counter()
    violations = check_lattice_laws(500, seed=1)
    elapsed = time.perf_counter() - started
    checkpoint(
        "C5",
        not violations and elapsed < 10.0,
        "500 random binding rounds per name pool satisfy all lattice laws%s (%.1fs < 10s)"
        % ("" if not violations else "; first: " + violations[0], elapsed),
    )


def test_c6_random_patterns_vs_derivative_classifier():
    started = time.perf_counter()
    rng = random.Random(606)
    alphabet = ("a", "b", "c")
    words = list(all_words(alphabet, up_to=6))
    disagreements = 0
    first = ""
    for _ in range(200):
        tree = random_pattern_tree(rng, alphabet)  # <= 6 leaves, depth <= 3
        text = render_pattern(tree)
        machine = compile_regex(text, alphabet)
        classifier = DerivativeClassifier(to_expr(tree), alphabet)
        for word in words:
            if str(machine.run(word)) != classifier.verdict(word):
                disagreements += 1
                first = first or "%r on %r" % (text, " ".join(word))
    elapsed = time.perf_counter() - started
    checkpoint(
        "C6",
        disagreements == 0 and elapsed < 60.0,
        "200 patterns x %d words: compiled verdicts equal derivative classifier%s (%.1fs < 60s)"
        % (len(words), "" if not disagreements else "; %d off, first %s" % (disagreements, first), elapsed),
    )


def test_c7_indexed_cost_model():
    started = time.perf_counter()
    problems = []

    events = iterator_workload(100_000)
    engine = IndexedMonitor(iterator_machine())
    touched, checks = feed_counting(engine, events)
    # all 100 bindings are defined within the first 200 events; every later
    # event carries an already-defined binding and must not scan at all
    if any(checks[200:]):
        problems.append("compatibility scans on defined-binding events")
    # no binding here refines another, so each event touches exactly
    # |{binding} union extensions(binding)| == 1 monitor state
    if touched != [1] * len(events):
        problems.append("touched more than the affected set")
    # the index is keyed by (sub-binding items, domain): an iterator binding
    # with a defined strict extension would give the items of some key.  The
    # bindings are taken as plain tuples, so the check holds however a
    # binding compares with a tuple.
    iterators = {tuple(event.instance) for event in events[:200]}
    if any(items in iterators for items, _ in engine.extensions):
        problems.append("iterator bindings unexpectedly grew extensions")

    adversarial = adversarial_workload(2000)
    adv_engine = IndexedMonitor(adversarial_machine())
    adv_touched, _ = feed_counting(adv_engine, adversarial)
    # ground truth on a prefix: an event may touch at most the table entries
    # compatible with its binding (computed by brute force)
    table = [EMPTY]
    for position, event in enumerate(adversarial[:300]):
        if event.instance not in table:
            table.append(event.instance)
        compatible = sum(1 for binding in table if binding.join(event.instance) is not None)
        if adv_touched[position] > compatible:
            problems.append("event %d touched %d > %d compatible" % (
                position, adv_touched[position], compatible))
            break
    elapsed = time.perf_counter() - started
    checkpoint(
        "C7",
        not problems and elapsed < 30.0,
        "10^5-event iterator run: zero scans after warm-up, 1 state/event; "
        "2000-event adversarial run stays within compatible sets%s (%.1fs < 30s)"
        % ("" if not problems else "; " + "; ".join(problems), elapsed),
    )


def test_c8_mutants_are_caught():
    started = time.perf_counter()
    runs = {name: (mutant_run(name), check) for name, _, check in MUTANTS}
    ok = all(
        not result.passed and result.failure.check == check
        for result, check in runs.values()
    )
    elapsed = time.perf_counter() - started
    checkpoint(
        "C8",
        ok,
        "%s (budget: 1000 each; %.1fs)"
        % (
            ", ".join(
                "%s mutant caught after %s trace(s)"
                % (name, result.traces if not result.passed else ">1000")
                for name, (result, _) in runs.items()
            ),
            elapsed,
        ),
    )
