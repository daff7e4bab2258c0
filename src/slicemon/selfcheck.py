"""Randomized differential checking of the engines against the definitions.

Generator (everything drawn from one seeded ``random.Random``):

* parameters: up to 3 names from ``x, y, z``; values per parameter from a
  pool of at most 3 (``v1..v3``);
* alphabet: 4 event names (``a..d``), each declaring a random subset of the
  parameters (re-drawn per trace);
* base monitor: a random total finite-state machine with 2–4 states, random
  transitions and random verdict labels, triggering on match and fail; in
  half of the machines one drawn state is made absorbing, so that the
  engines' parking of bindings in a sink is exercised;
* traces: 1–50 events, names uniform over the alphabet, each carrying fresh
  random values for its declared parameters.

Four checks per trace:

* ``slicing``     — the online slice table equals the definitional slice for
  every table binding, and agrees on 10 random off-table lookups;
* ``engine-pair`` — baseline and indexed monitors produce identical state
  tables, verdicts and report streams after every single event;
* ``verdicts``    — the indexed monitor's final verdicts equal running the
  machine over each definitional slice, and exactly the bindings some event
  stepped have one;
* ``reports``     — the indexed monitor's report stream, with and without
  ``report_every``, equals the stream derived from the definitional verdicts
  of every trace prefix.

On a mismatch the offending trace is greedily minimized (repeated single
event deletion while the same check keeps failing) and returned for display.

:func:`run_selfcheck` takes the engine and slicer classes it checks, so the
test suite shows that the checks have teeth by passing its deliberately
broken variants in their place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .bindings import EMPTY, ParamInstance, ordered
from .events import ParametricEvent, render_trace
from .machines import FsmMachine, Machine, Verdict
from .parametric import IndexedMonitor, VerdictReport
from .reference import BaselineMonitor, binding_closure, definitional_verdicts, slice_trace
from .slicer import SliceTable

__all__ = ["CheckFailure", "SelfCheckResult", "run_selfcheck"]

PARAM_POOL = ("x", "y", "z")
VALUE_POOL = ("v1", "v2", "v3")
EVENT_NAMES = ("a", "b", "c", "d")
MAX_TRACE_LEN = 50
OFF_TABLE_PROBES = 10
#: Share of random machines in which one drawn state is made absorbing.
SINK_SHARE = 0.5
TRIGGER = frozenset((Verdict.MATCH, Verdict.FAIL))


@dataclass
class CheckFailure:
    """A reproducible mismatch: which check, on what input, and why."""

    check: str
    trace_index: int
    detail: str
    trace: list[ParametricEvent]
    machine: Machine

    def render(self) -> str:
        lines = [
            "check:  %s" % self.check,
            "trace:  #%d (after minimization, %d events)"
            % (self.trace_index, len(self.trace)),
            "detail: %s" % self.detail,
            "--- minimized trace ---",
            render_trace(self.trace).rstrip("\n"),
        ]
        return "\n".join(lines)


@dataclass
class SelfCheckResult:
    traces: int
    slicing_ok: int
    engine_pair_ok: int
    verdicts_ok: int
    reports_ok: int
    failure: CheckFailure | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def summary_lines(self) -> list[str]:
        return [
            "ok: slicing %d/%d" % (self.slicing_ok, self.traces),
            "ok: engine-pair %d/%d" % (self.engine_pair_ok, self.traces),
            "ok: verdicts %d/%d" % (self.verdicts_ok, self.traces),
            "ok: reports %d/%d" % (self.reports_ok, self.traces),
        ]


def _random_alphabet(rng: random.Random) -> dict[str, tuple[str, ...]]:
    alphabet: dict[str, tuple[str, ...]] = {}
    for name in EVENT_NAMES:
        k = rng.randint(0, len(PARAM_POOL))
        alphabet[name] = tuple(sorted(rng.sample(PARAM_POOL, k)))
    return alphabet


def _random_machine(rng: random.Random) -> FsmMachine:
    state_count = rng.randint(2, 4)
    states = ["s%d" % i for i in range(state_count)]
    transitions = {
        (state, name): rng.choice(states)
        for state in states
        for name in EVENT_NAMES
    }
    if rng.random() < SINK_SHARE:
        sink = rng.choice(states)
        transitions.update(((sink, name), sink) for name in EVENT_NAMES)
    labels = {
        state: rng.choice((Verdict.MATCH, Verdict.FAIL, Verdict.UNKNOWN))
        for state in states
    }
    return FsmMachine(states[0], transitions, labels, EVENT_NAMES)


def _random_trace(
    rng: random.Random, alphabet: dict[str, tuple[str, ...]], length: int
) -> list[ParametricEvent]:
    events = []
    for _ in range(length):
        name = rng.choice(EVENT_NAMES)
        items = tuple((p, rng.choice(VALUE_POOL)) for p in alphabet[name])
        events.append(ParametricEvent(name, ParamInstance._wrap(items)))
    return events


def _random_probe(rng: random.Random) -> ParamInstance:
    # Off-table probes may bind any subset of the parameter space, including
    # values no trace event ever carried.
    k = rng.randint(0, len(PARAM_POOL))
    names = sorted(rng.sample(PARAM_POOL, k))
    values = VALUE_POOL + ("w9",)
    return ParamInstance._wrap((n, rng.choice(values)) for n in names)


def _check_slicing(
    trace: list[ParametricEvent],
    probes: list[ParamInstance],
    table_class: type[SliceTable],
) -> str | None:
    """Compare the online table against the definitional slice; None if ok."""
    table = table_class().feed_all(trace)
    for binding in table.instances():
        expected = slice_trace(trace, binding)
        got = table.slice_of(binding)
        if got != expected:
            return "table[%s] = %r, definition says %r" % (
                binding.encode() or "<empty>",
                " ".join(got),
                " ".join(expected),
            )
    for probe in probes:
        expected = slice_trace(trace, probe)
        got = table.lookup(probe)
        if got != expected:
            return "lookup(%s) = %r, definition says %r" % (
                probe.encode() or "<empty>",
                " ".join(got),
                " ".join(expected),
            )
    return None


def _check_engine_pair(
    trace: list[ParametricEvent],
    machine: Machine,
    indexed_class: type[IndexedMonitor],
) -> str | None:
    """Run both engines event by event; any observable divergence fails."""
    baseline = BaselineMonitor(machine, trigger=TRIGGER)
    indexed = indexed_class(machine, trigger=TRIGGER)
    for position, event in enumerate(trace, 1):
        expected = baseline.feed(event)
        got = indexed.feed(event)
        if expected != got:
            return "event %d: baseline reported %r, indexed reported %r" % (
                position,
                [r.render() for r in expected],
                [r.render() for r in got],
            )
        if baseline.delta != indexed.delta:
            return "event %d: state tables diverge (%d vs %d entries)" % (
                position,
                len(baseline.delta),
                len(indexed.delta),
            )
        if baseline.gamma != indexed.gamma:
            return "event %d: verdict tables diverge" % position
    return None


def _check_verdicts(
    trace: list[ParametricEvent],
    machine: Machine,
    indexed_class: type[IndexedMonitor],
) -> str | None:
    """Indexed engine's final verdicts vs the definitional slice semantics.

    A binding has a verdict once an event has stepped it: every non-empty
    binding of the table when it was defined, the empty binding only at a
    ground event.
    """
    indexed = indexed_class(machine, trigger=TRIGGER)
    indexed.feed_all(trace)
    reference = definitional_verdicts(machine, trace)
    if set(indexed.delta) != set(reference):
        return "table domain has %d bindings, definition yields %d" % (
            len(indexed.delta),
            len(reference),
        )
    if not any(event.instance == EMPTY for event in trace):
        del reference[EMPTY]
    gamma = indexed.gamma  # built anew on every read
    if set(gamma) != set(reference):
        return "%d bindings have a verdict, the definition steps %d" % (
            len(gamma),
            len(reference),
        )
    for binding in ordered(gamma):
        if gamma[binding] != reference[binding]:
            return "verdict for %s is %s, definition says %s" % (
                binding.encode() or "<empty>",
                gamma[binding],
                reference[binding],
            )
    return None


def _check_reports(
    trace: list[ParametricEvent],
    machine: Machine,
    indexed_class: type[IndexedMonitor],
) -> str | None:
    """Indexed engine's report streams vs the definitional slices of every prefix.

    Each binding of the trace's join closure runs the machine over its own
    slice, event by event, so after every prefix its state is the one the
    definition gives.  A binding belongs to a prefix's closure once the
    prefix's bindings below it join to it.  An event steps the bindings of
    the prefix's closure at or above its own binding (the empty binding
    only for a ground event); a stepped binding is reported when its verdict
    is a trigger and, unless ``report_every``, differs from its verdict
    after the last event that stepped it.
    """
    closure = ordered(binding_closure(trace))
    states = dict.fromkeys(closure, machine.initial())
    below = dict.fromkeys(closure, EMPTY)
    previous: dict[ParamInstance, object] = {}
    expected: dict[bool, list[VerdictReport]] = {False: [], True: []}
    for index, event in enumerate(trace, 1):
        for binding in closure:
            if not event.instance.less_informative(binding):
                continue
            states[binding] = machine.step(states[binding], event.name)
            below[binding] = below[binding].join(event.instance)
            if below[binding] != binding:
                continue
            verdict = machine.output(states[binding])
            if verdict in TRIGGER:
                report = VerdictReport(index, verdict, binding, event.name)
                expected[True].append(report)
                if verdict != previous.get(binding):
                    expected[False].append(report)
            previous[binding] = verdict
    for report_every, stream in expected.items():
        indexed = indexed_class(machine, trigger=TRIGGER, report_every=report_every)
        got = indexed.feed_all(trace)
        if got != stream:
            return "report_every=%s: indexed reported %r, definition says %r" % (
                report_every,
                [r.render() for r in got],
                [r.render() for r in stream],
            )
    return None


def _minimize(
    trace: list[ParametricEvent],
    still_fails: Callable[[list[ParametricEvent]], bool],
) -> list[ParametricEvent]:
    """Greedy one-event deletion to a locally minimal failing trace."""
    current = list(trace)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current


def run_selfcheck(
    count: int = 1000,
    seed: int = 0,
    *,
    indexed_class: type[IndexedMonitor] = IndexedMonitor,
    table_class: type[SliceTable] = SliceTable,
) -> SelfCheckResult:
    """Run the four differential checks over ``count`` seeded random traces.

    ``indexed_class`` is the engine checked by ``engine-pair``, ``verdicts``
    and ``reports``, and ``table_class`` the slicer checked by ``slicing``;
    passing a deliberately broken subclass in either place makes its
    detection testable.  Stops at the first mismatch, returning a minimized
    counterexample.  The checks run in that order on each trace, and
    ``engine-pair`` already compares the report streams of the two engines
    without ``report_every``, on the same trace as ``reports``; so only a
    fault that shows under ``report_every`` alone can reach ``reports``
    first.
    """
    rng = random.Random(seed)
    passed = dict.fromkeys(("slicing", "engine-pair", "verdicts", "reports"), 0)

    def result(traces: int, failure: CheckFailure | None = None) -> SelfCheckResult:
        return SelfCheckResult(traces, *passed.values(), failure=failure)

    for index in range(count):
        alphabet = _random_alphabet(rng)
        machine = _random_machine(rng)
        trace = _random_trace(rng, alphabet, rng.randint(1, MAX_TRACE_LEN))
        probes = [_random_probe(rng) for _ in range(OFF_TABLE_PROBES)]

        checks: list[tuple[str, Callable[[list[ParametricEvent]], str | None]]] = [
            ("slicing", lambda t: _check_slicing(t, probes, table_class)),
            ("engine-pair", lambda t: _check_engine_pair(t, machine, indexed_class)),
            ("verdicts", lambda t: _check_verdicts(t, machine, indexed_class)),
            ("reports", lambda t: _check_reports(t, machine, indexed_class)),
        ]
        for check_name, check in checks:
            detail = check(trace)
            if detail is not None:
                minimized = _minimize(trace, lambda t: check(t) is not None)
                return result(
                    index + 1,
                    CheckFailure(
                        check=check_name,
                        trace_index=index,
                        detail=check(minimized) or detail,
                        trace=minimized,
                        machine=machine,
                    ),
                )
            passed[check_name] += 1
    return result(count)
