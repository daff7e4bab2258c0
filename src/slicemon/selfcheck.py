"""Randomized differential checking of the engines against the definitions.

Generator (everything drawn from one seeded ``random.Random``):

* parameters: up to 3 names from ``x, y, z``; values per parameter from a
  pool of at most 3 (``v1..v3``);
* alphabet: 4 event names (``a..d``), each declaring a random subset of the
  parameters (re-drawn per trace);
* base monitor: a random total finite-state machine with 2–4 states, random
  transitions and random verdict labels, triggering on match and fail;
* traces: 1–50 events, names uniform over the alphabet, each carrying fresh
  random values for its declared parameters.

Three checks per trace:

* ``slicing``     — the online slice table equals the definitional slice for
  every table binding, and agrees on 10 random off-table lookups;
* ``engine-pair`` — baseline and indexed monitors produce identical state
  tables, verdicts and report streams after every single event;
* ``verdicts``    — the indexed monitor's final verdicts equal running the
  machine over each definitional slice.

On a mismatch the offending trace is greedily minimized (repeated single
event deletion while the same check keeps failing) and returned for display.

Two deliberately broken finder variants of :class:`IndexedMonitor` show that
the checks have teeth: :class:`SkipJoinPhaseMonitor` (caught by
``engine-pair``) and :class:`NoSnapshotMonitor`, run as a slicer by
:class:`NoSnapshotSliceTable` (caught by ``slicing``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .bindings import ParamInstance, binding_order, max_below, ordered
from .events import ParametricEvent, render_trace, slice_trace
from .machines import FsmMachine, Machine, Verdict
from .parametric import BaselineMonitor, IndexedMonitor, definitional_verdicts
from .slicer import SliceTable

__all__ = ["CheckFailure", "SelfCheckResult", "run_selfcheck"]

PARAM_POOL = ("x", "y", "z")
VALUE_POOL = ("v1", "v2", "v3")
EVENT_NAMES = ("a", "b", "c", "d")
MAX_TRACE_LEN = 50
OFF_TABLE_PROBES = 10


class SkipJoinPhaseMonitor(IndexedMonitor):
    """Mutant: a fresh binding affects only itself and its extensions.

    It never defines the joins of a fresh binding with the table, so the
    combinations they stand for are missed.
    """

    def _joins(self, binding: ParamInstance) -> list[ParamInstance]:
        return self._at_or_above(binding)


class NoSnapshotMonitor(IndexedMonitor):
    """Mutant: defines each join from ``max_below`` on the growing table.

    The joins are defined one by one in ``binding_order``, so a join can
    copy a join that this event created instead of its pre-event source.
    """

    def _joins(self, binding: ParamInstance) -> list[ParamInstance]:
        joins = sorted(super()._joins(binding), key=binding_order)
        for joined in joins:
            if joined not in self.delta:
                self._define(joined, max_below(joined, self.delta, self.cap))
        return joins


class NoSnapshotSliceTable(SliceTable):
    engine_class = NoSnapshotMonitor


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
    failure: CheckFailure | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def summary_lines(self) -> list[str]:
        return [
            "ok: slicing %d/%d" % (self.slicing_ok, self.traces),
            "ok: engine-pair %d/%d" % (self.engine_pair_ok, self.traces),
            "ok: verdicts %d/%d" % (self.verdicts_ok, self.traces),
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
    return ParamInstance._wrap(tuple((n, rng.choice(values)) for n in names))


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
    trigger = (Verdict.MATCH, Verdict.FAIL)
    baseline = BaselineMonitor(machine, trigger=trigger)
    indexed = indexed_class(machine, trigger=trigger)
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
    """Indexed engine's final verdicts vs the definitional slice semantics."""
    indexed = indexed_class(machine, trigger=(Verdict.MATCH, Verdict.FAIL))
    indexed.feed_all(trace)
    reference = definitional_verdicts(machine, trace)
    if set(indexed.delta) != set(reference):
        return "table domain has %d bindings, definition yields %d" % (
            len(indexed.delta),
            len(reference),
        )
    for binding in ordered(indexed.gamma):
        if indexed.gamma[binding] != reference[binding]:
            return "verdict for %s is %s, definition says %s" % (
                binding.encode() or "<empty>",
                indexed.gamma[binding],
                reference[binding],
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
    unsafe_no_snapshot: bool = False,
    skip_join_phase: bool = False,
) -> SelfCheckResult:
    """Run the three differential checks over ``count`` seeded random traces.

    ``unsafe_no_snapshot`` slices with :class:`NoSnapshotSliceTable` and
    ``skip_join_phase`` monitors with :class:`SkipJoinPhaseMonitor`, so that
    their detection is itself testable.  Stops at the first mismatch,
    returning a minimized counterexample.
    """
    table_class = NoSnapshotSliceTable if unsafe_no_snapshot else SliceTable
    indexed_class = SkipJoinPhaseMonitor if skip_join_phase else IndexedMonitor
    rng = random.Random(seed)
    slicing_ok = engine_pair_ok = verdicts_ok = 0
    for index in range(count):
        alphabet = _random_alphabet(rng)
        machine = _random_machine(rng)
        trace = _random_trace(rng, alphabet, rng.randint(1, MAX_TRACE_LEN))
        probes = [_random_probe(rng) for _ in range(OFF_TABLE_PROBES)]

        checks: list[tuple[str, Callable[[list[ParametricEvent]], str | None]]] = [
            ("slicing", lambda t: _check_slicing(t, probes, table_class)),
            ("engine-pair", lambda t: _check_engine_pair(t, machine, indexed_class)),
            ("verdicts", lambda t: _check_verdicts(t, machine, indexed_class)),
        ]
        for check_name, check in checks:
            detail = check(trace)
            if detail is not None:
                minimized = _minimize(trace, lambda t: check(t) is not None)
                return SelfCheckResult(
                    traces=index + 1,
                    slicing_ok=slicing_ok,
                    engine_pair_ok=engine_pair_ok,
                    verdicts_ok=verdicts_ok,
                    failure=CheckFailure(
                        check=check_name,
                        trace_index=index,
                        detail=check(minimized) or detail,
                        trace=minimized,
                        machine=machine,
                    ),
                )
            if check_name == "slicing":
                slicing_ok += 1
            elif check_name == "engine-pair":
                engine_pair_ok += 1
            else:
                verdicts_ok += 1
    return SelfCheckResult(
        traces=count,
        slicing_ok=slicing_ok,
        engine_pair_ok=engine_pair_ok,
        verdicts_ok=verdicts_ok,
    )
