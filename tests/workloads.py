"""Deterministic workloads for the engines' cost assertions."""

from __future__ import annotations

import random

from slicemon.bindings import ParamInstance
from slicemon.events import ParametricEvent
from slicemon.machines import FsmMachine, Verdict

__all__ = [
    "adversarial_machine",
    "adversarial_workload",
    "iterator_machine",
    "iterator_workload",
    "unsafeiter_workload",
]


def iterator_machine() -> FsmMachine:
    """Hand-over-hand iterator protocol: query availability before advancing."""
    alphabet = ("hasnexttrue", "hasnextfalse", "next")
    transitions = {
        ("unknown", "hasnexttrue"): "more",
        ("unknown", "hasnextfalse"): "none",
        ("unknown", "next"): "error",
        ("more", "hasnexttrue"): "more",
        ("more", "hasnextfalse"): "more",
        ("more", "next"): "unknown",
        ("none", "hasnexttrue"): "none",
        ("none", "hasnextfalse"): "none",
        ("none", "next"): "error",
        ("error", "hasnexttrue"): "error",
        ("error", "hasnextfalse"): "error",
        ("error", "next"): "error",
    }
    return FsmMachine("unknown", transitions, {"error": Verdict.FAIL}, alphabet)


def iterator_workload(count: int, iterators: int = 100) -> list[ParametricEvent]:
    """``count`` events round-robining hasnexttrue/next over a pool of bindings.

    After each binding's first event, every later event for it hits an
    already-defined table entry — the friendly case for the indexed engine.
    """
    bindings = [
        ParamInstance._wrap((("i", "it%d" % k),)) for k in range(iterators)
    ]
    events: list[ParametricEvent] = []
    for j in range(count):
        binding = bindings[(j // 2) % iterators]
        name = "hasnexttrue" if j % 2 == 0 else "next"
        events.append(ParametricEvent(name, binding))
    return events


def adversarial_machine() -> FsmMachine:
    """Two-state toggle over a single ``probe`` event."""
    transitions = {("even", "probe"): "odd", ("odd", "probe"): "even"}
    return FsmMachine("even", transitions, {"odd": Verdict.MATCH}, ("probe",))


def adversarial_workload(count: int) -> list[ParametricEvent]:
    """``count`` events, each carrying a fresh maximal, mutually incompatible binding.

    Every event forces a table define; no two bindings ever join, so the
    table grows linearly in the event count.  The baseline engine scans the
    whole table for each fresh binding; the indexed engine's domain-keyed
    index examines only the fresh binding itself.
    """
    events = []
    for j in range(count):
        value = "v%d" % j
        binding = ParamInstance._wrap(
            (("x", value), ("y", value), ("z", value))
        )
        events.append(ParametricEvent("probe", binding))
    return events


def unsafeiter_workload(
    count: int, collections: int = 5, slots: int = 3, seed: int = 0
) -> list[ParametricEvent]:
    """The two-parameter join shape of ``fixtures/unsafeiter.spec``.

    Each collection ``v`` owns ``slots`` iterators ``i``.  A warm-up creates
    every iterator, updates every collection and advances every iterator
    once, which joins the table up to every (collection, iterator) pair;
    then come ``count`` events, drawn ``create`` : ``update`` : ``next``
    as 1 : 2 : 7, each on a seeded random iterator.  Most pairs soon sit in the
    pattern's dead sink, so most of the table is parked.
    """
    rng = random.Random(seed)
    owners = {
        "c%d.%d" % (c, s): "c%d" % c for c in range(collections) for s in range(slots)
    }
    iterators = sorted(owners)

    def event(kind: str, iterator: str) -> ParametricEvent:
        if kind == "create":
            items = (("i", iterator), ("v", owners[iterator]))
        elif kind == "update":
            items = (("v", owners[iterator]),)
        else:
            items = (("i", iterator),)
        return ParametricEvent(kind, ParamInstance._wrap(items))

    events = [event("create", it) for it in iterators]
    events += [event("update", it) for it in iterators[::slots]]
    events += [event("next", it) for it in iterators]
    kinds = rng.choices(("create", "update", "next"), (1, 2, 7), k=count)
    events += [event(kind, rng.choice(iterators)) for kind in kinds]
    return events
