"""Base monitors: FSM table semantics, nesting balance, success ratio."""

from __future__ import annotations

import copy
import pickle
from itertools import product

import pytest

from slicemon.bindings import ParamInstance
from slicemon.events import ParamMismatch, ParametricEvent, UnknownEvent
from slicemon.machines import (
    STUCK,
    BalanceMachine,
    FsmMachine,
    MonitorSpec,
    Ratio,
    RatioMachine,
    Verdict,
)
from slicemon.patterns import compile_regex

from .oracles import grammar_member, stack_verdict

# -- verdicts ----------------------------------------------------------------------


def test_verdicts_hash_by_identity_and_keep_their_value_behaviour():
    assert Verdict.__hash__ is object.__hash__
    members = list(Verdict)
    assert [str(v) for v in members] == ["match", "fail", "unknown"]
    table = {verdict: str(verdict) for verdict in members}
    for verdict in members:
        assert hash(verdict) == object.__hash__(verdict)
        assert verdict in set(members) and verdict in frozenset([verdict])
        assert table[verdict] == verdict.value
        assert Verdict(verdict.value) is verdict and Verdict[verdict.name] is verdict
        assert copy.copy(verdict) is verdict and copy.deepcopy(verdict) is verdict
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(verdict, protocol)) is verdict
        others = [other for other in members if other is not verdict]
        assert all(verdict != other and other not in {verdict} for other in others)
    assert Verdict.UNKNOWN != "unknown" and "unknown" not in table
    assert Ratio(1, 2) not in frozenset(members)


# -- finite-state machines -------------------------------------------------------


def two_state() -> FsmMachine:
    return FsmMachine(
        initial="idle",
        transitions={("idle", "go"): "busy", ("busy", "stop"): "idle"},
        labels={"busy": Verdict.MATCH},
        alphabet=["go", "stop"],
    )


def test_fsm_follows_table():
    machine = two_state()
    assert machine.run([]) is Verdict.UNKNOWN
    assert machine.run(["go"]) is Verdict.MATCH
    assert machine.run(["go", "stop"]) is Verdict.UNKNOWN


def test_fsm_missing_transitions_absorb():
    machine = two_state()
    # 'stop' in 'idle' is undeclared: absorbing unknown-labeled sink
    state = machine.step(machine.initial(), "stop")
    assert state == STUCK
    assert machine.output(state) is Verdict.UNKNOWN
    assert machine.step(state, "go") == STUCK
    assert machine.run(["stop", "go", "go", "stop"]) is Verdict.UNKNOWN


def test_names_outside_the_alphabet_raise_key_error():
    # check_event rejects such events before any step reaches a machine
    for machine in (two_state(), compile_regex("go stop", ["go", "stop"])):
        with pytest.raises(KeyError):
            machine.step(machine.initial(), "jump")


def test_fsm_rejects_reserved_state_name():
    with pytest.raises(ValueError):
        FsmMachine(STUCK, {}, {}, ["go"])


def test_fsm_rejects_undeclared_event_in_transition():
    with pytest.raises(ValueError):
        FsmMachine("idle", {("idle", "jump"): "idle"}, {}, ["go"])


def test_fsm_rejects_label_on_unknown_state():
    with pytest.raises(ValueError):
        FsmMachine("idle", {}, {"ghost": Verdict.FAIL}, ["go"])


# -- balance machine --------------------------------------------------------------

ROLES = dict(enter="begin", exit="end", inc="acquire", dec="release")
ROLE_EVENTS = tuple(ROLES.values())


def balance() -> BalanceMachine:
    return BalanceMachine(**ROLES)


def test_balance_hand_cases():
    machine = balance()
    assert machine.run([]) is Verdict.MATCH
    assert machine.run(["begin"]) is Verdict.UNKNOWN
    assert machine.run(["begin", "end"]) is Verdict.MATCH
    assert machine.run(["end"]) is Verdict.FAIL
    assert machine.run(["begin", "acquire", "end"]) is Verdict.FAIL
    assert machine.run(["begin", "acquire", "release", "end"]) is Verdict.MATCH
    assert machine.run(["acquire", "begin", "release"]) is Verdict.FAIL
    assert machine.run(["release"]) is Verdict.FAIL
    # violations are sticky even through otherwise-fine suffixes
    assert machine.run(["end", "begin", "end"]) is Verdict.FAIL


def test_balance_ignores_unrelated_events():
    machine = balance()
    assert machine.run(["tick", "begin", "tick", "end", "tick"]) is Verdict.MATCH


def test_balance_verdicts_equal_stack_reference():
    machine = balance()
    # the fifth symbol exercises the no-op path
    alphabet = ROLE_EVENTS + ("tick",)
    for length in range(7):
        for word in product(alphabet, repeat=length):
            assert str(machine.run(word)) == stack_verdict(word), word


def test_balance_match_equals_grammar_membership():
    machine = balance()
    for length in range(7):
        for word in product(ROLE_EVENTS, repeat=length):
            in_grammar = grammar_member(word)
            assert (machine.run(word) is Verdict.MATCH) == in_grammar, word


def test_balance_fail_means_no_completion():
    """fail must hold exactly when no extension completes the word.

    Any completable word with k unclosed openers is completed by exactly k
    closers (innermost first), so searching extensions one symbol longer than
    the word is exhaustive.
    """
    machine = balance()
    for length in range(4):
        for word in product(ROLE_EVENTS, repeat=length):
            completable = any(
                grammar_member(word + ext)
                for ext_len in range(length + 2)
                for ext in product(ROLE_EVENTS, repeat=ext_len)
            )
            assert (machine.run(word) is Verdict.FAIL) == (not completable), word


# -- ratio machine ----------------------------------------------------------------


def test_ratio_counts():
    machine = RatioMachine(["hit"])
    assert machine.run([]) == Ratio(0, 0)
    assert machine.run(["hit", "miss", "hit"]) == Ratio(2, 3)
    assert str(Ratio(2, 3)) == "2/3"
    assert Ratio(2, 3) != Ratio(3, 2) and Ratio(2, 3) != (2, 3)
    assert hash(Ratio(2, 3)) == hash(Ratio(2, 3)) and len({Ratio(2, 3), Ratio(2, 3)}) == 1
    assert repr(Ratio(2, 3)) == "Ratio(successes=2, total=3)"


def test_ratio_total_counts_everything():
    machine = RatioMachine(["a", "b"])
    assert machine.run(["a", "b", "c", "a"]) == Ratio(3, 4)


# -- event validation against a property ------------------------------------------


def spec_with(events: dict) -> MonitorSpec:
    return MonitorSpec(
        name="P",
        params=("i", "v"),
        events=events,
        kind="ratio",
        machine=RatioMachine([]),
        trigger=frozenset(),
    )


def test_check_event_accepts_declared_shape():
    spec = spec_with({"use": ("v", "i"), "tick": ()})
    spec.check_event(ParametricEvent("use", ParamInstance({"i": "1", "v": "2"})))
    spec.check_event(ParametricEvent("tick"))


def test_check_event_rejects_unknown_name():
    spec = spec_with({"use": ("i",)})
    with pytest.raises(UnknownEvent):
        spec.check_event(ParametricEvent("nope"))


def test_check_event_rejects_parameter_mismatch():
    spec = spec_with({"use": ("i",)})
    with pytest.raises(ParamMismatch):
        spec.check_event(ParametricEvent("use"))
    with pytest.raises(ParamMismatch):
        spec.check_event(ParametricEvent("use", ParamInstance({"v": "2"})))
    with pytest.raises(ParamMismatch):
        spec.check_event(ParametricEvent("use", ParamInstance({"i": "1", "v": "2"})))
