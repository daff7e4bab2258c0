"""Pattern parsing and compilation, checked against the derivative classifier."""

from __future__ import annotations

import random

import pytest

from slicemon.machines import STUCK, Verdict
from slicemon.patterns import (
    PatternSyntaxError,
    UnknownEventInPattern,
    compile_regex,
)

from .oracles import (
    DerivativeClassifier,
    all_words,
    classify,
    random_pattern_tree,
    render_pattern,
    to_expr,
)


# -- parsing -----------------------------------------------------------------


def test_parse_structure():
    # alternation binds loosest
    machine = compile_regex("a b | c", alphabet=["a", "b", "c"])
    assert verdicts(machine, [["c"], ["a", "b"], ["a", "c"]]) == [
        "match",
        "match",
        "fail",
    ]
    # postfix binds tightest; parentheses group
    assert compile_regex("a b*", alphabet=["a", "b"]).run(["a"]) is Verdict.MATCH
    assert compile_regex("(a b)*", alphabet=["a", "b"]).run(["a"]) is Verdict.UNKNOWN
    # postfix operators stack: (a+)? takes the empty word and any run of a
    machine = compile_regex("a+?", alphabet=["a"])
    assert verdicts(machine, [[], ["a", "a"]]) == ["match", "match"]


def test_parse_errors_carry_positions():
    for text, position in [
        ("", 0),
        ("a |", 3),
        ("(a", 2),
        ("a)", 1),
        ("*a", 0),
        ("a $ b", 2),
        ("zz |", 4),  # a syntax error wins over the undeclared name
    ]:
        with pytest.raises(PatternSyntaxError) as info:
            compile_regex(text, alphabet=["a", "b"])
        assert info.value.position == position


def test_unknown_event_rejected():
    with pytest.raises(UnknownEventInPattern) as info:
        compile_regex("open close", alphabet=["open"])
    assert info.value.event == "close"
    # of several undeclared names, the first in sorted order is named
    with pytest.raises(UnknownEventInPattern) as info:
        compile_regex("y x", alphabet=["a"])
    assert info.value.event == "x"


# -- compiled verdict semantics ------------------------------------------------


def verdicts(machine, words):
    return [str(machine.run(word)) for word in words]


def test_sequence_verdicts():
    machine = compile_regex("a b", alphabet=["a", "b"])
    assert verdicts(
        machine, [[], ["a"], ["a", "b"], ["b"], ["a", "b", "a"], ["a", "a"]]
    ) == ["unknown", "unknown", "match", "fail", "fail", "fail"]


def test_epsilon_and_optionals():
    machine = compile_regex("ε", alphabet=["a"])
    assert verdicts(machine, [[], ["a"]]) == ["match", "fail"]

    machine = compile_regex("a?", alphabet=["a"])
    assert verdicts(machine, [[], ["a"], ["a", "a"]]) == ["match", "match", "fail"]

    machine = compile_regex("a+", alphabet=["a"])
    assert verdicts(machine, [[], ["a"], ["a", "a"]]) == ["unknown", "match", "match"]


def test_alternation_and_star():
    machine = compile_regex("(a | b)* a", alphabet=["a", "b"])
    assert verdicts(machine, [[], ["b"], ["b", "a"], ["a", "a", "b"]]) == [
        "unknown",
        "unknown",
        "match",
        "unknown",
    ]
    # over this alphabet nothing can ever fail: every state stays live
    assert all(machine.output(state) is not Verdict.FAIL for state in machine.states)


def test_locking_fixture_pattern():
    alphabet = ["begin", "end", "acquire", "release"]
    machine = compile_regex(
        "(begin (ε | acquire (acquire | release)* release) end)*", alphabet
    )
    assert machine.run([]) is Verdict.MATCH
    assert machine.run(["begin", "end"]) is Verdict.MATCH
    assert machine.run(["begin", "acquire"]) is Verdict.UNKNOWN
    assert machine.run(["begin", "acquire", "release", "end"]) is Verdict.MATCH
    # an 'end' while an acquire is still open can never be repaired
    assert machine.run(["begin", "acquire", "end"]) is Verdict.FAIL
    assert machine.run(["end"]) is Verdict.FAIL


def test_unsafeiter_table_is_pinned():
    # Worked out by hand: the subset construction numbers states breadth-first
    # over the sorted alphabet, and the empty subset (2) is the fail sink.
    machine = compile_regex("create next* update+ next", ["create", "next", "update"])
    table = {
        0: {"create": 1, "next": 2, "update": 2},
        1: {"create": 2, "next": 3, "update": 4},
        2: {"create": 2, "next": 2, "update": 2},
        3: {"create": 2, "next": 3, "update": 4},
        4: {"create": 2, "next": 5, "update": 4},
        5: {"create": 2, "next": 2, "update": 2},
    }
    assert machine.initial() == 0
    assert machine.states == frozenset(table)
    for state, row in table.items():
        for name, target in row.items():
            assert machine.step(state, name) == target, (state, name)
    assert {state: str(machine.output(state)) for state in table} == {
        0: "unknown",
        1: "unknown",
        2: "fail",
        3: "unknown",
        4: "unknown",
        5: "match",
    }
    assert machine.sinks == frozenset({2, STUCK})


def test_transition_function_is_total():
    machine = compile_regex("a b", alphabet=["a", "b", "c"])
    state = machine.initial()
    for name in ["c", "a", "b", "c", "a"]:
        state = machine.step(state, name)
    assert machine.output(state) is Verdict.FAIL


def test_random_patterns_match_derivative_classifier():
    rng = random.Random(404)
    alphabet = ("a", "b", "c")
    for _ in range(60):
        tree = random_pattern_tree(rng, alphabet)
        text = render_pattern(tree)
        machine = compile_regex(text, alphabet)
        expr = to_expr(tree)
        classifier = DerivativeClassifier(expr, alphabet)
        for word in all_words(alphabet, up_to=4):
            got = str(machine.run(word))
            want = classifier.verdict(word)
            assert got == want, (
                "pattern %r disagrees on %r: machine=%s derivative=%s"
                % (text, " ".join(word), got, want)
            )
        # the precomputed classifier is itself checked against the plain
        # word-at-a-time derivative search on the short words
        for word in all_words(alphabet, up_to=2):
            assert classifier.verdict(word) == classify(expr, word, alphabet)
