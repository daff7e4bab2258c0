"""Pattern parsing and compilation, checked against the derivative classifier."""

from __future__ import annotations

import random

import pytest

from slicemon.machines import Verdict
from slicemon.patterns import (
    Alt,
    Eps,
    Lit,
    PatternSyntaxError,
    Repeat,
    Seq,
    UnknownEventInPattern,
    compile_regex,
    parse_pattern,
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
    assert parse_pattern("a") == Lit("a")
    assert parse_pattern("ε") == Eps()
    assert parse_pattern("a b") == Seq((Lit("a"), Lit("b")))
    # alternation binds loosest, postfix tightest
    assert parse_pattern("a b | c") == Alt((Seq((Lit("a"), Lit("b"))), Lit("c")))
    assert parse_pattern("a b*") == Seq((Lit("a"), Repeat(Lit("b"), "*")))
    assert parse_pattern("(a b)*") == Repeat(Seq((Lit("a"), Lit("b"))), "*")
    assert parse_pattern("a+?") == Repeat(Repeat(Lit("a"), "+"), "?")


def test_nodes_equal_only_nodes_of_their_type():
    assert Eps() == Eps() and hash(Eps()) == hash(Eps())
    assert Seq((Lit("a"),)) != Alt((Lit("a"),))
    assert Repeat(Lit("a"), "*") != Repeat(Lit("a"), "+")
    assert Lit("a") != "a"
    assert len({Lit("a"), Lit("a"), Lit("b")}) == 2
    assert repr(Repeat(Seq((Lit("a"), Eps())), "*")) == (
        "Repeat(inner=Seq(parts=(Lit(name='a'), Eps())), op='*')"
    )


def test_parse_errors_carry_positions():
    for text, position in [
        ("", 0),
        ("a |", 3),
        ("(a", 2),
        ("a)", 1),
        ("*a", 0),
        ("a $ b", 2),
    ]:
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern(text)
        assert info.value.position == position


def test_unknown_event_rejected():
    with pytest.raises(UnknownEventInPattern) as info:
        compile_regex("open close", alphabet=["open"])
    assert info.value.event == "close"


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
