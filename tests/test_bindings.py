"""Partial-binding lattice: unit cases plus randomized law checks."""

from __future__ import annotations

import copy
import pickle
import random
import string

import pytest

from slicemon.bindings import EMPTY, BindingFormatError, ParamInstance, binding_order, ordered
from slicemon.events import ParseError, parse_trace
from slicemon.parametric import IndexedMonitor
from slicemon.reference import BaselineMonitor, join_closure, joins_with, max_below
from slicemon.slicer import SliceTable
from slicemon.specfile import parse_property_spec

from .oracles import (
    bf_join,
    bf_join_closure,
    bf_less_informative,
    bf_max_below,
    from_instance,
    is_join_closed,
    join_sets,
    parked,
    PREFIX_NAMES,
    random_binding,
    restrict,
    to_instance,
)


def b(**kv) -> ParamInstance:
    return ParamInstance(kv)


# -- construction and encoding ------------------------------------------------


def test_encode_is_name_sorted():
    assert b(z="3", a="1", m="2").encode() == "a=1,m=2,z=3"
    assert EMPTY.encode() == ""


def test_parse_round_trip():
    inst = b(x="v1", y="v2")
    assert ParamInstance.parse(inst.encode()) == inst
    assert ParamInstance.parse("") == EMPTY


def test_parse_rejects_garbage():
    # Each fault reads as it does on a trace line.
    for text in ("x", "1=1", "x=", "x=1,x=2"):
        with pytest.raises(BindingFormatError) as parsed:
            ParamInstance.parse(text)
        with pytest.raises(ParseError) as traced:
            parse_trace("e " + text.replace(",", " "))
        assert "line 1: %s" % parsed.value == str(traced.value), text


def test_one_value_grammar_and_encoding_round_trip():
    # traces and the constructor accept the same values, and whatever either
    # accepts reads back from its canonical encoding (the --instance syntax)
    rng = random.Random(5)
    chars = string.ascii_letters + string.digits + "._-:/@%+~!$&*()[]{}<>?;'\"|^`é,=#"
    for _ in range(500):
        names = rng.sample(("a", "b", "x_1", "Zed"), rng.randint(0, 4))
        values = ["".join(rng.choices(chars, k=rng.randint(1, 5))) for _ in names]
        try:
            built = ParamInstance(dict(zip(names, values)))
        except BindingFormatError:
            built = None
        line = " ".join(["e"] + ["%s=%s" % pair for pair in zip(names, values)])
        try:
            (event,) = parse_trace(line)
            parsed = event.instance
        except ParseError:
            parsed = None
        if "#" in line:
            # a trace line ends at '#', so no value may hold one
            assert built is None, line
        else:
            assert (built is None) == (parsed is None), line
        if built is not None and parsed is not None:
            assert built == parsed, line
        for binding in (built, parsed):
            if binding is not None:
                assert ParamInstance.parse(binding.encode()) == binding


def test_invalid_names_and_values_rejected():
    with pytest.raises(ValueError):
        ParamInstance({"9bad": "v"})
    with pytest.raises(ValueError):
        ParamInstance({"x": "has space"})
    with pytest.raises(ValueError):
        ParamInstance({"x": ""})


def test_container_protocol():
    inst = b(x="1", y="2")
    assert len(inst) == 2
    assert dict(inst) == {"x": "1", "y": "2"}
    assert inst.names == ("x", "y")
    assert inst.domain == {"x", "y"}
    assert EMPTY.domain == frozenset()
    assert bool(inst) and not EMPTY


def test_a_binding_is_its_item_tuple():
    inst = b(y="2", x="1")
    items = (("x", "1"), ("y", "2"))
    assert inst == items and items == inst
    assert hash(inst) == hash(items)
    assert {items: "found"}[inst] == "found" and {inst: "found"}[items] == "found"
    assert tuple(inst) == items and type(tuple(inst)) is tuple
    assert EMPTY == () and hash(EMPTY) == hash(())
    assert inst != (("x", "1"),) and inst != "x=1,y=2"


def test_hash_and_equality_are_tuples_own():
    # The tables hash and compare bindings on every operation; a Python
    # method here would cost a frame per lookup.
    assert ParamInstance.__hash__ is tuple.__hash__
    assert ParamInstance.__eq__ is tuple.__eq__
    assert ParamInstance.__ne__ is tuple.__ne__
    assert ParamInstance.__slots__ == ()


def test_operations_return_bindings():
    x1, y2 = b(x="1"), b(y="2")
    for result in (
        x1.join(y2),
        x1.join(EMPTY),
        EMPTY.join(y2),
        x1.join(x1),
        ParamInstance.parse("x=1,y=2"),
        ParamInstance.parse(""),
        ParamInstance._wrap((("x", "1"),)),
        ParamInstance._wrap(item for item in x1),
    ):
        assert type(result) is ParamInstance, result


def test_copy_and_pickle_revalidate():
    copiers = [copy.copy, copy.deepcopy] + [
        lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol=protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    inst = b(x="1", y="2")
    for copier in copiers:
        copied = copier(inst)
        assert type(copied) is ParamInstance and copied == inst
        assert copier(EMPTY) == EMPTY
    # a copy is built by the constructor, so it checks what the fast path
    # skipped
    bad = ParamInstance._wrap((("9x", "1"),))
    for copier in copiers:
        with pytest.raises(BindingFormatError):
            copier(bad)


@pytest.mark.parametrize("name", ["locking", "hasnext", "unsafeiter", "balanced"])
@pytest.mark.parametrize("engine_class", [BaselineMonitor, IndexedMonitor])
@pytest.mark.parametrize("report_every", [False, True])
def test_tables_and_reports_hold_only_bindings(fixtures, name, engine_class, report_every):
    # A binding equals its item tuple, so a plain tuple could sit in a table
    # unnoticed; it would fail only where a binding's methods are called,
    # as ``render`` calls ``encode``.
    spec = parse_property_spec((fixtures / (name + ".spec")).read_text(encoding="utf-8"))
    trace = parse_trace((fixtures / (name + ".trace")).read_text(encoding="utf-8"))
    engine = engine_class(spec.machine, trigger=spec.trigger, report_every=report_every)
    reports = engine.feed_all(trace)
    table = SliceTable().feed_all(trace)
    for binding in (
        *engine.delta,
        *engine.gamma,
        *parked(engine),
        *(report.instance for report in reports),
        *table.instances(),
    ):
        assert type(binding) is ParamInstance, binding


def test_equality_ignores_construction_order():
    assert ParamInstance({"x": "1", "y": "2"}) == ParamInstance({"y": "2", "x": "1"})
    assert hash(b(x="1")) == hash(ParamInstance({"x": "1"}))


# -- order, compatibility, join ----------------------------------------------


def test_less_informative_basics():
    assert EMPTY.less_informative(b(x="1"))
    assert b(x="1").less_informative(b(x="1", y="2"))
    assert not b(x="1").less_informative(b(x="2", y="2"))
    assert not b(x="1", y="2").less_informative(b(x="1"))


def test_join_and_compatibility():
    assert b(x="1").join(b(y="2")) == b(x="1", y="2")
    assert b(x="1").join(b(x="2")) is None
    assert b(x="1", y="2").join(b(y="2", z="3")) == b(x="1", y="2", z="3")


def test_join_identity_and_idempotence():
    inst = b(x="1", y="2")
    assert inst.join(EMPTY) == inst
    assert EMPTY.join(inst) == inst
    assert inst.join(inst) == inst


def test_restrict():
    # The test suite's own helper, used by the index check and the mutants.
    restricted = restrict(b(x="1", y="2", z="3"), ("x", "z"))
    assert restricted == b(x="1", z="3") and type(restricted) is ParamInstance
    assert restrict(b(x="1"), ()) == EMPTY


# -- deterministic iteration order ---------------------------------------------


def test_ordered_sorts_by_size_then_encoding():
    items = [b(x="2"), b(x="1", y="1"), EMPTY, b(a="9")]
    assert ordered(items) == [EMPTY, b(a="9"), b(x="2"), b(x="1", y="1")]


# -- closure and max_below vs the plain-dict reference --------------------------


def test_join_closure_contains_empty_and_inputs():
    insts = [b(x="1"), b(y="2")]
    closed = join_closure(insts)
    assert EMPTY in closed
    for inst in insts:
        assert inst in closed
    assert b(x="1", y="2") in closed
    assert is_join_closed(closed)


def test_join_closure_drops_nothing_on_conflict():
    closed = join_closure([b(x="1"), b(x="2")])
    assert closed == {EMPTY, b(x="1"), b(x="2")}


def test_max_below_examples():
    closed = join_closure([b(x="1"), b(y="2")])
    assert max_below(b(x="1", y="2", z="9"), closed) == b(x="1", y="2")
    assert max_below(b(z="9"), closed) == EMPTY
    assert max_below(b(x="1"), closed) == b(x="1")  # non-strict


def test_max_below_rejects_a_set_without_the_empty_binding():
    with pytest.raises(ValueError, match="missing the empty binding"):
        max_below(b(y="2"), [ParamInstance.parse("x=1")])


def test_max_below_requires_membership_semantics():
    # the scan never invents bindings: answers are always members
    rng = random.Random(7)
    for params in (("x", "y", "z"), PREFIX_NAMES):
        for _ in range(50):
            closed = join_closure([random_binding(rng, params) for _ in range(4)])
            probe = random_binding(rng, params)
            assert max_below(probe, closed) in closed


def check_lattice_laws(count: int, seed: int) -> list[str]:
    """Randomized law suite; returns human-readable violations (empty = pass).

    Each round draws a triple of bindings plus a small set and checks the
    operations against the plain-dict reference and the algebraic laws the
    slicing algorithms rely on.  ``count`` rounds run on names ``x, y, z``,
    then ``count`` more on :data:`PREFIX_NAMES`, whose name order and
    encoding order disagree.
    """
    rng = random.Random(seed)
    violations: list[str] = []

    def note(law: str, detail: str) -> None:
        violations.append(f"{law}: {detail}")

    for params in (("x", "y", "z"), PREFIX_NAMES):
        for round_no in range(count):
            t1, t2, t3 = (random_binding(rng, params) for _ in range(3))
            d1, d2, d3 = map(from_instance, (t1, t2, t3))

            # pointwise agreement with the reference implementation
            if t1.less_informative(t2) != bf_less_informative(d1, d2):
                note("order-vs-reference", f"{t1.encode()!r} vs {t2.encode()!r}")
            j = t1.join(t2)
            bj = bf_join(d1, d2)
            if (j is None) != (bj is None) or (j is not None and j != to_instance(bj)):
                note("join-vs-reference", f"{t1.encode()!r} vs {t2.encode()!r}")

            # commutativity / associativity (when defined) / absorption
            if t1.join(t2) != t2.join(t1):
                note("join-commutes", f"{t1.encode()!r}, {t2.encode()!r}")
            left = None if j is None else j.join(t3)
            j23 = t2.join(t3)
            right = None if j23 is None else t1.join(j23)
            if left is not None and right is not None and left != right:
                note("join-associates", f"{t1.encode()!r},{t2.encode()!r},{t3.encode()!r}")
            if j is not None:
                if not t1.less_informative(j) or not t2.less_informative(j):
                    note("join-is-upper-bound", f"{t1.encode()!r}, {t2.encode()!r}")

            # order is antisymmetric and join is the least upper bound
            if t1.less_informative(t2) and t2.less_informative(t1) and t1 != t2:
                note("antisymmetry", f"{t1.encode()!r}, {t2.encode()!r}")
            if j is not None and t1.less_informative(t3) and t2.less_informative(t3):
                if not j.less_informative(t3):
                    note("join-is-least", f"{t1.encode()!r}, {t2.encode()!r}, {t3.encode()!r}")

            # set-level laws on a random family
            family = [random_binding(rng, params) for _ in range(rng.randint(0, 4))]
            closed = join_closure(family)
            ref_closed = {to_instance(d) for d in bf_join_closure(list(map(from_instance, family)))}
            if closed != ref_closed:
                note("closure-vs-reference", f"{[f.encode() for f in family]!r}")
            if not is_join_closed(closed):
                note("closure-is-closed", f"{[f.encode() for f in family]!r}")
            if join_closure(closed) != closed:
                note("closure-idempotent", f"{[f.encode() for f in family]!r}")
            for member in family:
                if member not in closed:
                    note("closure-extensive", f"{member.encode()!r}")

            # identity and the one-step growth law used by the slicers:
            # closing T ∪ {θ} equals T ⊔ {⊥, θ} when T is already closed
            theta = random_binding(rng, params)
            grown = join_sets(closed, {EMPTY, theta})
            if grown != join_closure(set(closed) | {theta}):
                note("one-step-growth", f"{theta.encode()!r}")
            if join_sets({EMPTY}, closed) != closed:
                note("bottom-is-identity", f"family of {len(closed)}")

            # joins_with enumerates exactly the defined joins
            expected = {j2 for t in closed if (j2 := theta.join(t)) is not None}
            if set(joins_with(theta, closed)) != expected:
                note("joins_with", f"{theta.encode()!r}")

            # max_below agrees with the reference scan
            probe = random_binding(rng, params)
            mine = max_below(probe, closed)
            ref = to_instance(bf_max_below(from_instance(probe), list(map(from_instance, closed))))
            if mine != ref:
                note("max_below-vs-reference", f"{probe.encode()!r}")

    return violations


def test_lattice_laws_quick():
    assert check_lattice_laws(100, seed=2024) == []


def test_binding_order_key():
    assert binding_order(EMPTY) < binding_order(b(a="1"))
    assert binding_order(b(a="1")) < binding_order(b(b="1"))
    assert binding_order(b(z="1")) < binding_order(b(a="1", b="2"))
