"""Online slicing table vs the definitional slice, including the broken variant."""

from __future__ import annotations

import random

import pytest

from slicemon.bindings import EMPTY, ParamInstance
from slicemon.events import ParametricEvent, parse_trace
from slicemon.reference import slice_trace
from slicemon.slicer import SliceTable

from .frozen import AFTER_E4, AFTER_E6, AFTER_E8, FINAL, FINAL_LOOKUPS
from .mutants import NoSnapshotSliceTable
from .oracles import is_join_closed, random_binding


def table_as_encoded(table: SliceTable) -> dict[str, str]:
    return {
        binding.encode(): " ".join(table.slice_of(binding))
        for binding in table.instances()
    }


def abc_trace(fixtures):
    return parse_trace((fixtures / "abc.trace").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "prefix_len,expected",
    [(4, AFTER_E4), (6, AFTER_E6), (8, AFTER_E8), (11, FINAL)],
    ids=["after-e4", "after-e6", "after-e8", "final"],
)
def test_fixture_replay_snapshots(fixtures, prefix_len, expected):
    table = SliceTable().feed_all(abc_trace(fixtures)[:prefix_len])
    assert table_as_encoded(table) == expected


def test_fixture_lookups_including_off_table(fixtures):
    table = SliceTable().feed_all(abc_trace(fixtures))
    for encoding, slice_text in FINAL_LOOKUPS.items():
        query = ParamInstance.parse(encoding)
        assert " ".join(table.lookup(query)) == slice_text
        # off-table queries resolve without being inserted
        if encoding not in table_as_encoded(table):
            assert query not in table


def test_every_entry_matches_definitional_slice(fixtures):
    trace = abc_trace(fixtures)
    table = SliceTable().feed_all(trace)
    for binding in table.instances():
        assert table.slice_of(binding) == slice_trace(trace, binding)


def random_trace(rng: random.Random, length: int) -> list[ParametricEvent]:
    return [
        ParametricEvent(rng.choice("abcd"), random_binding(rng))
        for _ in range(length)
    ]


def test_random_traces_differential():
    rng = random.Random(11)
    for _ in range(60):
        trace = random_trace(rng, rng.randint(0, 12))
        table = SliceTable().feed_all(trace)
        domain = set(table.instances())
        assert EMPTY in domain
        assert is_join_closed(domain)
        for binding in domain:
            assert table.slice_of(binding) == slice_trace(trace, binding)
        # probes, mostly off-table
        for _ in range(5):
            probe = random_binding(rng)
            assert table.lookup(probe) == slice_trace(trace, probe)


def test_snapshot_mutant_sources_a_fresh_join():
    trace = parse_trace("setb b=1\nseta a=1\n")
    good = SliceTable().feed_all(trace)
    bad = NoSnapshotSliceTable().feed_all(trace)
    joined = ParamInstance({"a": "1", "b": "1"})
    assert good.slice_of(joined) == ("setb", "seta")
    # sourced the fresh a=1 entry instead of the stepped b=1 one, after the
    # define of a=1 had given it its first step, and stepped it again
    assert bad.slice_of(joined) == ("seta", "seta") != good.slice_of(joined)


def test_lookup_of_an_off_table_40_parameter_binding():
    # a 40-parameter binding has 2^40 sub-bindings, too many to enumerate:
    # an off-table lookup finds the widest table entry below it by a scan
    wide = ParamInstance({f"p{i}": "v" for i in range(40)})
    trace = [
        ParametricEvent("e", wide),
        ParametricEvent("f", ParamInstance({"p1": "v"})),
        ParametricEvent("g", ParamInstance({"p0": "w", "p1": "v"})),
    ]
    table = SliceTable().feed_all(trace)
    assert table.slice_of(wide) == ("e", "f")
    off_table = ParamInstance({**dict(wide), "p0": "w"})
    assert off_table not in table
    assert table.lookup(off_table) == slice_trace(trace, off_table) == ("f", "g")
