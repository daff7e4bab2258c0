"""Online slicing table vs the definitional slice, including the broken variant."""

from __future__ import annotations

import random

import pytest

from slicemon.bindings import EMPTY, CapExceeded, ParamInstance
from slicemon.events import ParametricEvent, parse_trace, slice_trace
from slicemon.slicer import SliceTable

from .frozen import AFTER_E4, AFTER_E6, AFTER_E8, FINAL, FINAL_LOOKUPS
from .oracles import is_join_closed, random_binding


def table_as_encoded(table: SliceTable) -> dict[str, str]:
    return {
        binding.encode(): " ".join(events)
        for binding, events in table.as_dict().items()
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
        assert table.events_fed == len(trace)


def test_snapshot_mutant_double_appends():
    trace = parse_trace("setb b=1\nseta a=1\n")
    good = SliceTable().feed_all(trace)
    bad = SliceTable(unsafe_no_snapshot=True).feed_all(trace)
    joined = ParamInstance({"a": "1", "b": "1"})
    assert good.slice_of(joined) == ("setb", "seta")
    assert bad.slice_of(joined) == ("seta", "seta")  # sourced the fresh entry


def test_cap_enforced_on_lookup_paths():
    wide = ParamInstance({f"p{i}": "v" for i in range(11)})
    table = SliceTable()
    with pytest.raises(CapExceeded):
        table.feed(ParametricEvent("e", wide))
    narrow_table = SliceTable(cap=11)
    narrow_table.feed(ParametricEvent("e", wide))
    assert narrow_table.slice_of(wide) == ("e",)
