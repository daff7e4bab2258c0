"""Repository tooling: ``tools/code_lines.py``, ``tools/ab.py``, and a guard on what tests name.

``tools/code_lines.py`` counts the code lines of the ``slicemon`` modules,
and ``tools/ab.py`` compares two checkouts on perfbench's library loop.
The guard keeps the tests off the engines' private finders, so that a
reshape of the finders edits only the mutants that override them.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def test_code_lines_skips_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""Module doc."""

# a comment
X = """a string,
not a docstring"""


class C:
    """Doc
    of C."""

    def f(self):
        return X  # a trailing comment
'''
    assert tool.code_lines(source) == 5


def test_code_lines_prints_every_module_and_the_total():
    out = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True
    ).stdout
    counts = {name: int(count) for count, name in (line.split() for line in out.splitlines())}
    modules = {path.name for path in (ROOT / "src" / "slicemon").glob("*.py")}
    assert set(counts) == modules | {"total"}
    total = counts.pop("total")
    assert total == sum(counts.values()) and all(counts.values())


#: The engines' private finders, source probe and define.  The tests check
#: the engines by what they produce and by their ``RunStats`` counts; only
#: the mutants, which override or call these methods, may name them.
PRIVATE_STEPS = {"_above", "_joins", "_source", "_define"}


def test_only_the_mutants_name_the_private_finders():
    named = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name == "mutants.py":
            continue
        with path.open("rb") as handle:
            names = {
                token.string for token in tokenize.tokenize(handle.readline)
                if token.type == tokenize.NAME
            }
        if names & PRIVATE_STEPS:
            named[path.name] = sorted(names & PRIVATE_STEPS)
    assert named == {}


def test_ab_prints_one_round_of_ratios_per_workload():
    # One tiny round of two copies of this tree on two seeds: the shape of
    # the output, one block per workload and seed, not its timings, which
    # depend on the machine.
    perfbench = ROOT / "perfbench"
    before = {path: path.stat().st_mtime_ns for path in perfbench.rglob("*")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--base", str(ROOT), "--change",
         str(ROOT), "--workload", "fresh-bindings", "--seed", "41", "7", "--rounds", "1",
         "--passes", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 12
    for seed, block in zip((41, 7), (lines[:6], lines[6:])):
        assert block[0] == "fresh-bindings, seed %d, passes per round: 1" % seed
        assert block[1].split() == [
            "round", "base", "p50", "us", "base", "p99", "us", "change/base", "p50", "p99",
            "control/base", "p50", "p99",
        ]
        row, median, wins = (line.split() for line in block[2:5])
        assert row[0] == "1" and median[0] == "median" and row[1:] == median[1:]
        assert all(float(value) > 0 for value in row[1:])
        assert wins[0] == "wins" and all(win in ("0/1", "1/1") for win in wins[1:])
        assert len(wins) == 5 and block[5] == ""
    assert {path: path.stat().st_mtime_ns for path in perfbench.rglob("*")} == before
