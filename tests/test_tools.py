"""Repository tooling: ``tools/code_lines.py``, and a guard on what the tests name.

``tools/code_lines.py`` counts the code lines of the ``slicemon`` modules.
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


#: The engines' private finders and define.  The tests check the engines by
#: what they produce and by their ``RunStats`` counts; only the mutants,
#: which override these methods, may name them.
PRIVATE_STEPS = {"_above", "_joins", "_below", "_define"}


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
