"""``tools/code_lines.py``: the code-line count of the ``slicemon`` modules."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
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
