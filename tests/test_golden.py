"""Golden command lines: ``monitor`` and ``slice`` print what they printed before.

Each case runs :func:`slicemon.cli.main` in process, from the repository
root, and its exit code, stdout and stderr must equal those recorded in
``tests/cli_golden.json``.  The cases are every fixture property × every
fixture trace × ``--algo b|c`` × with and without ``--report-every``;
``slice`` on every fixture trace; ``slice --instance`` on
``fixtures/abc.trace`` for a binding in its table, one outside it, one
wider than any event and the empty binding; and ``monitor`` and ``slice
--instance`` on one parking-heavy
:func:`tests.workloads.unsafeiter_workload` trace, read from stdin.  So
an engine change that keeps the semantics keeps every byte of this
output, on both engines.

A change that means to alter this output regenerates the file from the
repository root, and says why::

    PYTHONPATH=src python -m tests.test_golden > tests/cli_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Iterator

from slicemon.cli import main
from slicemon.events import render_trace

from .conftest import FIXTURES, REPO
from .workloads import unsafeiter_workload

GOLDEN = REPO / "tests" / "cli_golden.json"

#: Bindings that ``slice --instance`` cases ask ``fixtures/abc.trace`` for:
#: one in its table, one outside it, one wider than any event, the empty one.
ABC_INSTANCES = ["a=a2,b=b1", "b=b2,c=c2", "a=a1,b=b2,c=c1,z=z9", ""]

#: Traces a case reads from stdin, by name.  Nearly all of this one's
#: 341 table entries end parked.
STDIN = {
    "unsafeiter_workload(1000, collections=10, slots=3, seed=41)": lambda: render_trace(
        unsafeiter_workload(1000, collections=10, slots=3, seed=41)
    ),
}


def cases() -> Iterator[tuple[list[str], str | None]]:
    """Each case's argv, relative to the repository root, and its stdin's name."""
    specs = sorted("fixtures/" + path.name for path in FIXTURES.glob("*.spec"))
    traces = sorted("fixtures/" + path.name for path in FIXTURES.glob("*.trace"))
    modes = [["--algo", algo, *every] for algo in "bc" for every in ([], ["--report-every"])]
    for spec in specs:
        for trace in traces:
            for mode in modes:
                yield ["monitor", "--spec", spec, "--trace", trace, *mode], None
    for trace in traces:
        yield ["slice", "--trace", trace], None
    for instance in ABC_INSTANCES:
        yield ["slice", "--trace", "fixtures/abc.trace", "--instance", instance], None
    for name in STDIN:
        for mode in modes:
            yield ["monitor", "--spec", "fixtures/unsafeiter.spec", "--trace", "-", *mode], name
        yield ["slice", "--trace", "-", "--instance", "i=c3.1,v=c3"], name


def run_case(argv: list[str], stdin: str | None) -> dict:
    """The record of one case: its argv and stdin name, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(STDIN[stdin]().encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return {
        "argv": argv, "stdin": stdin, "code": code,
        "stdout": out.getvalue(), "stderr": err.getvalue(),
    }


def records() -> list[dict]:
    return [run_case(argv, stdin) for argv, stdin in cases()]


def test_cli_output_matches_the_golden_file(monkeypatch):
    monkeypatch.chdir(REPO)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = records()
    assert [(r["argv"], r["stdin"]) for r in actual] == [
        (r["argv"], r["stdin"]) for r in expected
    ]
    differ = [" ".join(a["argv"]) for a, e in zip(actual, expected) if a != e]
    assert not differ, differ


if __name__ == "__main__":
    os.chdir(REPO)
    sys.stdout.write(json.dumps(records(), indent=1, ensure_ascii=False) + "\n")
