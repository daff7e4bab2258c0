"""The package namespace: every public name, resolved on first access."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import slicemon

from .conftest import REPO

SUBMODULES = (
    "bindings",
    "counters",
    "events",
    "machines",
    "parametric",
    "patterns",
    "reference",
    "selfcheck",
    "slicer",
    "specfile",
    "usage",
)

FRESH = """\
import sys
import slicemon
assert not [m for m in sys.modules if m.startswith("slicemon.")], "eager import"
assert set(slicemon.__all__) <= set(dir(slicemon)), "dir before access"
namespace = {}
exec("from slicemon import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == slicemon.__all__
print("ok")
"""


def test_import_loads_no_submodule_and_star_import_resolves_all():
    child = subprocess.run(
        [sys.executable, "-c", FRESH],
        cwd=REPO / "src", capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "ok\n", "")


def test_every_public_name_is_its_home_module_object():
    modules = [importlib.import_module("slicemon." + name) for name in SUBMODULES]
    for name in slicemon.__all__:
        homes = [module for module in modules if name in module.__all__]
        assert len(homes) == 1, name
        assert getattr(slicemon, name) is getattr(homes[0], name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        slicemon.nope
    with pytest.raises(ImportError):
        from slicemon import nope  # noqa: F401
