"""What `occkit` ships: each module's `__all__` resolves, no test-only reference is left in it,
and README's "What's inside" names it.

The slow references the tests compare the product against (the node-by-node
growers, the per-node cuts, brute-force LOF, every consensus level at once)
live in tests/oracles.py.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import occkit

MODULES = sorted(info.name for info in pkgutil.iter_modules(occkit.__path__, "occkit."))

# Names of references that live in tests/oracles.py, beyond those containing "oracle".
_REFERENCES = {"all_levels", "grow_oracle", "_best_split"}


def _test_only(name):
    return "oracle" in name or name in _REFERENCES


def test_every_module_is_checked():
    assert {"occkit.detectors", "occkit.ensemble", "occkit.forest", "occkit.trees"} <= set(MODULES)


def test_readme_names_every_module():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    inside = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    assert [name for name in MODULES if f"`{name}`" not in inside] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_ship_no_test_reference(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported, name
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n in exported if _test_only(n)] == []
    assert [n for n in vars(module) if _test_only(n)] == []
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == name]
    for cls in classes:
        # A forest variant's per-node cut is a reference too; the product cuts a level at once.
        assert [n for n in vars(cls) if _test_only(n) or n == "_cut"] == [], cls.__name__
