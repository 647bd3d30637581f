"""Every name a module lists in ``__all__`` resolves, so ``import *`` works.

The package ``__init__`` builds its own ``__all__`` from what it imported,
so a stale entry left in a module's list by a deletion shows up only here.
"""

import importlib
import pkgutil

import pytest

import rvqcodec

MODULES = ["rvqcodec"] + [
    f"rvqcodec.{info.name}" for info in pkgutil.iter_modules(rvqcodec.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
