"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import udgprune

MODULES = ["udgprune"] + [
    f"udgprune.{info.name}"
    for info in pkgutil.iter_modules(udgprune.__path__)
    if info.name != "__main__"  # importing it runs the command line
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
