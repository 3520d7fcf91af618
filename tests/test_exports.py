"""Every name a module exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_package_imports_no_scipy():
    # the program needs numpy only; scipy is a test dependency
    code = "import sys, udgprune, udgprune.cli; assert not [m for m in sys.modules if m.startswith('scipy')]"
    src = str(Path(udgprune.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
