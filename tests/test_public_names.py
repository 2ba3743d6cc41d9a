"""Every name a boxprop module lists in ``__all__`` exists, so star imports work,
and the package root imports only the engine."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import boxprop

MODULES = [boxprop.__name__] + [
    f"{boxprop.__name__}.{m.name}" for m in pkgutil.iter_modules(boxprop.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_package_root_leaves_the_experiment_harness_unloaded():
    # A fresh interpreter: this one has imported everything already.
    code = (
        "import sys, boxprop; "
        "print(sorted({'boxprop.bench', 'boxprop.cli', 'json', 'statistics'} & set(sys.modules)))"
    )
    src = str(Path(boxprop.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
