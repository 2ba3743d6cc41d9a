"""Every name a boxprop module lists in ``__all__`` exists, so star imports work."""

import importlib
import pkgutil

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
