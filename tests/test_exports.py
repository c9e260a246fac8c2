"""Every public name a module exports resolves.

Tools that walk the package (the benchmark's span tracer among them) look up
each name of each module's ``__all__``; a name left behind by a deletion
would break them at run time.
"""

import importlib
import pkgutil

import pytest

import dirquant

MODULES = sorted(m.name for m in pkgutil.iter_modules(dirquant.__path__))


def test_modules_are_found():
    assert {"samplers", "contours", "simlab", "ald", "errors", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"dirquant.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
