"""Every public name the package or a module exports resolves, and so does
every ``module.name`` the documentation points to.

Tools that walk the package (the benchmark's span tracer among them) look up
each name of each module's ``__all__``; a name left behind by a deletion
would break them at run time.  A reference in README.md or in a docstring or
comment of the package, left behind the same way, would send a reader to a
name that is gone.
"""

import ast
import importlib
import io
import pathlib
import pkgutil
import re
import tokenize

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


def test_every_package_api_name_resolves():
    # dirquant.__all__ is the library API (README, "Library example")
    assert dirquant.__all__
    assert [name for name in dirquant.__all__ if not hasattr(dirquant, name)] == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
# module.name, optionally after "dirquant.", but not a file name like cli.py
REFERENCE = re.compile(r"(?<![\w.])(?:dirquant\.)?(%s)\.(?!py\b)([A-Za-z_]\w*)" % "|".join(MODULES))


def _documentation():
    """(where, text) of README.md's backticked spans and of every docstring
    and comment in the package; ROADMAP.md and CHANGES.md are history."""
    readme = (ROOT / "README.md").read_text()
    yield from (("README.md", span) for span in re.findall(r"`([^`\n]+)`", readme))
    for path in sorted((ROOT / "src" / "dirquant").glob("*.py")):
        source = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield path.name, tok.string
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, ast.get_docstring(node, clean=False) or ""


def test_documented_references_resolve():
    refs = [(where, m.group(1), m.group(2))
            for where, text in _documentation() for m in REFERENCE.finditer(text)]
    assert len(refs) >= 10  # the scan sees the references it is meant to check
    stale = [f"{where}: {module}.{name}" for where, module, name in refs
             if not hasattr(importlib.import_module(f"dirquant.{module}"), name)]
    assert stale == []
