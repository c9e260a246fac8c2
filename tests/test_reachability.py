"""src/ holds what the program reaches.

Every top-level definition of the package (function, class or module-level
assignment) must be reachable by name from the CLI's entry point,
``cli.main``, or from the library API that ``dirquant.__all__`` lists.  Code
that only tests call belongs in ``tests/`` (``references.py``,
``mh_oracle.py``, ...).

The walk reads the source only; it imports nothing of the package.  A
reached function or class reaches every name its body mentions that
resolves, through the module's own definitions and its ``from . import``
and ``from .module import`` bindings, to a top-level definition; ``mod.name``
resolves when ``mod`` is a bound package module.  A class is reached with
all its methods.  Names the interpreter looks up itself (dunders such as
``__all__`` and ``__getattr__``) and the statements a module runs on import
are roots too.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dirquant"


class _Module:
    def __init__(self, path: pathlib.Path, names):
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.defs = {}  # name -> top-level definition node
        self.loose = []  # top-level statements that define nothing
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs[name.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.loose.append(node)
        self.binds = {}  # local name -> ("module", mod) or ("name", mod, name)
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                source = node.module or ""
            elif node.module == "dirquant" or (node.module or "").startswith("dirquant."):
                source = node.module[len("dirquant."):]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "" and alias.name in names:
                    self.binds[local] = ("module", alias.name)
                else:
                    self.binds[local] = ("name", source, alias.name)


def _modules():
    """{module name ("" for the package): _Module}"""
    paths = sorted(PACKAGE.glob("*.py"))
    names = {p.stem for p in paths if p.stem != "__init__"}
    return {("" if p.stem == "__init__" else p.stem): _Module(p, names) for p in paths}


def _resolve(modules, module, name):
    """(module, name) of the top-level definition a name in module denotes,
    following re-exports; None for anything else."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        mod = modules[module]
        if name in mod.defs:
            return module, name
        bound = mod.binds.get(name)
        if bound is None or bound[0] != "name":
            return None
        _, module, name = bound
    return None


def _mentions(modules, module, node):
    mod = modules[module]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found = _resolve(modules, module, sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            bound = mod.binds.get(sub.value.id)
            found = _resolve(modules, bound[1], sub.attr) if bound and bound[0] == "module" else None
        else:
            continue
        if found is not None:
            yield found


def _api(modules):
    """The names of ``dirquant.__all__``, or None without one."""
    for node in modules[""].tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return None


def _unreached(modules, api):
    """{"module.name": line count} of every definition that the walk from
    ``cli.main`` and the names api of the package misses."""
    roots = [("cli", "main")] + [_resolve(modules, "", name) for name in api]
    for module, mod in modules.items():
        roots += [(module, name) for name in mod.defs if name.startswith("__") and name.endswith("__")]
        for node in mod.loose:
            roots += _mentions(modules, module, node)
    reached, stack = set(), [r for r in roots if r is not None]
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        module, name = key
        stack.extend(_mentions(modules, module, modules[module].defs[name]))
    missed = {}
    for module, mod in modules.items():
        for name, node in mod.defs.items():
            if (module, name) not in reached:
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                missed[f"{module or '__init__'}.{name}"] = node.end_lineno - first + 1
    return missed


def test_the_package_lists_its_api():
    api = _api(_modules())
    assert api, "dirquant/__init__.py must define __all__, the library API"
    assert len(api) == len(set(api))


def test_every_api_name_is_a_definition_of_the_package():
    modules = _modules()
    assert [name for name in _api(modules) or () if _resolve(modules, "", name) is None] == []


def test_every_definition_is_reached_from_the_cli_or_the_api():
    modules = _modules()
    missed = _unreached(modules, _api(modules) or ())
    listing = ", ".join(f"{name} ({lines} lines)" for name, lines in sorted(missed.items()))
    assert missed == {}, f"{sum(missed.values())} lines nothing reaches: {listing}"


def test_the_walk_sees_what_it_checks():
    modules = _modules()
    api = _api(modules)
    # a definition that only a test would call is reported
    modules["geometry"].defs["check_loss"] = ast.parse("def check_loss(x, tau):\n    return x\n").body[0]
    assert _unreached(modules, api) == {"geometry.check_loss": 2}
    # the API is a root: without it, what only the library API reaches is
    # reported, and what the CLI reaches across modules is not
    missed = _unreached(modules, [])
    assert {"contours.tukey_depth", "simlab.make_star_like"} <= set(missed)
    assert not {"samplers.gibbs_unconditional", "optimize._column_moments", "io.write_polygon"} & set(missed)
