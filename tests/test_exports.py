"""Every name an otmlab module lists in its __all__ exists in that module,
and every module-level private helper is used somewhere in the package, so a
rename or removal cannot leave a stale export or a dead helper behind."""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import otmlab

MODULES = ["otmlab"] + sorted(
    info.name for info in pkgutil.iter_modules(otmlab.__path__, "otmlab.")
)


def test_every_module_is_found():
    assert {"otmlab.machine", "otmlab.cli", "otmlab.reductions"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define"


def _bound_names(stmt):
    """The names a module-level statement defines: a function, a class or
    the targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_every_private_helper_is_used():
    """A module-level _name is read somewhere in the package outside its own
    definition: in its module, or in a module that does not define the same
    name (through an import or as an attribute)."""
    defined = defaultdict(set)  # module -> its private module-level names
    used = defaultdict(set)  # module -> the names it reads
    for path in sorted(Path(otmlab.__file__).parent.rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _bound_names(stmt)
            defined[path] |= {n for n in own if n.startswith("_") and not n.startswith("__")}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used[path].add(name)
    dead = sorted(
        f"{path.name}:{name}"
        for path, names in defined.items()
        for name in names
        if name not in used[path]
        and not any(name in used[other] and name not in defined[other]
                    for other in used if other != path)
    )
    assert dead == [], "private helpers nothing in the package uses"


def test_every_import_is_used():
    """A name a module imports is read in that module; a docstring that
    mentions it does not count.  The package __init__ is left out: its
    imports are the names it re-exports."""
    unused = []
    for path in sorted(Path(otmlab.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}:{n}" for n in names if n not in read]
    assert unused == [], "imports nothing in their module uses"
