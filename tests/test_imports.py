"""Every name that a module of the package imports is used in that module.

An import left behind when its last use goes keeps a dependency between
layers that the code no longer has.  `__init__.py` is exempt: its imports
are the package's re-exports.  A use is any load of the name, in code or
in an annotation, quoted ones included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for path in (ROOT / "src" / "linctx").glob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict:
    """Each name bound by an import statement, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    names[name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """The names the module loads, in code and in annotations."""
    used = set()
    pending = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                pending.append(ast.parse(node.value, mode="eval"))
    for root in pending:
        used.update(node.id for node in ast.walk(root) if isinstance(node, ast.Name))
    return used


def _unused_imports(source: str) -> list:
    """`name (line n)` for each imported name that the module never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]


def test_every_import_is_used():
    found = [f"{path.name}: {item}" for path in MODULES for item in _unused_imports(path.read_text())]
    assert found == []


def test_finder():
    source = '''
from __future__ import annotations

import os.path
import itertools as it
from typing import Optional
from .terms import Name, Tm, fresh, open_term as opened

def pick(names: "Optional[Name]") -> Tm:
    return it.chain(names)
'''
    assert _unused_imports(source) == [
        "os (line 4)",
        "fresh (line 7)",
        "opened (line 7)",
    ]
