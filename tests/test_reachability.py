"""Every top-level function and class of the package, and every method
without dunder name, is reached from code outside the tests.

A definition in `src/linctx` counts as reached when its name occurs
outside its own definition: in a module of the package, in `perfbench/`
or in `tools/`.  A method is named `Class.method` here; it is reached
through an attribute of its name.  An occurrence is a name or an attribute in the code, or
a string that is a dotted path such as perfbench's `"ctxspec.align_mset"`;
comments, docstrings and import lines do not count.  `__init__.py` is left
out on both sides, since re-exporting a name reaches nothing.  A name that
only the tests reach stays only with its reason on `TEST_ONLY`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "linctx").glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")

TEST_ONLY = {
    "trans_rel_mset_exhaustive": "the independent oracle that the tests hold "
    "trans_rel_mset and align_mset against",
    "parse_ctx": "the entry point of the context literal syntax",
    "parse_type": "the entry point of the type syntax",
    "parse_lemma": "the entry point for one Lemma command",
    "render_lemma": "prints a lemma in the syntax that parse_lemma reads back",
    "DistrLemma.render": "prints a generated lemma in its Theorem form, which "
    "TestDistributivity pins",
    "close_term": "the inverse of open_term, exported with it; the term strategies "
    "build binders with it",
    "free_counts": "the tests' reading of linear use, which filters generated terms "
    "apart from the translation's own count",
}


def _names(node: ast.AST, skip: ast.AST | None = None) -> set:
    """The names `node` uses, outside the subtree `skip`."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unreached() -> list:
    trees = {path: ast.parse(path.read_text()).body for path in USERS}
    statements = {path: [_names(stmt) for stmt in trees[path]] for path in USERS}
    unreached = []
    for module in MODULES:
        elsewhere = set().union(
            *(names for path in USERS if path != module for names in statements[path])
        )
        own = statements[module]
        for k, stmt in enumerate(trees[module]):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            named = elsewhere.union(*(names for j, names in enumerate(own) if j != k))
            if stmt.name not in named:
                unreached.append(stmt.name)
            methods = stmt.body if isinstance(stmt, ast.ClassDef) else ()
            for method in methods:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    if method.name not in named | _names(stmt, skip=method):
                        unreached.append(f"{stmt.name}.{method.name}")
    return unreached


def test_every_definition_is_reached():
    assert [name for name in _unreached() if name not in TEST_ONLY] == []


def test_every_allowlisted_name_is_unreached():
    # An entry whose name code now reaches, or that no longer exists, goes.
    assert sorted(name for name in _unreached() if name in TEST_ONLY) == sorted(TEST_ONLY)
