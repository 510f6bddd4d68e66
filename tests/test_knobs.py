"""No public function of the package takes a memo or a cache, so that no
caller has to keep one alive or promise what may share it.

A function that keeps answers keeps them itself, under `functools.cache`
with the comment that argues the kept answers are sound (`ctx.perm_rel`,
`terms.open_term`).  A public function is a top-level `def` in
`src/linctx`, or a method of a top-level class, whose name does not start
with an underscore; its parameters are all of them, keyword-only and
starred ones too, with any name.

A module-level table that starts empty (`NAME = {}`, `NAME: dict = {}`,
`NAME = dict()`) is a hand-made cache, and each one is named, with the
reason `functools.cache` does not fit it, on `TABLES`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "linctx").glob("*.py"))

KNOBS = ("memo", "cache")

TABLES = {
    "ctx._PARTS": "keyed by the classes of g1 and g2, not by perm_to_part's arguments",
    "ctxspec._ALIGNED": (
        "read inside the recursive _align_rows, where a cached function "
        "would halve the recursion depth reached (ROADMAP item 5)"
    ),
}


def _public_functions(tree: ast.Module):
    """(qualified name, def node) of each public function of a module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and not child.name.startswith("_"):
                    yield f"{node.name}.{child.name}", child
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def _knobs(source: str) -> list:
    """`function(parameter)` for each public parameter named like a memo."""
    found = []
    for name, node in _public_functions(ast.parse(source)):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None and any(knob in arg.arg.lower() for knob in KNOBS):
                found.append(f"{name}({arg.arg})")
    return found


def test_no_public_function_takes_a_memo():
    found = [f"{path.stem}.{knob}" for path in MODULES for knob in _knobs(path.read_text())]
    assert found == []


def test_finder():
    source = '''
def search(x, *, _memo=None):
    return _helper(x, {})

def _helper(x, memo):
    def inner(cache):
        return cache
    return inner(memo)

def lookup(key, table, **cache_opts):
    return table[key]

class Box:
    def get(self, memos):
        return memos

    def _fill(self, cache):
        return cache

class _Hidden:
    def get(self, memo):
        return memo
'''
    assert _knobs(source) == ["search(_memo)", "lookup(cache_opts)", "Box.get(memos)"]


def _tables(source: str) -> list:
    """The name of each module-level table that starts empty."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        empty = isinstance(value, ast.Dict) and not value.keys or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
            and not value.args
            and not value.keywords
        )
        if empty:
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_every_table_is_listed():
    found = [f"{path.stem}.{name}" for path in MODULES for name in _tables(path.read_text())]
    assert sorted(found) == sorted(TABLES)


def test_table_finder():
    source = '''
_PLAIN = {}
_ANNOTATED: dict = {}
_CALLED = dict()
FIRST = SECOND = {}
_FILLED = {"a": 1}
_FROM_PAIRS = dict(a=1)
_DECLARED: dict

def f():
    local = {}
    return local

class K:
    inner = {}
'''
    assert _tables(source) == ["_PLAIN", "_ANNOTATED", "_CALLED", "FIRST", "SECOND"]
