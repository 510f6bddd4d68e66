"""Every function of the package that can reach itself is named, with its
reason, on `RECURSIVE`, so that new recursion fails here.

A function is any `def` in `src/linctx`: top level, method (`Class.method`)
or nested (`outer.inner`).  Its edges are the bare names its body uses, a
call or a name passed as a value alike (`map(f, xs)`), resolved the way
Python resolves them: to a definition nested in the function or in an
enclosing one, else to a top-level function of the same module.  A name
that a parameter, an assignment or a comprehension binds on the way is
local and leads nowhere, so a call through a parameter (`emit`'s `parts`)
is not followed.  Attributes are not followed either.  A function is
recursive when its edges lead back to it.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "linctx").glob("*.py"))

_PARSER = "a parser descends once per nested input term (ROADMAP item 2, step 1)"
_TYPING = "a type checker descends once per subterm (ROADMAP item 2, step 2)"
_TRANSLATE = "the translation descends once per subterm (ROADMAP item 2, step 2)"
_FORMULA = "descends once per connective of a side formula, written by hand and short"
_KERNEL = "its own walk, run once per clause binding, where a stack is slower"
_SIZE = "descends once per size or depth step of a generator bound, which stays small"
RECURSIVE = {
    "ctx._ctx_universe.struct_key": _SIZE,
    "ctx._ctx_universe.trees": _SIZE,
    "ctx._partitions": "descends once per list entry; partition_list's 2**n result bounds n",
    "ctx.perm_rel": "the direct-search oracle for perm; a second design on purpose",
    "ctxspec._align_rows": "alignment recurses once per step (ROADMAP item 5)",
    "ctxspec._align_rows.choose_elems": "one generator frame per argument of a clause",
    "ctxspec._parse_formula": _PARSER,
    "ctxspec._parse_formula_atom": _PARSER,
    "ctxspec._parse_formula_conj": _PARSER,
    "ctxspec._parse_pattern": _PARSER,
    "ctxspec._parse_pattern_atom": _PARSER,
    "ctxspec._patterns_may_overlap": "descends into two clause patterns of a parsed spec",
    "ctxspec.eval_formula": _FORMULA,
    "ctxspec.formula_vars": _FORMULA,
    "ctxspec.instantiate": _KERNEL,
    "ctxspec.match_pattern": _KERNEL,
    "suites.gen_linear_terms.at": _SIZE,
    "suites.gen_terms.at": _SIZE,
    "translate._ltrans_rel": _TRANSLATE,
    "typecheck._check_linear.binder": _TYPING,
    "typecheck._check_linear.go": _TYPING,
    "typecheck._enum": _TYPING,
    "typecheck._infer": _TYPING,
    "typecheck._linear_types": _TYPING,
}

PRINTERS = (
    "terms.print_type",
    "terms.print_term",
    "ctx.print_ctx",
    "ctx.Ctx.__repr__",
    "ctxspec.render_pattern",
)

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTION + (ast.Lambda, ast.ClassDef)


@functools.cache
def _bound(node: ast.AST) -> set:
    """The names that a function, lambda or comprehension binds in its own scope."""
    names = set()
    if isinstance(node, (*_FUNCTION, ast.Lambda)):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None:
                names.add(arg.arg)
        body = node.body if isinstance(node, _FUNCTION) else [node.body]
    else:  # a comprehension: its targets
        body = [g.target for g in node.generators]
    stack = list(body)
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (*_FUNCTION, ast.ClassDef)):
            names.add(child.name)
            continue
        if not isinstance(child, (ast.Lambda, ast.comprehension)):
            stack.extend(ast.iter_child_nodes(child))
    return names


def _functions(tree: ast.Module) -> dict:
    """Qualified name -> (def node, enclosing function scopes, innermost first)."""
    found = {}
    stack = [(node, "", ()) for node in tree.body]
    while stack:
        node, prefix, scopes = stack.pop()
        if isinstance(node, _FUNCTION):
            name = prefix + node.name
            found[name] = (node, scopes)
            stack.extend((child, name + ".", ((name, node),) + scopes) for child in node.body)
        elif isinstance(node, ast.ClassDef):
            # A method does not see the names of its class body.
            stack.extend((child, f"{prefix}{node.name}.", scopes) for child in node.body)
        else:
            stack.extend((child, prefix, scopes) for child in ast.iter_child_nodes(node))
    return found


def _edges(name: str, node: ast.AST, scopes: tuple, top: set, defs: dict) -> set:
    """The functions that `name`'s body reaches by a bare name."""
    chain = ((name, node),) + scopes
    edges = set()
    stack = [(child, frozenset()) for child in node.body]
    while stack:
        child, shadowed = stack.pop()
        if isinstance(child, _SCOPES):
            if not isinstance(child, ast.Lambda):
                continue  # a nested def or class is a function of its own
            shadowed = shadowed | _bound(child)
            stack.append((child.body, shadowed))
            continue
        if isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            shadowed = shadowed | _bound(child)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            target = _resolve(child.id, shadowed, chain, top, defs)
            if target is not None:
                edges.add(target)
        stack.extend((grand, shadowed) for grand in ast.iter_child_nodes(child))
    return edges


def _resolve(ident: str, shadowed: frozenset, chain: tuple, top: set, defs: dict):
    if ident in shadowed:
        return None
    for scope_name, scope in chain:
        if scope_name + "." + ident in defs:
            return scope_name + "." + ident
        if ident in _bound(scope):
            return None
    return ident if ident in top else None


def _recursive(source: str) -> set:
    tree = ast.parse(source)
    defs = _functions(tree)
    top = {node.name for node in tree.body if isinstance(node, _FUNCTION)}
    edges = {name: _edges(name, node, scopes, top, defs) for name, (node, scopes) in defs.items()}
    recursive = set()
    for start in defs:
        seen, stack = set(), list(edges[start])
        while stack:
            name = stack.pop()
            if name == start:
                recursive.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(edges[name])
    return recursive


def _package_recursive() -> set:
    return {f"{path.stem}.{name}" for path in MODULES for name in _recursive(path.read_text())}


def test_every_recursive_function_is_listed():
    assert sorted(_package_recursive() - RECURSIVE.keys()) == []


def test_every_listed_function_still_recurses():
    # An entry whose function no longer reaches itself, or no longer exists, goes.
    assert sorted(RECURSIVE.keys() - _package_recursive()) == []


def test_no_printer_recurses():
    assert [name for name in PRINTERS if name in RECURSIVE] == []


def test_finder():
    source = '''
def direct(n):
    return direct(n - 1)

def through_map(xs):
    return list(map(through_map, xs))

def parameter(f, x):
    return f(x)

def f(x):
    return parameter(lambda g: g(x), x)

def shadowed(xs):
    shadowed = len
    return shadowed(xs)

def outer(t):
    def go(t):
        return [go(u) for u in t]
    return go(t)

def mutual_a(n):
    return mutual_b(n)

def mutual_b(n):
    return mutual_a(n)

class K:
    def direct(self):
        return self.direct()
'''
    assert _recursive(source) == {"direct", "through_map", "outer.go", "mutual_a", "mutual_b"}
