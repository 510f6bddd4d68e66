"""Type systems over multiset binding contexts.

Three systems share the term language: the simply typed lambda calculus
(contexts are ordinary lists, weakening and contraction are free), its
linear variant (every context association must be consumed exactly
once), and a small ML-like extension of the linear system with `let`.

Each linear system comes in two readings: a relational one that follows
the defining clauses directly (selection plus an emptiness check for
variables, a search over context splits for applications), and an
algorithmic one that threads a leftover context through the term and
checks emptiness once at the end.  Their agreement is a verified
property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ctx import (
    Cons,
    Ctx,
    elems,
    from_list,
    is_list,
    no_elems,
    parse_ctx_tokens,
    select,
    splits,
)
from .errors import MalformedTermError, PreconditionError
from .lex import TokenStream
from .terms import (
    EMPTY_SET,
    Abs,
    App,
    Arrow,
    Bound,
    Free,
    Interned,
    Let,
    Local,
    Name,
    Tm,
    Ty,
    _parse_type_atom,
    _print_type_atom,
    closed_free_names,
    node_dataclass,
    open_term,
    parse_term_tokens,
    parse_type_tokens,
)


@node_dataclass
class TyAssoc(Interned):
    """Association of a type with a nominal constant."""

    name: Name
    ty: Ty

    def __str__(self) -> str:
        return f"ty_of {self.name} {_print_type_atom(self.ty)}"


@node_dataclass
class VarAssoc(Interned):
    """Association of a source variable with its translated counterpart."""

    src: Name
    dst: Name

    def __str__(self) -> str:
        return f"trans_to {self.src} {self.dst}"


def ctx_names(g: Ctx) -> frozenset:
    """Names keyed by the associations of a context."""
    out = set()
    for a in elems(g):
        if isinstance(a, TyAssoc):
            out.add(a.name)
    return frozenset(out) if out else EMPTY_SET


def ty_ctx_list(l: Ctx) -> bool:
    """Whether l is a list of type associations with pairwise distinct names.

    This is the freshness condition read off the list structure: each
    head's name does not occur anywhere in its tail.
    """
    return is_list(l) and ty_ctx_mset(l)


def ty_ctx_mset(g: Ctx) -> bool:
    """Whether some list permutation of g is a typing context.

    Name distinctness is permutation-invariant, so it suffices to check
    the flattening directly; no search over permutations is needed.
    """
    seen = set()
    for a in elems(g):
        if not isinstance(a, TyAssoc) or a.name in seen:
            return False
        seen.add(a.name)
    return True


# ---------------------------------------------------------------------------
# Simply typed lambda calculus.
# ---------------------------------------------------------------------------


def _under(g: Ctx, t: Abs | Let, depth: int) -> tuple:
    """Context, opened body and depth under t's binder, named `Local(depth)`."""
    x = Local(depth)
    return Cons(TyAssoc(x, t.ann), g), open_term(t.body, x), depth + 1


def type_of_infer(l: Ctx, e: Tm) -> Optional[Ty]:
    """Infer the type of e under a list context, if any.

    Variables resolve to the first matching association; abstraction
    bodies are opened with a name fresh for the context and the term.
    Unique when the context is a typing context.
    """
    if not is_list(l):
        raise PreconditionError("type_of_infer requires a list-form context")
    return _infer(l, e, 0)


def _infer(l: Ctx, e: Tm, depth: int) -> Optional[Ty]:
    if isinstance(e, Free):
        for a in elems(l):
            if isinstance(a, TyAssoc) and a.name == e.name:
                return a.ty
        return None
    if isinstance(e, Bound):
        raise MalformedTermError("term is not locally closed")
    if isinstance(e, App):
        fn_ty = _infer(l, e.fn, depth)
        if isinstance(fn_ty, Arrow) and _infer(l, e.arg, depth) == fn_ty.dom:
            return fn_ty.cod
        return None
    if isinstance(e, Abs):
        body_ty = _infer(*_under(l, e, depth))
        return None if body_ty is None else Arrow(e.ann, body_ty)
    return None  # no rule for let in this system


def type_of_enum(l: Ctx, e: Tm) -> frozenset:
    """All types derivable for e under a list context, clause by clause.

    Variables collect every matching association (membership, not first
    match); used as the oracle for uniqueness of type assignment.
    """
    if not is_list(l):
        raise PreconditionError("type_of_enum requires a list-form context")
    return _enum(l, e, 0)


def _enum(l: Ctx, e: Tm, depth: int) -> frozenset:
    if isinstance(e, Free):
        return frozenset(
            a.ty for a in elems(l) if isinstance(a, TyAssoc) and a.name == e.name
        ) or EMPTY_SET
    if isinstance(e, Bound):
        raise MalformedTermError("term is not locally closed")
    if isinstance(e, App):
        fn_tys = _enum(l, e.fn, depth)
        arg_tys = _enum(l, e.arg, depth)
        return frozenset(
            t.cod for t in fn_tys if isinstance(t, Arrow) and t.dom in arg_tys
        ) or EMPTY_SET
    if isinstance(e, Abs):
        body_tys = _enum(*_under(l, e, depth))
        return frozenset(Arrow(e.ann, t) for t in body_tys) or EMPTY_SET
    return EMPTY_SET


# ---------------------------------------------------------------------------
# Linear systems, relational reading.
# ---------------------------------------------------------------------------


def _memo(cache: dict, fn, arg):
    # Keyed on (fn, arg): a function is never a context, so these keys
    # cannot collide with `_linear_types`'s (g, e) result keys.
    key = (fn, arg)
    out = cache.get(key)
    if out is None:
        out = cache[key] = fn(arg)
    return out


# An abstraction's result is not stored: it has one premise and no choice,
# its types are the Arrow image of its body's, and the body's are stored.
def _linear_types(g: Ctx, e: Tm, with_let: bool, cache: dict, depth: int = 0) -> frozenset:
    if isinstance(e, Abs):
        g1, body, body_depth = _under(g, e, depth)
        body_tys = _linear_types(g1, body, with_let, cache, body_depth)
        return frozenset(Arrow(e.ann, t) for t in body_tys) if body_tys else EMPTY_SET
    key = (g, e)
    cached = cache.get(key)
    if cached is not None:
        return cached
    out = set()
    if isinstance(e, Free):
        for a in dict.fromkeys(elems(g)):
            if isinstance(a, TyAssoc) and a.name == e.name:
                if any(no_elems(r) for r in select(a, g)):
                    out.add(a.ty)
    elif isinstance(e, Bound):
        raise MalformedTermError("term is not locally closed")
    elif isinstance(e, App):
        for g1, g2 in _memo(cache, splits, g):
            for fn_ty in _linear_types(g1, e.fn, with_let, cache, depth):
                if isinstance(fn_ty, Arrow):
                    if fn_ty.dom in _linear_types(g2, e.arg, with_let, cache, depth):
                        out.add(fn_ty.cod)
    elif isinstance(e, Let) and with_let:
        for g1, g2 in _memo(cache, splits, g):
            if e.ann in _linear_types(g1, e.val, with_let, cache, depth):
                g3, body, body_depth = _under(g2, e, depth)
                out |= _linear_types(g3, body, with_let, cache, body_depth)
    result = cache[key] = frozenset(out) if out else EMPTY_SET
    return result


def ltype_types(g: Ctx, e: Tm) -> frozenset:
    """All types derivable for e in the linear system (no let)."""
    return _linear_types(g, e, False, {})


def ltype_rel(g: Ctx, e: Tm, t: Ty) -> bool:
    """Relational linear typing: the defining clauses, decided by search.

    The variable clause selects the association and requires the residual
    to be element-free; the application clause quantifies the context
    split over the canonical split enumeration; the abstraction clause
    extends the context with a fresh association.
    """
    return t in ltype_types(g, e)


def mltype_types(g: Ctx, e: Tm) -> frozenset:
    """All types derivable for e in the linear system with let."""
    return _linear_types(g, e, True, {})


def mltype_rel(g: Ctx, e: Tm, t: Ty) -> bool:
    """Relational typing for the let-extended linear system."""
    return t in mltype_types(g, e)


# ---------------------------------------------------------------------------
# Linear systems, algorithmic reading: leftover threading.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leftover:
    """Unconsumed associations, in list form."""

    remaining: Ctx


def _check_linear(g_in: Ctx, e: Tm, with_let: bool) -> Optional[tuple]:
    if not is_list(g_in):
        raise PreconditionError("leftover checking requires a list-form context")
    assocs = elems(g_in)
    if not all(isinstance(a, TyAssoc) for a in assocs):
        raise PreconditionError("leftover checking requires type associations")
    names = [a.name for a in assocs]
    if len(set(names)) != len(names):
        raise PreconditionError("leftover checking requires distinct names")
    if closed_free_names(e) is None:
        raise MalformedTermError("term is not locally closed")

    def go(t: Tm, remaining: tuple, depth: int) -> Optional[tuple]:
        if isinstance(t, Free):
            for i, a in enumerate(remaining):
                if a.name == t.name:
                    return a.ty, remaining[:i] + remaining[i + 1 :]
            return None
        if isinstance(t, App):
            fn_res = go(t.fn, remaining, depth)
            if fn_res is None:
                return None
            fn_ty, rem1 = fn_res
            if not isinstance(fn_ty, Arrow):
                return None
            arg_res = go(t.arg, rem1, depth)
            if arg_res is None:
                return None
            arg_ty, rem2 = arg_res
            if arg_ty != fn_ty.dom:
                return None
            return fn_ty.cod, rem2
        if isinstance(t, Abs):
            res = binder(t, remaining, depth)
            return None if res is None else (Arrow(t.ann, res[0]), res[1])
        if isinstance(t, Let) and with_let:
            val_res = go(t.val, remaining, depth)
            if val_res is None or val_res[0] != t.ann:
                return None
            return binder(t, val_res[1], depth)
        return None

    def binder(t: Abs | Let, remaining: tuple, depth: int) -> Optional[tuple]:
        # Types t's body under a fresh association of its annotation.
        x = Local(depth)
        res = go(open_term(t.body, x), (TyAssoc(x, t.ann),) + remaining, depth + 1)
        if res is None or any(a.name == x for a in res[1]):
            return None  # ill-typed, or the bound variable was never used
        return res

    out = go(e, tuple(assocs), 0)
    if out is None:
        return None
    ty, rem = out
    return ty, Leftover(from_list(rem))


def ltype_check(g_in: Ctx, e: Tm) -> Optional[tuple]:
    """Leftover-threading checker for the linear system.

    A variable consumes its association; an application threads the
    function's leftover into the argument; an abstraction extends the
    context and requires its fresh association to be consumed.  Returns
    (type, leftover) or None; the term is linearly typed under the whole
    context exactly when the leftover is empty.
    """
    return _check_linear(g_in, e, False)


def mltype_check(g_in: Ctx, e: Tm) -> Optional[tuple]:
    """Leftover-threading checker for the let-extended linear system."""
    return _check_linear(g_in, e, True)


def linear_type(g_in: Ctx, e: Tm) -> Optional[Ty]:
    """Top-level linear typing: checker result with an empty leftover."""
    res = ltype_check(g_in, e)
    if res is not None and no_elems(res[1].remaining):
        return res[0]
    return None


def ml_type(g_in: Ctx, e: Tm) -> Optional[Ty]:
    """Top-level typing for the let-extended system."""
    res = mltype_check(g_in, e)
    if res is not None and no_elems(res[1].remaining):
        return res[0]
    return None


# ---------------------------------------------------------------------------
# Judgment fixtures: `CTX |- TERM : TY ; accept` (or `; reject`).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Judgment:
    ctx: Ctx
    term: Tm
    ty: Ty
    expect: bool


def parse_ty_assoc(ts: TokenStream) -> TyAssoc:
    ts.eat_ident("ty_of")
    name = Name(ts.eat_ident().text)
    return TyAssoc(name, _parse_type_atom(ts))


def parse_judgment(line: str) -> Judgment:
    ts = TokenStream.of(line)
    g = parse_ctx_tokens(ts, parse_ty_assoc)
    ts.eat_sym("|-")
    declared = {str(n): n for n in ctx_names(g)}
    term = parse_term_tokens(ts, declared)
    ts.eat_sym(":")
    ty = parse_type_tokens(ts)
    ts.eat_sym(";")
    verdict = ts.eat_ident().text
    ts.expect_eof()
    if verdict not in ("accept", "reject"):
        raise PreconditionError(f"expected verdict 'accept' or 'reject', got {verdict!r}")
    return Judgment(g, term, ty, verdict == "accept")


def check_judgment(j: Judgment, system: str, algo: bool = False) -> bool:
    """Verdict of the selected system on a judgment."""
    if system == "stlc":
        if algo:
            return type_of_infer(j.ctx, j.term) == j.ty
        return j.ty in type_of_enum(j.ctx, j.term)
    if system == "linear":
        if algo:
            return linear_type(j.ctx, j.term) == j.ty
        return ltype_rel(j.ctx, j.term, j.ty)
    if system == "ml":
        if algo:
            return ml_type(j.ctx, j.term) == j.ty
        return mltype_rel(j.ctx, j.term, j.ty)
    raise PreconditionError(f"unknown system {system!r}")
