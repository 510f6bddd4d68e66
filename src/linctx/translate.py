"""Let-elimination translation and the coordinated three-context relation.

The translation rewrites `let T V E` into `app (abs T E') V'` while
renaming every free variable through a context of source-to-target name
associations, consumed linearly.  The accompanying context relation ties
a source typing context, the translation context, and a target typing
context together entry by entry; it comes in a list form (coordinated
recursion over the three lists) and a multiset form (the list form up to
independent permutations of each context).  The multiset form is the
`Context` specification `TRANS_REL`, decided by the schematic engine's
alignment search; the hand-coded list form and the exhaustive multiset
reading stay as independent oracles for it.
"""

from __future__ import annotations

from itertools import permutations
from typing import Optional

from .ctx import (
    Cons,
    Ctx,
    elems,
    from_list,
    is_list,
    no_elems,
    select,
    splits,
)
from .ctxspec import align_mset, parse_spec
from .errors import (
    LinearityError,
    MalformedTermError,
    PreconditionError,
    UnmappedVariableError,
)
from .terms import (
    Abs,
    App,
    Free,
    Let,
    Name,
    Tm,
    close_term,
    fresh,
    free_counts,
    free_names,
    locally_closed,
    open_term,
)
from .typecheck import TyAssoc, VarAssoc


def _entry_names(a: object) -> frozenset:
    if isinstance(a, TyAssoc):
        return frozenset((a.name,))
    if isinstance(a, VarAssoc):
        return frozenset((a.src, a.dst))
    if isinstance(a, Name):
        return frozenset((a,))
    return frozenset()


def _assoc_names(g: Ctx) -> set:
    return set().union(*map(_entry_names, elems(g)))


def _fresh_pair(avoid: set) -> tuple:
    x = fresh(avoid)
    y = fresh(avoid | {x})
    return x, y


def ltrans_rel(g: Ctx, e: Tm, e2: Tm) -> bool:
    """Whether e2 is a translation of e under translation context g.

    Clause by clause: a variable selects its association with an
    element-free residual; applications split the context over both
    sides; a let translates to an application of an abstraction, binding
    a fresh source/target name pair; abstractions translate bodies under
    an extended context.
    """
    if isinstance(e, Free) and isinstance(e2, Free):
        for a in dict.fromkeys(elems(g)):
            if isinstance(a, VarAssoc) and a.src == e.name and a.dst == e2.name:
                if any(no_elems(r) for r in select(a, g)):
                    return True
        return False
    if isinstance(e, App) and isinstance(e2, App):
        return any(
            ltrans_rel(g1, e.fn, e2.fn) and ltrans_rel(g2, e.arg, e2.arg)
            for g1, g2 in splits(g)
        )
    if isinstance(e, Let) and isinstance(e2, App):
        if not isinstance(e2.fn, Abs) or e2.fn.ann != e.ann:
            return False
        avoid = _assoc_names(g) | free_names(e) | free_names(e2)
        for g1, g2 in splits(g):
            if ltrans_rel(g1, e.val, e2.arg):
                x, y = _fresh_pair(avoid)
                if ltrans_rel(
                    Cons(VarAssoc(x, y), g2),
                    open_term(e.body, x),
                    open_term(e2.fn.body, y),
                ):
                    return True
        return False
    if isinstance(e, Abs) and isinstance(e2, Abs) and e.ann == e2.ann:
        avoid = _assoc_names(g) | free_names(e) | free_names(e2)
        x, y = _fresh_pair(avoid)
        return ltrans_rel(
            Cons(VarAssoc(x, y), g), open_term(e.body, x), open_term(e2.body, y)
        )
    return False


def translate(g: Ctx, e: Tm) -> Tm:
    """Functional reading of the translation.

    Requires g in list form with distinct source names that cover the
    free names of e exactly once each.  Variables are renamed through g,
    `let T V E` becomes `app (abs T E') V'`, and the other constructors
    translate homomorphically.
    """
    if not is_list(g):
        raise PreconditionError("translate requires a list-form context")
    assocs = elems(g)
    if not all(isinstance(a, VarAssoc) for a in assocs):
        raise PreconditionError("translate requires variable associations")
    srcs = [a.src for a in assocs]
    if len(set(srcs)) != len(srcs):
        raise PreconditionError("translate requires distinct source names")
    if not locally_closed(e):
        raise MalformedTermError("term is not locally closed")
    for n in free_names(e):
        if n not in srcs:
            raise UnmappedVariableError(f"free variable {n} has no association")
    counts = free_counts(e)
    for n in srcs:
        count = counts[n]
        if count != 1:
            raise LinearityError(f"source name {n} is used {count} times, expected 1")

    avoid = _assoc_names(g) | free_names(e)

    def go(t: Tm, mapping: dict) -> Tm:
        if isinstance(t, Free):
            return Free(mapping[t.name])
        if isinstance(t, App):
            return App(go(t.fn, mapping), go(t.arg, mapping))
        if isinstance(t, Abs):
            return binder(t, mapping)
        if isinstance(t, Let):
            val = go(t.val, mapping)
            return App(binder(t, mapping), val)
        raise MalformedTermError(f"cannot translate {t!r}")

    def binder(t: Abs | Let, mapping: dict) -> Abs:
        # The abstraction over t's translated body, whose bound variable
        # is renamed through a fresh source/target pair.
        x, y = _fresh_pair(avoid | set(mapping) | set(mapping.values()))
        body = open_term(t.body, x)
        if free_counts(body)[x] != 1:
            raise LinearityError(f"bound variable of {t!r} is not used exactly once")
        return Abs(t.ann, close_term(go(body, {**mapping, x: y}), y))

    return go(e, {a.src: a.dst for a in assocs})


# ---------------------------------------------------------------------------
# The coordinated context relation.
# ---------------------------------------------------------------------------


def trans_rel_list(l1: Ctx, l2: Ctx, l3: Ctx) -> bool:
    """Coordinated list form of the relation.

    The three lists have equal length and, position by position, consist
    of `ty_of x T`, `trans_to x y`, and `ty_of y T` with the same T, where
    x and y are distinct names neither of which occurs in any tail.
    """
    if not (is_list(l1) and is_list(l2) and is_list(l3)):
        return False
    e1, e2, e3 = elems(l1), elems(l2), elems(l3)
    if not (len(e1) == len(e2) == len(e3)):
        return False
    k = len(e1)
    for i in range(k):
        a1, b, a3 = e1[i], e2[i], e3[i]
        if not (isinstance(a1, TyAssoc) and isinstance(b, VarAssoc) and isinstance(a3, TyAssoc)):
            return False
        x, y = b.src, b.dst
        if x == y or a1.name != x or a3.name != y or a1.ty != a3.ty:
            return False
        tail_names = set()
        for j in range(i + 1, k):
            tail_names |= _entry_names(e1[j]) | _entry_names(e2[j]) | _entry_names(e3[j])
        if x in tail_names or y in tail_names:
            return False
    return True


TRANS_REL = parse_spec(
    "Context trans_rel with elems as "
    "nabla x y (ty_of x T _|_ trans_to x y _|_ ty_of y T)."
)


def trans_rel_mset(g1: Ctx, g2: Ctx, g3: Ctx, *, _memo: Optional[dict] = None) -> bool:
    """Multiset form: some triple of list permutations is in the list form.

    Decided by `align_mset` on `TRANS_REL`; `_memo` is its memo of
    sub-alignments, shared by the calls of one check.
    """
    return align_mset(TRANS_REL, (g1, g2, g3), _memo=_memo) is not None


def trans_rel_mset_exhaustive(g1: Ctx, g2: Ctx, g3: Ctx) -> bool:
    """Literal reading of the multiset form, used as a test oracle.

    Tries every triple of list arrangements of the three contexts and
    checks the list form; exponential, only for small instances.
    """
    def arrangements(g: Ctx):
        seen = set()
        for order in permutations(elems(g)):
            if order not in seen:
                seen.add(order)
                yield from_list(order)

    return any(
        trans_rel_list(l1, l2, l3)
        for l1 in arrangements(g1)
        for l2 in arrangements(g2)
        for l3 in arrangements(g3)
    )
