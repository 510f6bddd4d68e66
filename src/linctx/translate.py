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
from .ctxspec import align_mset, parse_spec, value_names
from .errors import (
    LinearityError,
    MalformedTermError,
    PreconditionError,
    UnmappedVariableError,
)
from .terms import (
    Abs,
    App,
    Bound,
    Free,
    Let,
    Local,
    Tm,
    binder_name,
    closed_free_names,
    open_term,
    print_term,
)
from .typecheck import TyAssoc, VarAssoc


def ltrans_rel(g: Ctx, e: Tm, e2: Tm) -> bool:
    """Whether e2 is a translation of e under translation context g.

    Clause by clause: a variable selects its association with an
    element-free residual; applications split the context over both
    sides; a let translates to an application of an abstraction, binding
    a fresh source/target name pair; abstractions translate bodies under
    an extended context.
    """
    return _ltrans_rel(g, e, e2, 0)


def _ltrans_rel(g: Ctx, e: Tm, e2: Tm, depth: int) -> bool:
    # Each binder at `depth` is named `Local(depth)` on both sides.
    if isinstance(e, Free) and isinstance(e2, Free):
        for a in dict.fromkeys(elems(g)):
            if isinstance(a, VarAssoc) and a.src == e.name and a.dst == e2.name:
                if any(no_elems(r) for r in select(a, g)):
                    return True
        return False
    if isinstance(e, App) and isinstance(e2, App):
        return any(
            _ltrans_rel(g1, e.fn, e2.fn, depth) and _ltrans_rel(g2, e.arg, e2.arg, depth)
            for g1, g2 in splits(g)
        )
    if isinstance(e, Let) and isinstance(e2, App):
        if not isinstance(e2.fn, Abs) or e2.fn.ann != e.ann:
            return False
        x = Local(depth)
        for g1, g2 in splits(g):
            if _ltrans_rel(g1, e.val, e2.arg, depth):
                if _ltrans_rel(
                    Cons(VarAssoc(x, x), g2),
                    open_term(e.body, x),
                    open_term(e2.fn.body, x),
                    depth + 1,
                ):
                    return True
        return False
    if isinstance(e, Abs) and isinstance(e2, Abs) and e.ann == e2.ann:
        x = Local(depth)
        return _ltrans_rel(
            Cons(VarAssoc(x, x), g), open_term(e.body, x), open_term(e2.body, x), depth + 1
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
    if closed_free_names(e) is None:
        raise MalformedTermError("term is not locally closed")
    # One walk from an explicit stack.  A bound variable keeps its index,
    # since the binders keep their places.  An item is (t, depth, step):
    # step None reads t, "enter" opens the binder of an abstraction or of a
    # let (after its value), and "build" rebuilds t from the last results.
    mapping = {a.src: a.dst for a in assocs}
    counts = dict.fromkeys(srcs, 0)
    uses: list = []  # each binder's variable's uses, in the order entered
    depths: list = []  # and each binder's depth
    path: list = []  # the binder open at each depth, by its place in `uses`
    malformed = None  # the first node that is not a term, and how many binders came before it
    done: list = []  # the translated subterms, left to right
    pending: list = [(e, 0, None)]
    while pending:
        t, depth, step = pending.pop()
        if step == "build":
            if isinstance(t, App):
                done[-2:] = [App(*done[-2:])]
            elif isinstance(t, Abs):
                done[-1] = Abs(t.ann, done[-1])
            else:  # a let, from its value and its body
                done[-2:] = [App(Abs(t.ann, done[-1]), done[-2])]
        elif step == "enter":
            path[depth:] = [len(uses)]
            uses.append(0)
            depths.append(depth)
            pending.append((t.body, depth + 1, None))
        elif isinstance(t, Free):
            if t.name not in counts:
                raise UnmappedVariableError(f"free variable {t.name} has no association")
            counts[t.name] += 1
            done.append(Free(mapping[t.name]))
        elif isinstance(t, Bound):
            uses[path[depth - 1 - t.index]] += 1
            done.append(t)
        elif isinstance(t, App):
            pending += ((t, depth, "build"), (t.arg, depth, None), (t.fn, depth, None))
        elif isinstance(t, Abs):
            pending += ((t, depth, "build"), (t, depth, "enter"))
        elif isinstance(t, Let):
            pending += ((t, depth, "build"), (t, depth, "enter"), (t.val, depth, None))
        else:
            malformed = malformed or (len(uses), t)
            done.append(t)
    # The errors in the order of a recursive translation, which checks each
    # binder as it enters it.  The walk enters the binders in the order that
    # `print_term(e)` prints them, so a binder is named by that place.
    for n in srcs:
        if counts[n] != 1:
            raise LinearityError(f"source name {n} is used {counts[n]} times, expected 1")
    for i, (count, depth) in enumerate(zip(uses[: malformed[0]] if malformed else uses, depths)):
        if count != 1:
            raise LinearityError(
                f"bound variable {binder_name(e, depth)} of binder {i + 1} in "
                f"{print_term(e)} is not used exactly once"
            )
    if malformed:
        raise MalformedTermError(f"cannot translate {malformed[1]!r}")
    return done[0]


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
            tail_names |= value_names(e1[j]) | value_names(e2[j]) | value_names(e3[j])
        if x in tail_names or y in tail_names:
            return False
    return True


TRANS_REL = parse_spec(
    "Context trans_rel with elems as "
    "nabla x y (ty_of x T _|_ trans_to x y _|_ ty_of y T)."
)


def trans_rel_mset(g1: Ctx, g2: Ctx, g3: Ctx) -> bool:
    """Multiset form: some triple of list permutations is in the list form.

    Decided by `align_mset` on `TRANS_REL`, which keeps its answers for
    the process.
    """
    return align_mset(TRANS_REL, (g1, g2, g3)) is not None


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
