"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from linctx.ctx import Cons, Union, from_list
from linctx.terms import Abs, App, Arrow, Base, Bound, Free, Let, close_term, term_size
from linctx.typecheck import TyAssoc


@st.composite
def shaped(draw, items, max_depth):
    """A context whose flattening is `items`: a cons prefix over a list or,
    while the depth allows, over a union of two shaped parts."""
    j = draw(st.integers(0, len(items)))
    rest = items[j:]
    if max_depth > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(rest)))
        g = Union(draw(shaped(rest[:k], max_depth - 1)), draw(shaped(rest[k:], max_depth - 1)))
    else:
        g = from_list(rest)
    for x in reversed(items[:j]):
        g = Cons(x, g)
    return g


# A simple type over the bases i and o, of any arrow nesting on either side.
types = st.recursive(
    st.sampled_from((Base("i"), Base("o"))), lambda inner: st.builds(Arrow, inner, inner)
)


@st.composite
def terms(draw, frees, anns, max_size):
    """A locally closed term of 1 to `max_size` constructors over the free
    names `frees` (not empty) and the annotation types `anns`; each
    variable is any free name or any bound variable in scope."""
    def sized(size, depth):
        if size == 1:
            leaves = [Free(n) for n in frees] + [Bound(i) for i in range(depth)]
            return draw(st.sampled_from(leaves))
        kind = draw(st.sampled_from(("abs", "app", "let") if size >= 3 else ("abs",)))
        ann = draw(st.sampled_from(anns))
        if kind == "abs":
            return Abs(ann, sized(size - 1, depth + 1))
        left = draw(st.integers(1, size - 2))
        if kind == "app":
            return App(sized(left, depth), sized(size - 1 - left, depth))
        return Let(ann, sized(left, depth), sized(size - 1 - left, depth + 1))

    return sized(draw(st.integers(1, max_size)), 0)


@st.composite
def judgments(draw, names, anns, max_size):
    """A list context over distinct names taken from `names`, each with a
    type from `anns`, and a term of `terms` over all of `names`."""
    picked = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]
    g = from_list([TyAssoc(n, draw(st.sampled_from(anns))) for n in picked])
    return g, draw(terms(names, anns, max_size))


@st.composite
def linear_judgments(draw, names, anns, max_steps):
    """A list context over some of `names` and a term built for it bottom
    up by the linear typing rules, so that it usually types.

    A piece is a term with its type and the names it consumes, each
    once.  The pieces start as the names, each with a type from `anns`.
    Each of up to `max_steps` steps adds one piece: an application of
    two pieces that consume disjoint names, an abstraction of a name
    that a piece consumes, or a let that binds a piece to such a name in
    another.  The term is the largest piece, and the context holds the
    names it consumes, in a drawn order.
    """
    types = {n: draw(st.sampled_from(anns)) for n in names}
    pieces = [(Free(n), ty, frozenset((n,))) for n, ty in types.items()]
    for _ in range(draw(st.integers(0, max_steps))):
        moves = [("abs", p, n) for p in pieces for n in p[2]]
        moves += [
            ("app", f, a)
            for f in pieces
            for a in pieces
            if isinstance(f[1], Arrow) and f[1].dom == a[1] and not f[2] & a[2]
        ]
        moves += [
            ("let", v, (b, n))
            for v in pieces
            for b in pieces
            for n in b[2]
            if types[n] == v[1] and not v[2] & b[2]
        ]
        kind, x, y = draw(st.sampled_from(moves))
        if kind == "abs":
            piece = (Abs(types[y], close_term(x[0], y)), Arrow(types[y], x[1]), x[2] - {y})
        elif kind == "app":
            piece = (App(x[0], y[0]), x[1].cod, x[2] | y[2])
        else:
            b, n = y
            # One let in eight is annotated with any type: a near miss that
            # both readings must reject unless the type happens to fit.
            ann = types[n] if draw(st.integers(0, 7)) else draw(st.sampled_from(anns))
            piece = (Let(ann, x[0], close_term(b[0], n)), b[1], x[2] | b[2] - {n})
        pieces.append(piece)
    term, _, used = max(reversed(pieces), key=lambda piece: term_size(piece[0]))
    assocs = draw(st.permutations([TyAssoc(n, types[n]) for n in names if n in used]))
    return from_list(assocs), term
