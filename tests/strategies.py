"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from linctx.ctx import Cons, Union, from_list


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
