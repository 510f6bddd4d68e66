"""Multiset binding contexts and their relational vocabulary.

A context is a finite tree built from three constructors: the empty
context, consing a single element onto a context, and the union of two
contexts.  Contexts are identified up to permutation of their elements;
the functions here provide the standard relations on them (membership,
selection of one occurrence, permutation, ordered partition of a list,
canonical splits) as decision and enumeration procedures, together with
the permutation-transport algorithms that move membership and selection
facts across a permutation.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Sequence

from .errors import PreconditionError
from .lex import TokenStream


class Ctx:
    """Base class of the three context constructors.

    Equality is structural.  It walks both trees without recursion, skips
    shared subtrees by identity, rejects most unequal ones by their
    cached hashes, and compares heads left to right.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        a, b = self, other
        pending = []  # pairs of right branches still to compare
        while True:
            while a is not b:
                if type(a) is not type(b) or a._hash != b._hash:
                    return False
                if isinstance(a, Cons):
                    if not a.head == b.head:  # `!=` would add a call per head
                        return False
                    a, b = a.tail, b.tail
                elif isinstance(a, Union):
                    pending.append((a.right, b.right))
                    a, b = a.left, b.left
                else:
                    break
            if not pending:
                return True
            a, b = pending.pop()


class Empty(Ctx):
    """The context with no elements."""

    __slots__ = ()
    __match_args__ = ()

    def __init__(self):
        self._hash = hash((0, "linctx.Empty"))

    def __repr__(self) -> str:
        return "Empty()"


class Cons(Ctx):
    """A context with one distinguished element added to a tail context."""

    __slots__ = ("head", "tail")
    __match_args__ = ("head", "tail")

    def __init__(self, head: Any, tail: Ctx):
        self.head = head
        self.tail = tail
        self._hash = hash((1, head, tail._hash))

    def __repr__(self) -> str:
        return f"Cons({self.head!r}, {self.tail!r})"


class Union(Ctx):
    """The multiset union of two contexts."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Ctx, right: Ctx):
        self.left = left
        self.right = right
        self._hash = hash((2, left._hash, right._hash))

    def __repr__(self) -> str:
        return f"Union({self.left!r}, {self.right!r})"


EMPTY = Empty()


def from_list(items: Iterable[Any]) -> Ctx:
    """Build a list-form context (a right-nested chain of cons cells)."""
    out: Ctx = EMPTY
    for item in reversed(list(items)):
        out = Cons(item, out)
    return out


def elems(g: Ctx) -> tuple:
    """Left-to-right flattening: cons heads in order, unions left then right."""
    out = []
    stack = [g]
    while stack:
        node = stack.pop()
        if isinstance(node, Cons):
            out.append(node.head)
            stack.append(node.tail)
        elif isinstance(node, Union):
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)


def member(x: Any, g: Ctx) -> bool:
    """Whether x occurs in g.

    Clause by clause: a cons matches its head or looks in the tail; a
    union holds if either side does; the empty context holds nothing.
    Heads are compared left to right, in the order of `elems`.
    """
    stack = []  # right branches still to search
    while True:
        while isinstance(g, Cons):
            if x == g.head:
                return True
            g = g.tail
        if isinstance(g, Union):
            stack.append(g.right)
            g = g.left
        elif stack:
            g = stack.pop()
        else:
            return False


def select(x: Any, g: Ctx) -> tuple:
    """All ways of removing one occurrence of x from g.

    Returns one residual per occurrence, in the order of `elems`.  The
    residual is g with exactly that occurrence's cons node spliced out:
    removing a head leaves its tail, removing inside a tail or a union
    branch rebuilds the surrounding node.  Absent elements yield the
    empty sequence.
    """
    out = []
    # Each node travels with the chain of its ancestors, innermost first:
    # (parent, whether the node is the parent's right branch, rest of chain).
    stack = [(g, None)]
    while stack:
        node, up = stack.pop()
        if isinstance(node, Cons):
            if x == node.head:
                rest, chain = node.tail, up
                while chain is not None:
                    parent, is_right, chain = chain
                    if isinstance(parent, Cons):
                        rest = Cons(parent.head, rest)
                    elif is_right:
                        rest = Union(parent.left, rest)
                    else:
                        rest = Union(rest, parent.right)
                out.append(rest)
            stack.append((node.tail, (node, False, up)))
        elif isinstance(node, Union):
            stack.append((node.right, (node, True, up)))
            stack.append((node.left, (node, False, up)))
    return tuple(out)


def no_elems(g: Ctx) -> bool:
    """Whether g has no elements: empty, or a union of element-free contexts."""
    if not isinstance(g, Union):  # the common case, without a stack
        return isinstance(g, Empty)
    pending = []  # right branches still to look at
    while True:
        while isinstance(g, Union):
            pending.append(g.right)
            g = g.left
        if not isinstance(g, Empty):
            return False
        if not pending:
            return True
        g = pending.pop()


def is_list(g: Ctx) -> bool:
    """Whether g is built from cons cells over a terminal empty context only."""
    while isinstance(g, Cons):
        g = g.tail
    return isinstance(g, Empty)


def depth(g: Ctx) -> int:
    """Union-nesting depth.  Every list has depth 1; a union adds one level."""
    deepest = 1
    pending = [(g, 1)]  # subtrees still to walk, with their own depth
    while pending:
        g, level = pending.pop()
        while isinstance(g, Cons):
            g = g.tail
        if isinstance(g, Union):
            pending += ((g.left, level + 1), (g.right, level + 1))
        else:
            deepest = max(deepest, level)
    return deepest


def perm(g1: Ctx, g2: Ctx) -> bool:
    """Whether g1 and g2 have the same elements as multisets.

    Decided by comparing flattenings; the search-based reading of the
    permutation relation is kept separately as `perm_rel` and serves as
    the oracle this decision is checked against.
    """
    return Counter(elems(g1)) == Counter(elems(g2))


def perm_rel(g1: Ctx, g2: Ctx, _memo: dict | None = None) -> bool:
    """Permutation by direct search, used as a test oracle for `perm`.

    Base case: both contexts element-free.  Recursive case: some element
    can be selected from both sides leaving permutation-related
    residuals.  Terminates because the element count strictly decreases.
    """
    if _memo is not None:
        key = (g1, g2)
        cached = _memo.get(key)
        if cached is not None:
            return cached
    if no_elems(g1) and no_elems(g2):
        result = True
    else:
        result = False
        tried = set()
        for x in elems(g1):
            if x in tried:
                continue
            tried.add(x)
            residuals2 = set(select(x, g2))
            if not residuals2:
                continue
            residuals1 = set(select(x, g1))
            if any(
                perm_rel(r1, r2, _memo) for r1 in residuals1 for r2 in residuals2
            ):
                result = True
                break
    if _memo is not None:
        _memo[key] = result
    return result


def partition_list(l: Ctx) -> tuple:
    """All ordered two-way partitions of a list-form context.

    Each element goes to the first or the second component; relative
    order is preserved in both.  A list of n elements yields 2**n pairs,
    first-component-heavy pairs first.
    """
    if not is_list(l):
        raise PreconditionError("partition_list requires a list-form context")
    return _partitions(l)


def _partitions(l: Ctx) -> tuple:
    if not isinstance(l, Cons):
        return ((EMPTY, EMPTY),)
    sub = _partitions(l.tail)
    left = tuple((Cons(l.head, l1), l2) for l1, l2 in sub)
    right = tuple((l1, Cons(l.head, l2)) for l1, l2 in sub)
    return left + right


def splits(g: Ctx) -> tuple:
    """Canonical enumeration of the two-way splits of g, up to permutation.

    Every split of g into two contexts is, up to permutation of each
    side, one of the 2**n list-form pairs produced by partitioning the
    flattening of g.
    """
    return _partitions(from_list(elems(g)))


def mem_transport(x: Any, g: Ctx, g2: Ctx) -> bool:
    """Carry a membership fact across a permutation.

    Requires member(x, g) and perm(g, g2); returns member(x, g2), which
    the permutation-transport lemma guarantees to be true.
    """
    if not member(x, g):
        raise PreconditionError("mem_transport: element is not a member of the source")
    if not perm(g, g2):
        raise PreconditionError("mem_transport: contexts are not a permutation")
    return member(x, g2)


def sel_transport(x: Any, g1: Ctx, g1r: Ctx, g2: Ctx) -> Ctx:
    """Carry a selection fact across a permutation.

    Given a residual g1r of selecting x from g1 and a permutation
    partner g2, returns a residual of selecting x from g2 that is a
    permutation of g1r.  Existence is guaranteed by the selection
    transport lemma; the first matching residual in selection order is
    returned.
    """
    if not perm(g1, g2):
        raise PreconditionError("sel_transport: contexts are not a permutation")
    if g1r not in select(x, g1):
        raise PreconditionError("sel_transport: given residual is not a residual of the source")
    for r2 in select(x, g2):
        if perm(g1r, r2):
            return r2
    raise AssertionError("selection transport found no matching residual")


def perm_to_part_mask(l: Ctx, g1: Ctx, g2: Ctx) -> tuple:
    """Assignment of the elements of list l to the two sides of a split.

    Requires is_list(l) and perm(l, g1 ++ g2).  Walks l front to back,
    pulling each element from whichever of g1/g2 still contains it
    (preferring g1 on ties) and recording True for g1, False for g2.
    Only the copies left in g1 decide, so they are the only ones counted.
    """
    if not is_list(l):
        raise PreconditionError("perm_to_part: first argument must be a list")
    items = elems(l)
    left = Counter(elems(g1))
    if Counter(items) != left + Counter(elems(g2)):
        raise PreconditionError("perm_to_part: list is not a permutation of the combined split")
    mask = []
    for e in items:
        into_first = left[e] > 0
        if into_first:
            left[e] -= 1
        mask.append(into_first)
    return tuple(mask)


def perm_to_part(l: Ctx, g1: Ctx, g2: Ctx) -> tuple:
    """Flatten a split of the elements of a list into an ordered partition.

    Returns list-form (l1, l2) with perm(g1, l1), perm(g2, l2), and
    (l1, l2) an ordered partition of l.
    """
    mask = perm_to_part_mask(l, g1, g2)
    items = elems(l)
    l1 = from_list([e for e, into_first in zip(items, mask) if into_first])
    l2 = from_list([e for e, into_first in zip(items, mask) if not into_first])
    return l1, l2


def part_to_perm(l: Ctx, l1: Ctx, l2: Ctx) -> bool:
    """Whether a list is a permutation of an ordered partition of itself.

    Requires (l1, l2) to be one of the ordered partitions of l; the
    partition-to-permutation lemma guarantees the result is true.
    """
    if not any(p1 == l1 and p2 == l2 for p1, p2 in partition_list(l)):
        raise PreconditionError("part_to_perm: not an ordered partition of the list")
    return perm(l, Union(l1, l2))


def gen_ctxs(pool: Sequence[Any], max_elems: int, max_depth: int) -> list:
    """Bounded-exhaustive enumeration of context trees.

    Yields every context whose elements are drawn (with repetition) from
    pool, with at most max_elems elements and union-nesting depth at most
    max_depth, without duplicates.  Order is canonical: by element count,
    then depth, then a lexicographic structure key.
    """
    pool = list(pool)
    rank = {e: i for i, e in enumerate(pool)}
    memo: dict = {}

    def trees(k: int, d: int) -> list:
        if d <= 0:
            return []
        key = (k, d)
        if key in memo:
            return memo[key]
        out = []
        if k == 0:
            out.append(EMPTY)
        if k >= 1:
            for e in pool:
                for t in trees(k - 1, d):
                    out.append(Cons(e, t))
        if d >= 2:
            for k_left in range(k + 1):
                for left in trees(k_left, d - 1):
                    for right in trees(k - k_left, d - 1):
                        out.append(Union(left, right))
        memo[key] = out
        return out

    def struct_key(g: Ctx) -> tuple:
        if isinstance(g, Cons):
            return (1, rank[g.head]) + struct_key(g.tail)
        if isinstance(g, Union):
            return (2,) + struct_key(g.left) + struct_key(g.right)
        return (0,)

    result = []
    for k in range(max_elems + 1):
        result.extend(sorted(trees(k, max_depth), key=lambda g: (depth(g), struct_key(g))))
    return result


# ---------------------------------------------------------------------------
# Context literal syntax: nil, X :: G, G1 ++ G2, and [a, b, c] list sugar.
# `::` is right-associative and binds tighter than `++`.
# ---------------------------------------------------------------------------


def parse_atom_elem(ts: TokenStream) -> str:
    """Element parser for generic contexts whose elements are bare identifiers."""
    return ts.eat_ident().text


def parse_ctx(text: str, parse_elem: Callable[[TokenStream], Any] = parse_atom_elem) -> Ctx:
    ts = TokenStream.of(text)
    g = parse_ctx_tokens(ts, parse_elem)
    ts.expect_eof()
    return g


def parse_ctx_tokens(ts: TokenStream, parse_elem: Callable[[TokenStream], Any]) -> Ctx:
    # `++` is right-associative and `::` binds tighter.  The operands of
    # the `++` chain being read and the heads of its `::` chain are kept
    # in lists, and those of each enclosing "(" on a stack, so long chains
    # and deep nesting need no recursion.
    enclosing = []  # (operands, heads) of each open "("
    operands, heads = [], []
    while True:
        while not (ts.at_ident("nil") or ts.at_sym("(") or ts.at_sym("[")):
            heads.append(parse_elem(ts))
            ts.eat_sym("::")
        if ts.at_sym("("):
            ts.next()
            enclosing.append((operands, heads))
            operands, heads = [], []
            continue
        g = _parse_list_tail(ts, parse_elem)
        # Close the `::` chain that g ends, and each `++` chain that ends with it.
        while True:
            for head in reversed(heads):
                g = Cons(head, g)
            operands.append(g)
            if ts.at_sym("++"):
                break
            g = operands.pop()
            for left in reversed(operands):
                g = Union(left, g)
            if not enclosing:
                return g
            ts.eat_sym(")")
            operands, heads = enclosing.pop()
        ts.next()
        heads = []


def _parse_list_tail(ts: TokenStream, parse_elem: Callable[[TokenStream], Any]) -> Ctx:
    # `nil` or `[a, b, c]`.
    if ts.at_ident("nil"):
        ts.next()
        return EMPTY
    ts.next()
    items = []
    if not ts.at_sym("]"):
        items.append(parse_elem(ts))
        while ts.at_sym(","):
            ts.next()
            items.append(parse_elem(ts))
    ts.eat_sym("]")
    return from_list(items)


def print_ctx(g: Ctx, print_elem: Callable[[Any], str] = str) -> str:
    # A list prints as `[a, b]`, a cons chain over a union as `a :: (..)`,
    # and a union's left operand is parenthesized when it is a union.  The
    # stack holds the nodes and the literal text still to print, last
    # first, so deep contexts need no recursion.
    out = []
    pending: list = [g]
    while pending:
        g = pending.pop()
        if isinstance(g, str):
            out.append(g)
            continue
        heads = []
        while isinstance(g, Cons):
            heads.append(print_elem(g.head))
            g = g.tail
        if isinstance(g, Empty):
            out.append("[" + ", ".join(heads) + "]" if heads else "nil")
        elif heads:
            out.append(" :: ".join(heads) + " :: (")
            pending += (")", g)
        else:
            pending += (g.right, " ++ ")
            pending += (")", g.left, "(") if isinstance(g.left, Union) else (g.left,)
    return "".join(out)
