"""Object-language syntax: simple types and lambda/let terms.

Terms are locally nameless: bound variables are de Bruijn indices and
free variables are nominal constants (`Name`s).  Descending under a
binder opens the body with a fresh name; the surface syntax uses named
binders and is converted on parsing.

Every node is hash-consed: a constructor call returns the one node with
those fields, so equal nodes are the same object and `==` and `hash` are
identity.  The tables live for the whole process.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Union as TyUnion

from .errors import MalformedTermError, SyntaxError_, UnboundIdentifierError
from .lex import TokenStream


class _InternMeta(type):
    """Metaclass keeping one table per class from constructor arguments to
    the unique node built from them."""

    def __init__(cls, *args):
        super().__init__(*args)
        cls._table = {}

    def __call__(cls, *args):
        node = cls._table.get(args)
        if node is None:
            node = super().__call__(*args)
            # Key on the full field tuple too, so that a defaulted
            # argument (`Name(t)` against `Name(t, 0)`) finds the same node.
            node = cls._table.setdefault(node.__reduce__()[1], node)
            cls._table[args] = node
        return node


class Interned(metaclass=_InternMeta):
    """Base of the hash-consed node classes: the term classes, each one
    declared with `node_dataclass`, and the context classes of `ctx`."""

    __slots__ = ()

    def __reduce__(self):
        # Pickling and copying go back through the constructor, so the
        # copy is the interned node of the receiving process.
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


# The decorator of every `Interned` class.  `eq=False` keeps identity
# equality and hashing; the generated `repr` is the plain dataclass one.
node_dataclass = dataclass(frozen=True, eq=False, slots=True)


@node_dataclass
class Name(Interned):
    """A nominal constant: an atomic fresh name standing for a free variable."""

    text: str
    index: int = 0

    def __str__(self) -> str:
        return self.text if self.index == 0 else f"{self.text}{self.index}"


def fresh(avoid: Iterable[Name]) -> Name:
    """First name of the canonical chain (n, n1, n2, ...) not in avoid.

    Deterministic in its arguments; the result is never a member of avoid.
    """
    if not isinstance(avoid, (set, frozenset)):
        avoid = set(avoid)
    k = 0
    while True:
        candidate = Name("n", k)
        if candidate not in avoid:
            return candidate
        k += 1


@node_dataclass
class Local(Interned):
    """The name, in place of a `Name`, of the binder that a typing reading
    or the translation opens below `depth` enclosing binders."""

    depth: int

    def __str__(self) -> str:
        return f"#{self.depth}"


# Why `Local(d)` is fresh for the binder it names.  No parser, name pool or
# `fresh` makes a Local, so the input of a reading holds none.  A reading
# opens the binder at depth d with `Local(d)` and reads its body at depth
# d + 1, and the Local does not outlive the body: the leftover checker
# rejects a leftover that still holds it.
# So every Local inside a (context, term) pair reached at depth d has a
# depth below d.  Typing is equivariant, so a pair's result does not depend
# on the depth it is reached at, and `_linear_types`' cache stays keyed on
# (g, e).  The translation readings open a source binder and its target
# image with the same Local: source names meet only source names, and
# target names only target names, so the Local is fresh on each side.
@node_dataclass
class Base(Interned):
    label: str

    def __str__(self) -> str:
        return print_type(self)


@node_dataclass
class Arrow(Interned):
    dom: "Ty"
    cod: "Ty"

    def __str__(self) -> str:
        return print_type(self)


Ty = TyUnion[Base, Arrow]


@node_dataclass
class Free(Interned):
    name: Name


@node_dataclass
class Bound(Interned):
    index: int


@node_dataclass
class App(Interned):
    fn: "Tm"
    arg: "Tm"


@node_dataclass
class Abs(Interned):
    ann: Ty
    body: "Tm"


@node_dataclass
class Let(Interned):
    ann: Ty
    val: "Tm"
    body: "Tm"


Tm = TyUnion[Free, Bound, App, Abs, Let]

# The empty result of every name-set and type-set function.  CPython builds a
# new empty frozenset on each call, and memo tables keep many empty results.
EMPTY_SET: frozenset = frozenset()


def closed_free_names(t: Tm) -> frozenset | None:
    """The free names of t, or None when a bound index escapes its binders.
    One walk, from an explicit stack."""
    # Its own loop, not `_nodes`: it runs once per equivalence pair, where a generator is slower.
    names = set()
    pending = [(t, 0)]
    while pending:
        t, depth = pending.pop()
        if isinstance(t, Free):
            names.add(t.name)
        elif isinstance(t, Bound):
            if t.index >= depth:
                return None
        elif isinstance(t, App):
            pending += ((t.arg, depth), (t.fn, depth))
        elif isinstance(t, Abs):
            pending.append((t.body, depth + 1))
        elif isinstance(t, Let):
            pending += ((t.body, depth + 1), (t.val, depth))
    return frozenset(names) if names else EMPTY_SET


def _nodes(t: Tm) -> Iterator:
    """Each node of a term, parents first, left to right, from an explicit stack."""
    pending = [t]
    while pending:
        t = pending.pop()
        yield t
        if isinstance(t, App):
            pending += (t.arg, t.fn)
        elif isinstance(t, Abs):
            pending.append(t.body)
        elif isinstance(t, Let):
            pending += (t.body, t.val)


def _rebuild(t: Tm, leaf: Callable) -> Tm:
    """t with each leaf replaced by `leaf(node, depth)`, depth counting the
    binders above it.  The leaves are visited left to right, from an
    explicit stack that holds each inner node again, with depth None,
    under its children."""
    done: list = []
    pending: list = [(t, 0)]
    while pending:
        t, depth = pending.pop()
        if depth is None:  # t's rebuilt children are the last results
            k = 1 if isinstance(t, Abs) else 2
            kids = done[-k:]
            del done[-k:]
            done.append(App(*kids) if isinstance(t, App) else type(t)(t.ann, *kids))
        elif isinstance(t, App):
            pending += ((t, None), (t.arg, depth), (t.fn, depth))
        elif isinstance(t, Abs):
            pending += ((t, None), (t.body, depth + 1))
        elif isinstance(t, Let):
            pending += ((t, None), (t.body, depth + 1), (t.val, depth))
        else:
            done.append(leaf(t, depth))
    return done[0]


# Kept for the life of the process, like the intern tables whose nodes it
# holds: the result reads body and n alone, so a kept one is the one a
# fresh call would build.  A malformed body raises, and is not kept.
@cache
def open_term(body: Tm, n: Name) -> Tm:
    """Replace the binder's variable (index 0 at the outside) with a free name.

    The body must be locally closed at depth 1.
    """

    def leaf(t: Tm, depth: int) -> Tm:
        if not isinstance(t, Bound) or t.index < depth:
            return t
        if t.index > depth:
            raise MalformedTermError(f"unbound index {t.index} at depth {depth}")
        return Free(n)

    return _rebuild(body, leaf)


def close_term(t: Tm, n: Name) -> Tm:
    """Abstract a free name back into a binder body (inverse of open_term)."""
    free = Free(n)
    return _rebuild(t, lambda u, depth: Bound(depth) if u is free else u)


def free_names(t: Tm) -> frozenset:
    """The set of names occurring free in a term."""
    return frozenset(u.name for u in _nodes(t) if isinstance(u, Free)) or EMPTY_SET


def free_counts(t: Tm) -> Counter:
    """How many times each name occurs free in a term."""
    return Counter(u.name for u in _nodes(t) if isinstance(u, Free))


def term_size(t: Tm) -> int:
    """Number of term constructors."""
    return sum(1 for _ in _nodes(t))


def type_universe(base_labels: Iterable[str] = ("i", "o"), depth: int = 2) -> list:
    """All types over the given base labels with arrow nesting below depth.

    Depth 1 is the bases alone; each further level adds arrows between
    everything built so far.  Deterministic order.
    """
    levels = [Base(label) for label in base_labels]
    current = list(levels)
    for _ in range(depth - 1):
        current = current + [Arrow(d, c) for d in current for c in current]
        seen = dict.fromkeys(current)
        current = list(seen)
    return current


# The types the typing suites and the schematic engine's generators draw
# from: the bases i and o and the arrows between them.
TYPE_UNIVERSE = tuple(type_universe())


def name_pool(count: int, stem: str = "c") -> list:
    """Distinct names for generators, deterministic in their arguments."""
    return [Name(stem, k) for k in range(1, count + 1)]


# ---------------------------------------------------------------------------
# Surface syntax.
#
#   ty  ::= IDENT | ty "->" ty | "(" ty ")"          (-> right-associative)
#   tm  ::= "app" atm atm
#         | "abs" aty "(" IDENT "\" tm ")"
#         | "let" aty atm "(" IDENT "\" tm ")"
#         | atm
#   atm ::= IDENT | "(" tm ")"
#   aty ::= IDENT | "(" ty ")"
#
# Identifiers in term position refer to the innermost enclosing binder of
# that name, or else must be declared nominal constants.
# ---------------------------------------------------------------------------


def parse_type(text: str) -> Ty:
    ts = TokenStream.of(text)
    ty = parse_type_tokens(ts)
    ts.expect_eof()
    return ty


def parse_type_tokens(ts: TokenStream) -> Ty:
    # `->` is right-associative.  The domains of the arrow chain being
    # read are kept in a list, and those of each enclosing "(" on a stack,
    # so long chains and deep nesting need no recursion.
    enclosing = []  # the domains of each open "("
    doms = []
    while True:
        if ts.at_sym("("):
            ts.next()
            enclosing.append(doms)
            doms = []
            continue
        ty = Base(ts.eat_ident().text)
        # Close the arrow chain that ty ends, and each "(" chain that ends with it.
        while not ts.at_sym("->"):
            for dom in reversed(doms):
                ty = Arrow(dom, ty)
            if not enclosing:
                return ty
            ts.eat_sym(")")
            doms = enclosing.pop()
        ts.next()
        doms.append(ty)


def _parse_type_atom(ts: TokenStream) -> Ty:
    if ts.at_sym("("):
        ts.next()
        inner = parse_type_tokens(ts)
        ts.eat_sym(")")
        return inner
    return Base(ts.eat_ident().text)


def emit(root, parts: Callable) -> str:
    """The text of `root`.  A string piece is output text; any other piece
    is an item that `parts(item)` expands into its own pieces, in order.
    The pieces wait on one explicit stack, so deep items need no recursion."""
    out = []
    pending = [root]
    while pending:
        piece = pending.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            pending += reversed(parts(piece))
    return "".join(out)


def print_type(ty: Ty) -> str:
    return emit(ty, _type_parts)


def _type_parts(ty: Ty) -> tuple:
    # An arrow's domain is parenthesized when it is an arrow.
    if isinstance(ty, Base):
        return (ty.label,)
    if isinstance(ty.dom, Arrow):
        return ("(", ty.dom, ") -> ", ty.cod)
    return (ty.dom, " -> ", ty.cod)


def _print_type_atom(ty: Ty) -> str:
    return ty.label if isinstance(ty, Base) else f"({print_type(ty)})"


def parse_term(text: str, nominals: Iterable = ()) -> Tm:
    """Parse the named surface syntax into a locally nameless term.

    `nominals` declares the identifiers that may occur free; anything
    else unbound raises UnboundIdentifierError.
    """
    declared = {}
    for n in nominals:
        name = n if isinstance(n, Name) else Name(n)
        declared[str(name)] = name
    ts = TokenStream.of(text)
    t = parse_term_tokens(ts, declared)
    ts.expect_eof()
    return t


def parse_term_tokens(ts: TokenStream, declared: dict) -> Tm:
    # The grammar above, read from an explicit stack, so deep nesting needs
    # no recursion.  Each frame waits for the term being read: ")" for a
    # parenthesis, "app" for the function and "arg" for the argument of an
    # application, "let" for a let's value, and "abs" or "body" for a
    # binder's body.  Tokens are taken, and errors raised, in the order of
    # a recursive descent.
    binders: list = []  # the enclosing binders' names, innermost last
    waiting: list = []
    atomic = False  # whether the term being read is an atm
    while True:
        if ts.at_sym("("):
            ts.next()
            waiting.append((")",))
            atomic = False
            continue
        if not atomic and ts.at_ident("app"):
            ts.next()
            waiting.append(("app",))
            atomic = True
            continue
        if not atomic and ts.at_ident("abs"):
            ts.next()
            ann = _parse_type_atom(ts)
            _open_binder(ts, binders)
            waiting.append(("abs", ann))
            continue
        if not atomic and ts.at_ident("let"):
            ts.next()
            waiting.append(("let", _parse_type_atom(ts)))
            atomic = True
            continue
        t = _variable(ts.eat_ident(), declared, binders)
        # Hand t to the frames it completes, up to one that reads on.
        while waiting:
            frame = waiting.pop()
            if frame[0] == ")":
                ts.eat_sym(")")
            elif frame[0] == "app":
                waiting.append(("arg", t))
                atomic = True
                break
            elif frame[0] == "arg":
                t = App(frame[1], t)
            elif frame[0] == "let":
                _open_binder(ts, binders)
                waiting.append(("body", frame[1], t))
                atomic = False
                break
            else:  # "abs" or "body": t is the binder's body
                ts.eat_sym(")")
                binders.pop()
                t = Abs(frame[1], t) if frame[0] == "abs" else Let(frame[1], frame[2], t)
        else:
            return t


def _open_binder(ts: TokenStream, binders: list) -> None:
    """Read the parenthesis, name and backslash that open a binder's scope."""
    ts.eat_sym("(")
    binders.append(ts.eat_ident().text)
    ts.eat_sym("\\")


def _variable(tok, declared: dict, binders: list) -> Tm:
    """The term an identifier in atomic position stands for."""
    if tok.text in ("app", "abs", "let"):
        raise SyntaxError_(f"keyword {tok.text!r} is not an atomic term", tok.pos)
    for depth in range(len(binders) - 1, -1, -1):
        if binders[depth] == tok.text:
            return Bound(len(binders) - 1 - depth)
    if tok.text in declared:
        return Free(declared[tok.text])
    raise UnboundIdentifierError(f"identifier {tok.text!r} is not bound or declared", tok.pos)


_BINDER_STEMS = ("x", "y", "z", "u", "v", "w")


def _binder_names(t: Tm) -> Iterator[str]:
    """The names `print_term(t)` gives the binders at depth 0, 1, 2, ...  A
    binder's name depends on its depth alone: its stem is picked by the
    depth, with the first suffix that avoids the free names and the
    binders above it."""
    taken = {str(n) for n in free_names(t)}
    for depth in itertools.count():
        stem = _BINDER_STEMS[depth % len(_BINDER_STEMS)]
        suffix = depth // len(_BINDER_STEMS)
        candidate = stem if suffix == 0 else f"{stem}{suffix}"
        while candidate in taken:
            suffix += 1
            candidate = f"{stem}{suffix}"
        taken.add(candidate)
        yield candidate


def binder_name(t: Tm, depth: int) -> str:
    """The name `print_term(t)` gives t's binders at the depth."""
    return next(itertools.islice(_binder_names(t), depth, None))


def print_term(t: Tm) -> str:
    # The items are (term, depth) pairs, depth counting the binders above.
    names = _binder_names(t)
    binders: list = []  # the binder name at each depth, outermost first

    def atom(t: Tm, depth: int) -> tuple:
        # A term in argument position is parenthesized unless it is a variable.
        return ((t, depth),) if isinstance(t, (Free, Bound)) else ("(", (t, depth), ")")

    def scope(body: Tm, depth: int) -> tuple:
        if depth == len(binders):
            binders.append(next(names))
        return (f" ({binders[depth]}\\ ", (body, depth + 1), ")")

    def parts(item: tuple) -> tuple:
        t, depth = item
        if isinstance(t, Free):
            return (str(t.name),)
        if isinstance(t, Bound):
            if not 0 <= t.index < depth:
                raise MalformedTermError(f"unbound index {t.index} at depth {depth}")
            return (binders[depth - 1 - t.index],)
        if isinstance(t, App):
            return ("app ", *atom(t.fn, depth), " ", *atom(t.arg, depth))
        if isinstance(t, Abs):
            return (f"abs {_print_type_atom(t.ann)}", *scope(t.body, depth))
        if isinstance(t, Let):
            return (f"let {_print_type_atom(t.ann)} ", *atom(t.val, depth), *scope(t.body, depth))
        raise MalformedTermError(f"cannot print {t!r}")

    return emit((t, 0), parts)
