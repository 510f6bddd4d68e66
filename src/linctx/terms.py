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

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union as TyUnion

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
    avoid = set(avoid)
    k = 0
    while True:
        candidate = Name("n", k)
        if candidate not in avoid:
            return candidate
        k += 1


@node_dataclass
class Base(Interned):
    label: str


@node_dataclass
class Arrow(Interned):
    dom: "Ty"
    cod: "Ty"


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


def locally_closed(t: Tm, depth: int = 0) -> bool:
    """Whether every bound index is under at least that many binders."""
    if isinstance(t, Bound):
        return t.index < depth
    if isinstance(t, App):
        return locally_closed(t.fn, depth) and locally_closed(t.arg, depth)
    if isinstance(t, Abs):
        return locally_closed(t.body, depth + 1)
    if isinstance(t, Let):
        return locally_closed(t.val, depth) and locally_closed(t.body, depth + 1)
    return True


# open_term's results, keyed on (body, name); it lives as long as the
# intern tables, whose nodes it holds anyway.
_OPENED: dict = {}


def open_term(body: Tm, n: Name) -> Tm:
    """Replace the binder's variable (index 0 at the outside) with a free name.

    The body must be locally closed at depth 1.
    """
    key = (body, n)
    opened = _OPENED.get(key)
    if opened is None:
        opened = _OPENED[key] = _open(body, n)
    return opened


def _open(body: Tm, n: Name) -> Tm:
    def go(t: Tm, depth: int) -> Tm:
        if isinstance(t, Bound):
            if t.index == depth:
                return Free(n)
            if t.index > depth:
                raise MalformedTermError(f"unbound index {t.index} at depth {depth}")
            return t
        if isinstance(t, App):
            return App(go(t.fn, depth), go(t.arg, depth))
        if isinstance(t, Abs):
            return Abs(t.ann, go(t.body, depth + 1))
        if isinstance(t, Let):
            return Let(t.ann, go(t.val, depth), go(t.body, depth + 1))
        return t

    return go(body, 0)


def close_term(t: Tm, n: Name) -> Tm:
    """Abstract a free name back into a binder body (inverse of open_term)."""

    def go(t: Tm, depth: int) -> Tm:
        if isinstance(t, Free):
            return Bound(depth) if t.name == n else t
        if isinstance(t, Bound):
            return t
        if isinstance(t, App):
            return App(go(t.fn, depth), go(t.arg, depth))
        if isinstance(t, Abs):
            return Abs(t.ann, go(t.body, depth + 1))
        if isinstance(t, Let):
            return Let(t.ann, go(t.val, depth), go(t.body, depth + 1))
        return t

    return go(t, 0)


def free_names(t: Tm) -> frozenset:
    """The set of names occurring free in a term."""
    if isinstance(t, Free):
        return frozenset((t.name,))
    if isinstance(t, App):
        return free_names(t.fn) | free_names(t.arg)
    if isinstance(t, Abs):
        return free_names(t.body)
    if isinstance(t, Let):
        return free_names(t.val) | free_names(t.body)
    return frozenset()


def free_counts(t: Tm) -> Counter:
    """How many times each name occurs free in a term."""
    counts: Counter = Counter()
    pending = [t]
    while pending:
        t = pending.pop()
        if isinstance(t, Free):
            counts[t.name] += 1
        elif isinstance(t, App):
            pending += (t.arg, t.fn)
        elif isinstance(t, Abs):
            pending.append(t.body)
        elif isinstance(t, Let):
            pending += (t.body, t.val)
    return counts


def term_size(t: Tm) -> int:
    """Number of term constructors."""
    if isinstance(t, App):
        return 1 + term_size(t.fn) + term_size(t.arg)
    if isinstance(t, Abs):
        return 1 + term_size(t.body)
    if isinstance(t, Let):
        return 1 + term_size(t.val) + term_size(t.body)
    return 1


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


def print_type(ty: Ty) -> str:
    # An arrow's domain is parenthesized when it is an arrow.  The stack
    # holds the types and the literal text still to print, last first, so
    # deep types need no recursion.
    out = []
    pending: list = [ty]
    while pending:
        ty = pending.pop()
        if isinstance(ty, str):
            out.append(ty)
        elif isinstance(ty, Base):
            out.append(ty.label)
        else:
            pending += (ty.cod, " -> ")
            pending += (")", ty.dom, "(") if isinstance(ty.dom, Arrow) else (ty.dom,)
    return "".join(out)


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
    return _parse_tm(ts, declared, [])


def _parse_tm(ts: TokenStream, declared: dict, binders: list) -> Tm:
    if ts.at_ident("app"):
        ts.next()
        fn = _parse_atm(ts, declared, binders)
        arg = _parse_atm(ts, declared, binders)
        return App(fn, arg)
    if ts.at_ident("abs"):
        ts.next()
        ann = _parse_type_atom(ts)
        body = _parse_binder(ts, declared, binders)
        return Abs(ann, body)
    if ts.at_ident("let"):
        ts.next()
        ann = _parse_type_atom(ts)
        val = _parse_atm(ts, declared, binders)
        body = _parse_binder(ts, declared, binders)
        return Let(ann, val, body)
    return _parse_atm(ts, declared, binders)


def _parse_binder(ts: TokenStream, declared: dict, binders: list) -> Tm:
    ts.eat_sym("(")
    var = ts.eat_ident().text
    ts.eat_sym("\\")
    body = _parse_tm(ts, declared, [var] + binders)
    ts.eat_sym(")")
    return body


def _parse_atm(ts: TokenStream, declared: dict, binders: list) -> Tm:
    if ts.at_sym("("):
        ts.next()
        inner = _parse_tm(ts, declared, binders)
        ts.eat_sym(")")
        return inner
    tok = ts.eat_ident()
    if tok.text in ("app", "abs", "let"):
        raise SyntaxError_(f"keyword {tok.text!r} is not an atomic term", tok.pos)
    if tok.text in binders:
        return Bound(binders.index(tok.text))
    if tok.text in declared:
        return Free(declared[tok.text])
    raise UnboundIdentifierError(f"identifier {tok.text!r} is not bound or declared", tok.pos)


_BINDER_STEMS = ("x", "y", "z", "u", "v", "w")


def print_term(t: Tm) -> str:
    taken = {str(n) for n in free_names(t)}

    def pick_binder(env: list) -> str:
        depth = len(env)
        stem = _BINDER_STEMS[depth % len(_BINDER_STEMS)]
        suffix = depth // len(_BINDER_STEMS)
        candidate = stem if suffix == 0 else f"{stem}{suffix}"
        while candidate in taken or candidate in env:
            suffix += 1
            candidate = f"{stem}{suffix}"
        return candidate

    def go(t: Tm, env: list) -> str:
        if isinstance(t, Free):
            return str(t.name)
        if isinstance(t, Bound):
            return env[t.index]
        if isinstance(t, App):
            return f"app {atom(t.fn, env)} {atom(t.arg, env)}"
        if isinstance(t, Abs):
            var = pick_binder(env)
            return f"abs {_print_type_atom(t.ann)} ({var}\\ {go(t.body, [var] + env)})"
        if isinstance(t, Let):
            var = pick_binder(env)
            return (
                f"let {_print_type_atom(t.ann)} {atom(t.val, env)}"
                f" ({var}\\ {go(t.body, [var] + env)})"
            )
        raise MalformedTermError(f"cannot print {t!r}")

    def atom(t: Tm, env: list) -> str:
        s = go(t, env)
        return s if isinstance(t, (Free, Bound)) else f"({s})"

    return go(t, [])
