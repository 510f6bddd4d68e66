"""Schematic context specifications.

A `Context` command describes one or several coordinated binding
contexts by clauses: each clause gives one element pattern per context,
a set of nabla-bound variables that must be instantiated by distinct
fresh names, and a decidable side formula.  From a parsed command the
engine elaborates two predicates (a list form following the clauses
positionally, and a multiset form that holds when some tuple of list
permutations satisfies the list form), generates and checks the
per-index distributivity lemmas, and lifts member-based lemmas from the
list form to the multiset form by transporting memberships through the
permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache, partial
from operator import attrgetter
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Optional, Sequence

from .ctx import (
    Cons,
    Ctx,
    EMPTY,
    Union,
    elems,
    from_list,
    is_list,
    member,
    mem_transport,
    multiset,
    multiset_of,
    perm,
    perm_to_part_mask,
    print_ctx,
    splits,
)
from .errors import PreconditionError, ShapeError, SyntaxError_
from .lex import Token, TokenStream
from .report import GenBounds, counted
from .terms import EMPTY_SET, TYPE_UNIVERSE, Arrow, Base, Interned, Name, emit, fresh, name_pool, node_dataclass
from .typecheck import TyAssoc, VarAssoc


# ---------------------------------------------------------------------------
# Element terms: first-order constructor applications over names and types.
# ---------------------------------------------------------------------------

# Each constructor of element terms: its node class, the sorts of its
# arguments and the sort of its result.  A bare lowercase constant is a
# base type and has no entry.  Patterns are built from the same node
# classes, with `NablaVar` and `MetaVar` leaves.
_SIGNATURE = {
    "ty_of": (TyAssoc, ("name", "ty"), "ty_assoc"),
    "trans_to": (VarAssoc, ("name", "name"), "var_assoc"),
    "arrow": (Arrow, ("ty", "ty"), "ty"),
}

# The same table keyed by node class: constructor, argument getter,
# argument sorts, result sort.  Every constructor takes two or more
# arguments, so that the getter gives a tuple.
_BY_CLASS = {
    cls: (ctor, attrgetter(*cls.__match_args__), arg_sorts, result)
    for ctor, (cls, arg_sorts, result) in _SIGNATURE.items()
}


def _subterms(value: Any, sort: Optional[str] = None) -> Iterator:
    """(node, sort of its position) for each node of a value or pattern,
    parents first and left to right, from an explicit stack; `sort` is
    the whole term's, and each argument's is read from `_BY_CLASS`."""
    pending = [(value, sort)]
    while pending:
        value, sort = pending.pop()
        yield value, sort
        view = _BY_CLASS.get(type(value))
        if view is not None:
            pending += reversed(tuple(zip(view[1](value), view[2])))


def decompose(value: Any) -> Optional[tuple]:
    """View a value or pattern as a constructor applied to arguments, if it is one."""
    view = _BY_CLASS.get(type(value))
    if view is not None:
        return view[0], view[1](value)
    return (value.label, ()) if isinstance(value, Base) else None


# Kept for the life of the process, like the intern tables that hold the
# values: the names are read from the value alone.
@cache
def value_names(value: Any) -> frozenset:
    """All names occurring anywhere inside a value."""
    # An empty frozenset is a new object; keep the shared one instead.
    return frozenset(v for v, _ in _subterms(value) if isinstance(v, Name)) or EMPTY_SET


# ---------------------------------------------------------------------------
# Patterns and side formulas.
# ---------------------------------------------------------------------------


@node_dataclass
class NablaVar(Interned):
    name: str


@node_dataclass
class MetaVar(Interned):
    name: str


PatTerm = Any  # NablaVar | MetaVar | a `_SIGNATURE` node or `Base` over patterns


def match_pattern(pat: PatTerm, value: Any, binding: dict) -> Optional[dict]:
    """Extend a binding so that the instantiated pattern equals the value."""
    # Its own walk, not `_subterms`: it runs once per clause binding.
    if isinstance(pat, (NablaVar, MetaVar)):
        if pat in binding:
            return binding if binding[pat] == value else None
        if isinstance(pat, NablaVar) and not isinstance(value, Name):
            return None
        extended = dict(binding)
        extended[pat] = value
        return extended
    view = _BY_CLASS.get(type(pat))
    if view is None or type(value) is not type(pat):
        return binding if pat is value else None  # a base type matches itself
    for sub_pat, sub_val in zip(view[1](pat), view[1](value)):
        binding = match_pattern(sub_pat, sub_val, binding)
        if binding is None:
            return None
    return binding


def instantiate(pat: PatTerm, binding: dict) -> Any:
    # Its own walk, not `_subterms`: it runs once per clause binding.
    if isinstance(pat, (NablaVar, MetaVar)):
        if pat not in binding:
            raise ShapeError(f"unbound variable {pat.name!r}")
        return binding[pat]
    view = _BY_CLASS.get(type(pat))
    if view is None:
        return pat  # a base type
    return type(pat)(*(instantiate(a, binding) for a in view[1](pat)))


def pattern_vars(pat: PatTerm) -> frozenset:
    return frozenset(p.name for p, _ in _subterms(pat) if isinstance(p, (NablaVar, MetaVar)))


def render_pattern(pat: PatTerm) -> str:
    return emit(pat, _pattern_parts)


def _pattern_parts(pat: PatTerm) -> list:
    if isinstance(pat, (NablaVar, MetaVar)):
        return [pat.name]
    ctor, args = decompose(pat)
    pieces = [ctor]
    for arg in args:  # a compound argument is parenthesised
        pieces += (" (", arg, ")") if type(arg) in _BY_CLASS else (" ", arg)
    return pieces


def _render_pattern_atom(pat: PatTerm) -> str:
    """A pattern in argument position: a compound one is parenthesised."""
    rendered = render_pattern(pat)
    return f"({rendered})" if type(pat) in _BY_CLASS else rendered


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FIsName:
    term: PatTerm


@dataclass(frozen=True)
class FEq:
    lhs: PatTerm
    rhs: PatTerm


@dataclass(frozen=True)
class FMember:  # the lemma atom `member TERM L`
    term: PatTerm
    index: int  # the position of L among the lemma's context variables


@dataclass(frozen=True)
class FAnd:
    left: "SideFormula"
    right: "SideFormula"


@dataclass(frozen=True)
class FOr:
    left: "SideFormula"
    right: "SideFormula"


SideFormula = Any


def eval_formula(f: SideFormula, binding: dict) -> bool:
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FIsName):
        return isinstance(instantiate(f.term, binding), Name)
    if isinstance(f, FEq):
        return instantiate(f.lhs, binding) == instantiate(f.rhs, binding)
    if isinstance(f, FAnd):
        return eval_formula(f.left, binding) and eval_formula(f.right, binding)
    if isinstance(f, FOr):
        return eval_formula(f.left, binding) or eval_formula(f.right, binding)
    raise ShapeError(f"unknown formula {f!r}")


def formula_vars(f: SideFormula) -> frozenset:
    if isinstance(f, FTrue):
        return frozenset()
    if isinstance(f, (FIsName, FMember)):
        return pattern_vars(f.term)
    if isinstance(f, FEq):
        return pattern_vars(f.lhs) | pattern_vars(f.rhs)
    if isinstance(f, (FAnd, FOr)):
        return formula_vars(f.left) | formula_vars(f.right)
    raise ShapeError(f"unknown formula {f!r}")


# ---------------------------------------------------------------------------
# Context specifications.
# ---------------------------------------------------------------------------


# Interned, so that a tuple of clauses, a key at every list position, hashes by identity.
@node_dataclass
class Clause(Interned):
    nabla_vars: tuple
    patterns: tuple
    formula: SideFormula


@dataclass(frozen=True)
class ContextSpec:
    name: str
    arity: int
    clauses: tuple
    warnings: tuple = ()

    @property
    def list_name(self) -> str:
        return f"{self.name}_list"


def _patterns_may_overlap(p: PatTerm, q: PatTerm) -> bool:
    if isinstance(p, (NablaVar, MetaVar)) or isinstance(q, (NablaVar, MetaVar)):
        return True
    (p_ctor, p_args), (q_ctor, q_args) = decompose(p), decompose(q)
    return p_ctor == q_ctor and all(map(_patterns_may_overlap, p_args, q_args))


def _validate_spec(name: str, clauses: Sequence[Clause]) -> ContextSpec:
    if not clauses:
        raise ShapeError("a context specification needs at least one clause")
    arity = len(clauses[0].patterns)
    if arity < 1:
        raise ShapeError("a clause needs at least one element pattern")
    for clause in clauses:
        if len(clause.patterns) != arity:
            raise ShapeError(
                f"arity mismatch: clause has {len(clause.patterns)} patterns, expected {arity}"
            )
        if len(set(clause.nabla_vars)) != len(clause.nabla_vars):
            raise ShapeError("nabla variables must be distinct within a clause")
        in_patterns = frozenset()
        for p in clause.patterns:
            in_patterns |= pattern_vars(p)
        for v in clause.nabla_vars:
            if v not in in_patterns:
                raise ShapeError(f"nabla variable {v!r} occurs in no pattern")
        clause_vars = in_patterns | set(clause.nabla_vars)
        loose = formula_vars(clause.formula) - clause_vars
        if loose:
            raise ShapeError(f"unbound variable(s) in formula: {sorted(loose)}")
    warnings = []
    for i, c1 in enumerate(clauses):
        for c2 in clauses[i + 1 :]:
            if all(_patterns_may_overlap(p, q) for p, q in zip(c1.patterns, c2.patterns)):
                warnings.append(
                    f"clauses of {name!r} may overlap; uniqueness-style lemmas can fail"
                )
    return ContextSpec(name, arity, tuple(clauses), tuple(dict.fromkeys(warnings)))


# ---------------------------------------------------------------------------
# Parsing the command syntax:
#
#   Context NAME with elems as
#       nabla v1 ... vk (TERM _|_ ... _|_ TERM -| FORMULA) \/ ... .
#
# The nabla prefix is omitted for zero variables, the formula when true.
# ---------------------------------------------------------------------------


Classifier = Callable[[Token], PatTerm]  # a bare identifier as a variable or constant


def _classify_ident(tok: Token, nabla_vars: Sequence[str]) -> PatTerm:
    if tok.text in nabla_vars:
        return NablaVar(tok.text)
    if tok.text[0].isupper():
        return MetaVar(tok.text)
    return Base(tok.text)


def _parse_pattern_atom(ts: TokenStream, classify: Classifier) -> PatTerm:
    if ts.at_sym("("):
        ts.next()
        inner = _parse_pattern(ts, classify)
        ts.eat_sym(")")
        return inner
    tok = ts.eat_ident()
    pat = classify(tok)
    if isinstance(pat, Base) and tok.text in _SIGNATURE:
        arity = len(_SIGNATURE[tok.text][1])
        raise SyntaxError_(f"constructor {tok.text!r} takes {arity} arguments", tok.pos)
    return pat


def _parse_pattern(ts: TokenStream, classify: Classifier) -> PatTerm:
    head = ts.eat_ident()
    if head.text in _SIGNATURE:
        cls, arg_sorts, _ = _SIGNATURE[head.text]
        args = []
        for _ in arg_sorts:
            if not (ts.at_ident() or ts.at_sym("(")):
                arity = len(arg_sorts)
                raise SyntaxError_(f"constructor {head.text!r} takes {arity} arguments", head.pos)
            args.append(_parse_pattern_atom(ts, classify))
        return cls(*args)
    if ts.at_ident() or ts.at_sym("("):
        raise SyntaxError_(f"unknown constructor {head.text!r}", head.pos)
    return classify(head)


def _parse_formula(ts: TokenStream, classify: Classifier) -> SideFormula:
    left = _parse_formula_conj(ts, classify)
    while ts.at_sym("\\/"):
        ts.next()
        left = FOr(left, _parse_formula_conj(ts, classify))
    return left


def _parse_formula_conj(ts: TokenStream, classify: Classifier) -> SideFormula:
    left = _parse_formula_atom(ts, classify)
    while ts.at_sym("/\\"):
        ts.next()
        left = FAnd(left, _parse_formula_atom(ts, classify))
    return left


def _parse_formula_atom(ts: TokenStream, classify: Classifier) -> SideFormula:
    if ts.at_sym("("):
        ts.next()
        inner = _parse_formula(ts, classify)
        ts.eat_sym(")")
        return inner
    if ts.at_ident("true"):
        ts.next()
        return FTrue()
    if ts.at_ident("name"):
        ts.next()
        return FIsName(_parse_pattern_atom(ts, classify))
    lhs = _parse_pattern(ts, classify)
    ts.eat_sym("=")
    rhs = _parse_pattern(ts, classify)
    return FEq(lhs, rhs)


def _parse_clause(ts: TokenStream) -> Clause:
    nabla_vars: list = []
    if ts.at_ident("nabla"):
        ts.next()
        while ts.at_ident():
            nabla_vars.append(ts.eat_ident().text)
        if not nabla_vars:
            raise SyntaxError_("nabla requires at least one variable", ts.peek().pos)
    classify = partial(_classify_ident, nabla_vars=nabla_vars)
    ts.eat_sym("(")
    patterns = [_parse_pattern(ts, classify)]
    while ts.at_sym("_|_"):
        ts.next()
        patterns.append(_parse_pattern(ts, classify))
    formula: SideFormula = FTrue()
    if ts.at_sym("-|"):
        ts.next()
        formula = _parse_formula(ts, classify)
    ts.eat_sym(")")
    return Clause(tuple(nabla_vars), tuple(patterns), formula)


def parse_spec_tokens(ts: TokenStream) -> ContextSpec:
    ts.eat_ident("Context")
    name = ts.eat_ident().text
    ts.eat_ident("with")
    ts.eat_ident("elems")
    ts.eat_ident("as")
    clauses = [_parse_clause(ts)]
    while ts.at_sym("\\/"):
        ts.next()
        clauses.append(_parse_clause(ts))
    ts.eat_sym(".")
    return _validate_spec(name, clauses)


def parse_spec(text: str) -> ContextSpec:
    ts = TokenStream.of(text)
    spec = parse_spec_tokens(ts)
    ts.expect_eof()
    return spec


def parse_spec_file(text: str) -> list:
    """The file's `Context` commands; each defines a predicate NAME and its
    list form NAME_list, and no predicate may be defined twice."""
    ts = TokenStream.of(text)
    specs = []
    defined: set = set()
    while ts.at_ident("Context"):
        spec = parse_spec_tokens(ts)
        for pred in (spec.name, spec.list_name):
            if pred in defined:
                raise ShapeError(f"predicate {pred!r} is defined twice")
            defined.add(pred)
        specs.append(spec)
    ts.expect_eof()
    return specs


# ---------------------------------------------------------------------------
# The elaborated predicates.
# ---------------------------------------------------------------------------


def _clause_instance_ok(clause: Clause, binding: dict, enforce_freshness: bool) -> Optional[tuple]:
    """The nabla values of a head match, or None when the formula fails or,
    with freshness, they are not distinct names outside the metavariable
    substitution.  The caller tests that no nabla value names a later entry."""
    nabla_vals = tuple(binding[NablaVar(v)] for v in clause.nabla_vars)
    if enforce_freshness and (
        len(set(nabla_vals)) != len(nabla_vals)
        or any(
            isinstance(key, MetaVar) and not value_names(val).isdisjoint(nabla_vals)
            for key, val in binding.items()
        )
    ):
        return None
    return nabla_vals if eval_formula(clause.formula, binding) else None


# Kept for the life of the process: the answer reads only the clauses,
# the heads and the flag.  Matching compares the interned heads by `==`.
# `_validate_spec` binds every formula variable in the patterns, so the
# formula, evaluated before the later-names test, cannot raise, and both
# are pure tests of one conjunction, so their order changes no outcome.
@cache
def _head_accepts(clauses: tuple, heads: tuple, enforce: bool) -> tuple:
    """The nabla values of each clause that accepts the heads, in clause
    order, before the later-names test."""
    accepts = []
    for clause in clauses:
        binding: Optional[dict] = {}
        for pat, entry in zip(clause.patterns, heads):
            binding = match_pattern(pat, entry, binding)
            if binding is None:
                break
        if binding is not None:
            accepts.append(_clause_instance_ok(clause, binding, enforce))
    return tuple(v for v in accepts if v is not None)


def _heads_ok(spec: ContextSpec, heads: tuple, tail_names: AbstractSet, enforce: bool) -> bool:
    """Whether some clause accepts the entries at one list position,
    given the names occurring in every later entry."""
    accepts = _head_accepts(spec.clauses, heads, enforce)
    return any(tail_names.isdisjoint(v) for v in accepts) if enforce else bool(accepts)


def check_list_pred(spec: ContextSpec, contexts: Sequence[Ctx], enforce_freshness: bool = True) -> bool:
    """The list-form predicate, read directly off the generated clauses.

    All contexts empty, or some clause matches all heads under one
    substitution whose nabla variables are distinct fresh names, the side
    formula holds, and the tails satisfy the predicate recursively.
    Whether the tails hold does not depend on which clause accepted the
    heads, so each position is checked on its own, from the last to the
    first, against the names of every later entry.
    """
    if len(contexts) != spec.arity:
        raise PreconditionError(f"expected {spec.arity} contexts, got {len(contexts)}")
    for l in contexts:
        if not is_list(l):
            raise PreconditionError("list-form predicate requires list contexts")
    seqs = [elems(l) for l in contexts]
    if len({len(s) for s in seqs}) != 1:
        return False
    tail_names: set = set()
    for heads in reversed(list(zip(*seqs))):
        if not _heads_ok(spec, heads, tail_names, enforce_freshness):
            return False
        for entry in heads:
            tail_names |= value_names(entry)
    return True


# One table of alignment answers per (clauses, freshness flag), kept for
# the life of the process like the intern tables that hold the entries.
# The search reads only the clauses, the flag and the entry rows, and its
# answer for a row tuple is the first alignment in a fixed order, so a
# kept answer is the one a fresh search would return.  An answer is stored
# only once its search has returned, so an interrupted one stores none.
_ALIGNED: dict = {}


def align_mset(
    spec: ContextSpec, contexts: Sequence[Ctx], enforce_freshness: bool = True
) -> Optional[tuple]:
    """Witness for the multiset-form predicate.

    Finds coordinated entry sequences, one element from each context per
    clause application, by backtracking over clauses and element choices
    (pivoting on the context with the fewest distinct elements).  Returns
    one entry tuple per context; each is a permutation of its context's
    elements and together they satisfy the list-form predicate.

    The predicate depends only on each context's multiset of entries, so
    the search runs on the entry rows, each context's kept flattening.
    Its answer under each row tuple it reaches is kept in `_ALIGNED`.
    """
    if len(contexts) != spec.arity:
        raise PreconditionError(f"expected {spec.arity} contexts, got {len(contexts)}")
    rows = tuple(elems(g) for g in contexts)
    if len({len(row) for row in rows}) != 1:
        return None
    memo = _ALIGNED.setdefault((spec.clauses, enforce_freshness), {})
    return _align_rows(spec, rows, enforce_freshness, memo)


def _align_rows(spec: ContextSpec, rows: tuple, enforce: bool, memo: dict) -> Optional[tuple]:
    # The rows have equal lengths.  A step removes the first copy of the
    # chosen entry from each row.  The lookup stays in this frame: a
    # wrapper would add a frame per step and lower the depth reached.
    if rows in memo:
        return memo[rows]
    if not rows[0]:
        return rows
    n = len(rows)
    distinct = [tuple(dict.fromkeys(row)) for row in rows]
    pivot = min(range(n), key=lambda i: len(distinct[i]))
    order = [pivot] + [i for i in range(n) if i != pivot]

    for clause in spec.clauses:

        def choose_elems(idx: int, binding: dict, chosen: dict):
            if idx == n:
                yield binding, chosen
                return
            i = order[idx]
            for cand in distinct[i]:
                extended = match_pattern(clause.patterns[i], cand, binding)
                if extended is not None:
                    new_chosen = dict(chosen)
                    new_chosen[i] = cand
                    yield from choose_elems(idx + 1, extended, new_chosen)

        for binding, chosen in choose_elems(0, {}, {}):
            rest = []
            for i, row in enumerate(rows):
                k = row.index(chosen[i])
                rest.append(row[:k] + row[k + 1 :])
            nabla_vals = _clause_instance_ok(clause, binding, enforce)
            if nabla_vals is None or enforce and any(
                not value_names(e).isdisjoint(nabla_vals) for row in rest for e in row
            ):
                continue
            sub = _align_rows(spec, tuple(rest), enforce, memo)
            # With one context a step that holds decides the rows.  It
            # would hold later too, with fewer names after it, so an
            # alignment taking this entry later could move it to the
            # front and leave one of the rest.  If the rest has none,
            # neither do the rows: every entry is a step of every alignment.
            if sub is None and n > 1:
                continue
            found = None if sub is None else tuple((chosen[i],) + sub[i] for i in range(n))
            memo[rows] = found
            return found
    memo[rows] = None
    return None


# ---------------------------------------------------------------------------
# Member-based lemma statements.
#
#   Lemma NAME : forall VAR*, PRED L1 ... Ln -> [member TERM Li ->]*
#       [exists VAR*,] ATOM [/\ ATOM]* .
#
# where ATOM is `member TERM Lj`, `name TERM`, `TERM = TERM`, or `true`.
# Each variable is quantified once, context variables appear in no TERM,
# and an undeclared identifier that starts with an uppercase letter is an
# error rather than a constant.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaStmt:
    name: str
    pred_name: str
    ctx_vars: tuple
    forall_vars: tuple
    hyps: tuple  # FMember atoms
    exist_vars: tuple
    concl: tuple  # FMember, FIsName, FEq and FTrue atoms, in source order


def _classify_lemma_ident(tok: Token, declared: Sequence[str], ctx_vars: Sequence[str]) -> PatTerm:
    if tok.text in ctx_vars:
        raise SyntaxError_(f"context variable {tok.text!r} is used as a term", tok.pos)
    if tok.text in declared:
        return MetaVar(tok.text)
    if tok.text[0].isupper():
        raise SyntaxError_(f"undeclared variable {tok.text!r}", tok.pos)
    return Base(tok.text)


def _eat_binder(ts: TokenStream, bound: list, kind: str) -> None:
    """Append the next identifier to `bound`; a variable is bound once."""
    tok = ts.eat_ident()
    if tok.text in bound:
        raise SyntaxError_(f"{kind} {tok.text!r} is repeated", tok.pos)
    bound.append(tok.text)


def parse_lemma_tokens(ts: TokenStream) -> LemmaStmt:
    ts.eat_ident("Lemma")
    name = ts.eat_ident().text
    ts.eat_sym(":")
    ts.eat_ident("forall")
    forall_vars = []
    while not ts.at_sym(","):
        _eat_binder(ts, forall_vars, "variable")
    ts.eat_sym(",")
    pred_name = ts.eat_ident().text
    ctx_vars = []
    while ts.at_ident():
        _eat_binder(ts, ctx_vars, "context variable")
    if not ctx_vars:
        raise SyntaxError_("predicate application needs context variables", ts.peek().pos)
    declared = list(forall_vars) + [v for v in ctx_vars if v not in forall_vars]
    classify = partial(_classify_lemma_ident, declared=declared, ctx_vars=ctx_vars)

    def atom() -> SideFormula:
        if ts.at_sym("("):  # a parenthesised side formula is no lemma atom
            raise SyntaxError_("expected 'identifier', found '('", ts.peek().pos)
        if not ts.at_ident("member"):
            return _parse_formula_atom(ts, classify)
        ts.next()
        pat = _parse_pattern_atom(ts, classify)
        tok = ts.eat_ident()
        if tok.text not in ctx_vars:
            raise SyntaxError_(f"{tok.text!r} is not a context variable", tok.pos)
        return FMember(pat, ctx_vars.index(tok.text))

    hyps = []
    concl = []
    ts.eat_sym("->")
    while ts.at_ident("member"):
        hyp = atom()
        if not ts.at_sym("->"):
            concl.append(hyp)  # the first atom of the conclusion
            break
        ts.next()
        hyps.append(hyp)

    exist_vars = []
    if not concl:
        if ts.at_ident("exists"):
            ts.next()
            while not ts.at_sym(","):
                _eat_binder(ts, declared, "variable")
                exist_vars.append(declared[-1])
            ts.eat_sym(",")
        concl.append(atom())
    while ts.at_sym("/\\"):
        ts.next()
        concl.append(atom())
    ts.eat_sym(".")
    return LemmaStmt(
        name=name,
        pred_name=pred_name,
        ctx_vars=tuple(ctx_vars),
        forall_vars=tuple(v for v in forall_vars if v not in ctx_vars),
        hyps=tuple(hyps),
        exist_vars=tuple(exist_vars),
        concl=tuple(concl),
    )


def parse_lemma(text: str) -> LemmaStmt:
    ts = TokenStream.of(text)
    stmt = parse_lemma_tokens(ts)
    ts.expect_eof()
    return stmt


def parse_lemma_file(text: str) -> list:
    ts = TokenStream.of(text)
    out = []
    while ts.at_ident("Lemma"):
        out.append(parse_lemma_tokens(ts))
    ts.expect_eof()
    return out


def render_lemma(stmt: LemmaStmt) -> str:
    def render_atom(f: SideFormula) -> str:
        if isinstance(f, FMember):
            return f"member {_render_pattern_atom(f.term)} {stmt.ctx_vars[f.index]}"
        if isinstance(f, FIsName):
            return f"name {_render_pattern_atom(f.term)}"
        if isinstance(f, FEq):
            return f"{render_pattern(f.lhs)} = {render_pattern(f.rhs)}"
        if isinstance(f, FTrue):
            return "true"
        raise ShapeError(f"unknown lemma atom {f!r}")

    quantified = " ".join(stmt.ctx_vars + stmt.forall_vars)
    hyps = [f"{stmt.pred_name} {' '.join(stmt.ctx_vars)}"]
    hyps += [render_atom(f) for f in stmt.hyps]
    conclusion = " /\\ ".join(render_atom(f) for f in stmt.concl)
    if stmt.exist_vars:
        conclusion = f"exists {' '.join(stmt.exist_vars)}, " + conclusion
    return f"Lemma {stmt.name} : forall {quantified}, {' -> '.join(hyps)} -> {conclusion}."


# ---------------------------------------------------------------------------
# Sorts and candidate universes for lemma variables.
# ---------------------------------------------------------------------------


def _index_elem_sort(spec: ContextSpec, idx: int) -> Optional[str]:
    sorts = set()
    for clause in spec.clauses:
        view = _BY_CLASS.get(type(clause.patterns[idx]))
        if view is not None:
            sorts.add(view[3])
    return sorts.pop() if len(sorts) == 1 else None


def _record_sorts(pat: PatTerm, sort: Optional[str], sorts: dict) -> None:
    """Record the sort of each variable from its position in the pattern.

    `sort` is the sort of the whole pattern, None when unknown.  The first
    sort recorded for a variable name wins.
    """
    for p, s in _subterms(pat, sort):
        if isinstance(p, (MetaVar, NablaVar)) and s is not None:
            sorts.setdefault(p.name, s)


def check_lemma_arity(spec: ContextSpec, stmt: LemmaStmt) -> None:
    """Raise ShapeError unless the predicate gets one context per position."""
    if len(stmt.ctx_vars) != spec.arity:
        n = len(stmt.ctx_vars)
        raise ShapeError(f"{stmt.pred_name!r} takes {spec.arity} context(s), got {n}")


def _lemma_var_sorts(spec: ContextSpec, stmt: LemmaStmt) -> dict:
    check_lemma_arity(spec, stmt)
    atoms = stmt.hyps + stmt.concl
    sorts: dict = {}
    for _ in range(2):  # second pass lets equalities propagate sorts
        for f in atoms:
            if isinstance(f, FMember):
                _record_sorts(f.term, _index_elem_sort(spec, f.index), sorts)
        for f in atoms:
            if isinstance(f, FIsName):
                _record_sorts(f.term, "name", sorts)
        for f in atoms:
            if isinstance(f, FEq):
                lhs_sort = _pattern_sort(f.lhs, sorts)
                rhs_sort = _pattern_sort(f.rhs, sorts)
                _record_sorts(f.lhs, rhs_sort, sorts)
                _record_sorts(f.rhs, lhs_sort, sorts)
    return sorts


def _pattern_sort(pat: PatTerm, sorts: dict) -> Optional[str]:
    if isinstance(pat, (MetaVar, NablaVar)):
        return sorts.get(pat.name)
    return _value_sort(pat)  # bare lowercase constants denote base types


def _value_sort(value: Any) -> str:
    if isinstance(value, Name):
        return "name"
    if isinstance(value, Base):
        return "ty"
    view = _BY_CLASS.get(type(value))
    return "elem" if view is None else view[3]


# Kept for the life of the process, like `value_names`: the pairs are read
# from the immutable entry alone.
@cache
def _entry_values(entry: Any) -> tuple:
    """(sort, value) for each node of an entry, in `_subterms` order."""
    return tuple((_value_sort(value), value) for value, _ in _subterms(entry))


def _collect_by_sort(contexts: Sequence[Ctx]) -> dict:
    """Candidate witness values occurring in the given contexts, by sort."""
    found: dict = {}
    for g in contexts:
        for entry in elems(g):
            for sort, value in _entry_values(entry):
                found.setdefault(sort, {}).setdefault(value, None)
    return {sort: list(bucket) for sort, bucket in found.items()}


def _lemma_candidates(sorts: dict, contexts: Sequence[Ctx]) -> Callable:
    """Candidate values of each lemma variable on one context tuple.

    A variable of known sort ranges over the values of that sort in the
    contexts, plus the type universe for types and one name when the
    contexts hold none; a variable of unknown sort over every value.
    """
    pools = _collect_by_sort(contexts)

    @cache  # the witness search asks again for every binding
    def candidates(var: str) -> list:
        sort = sorts.get(var)
        found = list(pools.get(sort, ())) if sort is not None else []
        if sort == "ty":
            for ty in TYPE_UNIVERSE:
                if ty not in found:
                    found.append(ty)
        if sort == "name" and not found:
            found = name_pool(1)
        if sort is None:
            for values in pools.values():
                found.extend(values)
        return found

    return candidates


# ---------------------------------------------------------------------------
# Evaluating a lemma statement on one context tuple.
# ---------------------------------------------------------------------------


def render_contexts(ctx_vars: Sequence[str], contexts: Sequence[Ctx]) -> str:
    return "; ".join(f"{v} = {print_ctx(g)}" for v, g in zip(ctx_vars, contexts))


def _render_binding(binding: dict) -> str:
    items = sorted((key.name, str(val)) for key, val in binding.items())
    return ", ".join(f"{k} = {v}" for k, v in items)


# Kept for the life of the process: a plan reads its arguments alone.
@cache
def _plan(atoms: tuple, bound: frozenset, drawn: tuple, exist: bool) -> tuple:
    """The steps (kind, pattern or atom, source, checked) of `_solutions`,
    given the variables bound on entry.  Next is the first atom that can be
    taken: a "test" when its variables are bound, else `member P Lj`, which
    matches P against the distinct entries of context j, or `P = Q` with Q
    bound, which matches P against Q's value ("eq").  When none can be, the
    first unbound variable of `drawn` is drawn from its candidates.  For
    existentials, `checked` holds the variables of `drawn` a match binds."""
    bound, waiting, steps = {v.name for v in bound}, list(atoms), []
    while waiting or not bound.issuperset(drawn):
        for k, atom in enumerate(waiting):
            names = formula_vars(atom)
            if names <= bound:
                step = ("test", atom, None)
            elif isinstance(atom, FMember):
                step = ("member", atom.term, atom.index)
            elif isinstance(atom, FEq) and pattern_vars(atom.lhs) <= bound:
                step = ("eq", atom.rhs, atom.lhs)
            elif isinstance(atom, FEq) and pattern_vars(atom.rhs) <= bound:
                step = ("eq", atom.lhs, atom.rhs)
            else:
                continue
            del waiting[k]
            steps.append((*step, tuple(MetaVar(v) for v in drawn if exist and v in names - bound)))
            break
        else:  # no atom can be taken
            var = next(v for v in drawn if v not in bound)
            names = {var}
            steps.append(("draw", MetaVar(var), var, ()))
        bound |= names
    return tuple(steps)


def _solutions(
    atoms: tuple, contexts: Sequence, binding: dict, candidates: Callable, drawn: tuple, exist: bool
) -> Iterator:
    """Each extension of `binding` under which the atoms hold on the
    contexts, depth first from an explicit stack, in `_plan`'s order.
    Existentials (`exist`) take only candidate values."""
    plan = _plan(atoms, frozenset(binding), drawn, exist)
    stack = [(0, binding)]
    while stack:
        i, binding = stack.pop()
        if i == len(plan):
            yield binding
            continue
        kind, pat, source, checked = plan[i]
        if kind == "test":
            if (
                member(instantiate(pat.term, binding), contexts[pat.index])
                if isinstance(pat, FMember)
                else eval_formula(pat, binding)
            ):
                stack.append((i + 1, binding))
            continue
        if kind == "member":
            values = dict.fromkeys(elems(contexts[source]))
        else:
            values = (instantiate(source, binding),) if kind == "eq" else candidates(source)
        for value in reversed(values):
            extended = match_pattern(pat, value, binding)
            if extended is not None and (
                not checked or all(extended[v] in candidates(v.name) for v in checked)
            ):
                stack.append((i + 1, extended))


# ---------------------------------------------------------------------------
# Constructive generation of satisfying instances.
# ---------------------------------------------------------------------------


def _clause_metavars(clause: Clause) -> list:
    out = []
    for p in clause.patterns:
        for v in sorted(pattern_vars(p)):
            if v not in clause.nabla_vars and v not in out:
                out.append(v)
    return out


def generate_list_instances(
    spec: ContextSpec, bounds: GenBounds, enforce_freshness: bool = True
) -> Iterator:
    """The list tuples derivable from the clauses within the bounds, as a
    stream: the empty tuple, then each level's instances as they are built.

    Instances are built by prepending clause instances to shorter ones.
    Metavariables draw from the type universe (or a small name pool, by
    sort); nabla variables take the next canonical fresh name, plus
    deliberate collision candidates that the freshness condition rejects
    while it is enforced.  Each level grows from the one before it, and a
    check that stops at a counterexample builds nothing after it.
    """
    meta_names = name_pool(2, "m")
    clause_bindings = []  # each clause with every metavariable substitution
    for clause in spec.clauses:
        mvars = _clause_metavars(clause)
        msorts: dict = {}
        for p in clause.patterns:
            _record_sorts(p, None, msorts)
        options = [meta_names if msorts.get(v) == "name" else TYPE_UNIVERSE for v in mvars]
        keys = [MetaVar(v) for v in mvars]
        clause_bindings.append(
            (clause, [dict(zip(keys, combo)) for combo in itertools.product(*options)])
        )
    return _list_levels(spec, bounds, enforce_freshness, clause_bindings)


def _list_levels(spec: ContextSpec, bounds: GenBounds, enforce: bool, clause_bindings: list):
    max_nabla = max(len(clause.nabla_vars) for clause in spec.clauses)
    # Each frontier entry is an instance and the names its entries use.
    frontier = [((EMPTY,) * spec.arity, frozenset())]
    yield frontier[0][0]
    for level in range(1, bounds.ctx_elems + 1):
        new_frontier = []
        for contexts, used_names in frontier:
            fresh_names: list = []  # the first names of fresh's chain not yet used
            for _ in range(max_nabla):
                fresh_names.append(fresh(used_names.union(fresh_names)))
            collision_candidates = sorted(used_names, key=str)[:1]
            for clause, meta_bindings in clause_bindings:
                k = len(clause.nabla_vars)
                nabla_pool = tuple(fresh_names[:k])
                nabla_choices = [nabla_pool]
                for coll in collision_candidates:
                    for i in range(k):
                        nabla_choices.append(nabla_pool[:i] + (coll,) + nabla_pool[i + 1 :])
                if k >= 2:
                    nabla_choices.append(nabla_pool[:1] + nabla_pool[:1] + nabla_pool[2:])
                nabla_keys = [NablaVar(v) for v in clause.nabla_vars]
                for binding in meta_bindings:
                    for nabla_combo in dict.fromkeys(nabla_choices):
                        full = {**binding, **dict(zip(nabla_keys, nabla_combo))}
                        entries = tuple(instantiate(p, full) for p in clause.patterns)
                        # the contexts already satisfy the predicate; only
                        # the new heads need checking against their names
                        if _heads_ok(spec, entries, used_names, enforce):
                            instance = tuple(map(Cons, entries, contexts))
                            yield instance
                            if level < bounds.ctx_elems:
                                names = used_names.union(*map(value_names, entries))
                                new_frontier.append((instance, names))
        frontier = new_frontier


def _row_variants(l: Ctx, bounds: GenBounds) -> list:
    """A bounded set of multiset restructurings of one list context."""
    row = elems(l)
    variants = [l]
    if bounds.union_depth >= 2 and row:
        variants.append(Union(from_list(row[:1]), l.tail))
    if len(row) >= 2:
        variants.append(from_list(tuple(reversed(row))))
        if bounds.union_depth >= 2:
            variants.append(Union(l.tail, from_list(row[:1])))
        if bounds.union_depth >= 3:
            variants.append(
                Union(Union(from_list(row[:1]), EMPTY), from_list(tuple(reversed(row[1:]))))
            )
    return list(dict.fromkeys(variants))


def generate_mset_instances(
    spec: ContextSpec, bounds: GenBounds, enforce_freshness: bool = True
) -> Iterator:
    """Multiset context tuples satisfying the predicate within the bounds,
    streamed in the order of the list instances they restructure.

    Each list instance's contexts are restructured: the same variant
    applied across all of them, plus each context varied alone.  A tuple
    already yielded is not yielded again.
    """
    return _restructured(generate_list_instances(spec, bounds, enforce_freshness), bounds)


def _restructured(instances: Iterator, bounds: GenBounds):
    seen: set = set()
    for lists in instances:
        per_index = [_row_variants(l, bounds) for l in lists]
        combos = []
        for k in range(max(len(v) for v in per_index)):
            combos.append(tuple(v[min(k, len(v) - 1)] for v in per_index))
        for i, variants in enumerate(per_index):
            for variant in variants[1:]:
                combos.append(tuple(variant if j == i else v[0] for j, v in enumerate(per_index)))
        for combo in combos:
            if combo not in seen:
                seen.add(combo)
                yield combo


# ---------------------------------------------------------------------------
# One decision per multiset class.
#
# A lemma instance is decided on its class key, the `multiset` class of
# each of its contexts; a distributivity case on that key plus the class
# of the split's first half, which fixes the second half's.
# Every presentation of a class gets the same verdict:
# - the multiset-form predicate, `member` and every lemma atom read only
#   multisets, and each candidate pool holds the values in the contexts,
#   read in some order by a search that only asks whether one works;
# - an ordered partition of an aligned list tuple gives aligned lists.
#   Clause formulas are local to one position, and freshness looks only
#   at the names of later entries, so a subsequence has fewer names to
#   avoid.  The halves built from any alignment therefore satisfy the
#   list form, and the split's halves, permutations of them, the
#   multiset form.
# A case whose key is already decided is counted but not recomputed.  Only
# passing keys are kept: a failure ends the check, so the case count and
# counterexample are those of deciding every case.
# The first halves of `splits(g)` are the 2^n position subsets of g's
# flattening, so their classes, with multiplicity, and their count depend
# only on g's class: once every split of an instance class has passed, a
# later presentation that aligns passes its 2^n cases unenumerated.
# ---------------------------------------------------------------------------


def _lemma_counterexample(
    stmt: LemmaStmt, sorts: dict, contexts: Sequence[Ctx]
) -> Optional[str]:
    """Why the lemma fails on one context tuple, or None when it holds."""
    candidates = _lemma_candidates(sorts, contexts)
    for binding in _solutions(stmt.hyps, contexts, {}, candidates, stmt.forall_vars, False):
        witnesses = _solutions(stmt.concl, contexts, binding, candidates, stmt.exist_vars, True)
        if next(witnesses, None) is None:
            return f"{render_contexts(stmt.ctx_vars, contexts)}" + (
                f" with {_render_binding(binding)}" if binding else ""
            )
    return None


@counted
def verify_lemma_cases(
    spec: ContextSpec,
    stmt: LemmaStmt,
    bounds: GenBounds = GenBounds(),
    enforce_freshness: bool = True,
):
    """A member-based lemma over the generated instances of its predicate:
    (cases run, counterexample or None).  Member hypotheses range over the
    elements, existential witnesses over the contexts and the type universe.
    Each instance is one case, decided once per multiset class."""
    if stmt.pred_name == spec.list_name:
        instances = generate_list_instances(spec, bounds, enforce_freshness)
    elif stmt.pred_name == spec.name:
        instances = generate_mset_instances(spec, bounds, enforce_freshness)
    else:
        raise ShapeError(
            f"lemma is about {stmt.pred_name!r}, expected {spec.name!r} or {spec.list_name!r}"
        )
    sorts = _lemma_var_sorts(spec, stmt)
    passed: set = set()
    for contexts in instances:
        key = tuple(multiset_of(g) for g in contexts)
        yield key not in passed and _lemma_counterexample(stmt, sorts, contexts)
        passed.add(key)


# ---------------------------------------------------------------------------
# Distributivity lemmas.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistrLemma:
    spec_name: str
    arity: int
    index: int  # 1-based

    @property
    def name(self) -> str:
        return f"{self.spec_name}_distr{self.index}"

    def render(self) -> str:
        i, pred, js = self.index, self.spec_name, range(1, self.arity + 1)
        forall = " ".join(f"G{j} G{j}' G{j}''" if j == i else f"G{j}" for j in js)
        exist = " ".join(f"G{j}' G{j}''" for j in js if j != i)
        concl = [pred + "".join(f" G{j}{mark}" for j in js) for mark in ("'", "''")]
        concl += [f"G{j} ~ G{j}' ++ G{j}''" for j in js if j != i]
        return (
            f"Theorem {self.name} : forall {forall}, "
            f"{pred} {' '.join(f'G{j}' for j in js)} -> G{i} ~ G{i}' ++ G{i}'' -> "
            + (f"exists {exist}, " if exist else "")
            + " /\\ ".join(concl)
            + "."
        )


def gen_distr_lemma(spec: ContextSpec, index: int) -> DistrLemma:
    """The distributivity statement for one context position (1-based)."""
    if not 1 <= index <= spec.arity:
        raise PreconditionError(
            f"index {index} out of range for arity {spec.arity}"
        )
    return DistrLemma(spec.name, spec.arity, index)


def _align_instance(
    spec: ContextSpec, contexts: Sequence[Ctx], enforce_freshness: bool
) -> Optional[tuple]:
    """`align_mset`'s alignment of one predicate instance, or None when there
    is none or one of its rows does not hold exactly its context's entries:
    that check is the lemma's `Gj ~ Gj' ++ Gj''` for each unsplit position j."""
    aligned = align_mset(spec, contexts, enforce_freshness)
    if aligned is None or any(
        multiset(row) != multiset_of(g) for row, g in zip(aligned, contexts)
    ):
        return None
    return aligned


def _distr_witnesses(
    spec: ContextSpec,
    aligned: tuple,
    index0: int,
    first: Ctx,
    second: Ctx,
    enforce_freshness: bool,
) -> Optional[tuple]:
    """Coordinated split witnesses for one predicate instance.

    `aligned` is the instance's alignment from `_align_instance`,
    computed once per instance by the caller rather than once per split.
    Flattens the given split of the chosen context into an ordered
    partition of its aligned list, applies the same position mask to
    every other list, and returns the halves, or None when a check fails.
    No alignment is searched: the halves satisfy the list form and differ
    from the multiset-form witnesses only at the split position, where
    they must be permutations of `first` and `second`.
    """
    mask = perm_to_part_mask(from_list(aligned[index0]), first, second)
    firsts = []
    seconds = []
    for row in aligned:
        firsts.append(from_list([e for e, m in zip(row, mask) if m]))
        seconds.append(from_list([e for e, m in zip(row, mask) if not m]))
    if not (
        check_list_pred(spec, firsts, enforce_freshness)
        and check_list_pred(spec, seconds, enforce_freshness)
        and perm(first, firsts[index0])
        and perm(second, seconds[index0])
    ):
        return None
    primes = tuple(first if j == index0 else firsts[j] for j in range(spec.arity))
    doubles = tuple(second if j == index0 else seconds[j] for j in range(spec.arity))
    return primes, doubles, tuple(firsts), tuple(seconds)


def check_distr_cases(
    spec: ContextSpec,
    index: int,
    bounds: GenBounds = GenBounds(),
    enforce_freshness: bool = True,
) -> tuple:
    """The distributivity lemma for one index (1-based) over the generated
    multiset instances: (cases run, counterexample or None).  An index
    outside the arity raises before generation."""
    gen_distr_lemma(spec, index)
    instances = generate_mset_instances(spec, bounds, enforce_freshness)
    return check_distr_instances(spec, index, instances, enforce_freshness)


@counted
def check_distr_instances(
    spec: ContextSpec,
    index: int,
    instances: Iterable[Sequence[Ctx]],
    enforce_freshness: bool = True,
):
    """Distributivity over the given context tuples: (cases run,
    counterexample or None), one case per split of context `index`.

    A tuple outside the predicate fails at its first split.  Each tuple is
    aligned once, the check's only alignment search, whose answers
    `align_mset` keeps for the process.  Each split is decided once per
    class, in a verdict memo dropped when the check returns.
    """
    passed: set = set()
    for contexts in instances:
        yield from _distr_instance(spec, index, contexts, enforce_freshness, passed)


def _distr_instance(
    spec: ContextSpec,
    index: int,
    contexts: Sequence[Ctx],
    enforce_freshness: bool,
    passed: set,
):
    """The cases of `check_distr_instances` for one context tuple.  `passed`
    holds the (instance class, first-side class) keys already decided and
    the instance classes all of whose splits passed, and is shared by
    every tuple of one check."""
    index0 = index - 1
    aligned = _align_instance(spec, contexts, enforce_freshness)
    instance_key = tuple(multiset_of(g) for g in contexts)
    # (instance class,), a 1-tuple apart from the pairs: all its splits passed
    if aligned is not None and (instance_key,) in passed:
        yield from itertools.repeat(None, 2 ** len(elems(contexts[index0])))
        return
    for first, second in splits(contexts[index0]):
        key = (instance_key, multiset_of(first))
        # An instance that does not align fails whatever its class; one
        # that aligns is decided once per class.
        if aligned is None or key not in passed and _distr_witnesses(
            spec, aligned, index0, first, second, enforce_freshness
        ) is None:
            gvars = [f"G{j}" for j in range(1, spec.arity + 1)]
            split_desc = f"G{index} ~ {print_ctx(first)} ++ {print_ctx(second)}"
            yield f"{render_contexts(gvars, contexts)}; {split_desc}"
        passed.add(key)
        yield None
    passed.add((instance_key,))


# ---------------------------------------------------------------------------
# Lifting member-based lemmas from the list form to the multiset form.
# ---------------------------------------------------------------------------


def lift_lemma(spec: ContextSpec, stmt: LemmaStmt) -> tuple:
    """The multiset-form statement for a list-form lemma, plus its checker.

    Precondition: the statement is about the list-form predicate, and no
    term in it mentions a context variable (the parser rejects those).
    The checker runs the three transport steps on one multiset context
    tuple: unfold the multiset predicate to obtain coordinated lists,
    transport the member hypotheses into the lists, evaluate the
    list-level statement there, and transport member conclusions back
    through the same permutations.

    The checker is the oracle for the transport argument: the tests run
    it on generated multiset instances.  Reports on the lifted statement
    (`verify_lemma_cases`, the CLI) check it by enumerating
    multiset instances directly, independently of the transport.
    """
    if stmt.pred_name != spec.list_name:
        raise ShapeError(
            f"lift expects a lemma about {spec.list_name!r}, got {stmt.pred_name!r}"
        )
    ctx_vars = tuple(f"G{j}" for j in range(1, spec.arity + 1))
    lifted = replace(stmt, name=f"{stmt.name}_mset", pred_name=spec.name, ctx_vars=ctx_vars)
    sorts = _lemma_var_sorts(spec, stmt)

    @counted
    def checker(contexts: Sequence[Ctx]):
        """(cases, counterexample) for one multiset context tuple."""
        aligned = align_mset(spec, contexts)
        if aligned is None:
            return  # hypothesis fails; nothing to check
        lists = tuple(from_list(row) for row in aligned)
        candidates = _lemma_candidates(sorts, contexts)
        for binding in _solutions(stmt.hyps, contexts, {}, candidates, stmt.forall_vars, False):
            for hyp in stmt.hyps:
                value = instantiate(hyp.term, binding)
                if not mem_transport(value, contexts[hyp.index], lists[hyp.index]):
                    yield (
                        f"hypothesis transport failed for {value}"
                        f" in {render_contexts(lifted.ctx_vars, contexts)}"
                    )
            witnesses = _solutions(stmt.concl, lists, binding, candidates, stmt.exist_vars, True)
            witness = next(witnesses, None)
            if witness is None:
                yield f"list-level conclusion has no witness under {_render_binding(binding)}"
            for f in stmt.concl:
                if isinstance(f, FMember):
                    value = instantiate(f.term, witness)
                    if not mem_transport(value, lists[f.index], contexts[f.index]):
                        yield (
                            f"conclusion transport failed for {value}"
                            f" in {render_contexts(lifted.ctx_vars, contexts)}"
                        )
            yield None

    return lifted, checker
