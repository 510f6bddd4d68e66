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
from typing import Any, Callable, Container, Iterable, Optional, Sequence

from .ctx import (
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
from .errors import PreconditionError, ShapeError, SyntaxError_, VerificationError
from .lex import Token, TokenStream
from .report import CheckReport, GenBounds, counted, run_check
from .terms import TYPE_UNIVERSE, Arrow, Base, Name, fresh, name_pool, print_type
from .typecheck import TyAssoc, VarAssoc


# ---------------------------------------------------------------------------
# Element terms: first-order constructor applications over names and types.
# ---------------------------------------------------------------------------

_CTOR_SIGS = {
    "ty_of": ("name", "ty"),
    "trans_to": ("name", "name"),
    "arrow": ("ty", "ty"),
}

_CTOR_RESULT = {
    "ty_of": "ty_assoc",
    "trans_to": "var_assoc",
    "arrow": "ty",
}


def decompose(value: Any) -> Optional[tuple]:
    """View a value as a constructor applied to arguments, if it is one."""
    if isinstance(value, TyAssoc):
        return ("ty_of", (value.name, value.ty))
    if isinstance(value, VarAssoc):
        return ("trans_to", (value.src, value.dst))
    if isinstance(value, Arrow):
        return ("arrow", (value.dom, value.cod))
    if isinstance(value, Base):
        return (value.label, ())
    return None


def construct(ctor: str, args: tuple) -> Any:
    if ctor == "ty_of":
        return TyAssoc(*args)
    if ctor == "trans_to":
        return VarAssoc(*args)
    if ctor == "arrow":
        return Arrow(*args)
    if not args:
        return Base(ctor)
    raise ShapeError(f"unknown constructor {ctor!r}")


def value_names(value: Any) -> frozenset:
    """All names occurring anywhere inside a value."""
    if isinstance(value, Name):
        return frozenset((value,))
    dec = decompose(value)
    if dec is None:
        return frozenset()
    out = frozenset()
    for arg in dec[1]:
        out |= value_names(arg)
    return out


def render_value(value: Any) -> str:
    """Surface rendering, replayable by the corresponding parsers."""
    if isinstance(value, (TyAssoc, VarAssoc, Name)):
        return str(value)
    if isinstance(value, (Base, Arrow)):
        return print_type(value)
    return str(value)


# ---------------------------------------------------------------------------
# Patterns and side formulas.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NablaVar:
    name: str


@dataclass(frozen=True)
class MetaVar:
    name: str


@dataclass(frozen=True)
class PatApp:
    ctor: str
    args: tuple


PatTerm = Any  # NablaVar | MetaVar | PatApp


def match_pattern(pat: PatTerm, value: Any, binding: dict) -> Optional[dict]:
    """Extend a binding so that the instantiated pattern equals the value."""
    if isinstance(pat, (NablaVar, MetaVar)):
        if pat in binding:
            return binding if binding[pat] == value else None
        if isinstance(pat, NablaVar) and not isinstance(value, Name):
            return None
        extended = dict(binding)
        extended[pat] = value
        return extended
    dec = decompose(value)
    if dec is None or dec[0] != pat.ctor or len(dec[1]) != len(pat.args):
        return None
    for sub_pat, sub_val in zip(pat.args, dec[1]):
        binding = match_pattern(sub_pat, sub_val, binding)
        if binding is None:
            return None
    return binding


def instantiate(pat: PatTerm, binding: dict) -> Any:
    if isinstance(pat, (NablaVar, MetaVar)):
        if pat not in binding:
            raise ShapeError(f"unbound variable {pat.name!r}")
        return binding[pat]
    return construct(pat.ctor, tuple(instantiate(a, binding) for a in pat.args))


def pattern_vars(pat: PatTerm) -> frozenset:
    if isinstance(pat, (NablaVar, MetaVar)):
        return frozenset((pat.name,))
    out = frozenset()
    for a in pat.args:
        out |= pattern_vars(a)
    return out


def render_pattern(pat: PatTerm) -> str:
    if isinstance(pat, (NablaVar, MetaVar)):
        return pat.name
    if not pat.args:
        return pat.ctor
    return f"{pat.ctor} " + " ".join(_render_pattern_atom(a) for a in pat.args)


def _render_pattern_atom(pat: PatTerm) -> str:
    """A pattern in argument position: a compound one is parenthesised."""
    rendered = render_pattern(pat)
    return f"({rendered})" if isinstance(pat, PatApp) and pat.args else rendered


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
    if isinstance(f, FIsName):
        return pattern_vars(f.term)
    if isinstance(f, FEq):
        return pattern_vars(f.lhs) | pattern_vars(f.rhs)
    if isinstance(f, (FAnd, FOr)):
        return formula_vars(f.left) | formula_vars(f.right)
    raise ShapeError(f"unknown formula {f!r}")


def render_formula(f: SideFormula) -> str:
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FIsName):
        return f"name {_render_pattern_atom(f.term)}"
    if isinstance(f, FEq):
        return f"{render_pattern(f.lhs)} = {render_pattern(f.rhs)}"
    raise ShapeError(f"unknown formula {f!r}")


# ---------------------------------------------------------------------------
# Context specifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
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
    if p.ctor != q.ctor or len(p.args) != len(q.args):
        return False
    return all(_patterns_may_overlap(a, b) for a, b in zip(p.args, q.args))


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
    return PatApp(tok.text, ())


def _parse_pattern_atom(ts: TokenStream, classify: Classifier) -> PatTerm:
    if ts.at_sym("("):
        ts.next()
        inner = _parse_pattern(ts, classify)
        ts.eat_sym(")")
        return inner
    return classify(ts.eat_ident())


def _parse_pattern(ts: TokenStream, classify: Classifier) -> PatTerm:
    head = ts.eat_ident()
    if head.text in _CTOR_SIGS:
        arity = len(_CTOR_SIGS[head.text])
        args = tuple(_parse_pattern_atom(ts, classify) for _ in range(arity))
        return PatApp(head.text, args)
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
    ts = TokenStream.of(text)
    specs = []
    while ts.at_ident("Context"):
        specs.append(parse_spec_tokens(ts))
    ts.expect_eof()
    return specs


# ---------------------------------------------------------------------------
# The elaborated predicates.
# ---------------------------------------------------------------------------


def _clause_instance_ok(
    clause: Clause, binding: dict, later_names: Container, enforce_freshness: bool
) -> bool:
    """Nabla side conditions plus the clause formula under a head match.

    The nabla values must be pairwise-distinct names that occur neither
    in the metavariable substitution nor among the given tail names.
    """
    nabla_vals = [binding[NablaVar(v)] for v in clause.nabla_vars]
    if enforce_freshness:
        if len(set(nabla_vals)) != len(nabla_vals):
            return False
        for key, val in binding.items():
            if isinstance(key, MetaVar):
                names_in_val = value_names(val)
                if any(nv in names_in_val for nv in nabla_vals):
                    return False
        if any(nv in later_names for nv in nabla_vals):
            return False
    return eval_formula(clause.formula, binding)


def _heads_ok(spec: ContextSpec, heads: Sequence, tail_names: Container, enforce: bool) -> bool:
    """Whether some clause accepts the entries at one list position,
    given the names occurring in every later entry."""
    for clause in spec.clauses:
        binding: Optional[dict] = {}
        for pat, entry in zip(clause.patterns, heads):
            binding = match_pattern(pat, entry, binding)
            if binding is None:
                break
        if binding is not None and _clause_instance_ok(clause, binding, tail_names, enforce):
            return True
    return False


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


def align_mset(
    spec: ContextSpec,
    contexts: Sequence[Ctx],
    enforce_freshness: bool = True,
    *,
    _memo: Optional[dict] = None,
) -> Optional[tuple]:
    """Witness for the multiset-form predicate.

    Finds coordinated entry sequences, one element from each context per
    clause application, by backtracking over clauses and element choices
    (pivoting on the context with the fewest distinct elements).  Returns
    one entry tuple per context; each is a permutation of its context's
    elements and together they satisfy the list-form predicate.

    The predicate depends only on each context's multiset of entries, so
    each context is flattened once and the search runs on the entry rows.
    Answers are memoised under the context tuple and under each row tuple
    the search reaches.  The memo lives for one call, or for one check
    when the check hands the same `_memo` dict to each of its calls; the
    spec and the freshness setting must be the same across those calls.
    """
    if len(contexts) != spec.arity:
        raise PreconditionError(f"expected {spec.arity} contexts, got {len(contexts)}")
    memo = {} if _memo is None else _memo
    key = tuple(contexts)
    if key not in memo:
        rows = tuple(elems(g) for g in key)
        same_length = len({len(row) for row in rows}) == 1
        memo[key] = _align_rows(spec, rows, enforce_freshness, memo) if same_length else None
    return memo[key]


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
            tail_names = set().union(*(value_names(e) for row in rest for e in row))
            if not _clause_instance_ok(clause, binding, tail_names, enforce):
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


def check_mset_pred(
    spec: ContextSpec, contexts: Sequence[Ctx], enforce_freshness: bool = True
) -> bool:
    """The multiset-form predicate: some list permutations satisfy the list form."""
    return align_mset(spec, contexts, enforce_freshness) is not None


# ---------------------------------------------------------------------------
# Member-based lemma statements.
#
#   Lemma NAME : forall VAR*, PRED L1 ... Ln -> [member TERM Li ->]*
#       [exists VAR*,] ATOM [/\ ATOM]* .
#
# where ATOM is `member TERM Lj`, `name TERM`, `TERM = TERM`, or `true`.
# The context variables are distinct and appear in no TERM, and an
# undeclared identifier that starts with an uppercase letter is an error
# rather than a constant.
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
    return PatApp(tok.text, ())


def parse_lemma_tokens(ts: TokenStream) -> LemmaStmt:
    ts.eat_ident("Lemma")
    name = ts.eat_ident().text
    ts.eat_sym(":")
    ts.eat_ident("forall")
    forall_vars = []
    while not ts.at_sym(","):
        forall_vars.append(ts.eat_ident().text)
    ts.eat_sym(",")
    pred_name = ts.eat_ident().text
    ctx_vars = []
    while ts.at_ident():
        tok = ts.eat_ident()
        if tok.text in ctx_vars:
            raise SyntaxError_(f"context variable {tok.text!r} is repeated", tok.pos)
        ctx_vars.append(tok.text)
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
                exist_vars.append(ts.eat_ident().text)
            ts.eat_sym(",")
            declared += exist_vars
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
        return render_formula(f)

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
        p = clause.patterns[idx]
        if isinstance(p, PatApp):
            result = _CTOR_RESULT.get(p.ctor)
            if result is not None:
                sorts.add(result)
    if len(sorts) == 1:
        return sorts.pop()
    return None


def _record_sorts(pat: PatTerm, sort: Optional[str], sorts: dict) -> None:
    """Record the sort of each variable from its position in the pattern.

    `sort` is the sort of the whole pattern, None when unknown.  The first
    sort recorded for a variable name wins.
    """
    if isinstance(pat, (MetaVar, NablaVar)):
        if sort is not None:
            sorts.setdefault(pat.name, sort)
        return
    sig = _CTOR_SIGS.get(pat.ctor)
    if sig is not None:
        for a, s in zip(pat.args, sig):
            _record_sorts(a, s, sorts)


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
    result = _CTOR_RESULT.get(pat.ctor)
    if result is not None:
        return result
    if not pat.args:
        return "ty"  # bare lowercase constants denote base types
    return None


def _value_sort(value: Any) -> str:
    if isinstance(value, Name):
        return "name"
    if isinstance(value, (Base, Arrow)):
        return "ty"
    dec = decompose(value)
    if dec is not None:
        return _CTOR_RESULT.get(dec[0], "elem")
    return "elem"


def _collect_by_sort(contexts: Sequence[Ctx]) -> dict:
    """Candidate witness values occurring in the given contexts, by sort."""
    found: dict = {}

    def add(value: Any) -> None:
        bucket = found.setdefault(_value_sort(value), {})
        bucket.setdefault(value, None)
        dec = decompose(value)
        if dec is not None:
            for arg in dec[1]:
                add(arg)

    for g in contexts:
        for entry in elems(g):
            add(entry)
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
    return "; ".join(
        f"{v} = {print_ctx(g, render_value)}" for v, g in zip(ctx_vars, contexts)
    )


def _render_binding(binding: dict) -> str:
    items = sorted(
        (key.name, render_value(val)) for key, val in binding.items()
    )
    return ", ".join(f"{k} = {v}" for k, v in items)


def _universal_bindings(
    stmt: LemmaStmt, contexts: Sequence[Ctx], candidates: Callable
) -> list:
    """Every binding of the universal variables on one context tuple.

    The member hypotheses are matched in order against the distinct
    elements of their contexts; universal variables that no hypothesis
    binds then range over their candidates.  Empty when the hypotheses
    are unsatisfiable on this tuple.
    """
    bindings = [{}]
    for hyp in stmt.hyps:
        values = tuple(dict.fromkeys(elems(contexts[hyp.index])))
        bindings = [
            extended
            for b in bindings
            for value in values
            if (extended := match_pattern(hyp.term, value, b)) is not None
        ]
        if not bindings:
            return []
    unbound = [
        MetaVar(v)
        for v in stmt.forall_vars
        if MetaVar(v) not in bindings[0] and v not in stmt.exist_vars
    ]
    if not unbound:
        return bindings
    options = [candidates(v.name) for v in unbound]
    return [
        {**b, **dict(zip(unbound, combo))}
        for b in bindings
        for combo in itertools.product(*options)
    ]


def _lemma_witness(
    stmt: LemmaStmt, contexts: Sequence[Ctx], binding: dict, candidates: Callable
) -> Optional[dict]:
    """The binding extended by the first existential witness under which
    the conclusion holds on this tuple, or None when there is none."""
    exist_keys = [MetaVar(v) for v in stmt.exist_vars]
    for combo in itertools.product(*(candidates(v) for v in stmt.exist_vars)):
        candidate = {**binding, **dict(zip(exist_keys, combo))}
        if all(
            member(instantiate(f.term, candidate), contexts[f.index])
            if isinstance(f, FMember)
            else eval_formula(f, candidate)
            for f in stmt.concl
        ):
            return candidate
    return None


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
) -> list:
    """All list tuples derivable from the clauses within the bounds.

    Instances are built by prepending clause instances to shorter ones.
    Metavariables draw from the type universe (or a small name pool, by
    sort); nabla variables take the next canonical fresh name, plus
    deliberate collision candidates that the freshness condition rejects
    while it is enforced.
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
    max_nabla = max(len(clause.nabla_vars) for clause in spec.clauses)

    results = [tuple(() for _ in range(spec.arity))]
    frontier = list(results)
    for _ in range(bounds.ctx_elems):
        new_frontier = []
        for rows in frontier:
            used_names = set()
            for row in rows:
                for entry in row:
                    used_names |= value_names(entry)
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
                        # the rows already satisfy the predicate; only the
                        # new heads need checking against their names
                        if _heads_ok(spec, entries, used_names, enforce_freshness):
                            new_frontier.append(
                                tuple((entries[i],) + rows[i] for i in range(spec.arity))
                            )
        frontier = new_frontier
        results.extend(frontier)
    return [tuple(from_list(row) for row in rows) for rows in results]


def _row_variants(row: tuple, bounds: GenBounds) -> list:
    """A bounded set of multiset restructurings of one entry sequence."""
    variants = [from_list(row)]
    if bounds.union_depth >= 2 and row:
        variants.append(Union(from_list(row[:1]), from_list(row[1:])))
    if len(row) >= 2:
        variants.append(from_list(tuple(reversed(row))))
        if bounds.union_depth >= 2:
            variants.append(Union(from_list(row[1:]), from_list(row[:1])))
        if bounds.union_depth >= 3:
            variants.append(
                Union(Union(from_list(row[:1]), EMPTY), from_list(tuple(reversed(row[1:]))))
            )
    return list(dict.fromkeys(variants))


def generate_mset_instances(
    spec: ContextSpec, bounds: GenBounds, enforce_freshness: bool = True
) -> list:
    """Multiset context tuples satisfying the predicate within the bounds.

    Takes every list instance and restructures the contexts: the same
    variant applied across all of them, plus each context varied alone.
    """
    out = []
    seen = set()
    for lists in generate_list_instances(spec, bounds, enforce_freshness):
        rows = tuple(elems(l) for l in lists)
        per_index = [_row_variants(row, bounds) for row in rows]
        combos = []
        max_variants = max(len(v) for v in per_index)
        for k in range(max_variants):
            combos.append(tuple(v[min(k, len(v) - 1)] for v in per_index))
        for i in range(spec.arity):
            for variant in per_index[i][1:]:
                combo = tuple(
                    variant if j == i else per_index[j][0] for j in range(spec.arity)
                )
                combos.append(combo)
        for combo in combos:
            if combo not in seen:
                seen.add(combo)
                out.append(combo)
    return out


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
# ---------------------------------------------------------------------------


def _lemma_counterexample(
    stmt: LemmaStmt, sorts: dict, contexts: Sequence[Ctx]
) -> Optional[str]:
    """Why the lemma fails on one context tuple, or None when it holds."""
    candidates = _lemma_candidates(sorts, contexts)
    for binding in _universal_bindings(stmt, contexts, candidates):
        if _lemma_witness(stmt, contexts, binding, candidates) is None:
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
    """Case-level body of verify_lemma: (cases run, counterexample or None).

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


def verify_lemma(
    spec: ContextSpec,
    stmt: LemmaStmt,
    bounds: GenBounds = GenBounds(),
    enforce_freshness: bool = True,
) -> CheckReport:
    """Bounded-exhaustive verification of a member-based lemma statement.

    Context tuples satisfying the predicate are generated constructively
    from the clauses; member hypotheses are instantiated over all
    elements; existential conclusions are searched over a finite witness
    universe drawn from the contexts and the type universe.
    """
    return run_check(
        stmt.name, lambda: verify_lemma_cases(spec, stmt, bounds, enforce_freshness)
    )


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
        i = self.index
        n = self.arity
        gvars = [f"G{j}" for j in range(1, n + 1)]
        forall = []
        for j in range(1, n + 1):
            forall.append(f"G{j}")
            if j == i:
                forall += [f"G{i}'", f"G{i}''"]
        exist = []
        for j in range(1, n + 1):
            if j != i:
                exist += [f"G{j}'", f"G{j}''"]
        primes = " ".join(f"G{j}'" for j in range(1, n + 1))
        doubles = " ".join(f"G{j}''" for j in range(1, n + 1))
        perms = " /\\ ".join(
            f"G{j} ~ G{j}' ++ G{j}''" for j in range(1, n + 1) if j != i
        )
        concl = f"{self.spec_name} {primes} /\\ {self.spec_name} {doubles}"
        if perms:
            concl += f" /\\ {perms}"
        return (
            f"Theorem {self.name} : forall {' '.join(forall)}, "
            f"{self.spec_name} {' '.join(gvars)} -> G{i} ~ G{i}' ++ G{i}'' -> "
            f"exists {' '.join(exist)}, {concl}."
        )


def gen_distr_lemma(spec: ContextSpec, index: int) -> DistrLemma:
    """The distributivity statement for one context position (1-based)."""
    if not 1 <= index <= spec.arity:
        raise PreconditionError(
            f"index {index} out of range for arity {spec.arity}"
        )
    return DistrLemma(spec.name, spec.arity, index)


def _align_instance(
    spec: ContextSpec, contexts: Sequence[Ctx], enforce_freshness: bool, memo: dict
) -> Optional[tuple]:
    """`align_mset`'s alignment of one predicate instance, or None when there
    is none or one of its rows does not hold exactly its context's entries."""
    aligned = align_mset(spec, contexts, enforce_freshness, _memo=memo)
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
    memo: dict,
) -> Optional[tuple]:
    """Coordinated split witnesses for one predicate instance.

    `aligned` is the instance's alignment from `_align_instance`,
    computed once per instance by the caller rather than once per split.
    Flattens the given split of the chosen context into an ordered
    partition of its aligned list, applies the same position mask to
    every other list, and returns the halves.  Each row is a permutation
    of its context, so the halves of every other row recombine to a
    permutation of theirs.  Returns None when any step or the final
    predicate checks fail.  The two multiset checks on the halves align
    through `memo`, which lives only for the caller's one check.
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
    ):
        return None
    primes = tuple(first if j == index0 else firsts[j] for j in range(spec.arity))
    doubles = tuple(second if j == index0 else seconds[j] for j in range(spec.arity))
    if align_mset(spec, primes, enforce_freshness, _memo=memo) is None:
        return None
    if align_mset(spec, doubles, enforce_freshness, _memo=memo) is None:
        return None
    return primes, doubles, tuple(firsts), tuple(seconds)


def check_distr_cases(
    spec: ContextSpec,
    index: int,
    bounds: GenBounds = GenBounds(),
    enforce_freshness: bool = True,
) -> tuple:
    """Case-level body of check_distr over the generated multiset
    instances; an index outside the arity raises before generation."""
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
    aligned once, and every alignment shares one memo that is dropped when
    the check returns.  Each split is decided once per multiset class.
    """
    index0 = index - 1
    memo: dict = {}
    passed: set = set()
    for contexts in instances:
        aligned = _align_instance(spec, contexts, enforce_freshness, memo)
        instance_key = tuple(multiset_of(g) for g in contexts)
        for first, second in splits(contexts[index0]):
            key = (instance_key, multiset_of(first))
            # An instance that does not align fails whatever its class; one
            # that aligns is decided once per class.
            if aligned is None or key not in passed and _distr_witnesses(
                spec, aligned, index0, first, second, enforce_freshness, memo
            ) is None:
                gvars = [f"G{j}" for j in range(1, spec.arity + 1)]
                split_desc = (
                    f"G{index} ~ {print_ctx(first, render_value)}"
                    f" ++ {print_ctx(second, render_value)}"
                )
                yield f"{render_contexts(gvars, contexts)}; {split_desc}"
            passed.add(key)
            yield None


def check_distr(
    spec: ContextSpec,
    index: int,
    bounds: GenBounds = GenBounds(),
    enforce_freshness: bool = True,
) -> CheckReport:
    """Verify the distributivity lemma for one index over generated instances."""
    lemma = gen_distr_lemma(spec, index)
    return run_check(
        lemma.name, lambda: check_distr_cases(spec, index, bounds, enforce_freshness)
    )


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
    (`verify_lemma`, `derive_lift`, the CLI) check it by enumerating
    multiset instances directly, independently of the transport.
    """
    if stmt.pred_name != spec.list_name:
        raise ShapeError(
            f"lift expects a lemma about {spec.list_name!r}, got {stmt.pred_name!r}"
        )
    lifted = replace(
        stmt,
        name=f"{stmt.name}_mset",
        pred_name=spec.name,
        ctx_vars=tuple(f"G{j}" for j in range(1, spec.arity + 1)),
    )

    sorts = _lemma_var_sorts(spec, stmt)

    @counted
    def checker(contexts: Sequence[Ctx]):
        """(cases, counterexample) for one multiset context tuple."""
        aligned = align_mset(spec, contexts)
        if aligned is None:
            return  # hypothesis fails; nothing to check
        lists = tuple(from_list(row) for row in aligned)
        candidates = _lemma_candidates(sorts, contexts)
        for binding in _universal_bindings(stmt, contexts, candidates):
            for hyp in stmt.hyps:
                value = instantiate(hyp.term, binding)
                if not mem_transport(value, contexts[hyp.index], lists[hyp.index]):
                    yield (
                        f"hypothesis transport failed for {render_value(value)}"
                        f" in {render_contexts(lifted.ctx_vars, contexts)}"
                    )
            witness = _lemma_witness(stmt, lists, binding, candidates)
            if witness is None:
                yield f"list-level conclusion has no witness under {_render_binding(binding)}"
            for f in stmt.concl:
                if isinstance(f, FMember):
                    value = instantiate(f.term, witness)
                    if not mem_transport(value, lists[f.index], contexts[f.index]):
                        yield (
                            f"conclusion transport failed for {render_value(value)}"
                            f" in {render_contexts(lifted.ctx_vars, contexts)}"
                        )
            yield None

    return lifted, checker


# ---------------------------------------------------------------------------
# Derivation store and tactic-like steps over checked facts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermFact:
    left: Ctx
    right: Ctx


@dataclass(frozen=True)
class MemberFact:
    elem: Any
    ctx: Ctx


@dataclass(frozen=True)
class PredFact:
    spec_name: str
    contexts: tuple


@dataclass(frozen=True)
class LemmaFact:
    stmt: LemmaStmt
    report: CheckReport


def derive_subst(perm_fact: PermFact, member_fact: MemberFact) -> MemberFact:
    """Transport a membership fact through a permutation fact."""
    if member_fact.ctx != perm_fact.left:
        raise ShapeError("member fact is not about the permutation's left context")
    if not mem_transport(member_fact.elem, perm_fact.left, perm_fact.right):
        raise VerificationError("membership was not preserved by the permutation")
    return MemberFact(member_fact.elem, perm_fact.right)


def derive_distr(
    spec: ContextSpec, pred_fact: PredFact, perm_fact: PermFact
) -> list:
    """Apply distributivity: a predicate fact plus a split of one context.

    The permutation fact must have the form Gi ~ A ++ B where Gi is one
    of the predicate fact's contexts.  Returns the two predicate facts on
    the constructed witnesses plus the split facts for the other indices.
    """
    if pred_fact.spec_name != spec.name:
        raise ShapeError("predicate fact is not about this specification")
    if not isinstance(perm_fact.right, Union):
        raise ShapeError("permutation fact is not a two-way split")
    index0 = None
    for j, g in enumerate(pred_fact.contexts):
        if g == perm_fact.left:
            index0 = j
            break
    if index0 is None:
        raise ShapeError("split context does not occur in the predicate fact")
    first, second = perm_fact.right.left, perm_fact.right.right
    memo: dict = {}
    aligned = _align_instance(spec, pred_fact.contexts, True, memo)
    result = None if aligned is None else _distr_witnesses(
        spec, aligned, index0, first, second, True, memo
    )
    if result is None:
        raise VerificationError("no coordinated split witnesses exist")
    primes, doubles, firsts, seconds = result
    facts: list = [
        PredFact(spec.name, primes),
        PredFact(spec.name, doubles),
    ]
    for j in range(spec.arity):
        if j != index0:
            facts.append(
                PermFact(pred_fact.contexts[j], Union(firsts[j], seconds[j]))
            )
    facts.append(PermFact(first, firsts[index0]))
    facts.append(PermFact(second, seconds[index0]))
    return facts


def derive_lift(
    spec: ContextSpec, stmt: LemmaStmt, bounds: GenBounds = GenBounds()
) -> LemmaFact:
    """Lift a verified list-form lemma and verify the lifted statement."""
    list_report = verify_lemma(spec, stmt, bounds)
    if not list_report.passed:
        raise VerificationError(
            f"list-level lemma {stmt.name!r} fails", list_report.counterexample
        )
    lifted, _checker = lift_lemma(spec, stmt)
    report = verify_lemma(spec, lifted, bounds)
    if not report.passed:
        raise VerificationError(
            f"lifted lemma {lifted.name!r} fails", report.counterexample
        )
    return LemmaFact(lifted, report)


class DerivationStore:
    """Append-only store of checked facts, with the tactic steps as methods.

    Base facts are validated by running the corresponding decision
    procedure when added; derived facts carry their construction with
    them.  Single writer; reads are safe from any thread.
    """

    def __init__(self, specs: Iterable[ContextSpec] = (), bounds: GenBounds = GenBounds()):
        self.specs = {s.name: s for s in specs}
        self.bounds = bounds
        self.facts: list = []

    def _add(self, fact: Any) -> Any:
        self.facts.append(fact)
        return fact

    def assert_perm(self, g1: Ctx, g2: Ctx) -> PermFact:
        if not perm(g1, g2):
            raise VerificationError("contexts are not permutations of each other")
        return self._add(PermFact(g1, g2))

    def assert_member(self, x: Any, g: Ctx) -> MemberFact:
        if not member(x, g):
            raise VerificationError("element is not a member of the context")
        return self._add(MemberFact(x, g))

    def assert_pred(self, spec_name: str, contexts: Sequence[Ctx]) -> PredFact:
        spec = self._spec(spec_name)
        if not check_mset_pred(spec, contexts):
            raise VerificationError("contexts do not satisfy the predicate")
        return self._add(PredFact(spec_name, tuple(contexts)))

    def _spec(self, name: str) -> ContextSpec:
        if name not in self.specs:
            raise ShapeError(f"unknown context specification {name!r}")
        return self.specs[name]

    def subst(self, perm_fact: PermFact, member_fact: MemberFact) -> MemberFact:
        self._require(perm_fact)
        self._require(member_fact)
        return self._add(derive_subst(perm_fact, member_fact))

    def distr(self, pred_fact: PredFact, perm_fact: PermFact) -> list:
        self._require(pred_fact)
        self._require(perm_fact)
        spec = self._spec(pred_fact.spec_name)
        new_facts = derive_distr(spec, pred_fact, perm_fact)
        for f in new_facts:
            self._add(f)
        return new_facts

    def lift(self, spec_name: str, stmt: LemmaStmt) -> LemmaFact:
        spec = self._spec(spec_name)
        return self._add(derive_lift(spec, stmt, self.bounds))

    def _require(self, fact: Any) -> None:
        if fact not in self.facts:
            raise ShapeError("fact is not in the derivation store")
