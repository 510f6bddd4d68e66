"""The three type systems and the typing-context predicates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx.ctx import EMPTY, Union, elems, from_list, gen_ctxs
from linctx.errors import PreconditionError
from linctx.suites import gen_terms
from linctx.terms import (
    App,
    Arrow,
    Base,
    Bound,
    Free,
    Let,
    Name,
    TYPE_UNIVERSE,
    name_pool,
    parse_term,
    type_universe,
)
from linctx.typecheck import (
    Leftover,
    TyAssoc,
    check_judgment,
    linear_type,
    ltype_check,
    ltype_rel,
    ltype_types,
    ml_type,
    mltype_check,
    mltype_rel,
    mltype_types,
    parse_judgment,
    ty_ctx_list,
    ty_ctx_mset,
    type_of_enum,
    type_of_infer,
)
from strategies import linear_judgments, terms

I = Base("i")
O = Base("o")
T1 = Base("tau1")
T2 = Base("tau2")
N1, N2, N3 = Name("n", 1), Name("n", 2), Name("n", 3)
NAMES = tuple(name_pool(4))

GOOD = parse_term("abs (tau1 -> tau2) (x\\ abs tau1 (y\\ app x y))")
GOOD_TY = Arrow(Arrow(T1, T2), Arrow(T1, T2))
BAD_REUSE = parse_term("abs (tau1 -> tau1 -> tau2) (x\\ abs tau1 (y\\ app (app x y) y))")
BAD_REUSE_TY = Arrow(Arrow(T1, Arrow(T1, T2)), Arrow(T1, T2))
BAD_UNUSED = parse_term("abs tau1 (x\\ abs tau2 (y\\ y))")


def assoc_list(*pairs):
    return from_list([TyAssoc(n, t) for n, t in pairs])


class TestTyCtx:
    def test_list_examples(self):
        assert ty_ctx_list(EMPTY)
        assert ty_ctx_list(assoc_list((N1, I), (N2, I)))
        assert not ty_ctx_list(assoc_list((N1, I), (N1, O)))

    def test_list_rejects_unions_and_junk(self):
        assert not ty_ctx_list(Union(EMPTY, EMPTY))
        assert not ty_ctx_list(from_list(["junk"]))

    def test_mset_examples(self):
        assert ty_ctx_mset(Union(assoc_list((N1, I)), assoc_list((N2, O))))
        assert not ty_ctx_mset(Union(assoc_list((N1, I)), assoc_list((N1, I))))
        assert ty_ctx_mset(EMPTY)

    def test_mset_permutation_invariant(self):
        pool = [TyAssoc(n, t) for n in (N1, N2) for t in (I, O)]
        universe = gen_ctxs(pool, 3, 2)
        by_key = {}
        for g in universe:
            by_key.setdefault(tuple(sorted(map(str, elems(g)))), []).append(g)
        for bucket in by_key.values():
            values = {ty_ctx_mset(g) for g in bucket}
            assert len(values) == 1


class TestTypeOf:
    def test_paper_example(self):
        assert type_of_infer(EMPTY, GOOD) == GOOD_TY
        assert type_of_enum(EMPTY, GOOD) == {GOOD_TY}

    def test_variable_lookup_first_match(self):
        l = assoc_list((N1, I), (N1, O))  # not a typing context
        assert type_of_infer(l, Free(N1)) == I
        assert type_of_enum(l, Free(N1)) == {I, O}

    def test_absent_variable(self):
        assert type_of_infer(EMPTY, Free(N1)) is None

    def test_no_let_rule(self):
        t = parse_term("let i (abs i (z\\ z)) (x\\ x)")
        assert type_of_infer(EMPTY, t) is None
        assert type_of_enum(EMPTY, t) == frozenset()

    def test_requires_list(self):
        with pytest.raises(PreconditionError):
            type_of_infer(Union(EMPTY, EMPTY), Free(N1))

    def test_unique_under_ty_ctx(self):
        names = name_pool(2)
        types = type_universe(("i", "o"), 2)
        terms = gen_terms(tuple(names), 3, (I, Arrow(I, I)), False)
        for k in range(3):
            for combo in itertools.permutations(names, k):
                for tys in itertools.product(types, repeat=k):
                    l = assoc_list(*zip(combo, tys))
                    for e in terms:
                        assert len(type_of_enum(l, e)) <= 1


class TestLinearRelational:
    def test_paper_examples(self):
        assert ltype_rel(EMPTY, GOOD, GOOD_TY)
        assert ltype_types(EMPTY, BAD_REUSE) == frozenset()
        assert ltype_types(EMPTY, BAD_UNUSED) == frozenset()

    def test_stlc_still_accepts_reuse(self):
        assert type_of_infer(EMPTY, BAD_REUSE) == BAD_REUSE_TY

    def test_variable_clause_requires_empty_residual(self):
        assert ltype_rel(assoc_list((N1, I)), Free(N1), I)
        assert not ltype_rel(assoc_list((N1, I), (N2, O)), Free(N1), I)

    def test_permutation_invariant(self):
        pool = [TyAssoc(N1, I), TyAssoc(N2, Arrow(I, O))]
        ctxs = [
            from_list(pool),
            from_list(list(reversed(pool))),
            Union(from_list(pool[:1]), from_list(pool[1:])),
            Union(from_list(pool[1:]), from_list(pool[:1])),
        ]
        app_term = App(Free(N2), Free(N1))
        results = {ltype_rel(g, app_term, O) for g in ctxs}
        assert results == {True}

    def test_linear_implies_intuitionistic(self):
        types = (I, Arrow(I, I))
        terms = gen_terms((N1,), 4, types, False)
        for t in types:
            ctx = assoc_list((N1, t))
            for e in terms:
                for ty in ltype_types(ctx, e):
                    assert ty in type_of_enum(ctx, e)
        for e in gen_terms((), 4, types, False):
            for ty in ltype_types(EMPTY, e):
                assert type_of_infer(EMPTY, e) == ty


class TestLinearChecker:
    def test_variable_consumes(self):
        ty, leftover = ltype_check(assoc_list((N1, T1)), Free(N1))
        assert ty == T1
        assert leftover == Leftover(EMPTY, frozenset({N1}))

    def test_unused_binder_rejected(self):
        assert linear_type(assoc_list((N1, T1)), parse_term("abs tau2 (y\\ n1)", [N1])) is None

    def test_partial_consumption_leftover(self):
        res = ltype_check(assoc_list((N1, I), (N2, O)), Free(N2))
        assert res is not None
        ty, leftover = res
        assert ty == O
        assert elems(leftover.remaining) == (TyAssoc(N1, I),)
        assert leftover.used == frozenset({N2})

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            ltype_check(assoc_list((N1, I), (N1, O)), Free(N1))
        with pytest.raises(PreconditionError):
            ltype_check(Union(EMPTY, EMPTY), Free(N1))

    def test_leftover_used_disjoint_from_remaining(self):
        types = (I, Arrow(I, I))
        ctx = assoc_list((N1, I), (N2, Arrow(I, I)))
        for e in gen_terms((N1, N2), 4, types, True):
            res = mltype_check(ctx, e)
            if res is None:
                continue
            _, leftover = res
            remaining_names = {a.name for a in elems(leftover.remaining)}
            assert not (leftover.used & remaining_names)


class TestMiniML:
    def test_let_example(self):
        value = parse_term("abs i (z\\ z)")
        term = Let(Arrow(I, I), value, Bound(0))
        assert ml_type(EMPTY, term) == Arrow(I, I)
        assert mltype_rel(EMPTY, term, Arrow(I, I))

    def test_let_with_context_value(self):
        term = Let(I, Free(N1), Bound(0))
        assert ml_type(assoc_list((N1, I)), term) == I

    def test_let_unused_bound_var(self):
        term = Let(Arrow(I, I), parse_term("abs i (z\\ z)"), parse_term("abs o (y\\ y)"))
        assert ml_type(EMPTY, term) is None
        assert mltype_types(EMPTY, term) == frozenset()

    def test_annotation_must_match(self):
        term = Let(O, parse_term("abs i (z\\ z)"), Bound(0))
        assert ml_type(EMPTY, term) is None

    def test_agrees_with_linear_on_let_free(self):
        types = (I, Arrow(I, I))
        for e in gen_terms((N1,), 4, types, False):
            ctx = assoc_list((N1, I))
            assert mltype_types(ctx, e) == ltype_types(ctx, e)
            assert ml_type(ctx, e) == linear_type(ctx, e)


@st.composite
def random_judgments(draw):
    names = draw(st.permutations(NAMES))[: draw(st.integers(0, len(NAMES)))]
    g = from_list([TyAssoc(n, draw(st.sampled_from(TYPE_UNIVERSE))) for n in names])
    return g, draw(terms(NAMES, TYPE_UNIVERSE, 9))


class TestBeyondUniverse:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(random_judgments(), linear_judgments(NAMES, TYPE_UNIVERSE, 12)))
    def test_relational_agrees_with_algorithmic(self, judgment):
        # Up to 4 associations and terms past size 4, where the equivalence
        # suite stops.  About half of the terms type in the let system, and
        # about a fifth are typed terms past size 4.
        g, e = judgment
        assert mltype_types(g, e) == {ml_type(g, e)} - {None}
        assert ltype_types(g, e) == {linear_type(g, e)} - {None}


class TestJudgments:
    def test_parse(self):
        j = parse_judgment("[ty_of a i] |- a : i ; accept")
        assert j.expect is True
        assert j.ty == I
        assert elems(j.ctx) == (TyAssoc(Name("a"), I),)

    def test_verdicts(self):
        j = parse_judgment("[ty_of a i, ty_of b (i -> o)] |- app b a : o ; accept")
        for system in ("stlc", "linear", "ml"):
            assert check_judgment(j, system) is True
            assert check_judgment(j, system, algo=True) is True

    def test_reject_column(self):
        j = parse_judgment("nil |- abs tau1 (x\\ abs tau2 (y\\ y)) : tau1 -> tau2 -> tau2 ; reject")
        assert check_judgment(j, "linear") is False
        assert check_judgment(j, "stlc") is True

    def test_bad_verdict_word(self):
        with pytest.raises(PreconditionError):
            parse_judgment("nil |- abs i (x\\ x) : i -> i ; maybe")
