"""The three type systems and the typing-context predicates."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx import typecheck
from linctx.ctx import EMPTY, Cons, Union, elems, from_list, gen_ctxs
from linctx.errors import PreconditionError
from linctx.suites import _typed_lists, gen_terms
from linctx.terms import (
    EMPTY_SET,
    Abs,
    App,
    Arrow,
    Base,
    Bound,
    Free,
    Let,
    Local,
    Name,
    TYPE_UNIVERSE,
    free_names,
    fresh,
    name_pool,
    open_term,
    parse_term,
    print_type,
    type_universe,
)
from linctx.typecheck import (
    Leftover,
    _linear_types,
    TyAssoc,
    check_judgment,
    ctx_names,
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
from strategies import judgments, linear_judgments

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
        assert leftover == Leftover(EMPTY)

    def test_unused_binder_rejected(self):
        assert linear_type(assoc_list((N1, T1)), parse_term("abs tau2 (y\\ n1)", [N1])) is None

    def test_partial_consumption_leftover(self):
        res = ltype_check(assoc_list((N1, I), (N2, O)), Free(N2))
        assert res is not None
        ty, leftover = res
        assert ty == O
        assert elems(leftover.remaining) == (TyAssoc(N1, I),)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            ltype_check(assoc_list((N1, I), (N1, O)), Free(N1))
        with pytest.raises(PreconditionError):
            ltype_check(Union(EMPTY, EMPTY), Free(N1))


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


class TestBeyondUniverse:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(judgments(NAMES, TYPE_UNIVERSE, 9), linear_judgments(NAMES, TYPE_UNIVERSE, 12))
    )
    def test_relational_agrees_with_algorithmic(self, judgment):
        # Up to 4 associations and terms past size 4, where the equivalence
        # suite stops.  About half of the terms type in the let system, and
        # about a fifth are typed terms past size 4.
        g, e = judgment
        assert mltype_types(g, e) == {ml_type(g, e)} - {None}
        assert ltype_types(g, e) == {linear_type(g, e)} - {None}


class TestBinderNames:
    # A binder is named by its depth, a name that no input holds.  A free
    # name that the context does not declare must not be captured: each
    # term below would type if its binders took its free names.  The last
    # one's free names are the first four of `fresh`'s chain.
    N, N_1, C1 = Name("n"), Name("n", 1), Name("c", 1)
    CAPTURABLE = (
        (EMPTY, parse_term("abs i (x\\ n)", [N])),
        (EMPTY, parse_term("abs i (x\\ abs (i -> i) (y\\ app n1 x))", [N_1])),
        (assoc_list((C1, I)), parse_term("abs (i -> i) (x\\ app n c1)", [N, C1])),
        (
            EMPTY,
            parse_term(
                "abs (i -> i -> i -> i) (x\\ abs i (y\\ abs i (z\\ abs i (w\\ "
                "app (app (app n n1) n2) n3))))",
                [N, N_1, N2, N3],
            ),
        ),
    )

    @pytest.mark.parametrize("g, e", CAPTURABLE)
    def test_no_reading_captures(self, g, e):
        assert type_of_infer(g, e) is None
        assert type_of_enum(g, e) == frozenset()
        assert ltype_types(g, e) == frozenset()
        assert ltype_check(g, e) is None
        assert mltype_types(g, e) == frozenset()
        assert mltype_check(g, e) is None

    def test_declared_name_is_avoided(self):
        # With n declared, n resolves to the context's association, not to
        # the binder.
        g = assoc_list((self.N, I))
        e = parse_term("abs (i -> i) (x\\ app x n)", [self.N])
        ty = Arrow(Arrow(I, I), I)
        assert type_of_infer(g, e) == ty
        assert ltype_types(g, e) == mltype_types(g, e) == {ty}
        assert ltype_check(g, e) == (ty, Leftover(EMPTY))

    def test_pinned_digest(self):
        # Checker results (type and leftover) and the relational type sets
        # of every term up to size 4 over the free names c1, n and n1 (the
        # first names of `fresh`'s chain), under every list of up to two of
        # them.  Pinned from readings that named each binder outside the
        # names of its context and term.  No leftover holds a binder's name.
        frees = (self.C1, self.N, self.N_1)
        types = (I, Arrow(I, I))
        terms = gen_terms(frees, 4, types, True)
        digest = hashlib.sha256()
        count = 0
        for k in range(3):
            for names in itertools.permutations(frees, k):
                for tys in itertools.product(types, repeat=k):
                    g = assoc_list(*zip(names, tys))
                    for e in terms:
                        for check, types_of in (
                            (ltype_check, ltype_types),
                            (mltype_check, mltype_types),
                        ):
                            res = check(g, e)
                            if res is None:
                                line = "-"
                            else:
                                ty, left = res
                                assert not any(
                                    isinstance(a.name, Local) for a in elems(left.remaining)
                                )
                                remaining = " ".join(map(str, elems(left.remaining)))
                                line = f"{print_type(ty)}|{remaining}"
                            derivable = ",".join(sorted(map(print_type, types_of(g, e))))
                            digest.update(f"{line}\n{derivable}\n".encode())
                            count += 2
        assert count == 49104
        assert digest.hexdigest() == (
            "30d91fba9da817f8b5e3ea547a36d6a2b6ff259cdd6e4691f564445c6caaae04"
        )


def _per_binder_infer(l, e):
    """type_of_infer as it read before one avoid set per call: each binder
    is named outside the names of its own context and body."""
    if isinstance(e, Free):
        return next((a.ty for a in elems(l) if a.name == e.name), None)
    if isinstance(e, App):
        fn_ty = _per_binder_infer(l, e.fn)
        if isinstance(fn_ty, Arrow) and _per_binder_infer(l, e.arg) == fn_ty.dom:
            return fn_ty.cod
        return None
    if isinstance(e, Abs):
        x = fresh(ctx_names(l) | free_names(e))
        body_ty = _per_binder_infer(Cons(TyAssoc(x, e.ann), l), open_term(e.body, x))
        return None if body_ty is None else Arrow(e.ann, body_ty)
    return None


def _per_binder_enum(l, e):
    """type_of_enum as it read before one avoid set per call."""
    if isinstance(e, Free):
        return frozenset(a.ty for a in elems(l) if a.name == e.name)
    if isinstance(e, App):
        arg_tys = _per_binder_enum(l, e.arg)
        return frozenset(
            t.cod for t in _per_binder_enum(l, e.fn) if isinstance(t, Arrow) and t.dom in arg_tys
        )
    if isinstance(e, Abs):
        x = fresh(ctx_names(l) | free_names(e))
        body_tys = _per_binder_enum(Cons(TyAssoc(x, e.ann), l), open_term(e.body, x))
        return frozenset(Arrow(e.ann, t) for t in body_tys)
    return frozenset()


class TestStlcAvoidSet:
    """The STLC readings name binders by depth and build no names to avoid."""

    def test_deep_chain_walks_the_term_once(self, monkeypatch):
        e = Bound(0)
        for _ in range(300):
            e = Abs(I, e)
        ty = I
        for _ in range(300):
            ty = Arrow(I, ty)
        calls = []

        def counting(t):
            calls.append(t)
            return free_names(t)

        monkeypatch.setattr("linctx.terms.free_names", counting)
        assert not hasattr(typecheck, "free_names")
        assert type_of_infer(EMPTY, e) == ty
        assert type_of_enum(EMPTY, e) == {ty}
        assert calls == []

    def test_results_equal_per_binder_readings(self):
        # The universe of TestBinderNames' digest, without let, where the
        # per-binder readings must name their binders past the free n and n1.
        n, n_1, c1 = Name("n"), Name("n", 1), Name("c", 1)
        frees = (c1, n, n_1)
        types = (I, Arrow(I, I))
        terms = gen_terms(frees, 4, types, False)
        pairs = 0
        for k in range(3):
            for names in itertools.permutations(frees, k):
                for tys in itertools.product(types, repeat=k):
                    l = assoc_list(*zip(names, tys))
                    for e in terms:
                        assert type_of_infer(l, e) == _per_binder_infer(l, e)
                        assert type_of_enum(l, e) == _per_binder_enum(l, e)
                        pairs += 1
        assert pairs == 31 * len(terms)


def equivalence_universe(term_size, ctx_elems, with_let):
    """The (context, term) pairs of `check_linear_equivalence` at these bounds."""
    names = name_pool(2)
    terms = gen_terms(tuple(names), term_size, TYPE_UNIVERSE, with_let)
    return [(g, e) for g in _typed_lists(names, ctx_elems) for e in terms]


class TestRelationalMemo:
    # The equivalence check keeps one memo for all its pairs; the public
    # readings start a fresh one per call.

    @pytest.mark.parametrize("with_let", [False, True])
    def test_memo_keeps_shared_empty_sets_and_no_abstractions(self, with_let):
        cache: dict = {}
        for g, e in equivalence_universe(3, 1, with_let):
            _linear_types(g, e, with_let, cache)
        assert cache
        assert all(v is EMPTY_SET for v in cache.values() if not v)
        # Result keys are (context, term); `_memo` keys start with a function.
        assert not [k for k in cache if not callable(k[0]) and isinstance(k[1], Abs)]

    def test_empty_results_are_the_shared_set(self):
        g = assoc_list((N1, I))
        unused = parse_term("abs i (x\\ n1)", [N1])
        closed = parse_term("abs i (x\\ x)")
        assert ltype_types(g, unused) is EMPTY_SET
        assert mltype_types(g, unused) is EMPTY_SET
        assert ltype_types(EMPTY, Free(N1)) is EMPTY_SET
        assert type_of_enum(EMPTY, Free(N1)) is EMPTY_SET
        assert type_of_enum(g, App(Free(N1), Free(N1))) is EMPTY_SET
        assert free_names(closed) is EMPTY_SET

    @pytest.mark.parametrize("with_let", [False, True])
    def test_shared_memo_agrees_with_fresh_memo(self, with_let):
        # The perfbench `equivalence` bounds.  A result stored for one pair
        # is read back for another, which may reach it at another depth.
        cache: dict = {}
        pairs = equivalence_universe(4, 1, with_let)
        for g, e in pairs:
            assert _linear_types(g, e, with_let, cache) == _linear_types(g, e, with_let, {})
        assert len(pairs) == (31902 if with_let else 17862)


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
