"""Smoke coverage of the built-in suites at reduced bounds."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx import suites
from linctx.ctx import Union, elems, from_list, gen_ctxs, perm_rel
from linctx.report import GenBounds, all_passed
from linctx.suites import (
    check_linear_equivalence,
    check_ltrans_pres_ty,
    core_lemma_suite,
    gen_terms,
    gen_trans_triples,
    gen_trans_triples_mset,
    translation_lemma_suite,
    typing_lemma_suite,
)
from linctx.terms import TYPE_UNIVERSE, Arrow, Base, Let, Name, free_counts, name_pool, term_size
from linctx.translate import trans_rel_list
from linctx.typecheck import ml_type
from strategies import judgments, linear_judgments

FIXTURES = Path(__file__).parent / "fixtures"

I = Base("i")
SMALL = GenBounds(ctx_elems=2, term_size=3)
NAMES = tuple(name_pool(4))


class TestTermGenerator:
    def test_counts_against_recurrence(self):
        frees = (Name("x", 1), Name("x", 2))
        anns = (I, Arrow(I, I))

        def count(size, depth, with_let):
            if size == 1:
                return len(frees) + depth
            total = len(anns) * count(size - 1, depth + 1, with_let)
            for left in range(1, size - 1):
                total += count(left, depth, with_let) * count(size - 1 - left, depth, with_let)
                if with_let:
                    total += len(anns) * count(left, depth, with_let) * count(
                        size - 1 - left, depth + 1, with_let
                    )
            return total

        for with_let in (False, True):
            got = gen_terms(frees, 4, anns, with_let)
            expected = sum(count(s, 0, with_let) for s in range(1, 5))
            assert len(got) == expected
            assert len(set(got)) == len(got)

    def test_all_locally_closed_and_sized(self):
        from linctx.terms import locally_closed

        for t in gen_terms((Name("x", 1),), 4, (I,), True):
            assert locally_closed(t)
            assert term_size(t) <= 4

    def test_includes_let_terms(self):
        terms = gen_terms((), 4, (I,), True)
        assert any(isinstance(t, Let) for t in terms)


class TestTripleGenerator:
    def test_all_list_triples_satisfy_relation(self):
        for triple in gen_trans_triples(SMALL):
            assert trans_rel_list(*triple)

    def test_mset_variants_deduplicated(self):
        triples = gen_trans_triples_mset(SMALL)
        assert len(set(triples)) == len(triples)


class TestTransRelChecks:
    def test_cases_golden(self):
        # (cases, counterexample) of the multiset-form translation checks,
        # recorded while the relation was decided by a hand-written search.
        lines = []
        for name in ("uniq", "mem", "sel", "distr"):
            check = getattr(suites, f"check_trans_rel_{name}")
            for ctx_elems in (1, 2):
                cases, counterexample = check(GenBounds(ctx_elems=ctx_elems))
                record = {
                    "check": f"trans_rel_{name}",
                    "ctx_elems": ctx_elems,
                    "cases": cases,
                    "counterexample": counterexample,
                }
                lines.append(json.dumps(record) + "\n")
        golden = FIXTURES / "golden" / "trans_rel_checks.jsonl"
        assert "".join(lines) == golden.read_text()


class TestSuitesSmoke:
    def test_core_small(self):
        assert all_passed(core_lemma_suite(max_elems=2, max_depth=2))

    def test_typing_small(self):
        assert all_passed(typing_lemma_suite(SMALL))

    def test_translation_small(self):
        assert all_passed(translation_lemma_suite(SMALL))

    def test_equivalence_small(self):
        cases, counterexample = check_linear_equivalence(SMALL, False)
        assert counterexample is None and cases > 0

    def test_pres_ty_covers_let(self):
        cases, counterexample = check_ltrans_pres_ty(GenBounds(ctx_elems=1, term_size=4))
        assert (cases, counterexample) == (166, None)


class TestExchange:
    """ML typing over distinct names does not depend on the order of the
    context.  `check_ltrans_pres_ty` types each source term once per
    multiset class of its source context, and is sound only by this."""

    def test_generated_source_contexts_have_distinct_names(self):
        for l1, _, _ in gen_trans_triples(GenBounds(ctx_elems=3)):
            names = [a.name for a in elems(l1)]
            assert len(set(names)) == len(names)

    def test_reversed_source_context_types_alike(self):
        # The candidate terms of check_ltrans_pres_ty: every term within
        # its size bound whose free names each occur once.
        by_frees: dict = {}
        for e in gen_terms(tuple(name_pool(3, "x")), 5, suites._TRANS_TYPES, True):
            counts = free_counts(e)
            if all(v == 1 for v in counts.values()):
                by_frees.setdefault(frozenset(counts), []).append(e)
        contexts = {
            l1 for l1, _, _ in gen_trans_triples(GenBounds(ctx_elems=2)) if len(elems(l1)) == 2
        }
        assert len(contexts) == 54
        typed = 0
        for l1 in contexts:
            flipped = from_list(elems(l1)[::-1])
            for e in by_frees[frozenset(a.name for a in elems(l1))]:
                ty = ml_type(l1, e)
                assert ml_type(flipped, e) == ty, (l1, e)
                typed += ty is not None
        assert typed > 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(judgments(NAMES, TYPE_UNIVERSE, 9), linear_judgments(NAMES, TYPE_UNIVERSE, 12)),
        st.data(),
    )
    def test_permuted_context_types_alike(self, judgment, data):
        # Up to 4 associations over distinct names, past the check's bounds.
        g, e = judgment
        permuted = from_list(data.draw(st.permutations(elems(g))))
        assert ml_type(permuted, e) == ml_type(g, e)


class TestPresTyPinned:
    """`check_ltrans_pres_ty` at ctx_elems=2 against the per-triple typing
    it replaced: the same first counterexample, for far fewer checker
    calls."""

    @pytest.mark.parametrize(
        "mutant, expected",
        [
            (
                lambda real: lambda g, e: None,
                (
                    1,
                    "type not preserved for Abs(ann=Base(label='i'), body=Bound(index=0)): "
                    "source Arrow(dom=Base(label='i'), cod=Base(label='i')), target None; "
                    "G1 = nil; G2 = nil; G3 = nil",
                ),
            ),
            (
                lambda real: lambda g, e: None if len(elems(g)) == 2 else real(g, e),
                (
                    167,
                    "type not preserved for App(fn=Free(name=Name(text='x', index=2)), "
                    "arg=Free(name=Name(text='x', index=1))): source Base(label='i'), "
                    "target None; G1 = [ty_of x1 i, ty_of x2 (i -> i)]; "
                    "G2 = [trans_to x1 y1, trans_to x2 y2]; G3 = [ty_of y1 i, ty_of y2 (i -> i)]",
                ),
            ),
        ],
        ids=["first-case", "two-entries"],
    )
    def test_first_counterexample(self, monkeypatch, mutant, expected):
        monkeypatch.setattr(suites, "linear_type", mutant(suites.linear_type))
        assert check_ltrans_pres_ty(GenBounds(ctx_elems=2)) == expected

    def test_ml_type_calls(self, monkeypatch):
        # 231,873 calls when every triple typed its terms, and 43,827 with
        # one typing per exact source context.
        calls = 0
        real = suites.ml_type

        def counting(g, e):
            nonlocal calls
            calls += 1
            return real(g, e)

        monkeypatch.setattr(suites, "ml_type", counting)
        assert check_ltrans_pres_ty(GenBounds(ctx_elems=2)) == (598, None)
        assert calls == 26_763


class TestPermRelRows:
    def test_rows_agree_with_perm_rel_over_three_letters(self):
        # A third letter reaches pairs where some x of one context is
        # missing from the other.
        universe = gen_ctxs(("a", "b", "c"), 3, 2)
        assert len(universe) == 374
        index, rows = suites._perm_rel_fast_table(universe)
        assert index == {g: i for i, g in enumerate(universe)}
        memo: dict = {}
        for i, g in enumerate(universe):
            expected = sum(1 << j for j, h in enumerate(universe) if perm_rel(g, h, memo))
            assert rows[i] == expected, g


class TestPermEquivPinned:
    """The first counterexample of `check_perm_equiv` at (3, 3) when the
    decision or the search it is checked against is broken: the count is
    the row-major position of the first disagreeing pair."""

    def test_select_drops_b_from_three_element_unions(self, monkeypatch):
        real = suites.select

        def mutant(x, g):
            if x == "b" and isinstance(g, Union) and len(elems(g)) == 3:
                return ()
            return real(x, g)

        monkeypatch.setattr(suites, "select", mutant)
        assert suites.check_perm_equiv(3, 3) == (
            514_137,
            "perm and perm_rel disagree on [b, b, b] / nil ++ [b, b, b]",
        )

    def test_mkey_leaves_two_element_keys_unsorted(self, monkeypatch):
        real = suites._mkey

        def mutant(g):
            found = elems(g)
            return tuple(found) if len(found) == 2 else real(g)

        monkeypatch.setattr(suites, "_mkey", mutant)
        assert suites.check_perm_equiv(3, 3) == (
            81_034,
            "perm and perm_rel disagree on [a, b] / [b, a]",
        )
