"""Smoke coverage of the built-in suites at reduced bounds."""

import json
from pathlib import Path

from linctx import suites
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
from linctx.terms import Arrow, Base, Let, Name, term_size
from linctx.translate import trans_rel_list

FIXTURES = Path(__file__).parent / "fixtures"

I = Base("i")
SMALL = GenBounds(ctx_elems=2, term_size=3)


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
        assert counterexample is None
        assert cases > 0
