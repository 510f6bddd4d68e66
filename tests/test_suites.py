"""Smoke coverage of the built-in suites at reduced bounds."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx import suites
from linctx.ctx import Union, elems, from_list, gen_ctxs, multiset, partition_list, perm_rel, splits
from linctx.report import GenBounds, all_passed
from linctx.suites import (
    check_linear_equivalence,
    check_ltrans_pres_ty,
    core_lemma_suite,
    gen_linear_terms,
    gen_terms,
    gen_trans_triples,
    gen_trans_triples_mset,
    translation_lemma_suite,
    typing_lemma_suite,
)
from linctx.terms import (
    TYPE_UNIVERSE,
    App,
    Arrow,
    Base,
    Let,
    Name,
    free_counts,
    name_pool,
    term_size,
)
from linctx.translate import trans_rel_list
from linctx.typecheck import TyAssoc, VarAssoc, linear_type, ml_type, ty_ctx_list, ty_ctx_mset
from strategies import judgments, linear_judgments

FIXTURES = Path(__file__).parent / "fixtures"

I = Base("i")
SMALL = GenBounds(ctx_elems=2, term_size=3)
NAMES = tuple(name_pool(4))
XS = tuple(name_pool(3, "x"))


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


def _source_classes(ctx_elems):
    """One source context per multiset class, as check_ltrans_pres_ty
    keys them."""
    classes: dict = {}
    for l1, _, _ in gen_trans_triples(GenBounds(ctx_elems=ctx_elems)):
        classes.setdefault(multiset(elems(l1)), l1)
    return list(classes.values())


class TestLinearTermGenerator:
    """`gen_linear_terms` builds from the typing rules exactly what
    filtering `gen_terms` by a checker keeps, in the same order."""

    @pytest.mark.parametrize("ctx_elems, size", [(1, 5), (2, 5), (3, 5), (1, 6)])
    @pytest.mark.parametrize("with_let", [True, False], ids=["ml_type", "linear_type"])
    def test_equals_filtered_terms(self, ctx_elems, size, with_let):
        # The filter path it replaced: every term whose free names each
        # occur once, grouped by those names, then typed by the checker.
        checker = ml_type if with_let else linear_type
        by_frees: dict = {}
        for e in gen_terms(XS, size, suites._TRANS_TYPES, with_let):
            counts = free_counts(e)
            if all(v == 1 for v in counts.values()):
                by_frees.setdefault(frozenset(counts), []).append(e)
        listed = 0
        for l1 in _source_classes(ctx_elems):
            expected = [
                (e, ty)
                for e in by_frees.get(frozenset(a.name for a in elems(l1)), ())
                if (ty := checker(l1, e)) is not None
            ]
            got = gen_linear_terms(elems(l1), XS, size, suites._TRANS_TYPES, with_let)
            assert got == expected, l1
            listed += len(got)
        assert listed > 0

    @settings(max_examples=150, deadline=None)
    @given(linear_judgments(XS, suites._TRANS_TYPES, 4).filter(lambda j: term_size(j[1]) <= 6))
    def test_rule_built_judgments_are_listed(self, judgment):
        # Past the bounds of the agreement test: any order of the context,
        # and near-miss let annotations, which must stay unlisted.
        g, e = judgment
        listed = dict(gen_linear_terms(elems(g), XS, 6, suites._TRANS_TYPES, True))
        assert listed.get(e) == ml_type(g, e)


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
        # Every term within check_ltrans_pres_ty's size bound whose free
        # names each occur once, a superset of the terms it builds.
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
    calls, and a source checker that disagrees with the enumerated type
    is a counterexample too."""

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
        # 231,873 calls when every triple typed its terms, 43,827 with one
        # typing per exact source context, and 26,763 when each class
        # filtered the generated terms; now one confirming call per
        # enumerated (class, term) pair.
        calls = 0
        real = suites.ml_type

        def counting(g, e):
            nonlocal calls
            calls += 1
            return real(g, e)

        monkeypatch.setattr(suites, "ml_type", counting)
        assert check_ltrans_pres_ty(GenBounds(ctx_elems=2)) == (598, None)
        assert calls == 100

    def test_source_checker_mutant(self, monkeypatch):
        real = suites.ml_type

        def mutant(g, e):
            return None if len(elems(g)) == 2 else real(g, e)

        monkeypatch.setattr(suites, "ml_type", mutant)
        assert check_ltrans_pres_ty(GenBounds(ctx_elems=2)) == (
            167,
            "source type not confirmed for App(fn=Free(name=Name(text='x', index=2)), "
            "arg=Free(name=Name(text='x', index=1))): enumerated Base(label='i'), "
            "checker None; G1 = [ty_of x1 i, ty_of x2 (i -> i)]; "
            "G2 = [trans_to x1 y1, trans_to x2 y2]; G3 = [ty_of y1 i, ty_of y2 (i -> i)]",
        )


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


class TestBuckets:
    def test_names_that_print_alike_share_a_bucket(self):
        # Name("c", 1) and Name("c1") both print as c1 but are distinct
        # entries; both orders of the pair are permutations of each other.
        c1, c1_text = Name("c", 1), Name("c1")
        forward, backward = from_list([c1, c1_text]), from_list([c1_text, c1])
        assert str(c1) == str(c1_text) and c1 != c1_text
        assert list(suites._buckets([forward, backward]).values()) == [[forward, backward]]


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
        real = suites.multiset

        def mutant(entries):
            return tuple(entries) if len(entries) == 2 else real(entries)

        monkeypatch.setattr(suites, "multiset", mutant)
        assert suites.check_perm_equiv(3, 3) == (
            81_034,
            "perm and perm_rel disagree on [a, b] / [b, a]",
        )


def _reverse_first_side(when):
    real = suites.perm_to_part

    def mutant(l, g1, g2):
        l1, l2 = real(l, g1, g2)
        return (from_list(elems(l1)[::-1]), l2) if when(l) else (l1, l2)

    return mutant


class TestPermToPartPinned:
    """`check_perm_to_part` checks both conjuncts of `perm_to_part` on its
    own: an output that is not an ordered partition of L is a
    counterexample at every size, and the round trip is left to
    `check_part_to_perm`."""

    @pytest.mark.parametrize(
        "when, bounds, expected",
        [
            (
                lambda l: True,
                (3, 3),
                (
                    48_847,
                    "perm_to_part output not an ordered partition: L=[a, b], G1=[a, b], G2=nil",
                ),
            ),
            (
                lambda l: True,
                (4, 3),
                (
                    133_567,
                    "perm_to_part output not an ordered partition: L=[a, b], G1=[a, b], G2=nil",
                ),
            ),
            (
                lambda l: len(elems(l)) == 4,
                (4, 3),
                (
                    163_072,
                    "perm_to_part output not an ordered partition: "
                    "L=[a, a, a, b], G1=[a, b], G2=[a, a]",
                ),
            ),
        ],
        ids=["reversed-3", "reversed-4", "reversed-only-at-4-entries"],
    )
    def test_reversed_first_side(self, monkeypatch, when, bounds, expected):
        monkeypatch.setattr(suites, "perm_to_part", _reverse_first_side(when))
        assert suites.check_perm_to_part(*bounds) == expected

    def test_round_trip_is_checked_by_part_to_perm(self, monkeypatch):
        real = suites.part_to_perm

        def mutant(l, l1, l2):
            return False if elems(l1) and elems(l2) else real(l, l1, l2)

        monkeypatch.setattr(suites, "part_to_perm", mutant)
        assert suites.check_part_to_perm(3) == (7, "failed on L=[a, a]")
        assert suites.check_part_to_perm(4) == (7, "failed on L=[a, a]")
        assert suites.check_perm_to_part(3, 3) == (94_591, None)


def _sometimes(real, broken, when):
    """A mutant of `real` that answers `broken` where `when` holds."""
    return lambda *args: broken if when(*args) else real(*args)


class TestCoreFailuresPinned:
    """The first counterexample, and the cases counted up to and including
    it, of each remaining core check under a mutant of what it checks."""

    def test_mem_replace(self, monkeypatch):
        monkeypatch.setattr(
            suites,
            "member",
            _sometimes(suites.member, False, lambda x, g: x == "b" and isinstance(g, Union)),
        )
        assert suites.check_mem_replace(3, 2) == (
            9,
            "membership differs across a permutation: [b] vs nil ++ [b]",
        )

    def test_sel_replace_residual_classes(self, monkeypatch):
        monkeypatch.setattr(
            suites,
            "select",
            _sometimes(
                suites.select,
                (),
                lambda x, g: x == "b" and isinstance(g, Union) and len(elems(g)) == 3,
            ),
        )
        assert suites.check_sel_replace(3, 2) == (
            71,
            "selection residual classes differ across a permutation: "
            "[a, a, b] vs nil ++ [a, a, b]",
        )

    def test_sel_replace_transport(self, monkeypatch):
        real = suites.sel_transport

        def mutant(x, g1, residual, g2):
            return g2 if isinstance(g2, Union) else real(x, g1, residual, g2)

        monkeypatch.setattr(suites, "sel_transport", mutant)
        assert suites.check_sel_replace(3, 2) == (
            129,
            "transported residual is not a permutation: [a] / nil ++ [a]",
        )

    def test_sel_implies_mem(self, monkeypatch):
        monkeypatch.setattr(
            suites,
            "member",
            _sometimes(suites.member, False, lambda x, g: x == "b" and len(elems(g)) == 3),
        )
        assert suites.check_sel_implies_mem(3, 2) == (
            119,
            "select without member: b in [a, a, b]",
        )

    def test_partition_count(self, monkeypatch):
        real = suites.partition_list
        monkeypatch.setattr(
            suites,
            "partition_list",
            lambda l: real(l)[:-1] if elems(l) == ("a", "b", "a") else real(l),
        )
        assert suites.check_partition_count(4) == (10, "wrong count for ['a', 'b', 'a']")


def _no_lone_o(holds):
    """A typing-context predicate that also rejects one-entry contexts of type o."""
    return lambda g: holds(g) and not (len(elems(g)) == 1 and elems(g)[0].ty == Base("o"))


class TestTypingFailuresPinned:
    """The typing and equivalence checks under a mutant predicate or checker."""

    def test_ty_ctx_mem(self):
        def holds(g):
            return ty_ctx_mset(g) or elems(g)[-1:] == ("junk",)

        assert suites.check_ty_ctx_mem(SMALL, suites._ty_msets, holds) == (
            19,
            "bad member 'junk' in [junk]",
        )

    def test_ty_ctx_uniq(self):
        def holds(g):
            return all(isinstance(e, TyAssoc) for e in elems(g))

        assert suites.check_ty_ctx_uniq(SMALL, suites._ty_lists, holds) == (
            24,
            "two types for c1 in [ty_of c1 i, ty_of c1 o]",
        )

    def test_ty_uniq(self, monkeypatch):
        real = suites.type_of_enum

        def mutant(l, e):
            found = real(l, e)
            return found | {Base("o")} if len(elems(l)) == 2 and isinstance(e, App) else found

        monkeypatch.setattr(suites, "type_of_enum", mutant)
        assert suites.check_ty_uniq(SMALL) == (
            875,
            "2 types for App(fn=Free(name=Name(text='c', index=2)), "
            "arg=Free(name=Name(text='c', index=1))) under [ty_of c1 i, ty_of c2 (i -> i)]",
        )

    @pytest.mark.parametrize(
        "universe, holds, split, expected",
        [
            (suites._ty_lists, ty_ctx_list, partition_list, 37),
            (suites._ty_msets, ty_ctx_mset, splits, 128),
        ],
        ids=["list", "mset"],
    )
    def test_ty_ctx_distr(self, universe, holds, split, expected):
        assert suites.check_ty_ctx_distr(SMALL, universe, _no_lone_o(holds), split) == (
            expected,
            "split of [ty_of c1 i, ty_of c2 o] failed",
        )

    def test_linear_equivalence(self, monkeypatch):
        monkeypatch.setattr(
            suites,
            "linear_type",
            _sometimes(
                suites.linear_type, None, lambda g, e: isinstance(e, App) and len(elems(g)) == 2
            ),
        )
        assert check_linear_equivalence(SMALL, False) == (
            2687,
            "disagreement on App(fn=Free(name=Name(text='c', index=2)), "
            "arg=Free(name=Name(text='c', index=1))) under [ty_of c1 i, ty_of c2 (i -> i)]: "
            "relational [\"Base(label='i')\"], checker None",
        )


TWO = GenBounds(ctx_elems=2)


def _perturbed_triples(monkeypatch, perturb):
    """Follow each generated multiset triple by its perturbation, where
    `perturb` gives one, and let the relation hold on every triple."""
    real = suites.gen_trans_triples_mset

    def mutant(bounds):
        out = []
        for triple in real(bounds):
            out.append(triple)
            perturbed = perturb(*triple)
            if perturbed is not None:
                out.append(perturbed)
        return out

    monkeypatch.setattr(suites, "gen_trans_triples_mset", mutant)
    monkeypatch.setattr(suites, "trans_rel_mset", lambda g1, g2, g3, _memo=None: True)


def _one_source(g1, g2, g3):
    entries = elems(g2)
    if len(entries) == 2:
        return g1, from_list([VarAssoc(entries[0].src, e.dst) for e in entries]), g3
    return None


def _typing_entry_in_middle(g1, g2, g3):
    if len(elems(g2)) == 2:
        return g1, from_list(elems(g2)[:1] + elems(g1)[1:]), g3
    return None


def _last_target_retyped(g1, g2, g3):
    entries = elems(g3)
    if len(entries) == 2 and entries[1].ty == Base("i"):
        return g1, g2, from_list(entries[:1] + (TyAssoc(entries[1].name, Base("o")),))
    return None


class TestTranslationFailuresPinned:
    """The translation checks at ctx_elems=2 under a mutant relation,
    membership test or triple generator."""

    def test_trans_rel_uniq(self, monkeypatch):
        _perturbed_triples(monkeypatch, _one_source)
        assert suites.check_trans_rel_uniq(TWO) == (
            139,
            "two targets for x1: G1 = [ty_of x1 i, ty_of x2 i]; "
            "G2 = [trans_to x1 y1, trans_to x1 y2]; G3 = [ty_of y1 i, ty_of y2 i]",
        )

    @pytest.mark.parametrize(
        "perturb, expected",
        [
            (
                _typing_entry_in_middle,
                "non-association member: G1 = [ty_of x1 i, ty_of x2 i]; "
                "G2 = [trans_to x1 y1, ty_of x2 i]; G3 = [ty_of y1 i, ty_of y2 i]",
            ),
            (
                _last_target_retyped,
                "no coordinated type for trans_to x2 y2: G1 = [ty_of x1 i, ty_of x2 i]; "
                "G2 = [trans_to x1 y1, trans_to x2 y2]; G3 = [ty_of y1 i, ty_of y2 o]",
            ),
        ],
        ids=["non-association", "no-coordinated-type"],
    )
    def test_trans_rel_mem(self, monkeypatch, perturb, expected):
        _perturbed_triples(monkeypatch, perturb)
        assert suites.check_trans_rel_mem(TWO) == (139, expected)

    def test_trans_rel_sel(self, monkeypatch):
        real = suites.trans_rel_mset
        arrow = Arrow(I, I)

        def mutant(g1, g2, g3, _memo=None):
            lone = elems(g1)
            return real(g1, g2, g3, _memo=_memo) and not (len(lone) == 1 and lone[0].ty == arrow)

        monkeypatch.setattr(suites, "trans_rel_mset", mutant)
        assert suites.check_trans_rel_sel(TWO) == (
            115,
            "no coordinated selection for trans_to x1 y1: "
            "G1 = [ty_of x1 i, ty_of x2 (i -> i)]; G2 = [trans_to x1 y1, trans_to x2 y2]; "
            "G3 = [ty_of y1 i, ty_of y2 (i -> i)]",
        )

    def test_trans_rel_list_distr(self, monkeypatch):
        real = suites.trans_rel_list

        def mutant(l1, l2, l3):
            lone = elems(l1)
            return real(l1, l2, l3) and not (len(lone) == 1 and lone[0].ty == Base("o"))

        monkeypatch.setattr(suites, "trans_rel_list", mutant)
        assert suites.check_trans_rel_list_distr(TWO) == (
            43,
            "partition failed: G1 = [ty_of x1 i, ty_of x2 o]; "
            "G2 = [trans_to x1 y1, trans_to x2 y2]; G3 = [ty_of y1 i, ty_of y2 o]",
        )

    def test_sel_implies_mem(self, monkeypatch):
        monkeypatch.setattr(
            suites,
            "member",
            _sometimes(
                suites.member, False, lambda x, g: isinstance(g, Union) and len(elems(g)) == 2
            ),
        )
        assert suites.check_trans_sel_implies_mem(TWO) == (
            418,
            "select without member in G1 = [ty_of x1 i] ++ [ty_of x2 i]; "
            "G2 = [trans_to x1 y1] ++ [trans_to x2 y2]; G3 = [ty_of y1 i] ++ [ty_of y2 i]",
        )
