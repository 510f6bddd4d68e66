"""Smoke coverage of the built-in suites at reduced bounds."""

import functools
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx import ctx, ctxspec, suites
from linctx.ctx import (
    Union,
    elems,
    from_list,
    gen_ctxs,
    multiset,
    multiset_of,
    partition_list,
    perm_rel,
    print_ctx,
    splits,
)
from linctx.ctxspec import check_distr_cases, parse_spec_file
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
    Abs,
    App,
    Arrow,
    Base,
    Free,
    Let,
    Name,
    free_counts,
    name_pool,
    print_term,
    term_size,
)
from linctx.translate import trans_rel_list, trans_rel_mset
from linctx.typecheck import (
    TyAssoc,
    VarAssoc,
    _linear_types,
    linear_type,
    ml_type,
    ty_ctx_list,
    ty_ctx_mset,
)
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
        from linctx.terms import closed_free_names

        for t in gen_terms((Name("x", 1),), 4, (I,), True):
            assert closed_free_names(t) is not None
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

    def test_all_mset_triples_satisfy_relation(self):
        # The uniqueness and membership checks read every triple as related.
        for ctx_elems in range(4):
            for triple in gen_trans_triples_mset(GenBounds(ctx_elems=ctx_elems)):
                assert trans_rel_mset(*triple)

    def test_mset_variants_deduplicated(self):
        triples = gen_trans_triples_mset(SMALL)
        assert len(set(triples)) == len(triples)

    @pytest.mark.parametrize("generate", [gen_trans_triples, gen_trans_triples_mset])
    def test_each_universe_built_once(self, monkeypatch, generate):
        # Every call returns a new list of one kept universe, keyed by the
        # only bound the generators read.
        assert generate(GenBounds(ctx_elems=5)) == generate(GenBounds(ctx_elems=3))
        first = generate(SMALL)
        first.pop()
        monkeypatch.setattr(suites, "from_list", None)
        again = generate(GenBounds(ctx_elems=2, union_depth=1, term_size=6))
        assert again[:-1] == first and len(again) == len(first) + 1


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
                    "type not preserved for abs i (x\\ x): source i -> i, target None; "
                    "G1 = nil; G2 = nil; G3 = nil",
                ),
            ),
            (
                lambda real: lambda g, e: None if len(elems(g)) == 2 else real(g, e),
                (
                    167,
                    "type not preserved for app x2 x1: source i, "
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
        # filtered the generated terms; 100 with one confirming call per
        # enumerated (class, term) pair; now only the classes of the
        # triples that come first in their orbits are typed.
        calls = 0
        real = suites.ml_type

        def counting(g, e):
            nonlocal calls
            calls += 1
            return real(g, e)

        monkeypatch.setattr(suites, "ml_type", counting)
        assert check_ltrans_pres_ty(GenBounds(ctx_elems=2)) == (598, None)
        assert calls == 42

    def test_source_checker_mutant(self, monkeypatch):
        real = suites.ml_type

        def mutant(g, e):
            return None if len(elems(g)) == 2 else real(g, e)

        monkeypatch.setattr(suites, "ml_type", mutant)
        assert check_ltrans_pres_ty(GenBounds(ctx_elems=2)) == (
            167,
            "source type not confirmed for app x2 x1: enumerated i, "
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
        for i, g in enumerate(universe):
            expected = sum(1 << j for j, h in enumerate(universe) if perm_rel(g, h))
            assert rows[i] == expected, g


class TestKeptTables:
    def test_warm_tables_change_no_result(self, monkeypatch):
        # The checks that read the answers `align_mset` and `perm_rel` keep:
        # each from empty tables, as when each check kept its own memo;
        # then all of them into one pair of tables; then all again,
        # answered from those tables alone.
        checks = [
            functools.partial(check_distr_cases, spec, index, GenBounds(ctx_elems=n), enforce)
            for name in ("specs.ctx", "broken_freshness.ctx")
            for spec in parse_spec_file((FIXTURES / name).read_text())
            for index in range(1, spec.arity + 1)
            for n in (1, 2)
            for enforce in (True, False)
        ] + [
            functools.partial(suites.check_perm_equiv, 3, 3),
            functools.partial(suites.check_trans_rel_sel, TWO),
        ]
        cold = []
        for check in checks:
            monkeypatch.setattr(ctxspec, "_ALIGNED", {})
            ctx.perm_rel.cache_clear()
            cold.append(check())
        aligned = {}
        monkeypatch.setattr(ctxspec, "_ALIGNED", aligned)
        ctx.perm_rel.cache_clear()
        assert [check() for check in checks] == cold
        filled = ctx.perm_rel.cache_info().currsize, {key: len(table) for key, table in aligned.items()}
        assert [check() for check in checks] == cold
        # Nothing new was kept: every answer came from the tables.
        assert (
            ctx.perm_rel.cache_info().currsize,
            {key: len(table) for key, table in aligned.items()},
        ) == filled
        assert filled[0] and {flag for _, flag in aligned} == {True, False}


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


def _memo_keyed_on(key):
    """A mutant `perm_to_part` that keeps one answer per `key(l, g1, g2)`."""
    real, memo = suites.perm_to_part, {}

    def mutant(l, g1, g2):
        k = key(l, g1, g2)
        if k not in memo:
            memo[k] = real(l, g1, g2)
        return memo[k]

    return mutant


class TestPermToPartMemoPinned:
    """`check_perm_to_part` catches a `perm_to_part` memo whose key is too
    coarse.  A key without one side's class is not among these: once the
    precondition holds, l and the other class fix it, so only a call that
    breaks the precondition tells it apart (`tests/test_ctx.py`)."""

    @pytest.mark.parametrize(
        "key, expected",
        [
            (
                lambda l, g1, g2: (multiset_of(l), multiset_of(g1), multiset_of(g2)),
                (238, "perm_to_part output not an ordered partition: L=[b, a], G1=nil, G2=[a, b]"),
            ),
            (
                lambda l, g1, g2: (l, len(elems(g1))),
                (18_959, "perm_to_part output not permutations: L=[a, b], G1=[b], G2=[a]"),
            ),
        ],
        ids=["list-order-dropped", "classes-as-first-side-size"],
    )
    def test_coarse_key(self, monkeypatch, key, expected):
        monkeypatch.setattr(suites, "perm_to_part", _memo_keyed_on(key))
        assert suites.check_perm_to_part(3, 3) == expected


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
        assert suites.check_partition_count(4) == (10, "wrong count for [a, b, a]")


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
            "bad member junk in [junk]",
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
            "2 types for app c2 c1 under [ty_of c1 i, ty_of c2 (i -> i)]",
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
            "disagreement on app c2 c1 under [ty_of c1 i, ty_of c2 (i -> i)]: "
            "relational {i}, checker None",
        )


def _plain_equivalence(bounds, with_let):
    """`check_linear_equivalence` decided on every pair, with no orbit skipping."""
    contexts = suites._typed_lists(name_pool(2), min(bounds.ctx_elems, 2))
    terms = gen_terms(tuple(name_pool(2)), bounds.term_size, TYPE_UNIVERSE, with_let)
    checker = suites.ml_type if with_let else suites.linear_type
    cache = {}
    cases = 0
    for g in contexts:
        for e in terms:
            cases += 1
            relational = _linear_types(g, e, with_let, cache)
            algo = checker(g, e)
            if not (len(relational) == 1 and algo in relational if algo else not relational):
                return cases, (
                    f"disagreement on {print_term(e)} under {print_ctx(g)}: "
                    f"relational {{{', '.join(sorted(map(str, relational)))}}}, checker {algo}"
                )
    return cases, None


def _plain_ty_uniq(bounds):
    """`check_ty_uniq` decided on every case, with no orbit skipping."""
    names = name_pool(3)
    terms = gen_terms(tuple(names), 3, (I, TYPE_UNIVERSE[-1]), False)
    cases = 0
    for l in suites._typed_lists(names, bounds.ctx_elems):
        for e in terms:
            cases += 1
            derivable = suites.type_of_enum(l, e)
            if len(derivable) > 1:
                return cases, f"{len(derivable)} types for {print_term(e)} under {print_ctx(l)}"
    return cases, None


def _renamed_term(t, renaming):
    if isinstance(t, Free):
        return Free(renaming[t.name])
    if isinstance(t, App):
        return App(_renamed_term(t.fn, renaming), _renamed_term(t.arg, renaming))
    if isinstance(t, Abs):
        return Abs(t.ann, _renamed_term(t.body, renaming))
    if isinstance(t, Let):
        return Let(t.ann, _renamed_term(t.val, renaming), _renamed_term(t.body, renaming))
    return t


def _orbit_key(pool):
    """The orbit of a (context, term) pair under the renamings of the
    pool, each image built by renaming the nodes directly."""
    renamings = [dict(zip(pool, order)) for order in itertools.permutations(pool)]

    def key(pair):
        g, e = pair
        return frozenset(
            (from_list([TyAssoc(r[a.name], a.ty) for a in elems(g)]), _renamed_term(e, r))
            for r in renamings
        )

    return key


def _orbits(contexts, terms, pool):
    return set(map(_orbit_key(pool), itertools.product(contexts, terms)))


EQUIV_BOUNDS = [GenBounds(term_size=4, ctx_elems=1), GenBounds(term_size=3, ctx_elems=2)]
C2 = Free(name_pool(2)[1])


class TestOrbitVerdicts:
    """The checks that decide one case per orbit under renamings of their
    pool names agree with a plain loop over every case."""

    @pytest.mark.parametrize("with_let", [False, True], ids=["linear", "ml"])
    @pytest.mark.parametrize("bounds", EQUIV_BOUNDS, ids=["size4-ctx1", "size3-ctx2"])
    def test_linear_equivalence(self, bounds, with_let):
        assert check_linear_equivalence(bounds, with_let) == _plain_equivalence(bounds, with_let)

    def test_ty_uniq(self):
        assert suites.check_ty_uniq(SMALL) == _plain_ty_uniq(SMALL) == (9400, None)

    def test_ty_uniq_under_an_equivariant_mutant(self, monkeypatch):
        monkeypatch.setattr(
            suites,
            "type_of_enum",
            _sometimes(
                suites.type_of_enum, frozenset({I, Base("o")}), lambda l, e: isinstance(e, App)
            ),
        )
        assert suites.check_ty_uniq(SMALL) == _plain_ty_uniq(SMALL)

    def test_app_of_c2_broken(self, monkeypatch):
        # The failing case of each orbit comes first in the sweep: under
        # [ty_of c1 i, ty_of c2 (i -> i)], whose image under the swap starts
        # with c2, so both loops stop at the same case.
        monkeypatch.setattr(
            suites,
            "linear_type",
            _sometimes(suites.linear_type, None, lambda g, e: isinstance(e, App) and e.fn is C2),
        )
        expected = (
            2687,
            "disagreement on app c2 c1 under [ty_of c1 i, ty_of c2 (i -> i)]: "
            "relational {i}, checker None",
        )
        assert _plain_equivalence(SMALL, False) == expected
        assert check_linear_equivalence(SMALL, False) == expected

    def test_variable_c2_broken(self, monkeypatch):
        # This mutant is not equivariant, and every case it breaks comes
        # after its image under the swap, so the orbit rule never decides
        # one: the trade of deciding once per orbit, written down.
        monkeypatch.setattr(
            suites,
            "linear_type",
            _sometimes(suites.linear_type, None, lambda g, e: e is C2),
        )
        assert _plain_equivalence(SMALL, False) == (
            1178,
            "disagreement on c2 under [ty_of c2 i]: relational {i}, checker None",
        )
        assert check_linear_equivalence(SMALL, False) == (14280, None)

    @pytest.mark.parametrize("with_let", [False, True], ids=["linear", "ml"])
    def test_equivalence_decides_one_pair_per_orbit(self, monkeypatch, with_let):
        decided = []
        real = suites._linear_types
        monkeypatch.setattr(
            suites, "_linear_types", lambda g, e, *rest: decided.append((g, e)) or real(g, e, *rest)
        )
        check_linear_equivalence(SMALL, with_let)
        contexts = suites._typed_lists(name_pool(2), 2)
        terms = gen_terms(tuple(name_pool(2)), 3, TYPE_UNIVERSE, with_let)
        assert _orbits(contexts, terms, name_pool(2)) == set(map(_orbit_key(name_pool(2)), decided))
        assert len(decided) == len(set(decided)) == (8709 if with_let else 7179)

    def test_ty_uniq_decides_one_case_per_orbit(self, monkeypatch):
        decided = []
        real = suites.type_of_enum
        monkeypatch.setattr(suites, "type_of_enum", lambda l, e: decided.append((l, e)) or real(l, e))
        suites.check_ty_uniq(SMALL)
        contexts = suites._typed_lists(name_pool(3), 2)
        terms = gen_terms(tuple(name_pool(3)), 3, (I, TYPE_UNIVERSE[-1]), False)
        assert _orbits(contexts, terms, name_pool(3)) == set(map(_orbit_key(name_pool(3)), decided))
        assert len(decided) == len(set(decided)) == 1633

    def test_renamings_reject_a_generator_that_is_not_structural(self):
        # A generator that uses only the first name of its pool: the
        # images of its values under the swap are not among them.
        with pytest.raises(AssertionError, match="not a bijection"):
            suites._renamings(lambda pool: gen_terms(pool[:1], 2, (I,), False), name_pool(2))


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
    monkeypatch.setattr(suites, "trans_rel_mset", lambda g1, g2, g3: True)


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


def _lone_arrow_unrelated(monkeypatch):
    """`trans_rel_mset` rejects a triple whose G1 is one entry of type i -> i."""
    real = suites.trans_rel_mset
    arrow = Arrow(I, I)

    def mutant(g1, g2, g3):
        lone = elems(g1)
        return real(g1, g2, g3) and not (len(lone) == 1 and lone[0].ty == arrow)

    monkeypatch.setattr(suites, "trans_rel_mset", mutant)


def _lone_o_unrelated(monkeypatch):
    """`trans_rel_list` rejects a triple whose G1 is one entry of type o."""
    real = suites.trans_rel_list

    def mutant(l1, l2, l3):
        lone = elems(l1)
        return real(l1, l2, l3) and not (len(lone) == 1 and lone[0].ty == Base("o"))

    monkeypatch.setattr(suites, "trans_rel_list", mutant)


def _two_entry_unions_lose_members(monkeypatch):
    monkeypatch.setattr(
        suites,
        "member",
        _sometimes(suites.member, False, lambda x, g: isinstance(g, Union) and len(elems(g)) == 2),
    )


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
        _lone_arrow_unrelated(monkeypatch)
        assert suites.check_trans_rel_sel(TWO) == (
            115,
            "no coordinated selection for trans_to x1 y1: "
            "G1 = [ty_of x1 i, ty_of x2 (i -> i)]; G2 = [trans_to x1 y1, trans_to x2 y2]; "
            "G3 = [ty_of y1 i, ty_of y2 (i -> i)]",
        )

    def test_trans_rel_list_distr(self, monkeypatch):
        _lone_o_unrelated(monkeypatch)
        assert suites.check_trans_rel_list_distr(TWO) == (
            43,
            "partition failed: G1 = [ty_of x1 i, ty_of x2 o]; "
            "G2 = [trans_to x1 y1, trans_to x2 y2]; G3 = [ty_of y1 i, ty_of y2 o]",
        )

    def test_sel_implies_mem(self, monkeypatch):
        _two_entry_unions_lose_members(monkeypatch)
        assert suites.check_trans_sel_implies_mem(TWO) == (
            418,
            "select without member in G1 = [ty_of x1 i] ++ [ty_of x2 i]; "
            "G2 = [trans_to x1 y1] ++ [trans_to x2 y2]; G3 = [ty_of y1 i] ++ [ty_of y2 i]",
        )


TRANSLATION_CHECKS = [
    suites.check_trans_rel_uniq,
    suites.check_trans_rel_mem,
    suites.check_trans_rel_sel,
    suites.check_trans_rel_list_distr,
    suites.check_trans_rel_distr,
    suites.check_trans_sel_implies_mem,
    suites.check_ltrans_pres_ty,
]

# Each mutant of TestTranslationFailuresPinned, with the check it breaks.
TRANSLATION_MUTANTS = {
    "one-source": ("check_trans_rel_uniq", lambda mp: _perturbed_triples(mp, _one_source)),
    "non-association": (
        "check_trans_rel_mem",
        lambda mp: _perturbed_triples(mp, _typing_entry_in_middle),
    ),
    "no-coordinated-type": (
        "check_trans_rel_mem",
        lambda mp: _perturbed_triples(mp, _last_target_retyped),
    ),
    "lone-arrow": ("check_trans_rel_sel", _lone_arrow_unrelated),
    "lone-o": ("check_trans_rel_list_distr", _lone_o_unrelated),
    "unions-lose-members": ("check_trans_sel_implies_mem", _two_entry_unions_lose_members),
}


def _plain(monkeypatch, check, bounds):
    """`check(bounds)` deciding every triple: each gets an orbit of its own."""
    with monkeypatch.context() as m:
        m.setattr(suites, "_orbit_key", lambda triple: object())
        return check(bounds)


def _renamed_ctx(g, renaming):
    if isinstance(g, ctx.Cons):
        head = g.head
        if isinstance(head, TyAssoc):
            head = TyAssoc(renaming[head.name], head.ty)
        else:
            head = VarAssoc(renaming[head.src], renaming[head.dst])
        return ctx.Cons(head, _renamed_ctx(g.tail, renaming))
    if isinstance(g, Union):
        return Union(_renamed_ctx(g.left, renaming), _renamed_ctx(g.right, renaming))
    return g


YS = tuple(name_pool(3, "y"))
# The 36 renamings of the triples' names: each order of x1..x3 with each of y1..y3.
TRIPLE_RENAMINGS = [
    dict(zip(XS + YS, xo + yo))
    for xo in itertools.permutations(XS)
    for yo in itertools.permutations(YS)
]


@functools.cache
def _images(g):
    return tuple(_renamed_ctx(g, renaming) for renaming in TRIPLE_RENAMINGS)


def _explicit_orbit(triple):
    """The images of a triple under the 36 renamings, each built directly."""
    return frozenset(zip(*map(_images, triple)))


class TestTranslationOrbits:
    """The translation checks decide one triple per orbit under renamings
    of x1..x3 and y1..y3 (the comment above `suites._orbit_key`), and agree
    with a loop that decides every triple."""

    @pytest.mark.parametrize("ctx_elems", [1, 2, 3])
    def test_checks_agree_with_plain_loop(self, monkeypatch, ctx_elems):
        bounds = GenBounds(ctx_elems=ctx_elems)
        for check in TRANSLATION_CHECKS:
            assert check(bounds) == _plain(monkeypatch, check, bounds), check.__name__

    @pytest.mark.parametrize("mutant", TRANSLATION_MUTANTS)
    def test_mutants_agree_with_plain_loop(self, monkeypatch, mutant):
        name, install = TRANSLATION_MUTANTS[mutant]
        install(monkeypatch)
        check = getattr(suites, name)
        got = check(TWO)
        assert got[1] is not None
        assert got == _plain(monkeypatch, check, TWO)

    @pytest.mark.parametrize(
        "ctx_elems, mset_orbits, list_orbits", [(2, 52, 13), (3, 187, 40)]
    )
    def test_orbit_keys_name_the_orbits(self, ctx_elems, mset_orbits, list_orbits):
        # Equal keys exactly for triples in one explicit orbit.
        bounds = GenBounds(ctx_elems=ctx_elems)
        for universe, orbits in (
            (gen_trans_triples_mset(bounds), mset_orbits),
            (gen_trans_triples(bounds), list_orbits),
        ):
            pairs = {(suites._orbit_key(t), _explicit_orbit(t)) for t in universe}
            assert len({key for key, _ in pairs}) == len({orbit for _, orbit in pairs}) == len(
                pairs
            ) == orbits

    def test_orbit_key_reads_any_entry(self):
        # A typing entry in the middle context, as the mutants put there.
        x1, x2 = XS[:2]
        g1 = from_list([TyAssoc(x1, I)])
        assert suites._orbit_key((g1, from_list([TyAssoc(x1, I)]), ctx.EMPTY)) == (
            suites._orbit_key((from_list([TyAssoc(x2, I)]), from_list([TyAssoc(x2, I)]), ctx.EMPTY))
        )
        assert suites._orbit_key((g1, from_list([TyAssoc(x1, I)]), ctx.EMPTY)) != (
            suites._orbit_key((g1, from_list([TyAssoc(x2, I)]), ctx.EMPTY))
        )
        assert suites._orbit_key((g1, from_list(["junk"]), ctx.EMPTY)) != (
            suites._orbit_key((g1, from_list(["junk", "junk"]), ctx.EMPTY))
        )

    def test_decides_one_triple_per_orbit(self, monkeypatch):
        decided = []
        real = suites._uniq_cases
        monkeypatch.setattr(suites, "_uniq_cases", lambda t: decided.append(t) or real(t))
        assert suites.check_trans_rel_uniq(TWO) == (2727, None)
        universe = gen_trans_triples_mset(TWO)
        assert set(map(_explicit_orbit, decided)) == set(map(_explicit_orbit, universe))
        assert len(decided) == len(set(map(_explicit_orbit, decided))) == 52

    def test_lone_x3_unrelated(self, monkeypatch):
        # This mutant is not equivariant: it rejects only the one-entry
        # triples over x3, and every triple whose selection reaches one
        # comes after its image over x2 in the sweep, so the orbit rule
        # never decides one: the trade of deciding once per orbit.
        real = suites.trans_rel_mset

        def mutant(g1, g2, g3):
            lone = elems(g1)
            return real(g1, g2, g3) and not (len(lone) == 1 and lone[0].name == XS[2])

        monkeypatch.setattr(suites, "trans_rel_mset", mutant)
        assert _plain(monkeypatch, suites.check_trans_rel_sel, TWO) == (
            739,
            "no coordinated selection for trans_to x1 y1: G1 = [ty_of x1 i, ty_of x3 i]; "
            "G2 = [trans_to x1 y1, trans_to x3 y2]; G3 = [ty_of y1 i, ty_of y2 i]",
        )
        assert suites.check_trans_rel_sel(TWO) == (2727, None)
