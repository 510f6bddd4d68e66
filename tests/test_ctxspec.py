"""The schematic context-specification engine."""

import dataclasses
import hashlib
import itertools
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx import ctxspec, suites
from linctx.ctx import EMPTY, Union, elems, from_list, gen_ctxs, is_list, multiset, perm, splits
from linctx.ctxspec import (
    FAnd,
    FEq,
    FIsName,
    FMember,
    FOr,
    MetaVar,
    NablaVar,
    align_mset,
    check_distr_cases,
    check_distr_instances,
    check_list_pred,
    gen_distr_lemma,
    generate_list_instances,
    generate_mset_instances,
    lift_lemma,
    parse_lemma,
    parse_lemma_file,
    parse_spec,
    parse_spec_file,
    render_contexts,
    render_lemma,
    value_names,
    verify_lemma_cases,
)
from linctx.errors import PreconditionError, ShapeError, SyntaxError_
from linctx.report import GenBounds
from linctx.terms import Arrow, Base, Name
from linctx.translate import (
    TRANS_REL,
    trans_rel_list,
    trans_rel_mset,
    trans_rel_mset_exhaustive,
)
from linctx.typecheck import TyAssoc, VarAssoc, ty_ctx_list, ty_ctx_mset
from strategies import shaped

FIXTURES = Path(__file__).parent / "fixtures"

I = Base("i")
O = Base("o")
N1, N2 = Name("n", 1), Name("n", 2)
M1, M2 = Name("m", 1), Name("m", 2)

TY_CTX_CMD = "Context ty_ctx' with elems as nabla x (ty_of x T)."
TRANS_REL_CMD = (
    "Context trans_rel with elems as "
    "nabla x y (ty_of x T _|_ trans_to x y _|_ ty_of y T)."
)

MEM_LEMMA = (
    "Lemma ty_ctx_mem : forall L X, ty_ctx'_list L -> member X L -> "
    "exists n T, name n /\\ X = ty_of n T."
)
UNIQ_LEMMA = (
    "Lemma ty_ctx_uniq : forall L X T1 T2, ty_ctx'_list L -> "
    "member (ty_of X T1) L -> member (ty_of X T2) L -> T1 = T2."
)
TRANS_MEM_LEMMA = (
    "Lemma trans_rel_mem : forall L1 L2 L3 E, trans_rel_list L1 L2 L3 -> "
    "member E L2 -> exists X Y T, E = trans_to X Y /\\ name X /\\ name Y /\\ "
    "member (ty_of X T) L1 /\\ member (ty_of Y T) L3."
)
# T is universal but bound by no member hypothesis.
UNBOUND_FORALL_LEMMA = "Lemma t : forall L T, ty_ctx'_list L -> T = T."
# Conclusions that start with a member atom.
MEMBER_CONCL_LEMMAS = (
    "Lemma a : forall L1 L2 L3 E, trans_rel_list L1 L2 L3 -> member E L1 -> member E L3.",
    "Lemma b : forall L E, ty_ctx'_list L -> member E L -> true /\\ member E L.",
)
# Two clauses: entries the first clause rejects for freshness can be
# accepted by the second.
TWO_CMD = (
    "Context two with elems as nabla x y (ty_of x T _|_ ty_of y T) \\/ "
    "(ty_of X T _|_ ty_of X U -| T = U)."
)

BOUNDS = GenBounds(ctx_elems=2)


@pytest.fixture(scope="module")
def ty_spec():
    return parse_spec(TY_CTX_CMD)


@pytest.fixture(scope="module")
def tr_spec():
    return parse_spec(TRANS_REL_CMD)


class TestParsing:
    def test_unary_command(self, ty_spec):
        assert ty_spec.name == "ty_ctx'"
        assert ty_spec.arity == 1
        assert len(ty_spec.clauses) == 1
        assert ty_spec.clauses[0].nabla_vars == ("x",)

    def test_ternary_command(self, tr_spec):
        assert tr_spec.arity == 3
        assert tr_spec.clauses[0].nabla_vars == ("x", "y")

    def test_distinct_metavariable_variant(self):
        spec = parse_spec(
            "Context trans_rel2 with elems as "
            "nabla x y (ty_of x T _|_ trans_to x y _|_ ty_of y T')."
        )
        crossed = (
            from_list([TyAssoc(N1, I)]),
            from_list([VarAssoc(N1, M1)]),
            from_list([TyAssoc(M1, O)]),
        )
        assert align_mset(spec, crossed) is not None
        assert not trans_rel_mset_exhaustive(*crossed)

    def test_arity_mismatch(self):
        with pytest.raises(ShapeError):
            parse_spec(
                "Context bad with elems as (ty_of X T _|_ trans_to X Y) \\/ (ty_of X T)."
            )

    def test_unbound_formula_variable(self):
        with pytest.raises(ShapeError):
            parse_spec("Context bad with elems as nabla x (ty_of x T -| U = T).")

    def test_nabla_var_must_occur(self):
        with pytest.raises(ShapeError):
            parse_spec("Context bad with elems as nabla x y (ty_of x T).")

    def test_overlap_warning(self):
        spec = parse_spec(
            "Context over with elems as (ty_of X T) \\/ nabla x (ty_of x T)."
        )
        assert spec.warnings
        # two base-type constants overlap only when they are the same
        distinct = parse_spec("Context c with elems as (ty_of X i) \\/ (ty_of Y o).")
        assert distinct.warnings == ()
        same = parse_spec("Context c with elems as (ty_of X i) \\/ (ty_of Y i).")
        assert len(same.warnings) == 1

    def test_patterns_are_interned_nodes(self):
        spec = parse_spec("Context c with elems as nabla x (ty_of x T).")
        assert spec.clauses[0].patterns[0] is TyAssoc(NablaVar("x"), MetaVar("T"))
        # a variable may have a constructor's name; a constant may not (see test_cli)
        spec = parse_spec("Context c with elems as nabla arrow (ty_of arrow T).")
        assert spec.clauses[0].patterns[0] is TyAssoc(NablaVar("arrow"), MetaVar("T"))

    def test_pickled_spec_keeps_its_nodes(self, tr_spec):
        # `--jobs` sends specifications to worker processes this way.
        loaded = pickle.loads(pickle.dumps(tr_spec))
        assert loaded == tr_spec
        for before, after in zip(tr_spec.clauses, loaded.clauses, strict=True):
            assert all(p is q for p, q in zip(before.patterns, after.patterns, strict=True))

    def test_spec_file_with_both_commands(self):
        specs = parse_spec_file(TY_CTX_CMD + "\n" + TRANS_REL_CMD)
        assert [s.name for s in specs] == ["ty_ctx'", "trans_rel"]

    def test_list_form_name_is_defined_once(self):
        # `ty_ctx'` defines `ty_ctx'_list` too; the CLI tests cover a repeated name.
        second = "Context ty_ctx'_list with elems as (ty_of X T)."
        with pytest.raises(ShapeError, match="^predicate \"ty_ctx'_list\" is defined twice$"):
            parse_spec_file(TY_CTX_CMD + "\n" + second)

    def test_formula_disjunction(self):
        spec = parse_spec(
            "Context small with elems as nabla x (ty_of x T -| T = i \\/ T = o)."
        )
        assert check_list_pred(spec, [from_list([TyAssoc(N1, I)])])
        assert not check_list_pred(spec, [from_list([TyAssoc(N1, Arrow(I, I))])])


class TestSideFormulaSyntax:
    """A side formula with a conjunction after `-|`, a parenthesised
    disjunction and a `name` atom, through every check that reads it."""

    SMALL_CMD = (
        "Context small with elems as nabla x (ty_of x T -| (T = i \\/ T = o) /\\ name x)."
    )
    LEMMA = "Lemma base : forall L X T, small_list L -> member (ty_of X T) L -> "

    @pytest.fixture(scope="class")
    def spec(self):
        return parse_spec(self.SMALL_CMD)

    def test_parsed_formula(self, spec):
        is_i, is_o = (FEq(MetaVar("T"), Base(ty)) for ty in ("i", "o"))
        assert spec.clauses[0].formula == FAnd(FOr(is_i, is_o), FIsName(NablaVar("x")))

    def test_list_pred(self, spec):
        n = Name("n")
        assert check_list_pred(spec, [from_list([TyAssoc(n, I)])])
        assert not check_list_pred(spec, [from_list([TyAssoc(n, Arrow(I, I))])])

    def test_instances_and_distributivity(self, spec):
        assert len(list(generate_list_instances(spec, BOUNDS))) == 7
        assert check_distr_cases(spec, 1, BOUNDS) == (73, None)

    def test_lemma_with_bare_constant(self, spec):
        stmt = parse_lemma(self.LEMMA + "exists U, U = i.")
        # a bare lowercase constant is a base type, so U ranges over types
        assert ctxspec._lemma_var_sorts(spec, stmt)["U"] == "ty"
        assert verify_lemma_cases(spec, stmt, BOUNDS) == (7, None)

    def test_lemma_counterexample(self, spec):
        stmt = parse_lemma(self.LEMMA + "T = i.")
        assert verify_lemma_cases(spec, stmt, BOUNDS) == (
            3,
            "L = [ty_of n o] with T = o, X = n",
        )


class TestElaborationFidelity:
    def test_unary_list_form(self, ty_spec):
        pool = [TyAssoc(n, t) for n in (N1, N2) for t in (I, O)] + ["junk"]
        for l in gen_ctxs(pool, 3, 1):
            assert check_list_pred(ty_spec, [l]) == ty_ctx_list(l)

    def test_unary_mset_form(self, ty_spec):
        pool = [TyAssoc(n, t) for n in (N1, N2) for t in (I, O)] + ["junk"]
        for g in gen_ctxs(pool, 3, 2):
            assert (align_mset(ty_spec, [g]) is not None) == ty_ctx_mset(g)

    def test_ternary_against_hand_coded(self, tr_spec):
        # trans_rel_mset is the engine on the same clause, so both are
        # compared with the exhaustive oracle.  Every generated triple is
        # in the relation; its crossed-type mutants are not.
        from linctx.suites import gen_trans_triples_mset

        verdicts = set()
        for g1, g2, g3 in gen_trans_triples_mset(GenBounds(ctx_elems=2)):
            triples = [(g1, g2, g3)]
            if elems(g3):
                a, *rest = elems(g3)
                triples.append((g1, g2, from_list([TyAssoc(a.name, Arrow(O, O))] + rest)))
            for triple in triples:
                expected = trans_rel_mset_exhaustive(*triple)
                assert (align_mset(tr_spec, triple) is not None) == expected
                assert trans_rel_mset(*triple) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_builtin_spec_is_the_fixture_clause(self):
        (fixture,) = [
            s for s in parse_spec_file((FIXTURES / "specs.ctx").read_text())
            if s.name == "trans_rel"
        ]
        assert TRANS_REL == fixture

    def test_ternary_list_against_hand_coded(self, tr_spec):
        from linctx.suites import gen_trans_triples

        for triple in gen_trans_triples(GenBounds(ctx_elems=2)):
            assert check_list_pred(tr_spec, triple) == trans_rel_list(*triple)
            # crossed-type mutation
            l1, l2, l3 = triple
            if elems(l3):
                a = elems(l3)[0]
                mutated = from_list((TyAssoc(a.name, Arrow(O, O)),) + elems(l3)[1:])
                assert check_list_pred(tr_spec, (l1, l2, mutated)) == trans_rel_list(
                    l1, l2, mutated
                )

    def test_deep_list_form(self, ty_spec):
        entries = [TyAssoc(Name("n", k), I) for k in range(3000)]
        assert check_list_pred(ty_spec, [from_list(entries)])
        clash = entries + [TyAssoc(Name("n", 0), O)]
        assert not check_list_pred(ty_spec, [from_list(clash)])

    def test_deep_mset_form(self, ty_spec):
        # The alignment recurses once per entry: its memo lookup must add
        # no frame, or this depth raises RecursionError.
        entries = tuple(TyAssoc(Name("n", k), I) for k in range(800))
        g = from_list(entries)
        assert align_mset(ty_spec, [g]) is not None
        assert align_mset(ty_spec, [g]) == (entries,)

    def test_unary_clash_stays_linear(self, ty_spec, monkeypatch):
        # One name repeated after distinct ones: no arrangement holds, and
        # the search must not try the subsets of the other entries.  The
        # small case fails fast if it does; the large one would not end.
        for size in (12, 300):
            entries = [TyAssoc(Name("n", k), I) for k in range(size)]
            g = from_list(entries + [TyAssoc(Name("n", 0), I)])
            monkeypatch.setattr(ctxspec, "_ALIGNED", {})
            assert align_mset(ty_spec, [g]) is None
            assert not ty_ctx_mset(g)
            assert len(ctxspec._ALIGNED[ty_spec.clauses, True]) <= size + 2

    def test_base_clause_all_empty(self, tr_spec):
        assert check_list_pred(tr_spec, [EMPTY, EMPTY, EMPTY])
        assert align_mset(tr_spec, [Union(EMPTY, EMPTY), EMPTY, EMPTY]) is not None

    def test_unequal_counts_rejected(self, tr_spec):
        assert align_mset(
            tr_spec, [from_list([TyAssoc(N1, I)]), EMPTY, EMPTY]
        ) is None


class TestMsetSemantics:
    def test_exists_list_definition(self, ty_spec):
        # brute-force reading: some arrangement satisfies the list form
        pool = [TyAssoc(n, t) for n in (N1, N2) for t in (I, O)]
        for g in gen_ctxs(pool, 2, 2):
            brute = any(
                check_list_pred(ty_spec, [from_list(order)])
                for order in set(itertools.permutations(elems(g)))
            )
            assert (align_mset(ty_spec, [g]) is not None) == brute

    def test_permutation_and_reassociation_invariance(self, tr_spec):
        l1 = from_list([TyAssoc(N1, I), TyAssoc(N2, O)])
        l2 = from_list([VarAssoc(N1, M1), VarAssoc(N2, M2)])
        l3 = from_list([TyAssoc(M1, I), TyAssoc(M2, O)])
        assert align_mset(tr_spec, (l1, l2, l3)) is not None
        e1 = elems(l1)
        variants1 = [
            from_list(reversed(e1)),
            Union(from_list(e1[:1]), from_list(e1[1:])),
            Union(Union(from_list(e1[:1]), EMPTY), from_list(e1[1:])),
            Union(EMPTY, Union(from_list(e1[1:]), from_list(e1[:1]))),
        ]
        for v in variants1:
            assert align_mset(tr_spec, (v, l2, l3)) is not None

    def test_binary_step_after_a_dead_end(self):
        # Pairing a with c holds but leaves b with d, which fails; only the
        # next step, a with d, leads to an alignment.  With more than one
        # context a dead-end step does not decide the rows.
        spec = parse_spec(
            "Context pairs with elems as (ty_of X T _|_ ty_of Y U -| T = i \\/ U = o)."
        )
        a, b, c, d = (Name(s) for s in "abcd")
        g1 = from_list([TyAssoc(a, I), TyAssoc(b, O)])
        g2 = from_list([TyAssoc(c, O), TyAssoc(d, I)])
        assert align_mset(spec, [g1, g2]) == (
            (TyAssoc(a, I), TyAssoc(b, O)),
            (TyAssoc(d, I), TyAssoc(c, O)),
        )

    def test_align_returns_coordinated_lists(self, tr_spec):
        g1 = Union(from_list([TyAssoc(N2, O)]), from_list([TyAssoc(N1, I)]))
        l2 = from_list([VarAssoc(N1, M1), VarAssoc(N2, M2)])
        l3 = from_list([TyAssoc(M1, I), TyAssoc(M2, O)])
        aligned = align_mset(tr_spec, (g1, l2, l3))
        assert aligned is not None
        lists = [from_list(row) for row in aligned]
        assert check_list_pred(tr_spec, lists)
        for g, l in zip((g1, l2, l3), lists):
            assert perm(g, l)


def _render_alignment(aligned):
    if aligned is None:
        return "None"
    return " | ".join(", ".join(map(str, row)) for row in aligned)


class TestAlignment:
    def test_kept_answers_are_per_clauses_and_flag(self, ty_spec, monkeypatch):
        # A repeated name aligns under a clause without nabla, and under
        # ty_ctx' only without freshness.  Asked in either order from empty
        # tables, no call may find another call's kept answer.
        g = from_list([TyAssoc(N1, I), TyAssoc(N1, I)])
        loose = parse_spec("Context loose_ctx with elems as (ty_of X T).")
        calls = [(loose, True, (elems(g),)), (ty_spec, True, None), (ty_spec, False, (elems(g),))]
        for order in (calls, calls[::-1]):
            monkeypatch.setattr(ctxspec, "_ALIGNED", {})
            for spec, enforce, expected in order:
                assert align_mset(spec, [g], enforce) == expected

    def test_digests_golden(self):
        # Every generated multiset instance, its first context without its
        # first entry, and (arity > 1) its contexts reversed.  Recorded
        # while the search ran on residual context trees, from an empty
        # memo per record; the answers are the same from the kept tables.
        lines = []
        for name in ("specs.ctx", "broken_freshness.ctx"):
            for spec in parse_spec_file((FIXTURES / name).read_text()):
                for ctx_elems in (1, 2):
                    for enforce in (True, False):
                        results = []
                        bounds = GenBounds(ctx_elems=ctx_elems)
                        for contexts in generate_mset_instances(spec, bounds, enforce):
                            calls = [contexts]
                            first = elems(contexts[0])
                            if first:
                                calls.append((from_list(first[1:]),) + tuple(contexts[1:]))
                            if spec.arity > 1:
                                calls.append(tuple(reversed(contexts)))
                            for call in calls:
                                results.append(align_mset(spec, call, enforce))
                        text = "".join(_render_alignment(a) + "\n" for a in results)
                        record = {
                            "spec": spec.name,
                            "ctx_elems": ctx_elems,
                            "enforce_freshness": enforce,
                            "calls": len(results),
                            "found": sum(a is not None for a in results),
                            "sha256": hashlib.sha256(text.encode()).hexdigest(),
                        }
                        lines.append(json.dumps(record) + "\n")
        golden = FIXTURES / "golden" / "align_digests.jsonl"
        assert "".join(lines) == golden.read_text()


_NAMES = [Name("a", k) for k in range(1, 5)]
_TYPES = [I, O, Arrow(I, I)]


@st.composite
def trans_triples(draw):
    """Up to three entries per context in random cons/union shapes.  Half
    are coordinated: entry k of each context comes from one name pair and
    one type, each context in its own order.  Source names are pairwise
    distinct and so are target names, but one name can be both, which
    breaks freshness."""
    if draw(st.booleans()):
        sources = st.sampled_from(_NAMES[:3])
        targets = st.sampled_from(_NAMES[2:] + [M1, M2])
        pair = st.tuples(sources, targets, st.sampled_from(_TYPES))
        steps = draw(st.lists(pair, max_size=3, unique_by=(lambda p: p[0], lambda p: p[1])))
        rows = (
            [TyAssoc(x, t) for x, _, t in steps],
            [VarAssoc(x, y) for x, y, _ in steps],
            [TyAssoc(y, t) for _, y, t in steps],
        )
        rows = [draw(st.permutations(row)) for row in rows]
    else:
        ty = st.builds(TyAssoc, st.sampled_from(_NAMES), st.sampled_from(_TYPES))
        var = st.builds(VarAssoc, st.sampled_from(_NAMES), st.sampled_from(_NAMES))
        rows = [draw(st.lists(st.one_of(ty, var), max_size=3)) for _ in range(3)]
    return tuple(draw(shaped(list(row), 3)) for row in rows)


class TestAlignmentDifferential:
    @settings(max_examples=150, deadline=None)
    @given(trans_triples())
    def test_trans_rel_against_exhaustive(self, triple):
        expected = trans_rel_mset_exhaustive(*triple)
        assert trans_rel_mset(*triple) == expected
        assert (align_mset(TRANS_REL, triple) is not None) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_unary_against_ty_ctx_mset(self, ty_spec, data):
        names = st.sampled_from(_NAMES + [N1, N2, M1, M2])
        assoc = st.builds(TyAssoc, names, st.sampled_from(_TYPES))
        items = data.draw(
            st.one_of(
                st.lists(assoc, max_size=10, unique_by=lambda a: a.name),
                st.lists(assoc, max_size=10),
            )
        )
        g = data.draw(shaped(items, 3))
        aligned = align_mset(ty_spec, [g])
        assert (aligned is not None) == ty_ctx_mset(g)
        if aligned is not None:
            (row,) = aligned
            assert perm(from_list(row), g)
            assert check_list_pred(ty_spec, [from_list(row)])


class TestGeneration:
    def test_generated_lists_satisfy_pred(self, tr_spec):
        for spec in (tr_spec, parse_spec(TWO_CMD)):
            for enforce in (True, False):
                for contexts in generate_list_instances(spec, BOUNDS, enforce):
                    assert check_list_pred(spec, contexts, enforce)

    @pytest.mark.parametrize(
        "cmd, ctx_elems, enforce, count",
        [
            (TWO_CMD, 1, True, 25),
            (TWO_CMD, 2, True, 601),
            (TWO_CMD, 2, False, 889),
            (TY_CTX_CMD, 3, False, 943),
            (TRANS_REL_CMD, 2, False, 301),
        ],
    )
    def test_list_instance_counts(self, cmd, ctx_elems, enforce, count):
        spec = parse_spec(cmd)
        bounds = GenBounds(ctx_elems=ctx_elems)
        assert len(list(generate_list_instances(spec, bounds, enforce))) == count

    def test_generated_msets_satisfy_pred(self, ty_spec):
        for contexts in generate_mset_instances(ty_spec, BOUNDS):
            assert align_mset(ty_spec, contexts) is not None

    def test_nested_union_variant(self, ty_spec):
        deep = GenBounds(ctx_elems=2, union_depth=3)
        instances = list(generate_mset_instances(ty_spec, deep))
        nested = [g for (g,) in instances if isinstance(g, Union) and isinstance(g.left, Union)]
        assert nested
        for contexts in instances:
            assert align_mset(ty_spec, contexts) is not None
        cases, counterexample = check_distr_cases(ty_spec, 1, deep)
        assert counterexample is None
        assert cases > check_distr_cases(ty_spec, 1, GenBounds(ctx_elems=2))[0]

    def test_generation_is_deterministic(self, ty_spec):
        first = list(generate_mset_instances(ty_spec, BOUNDS))
        second = list(generate_mset_instances(ty_spec, BOUNDS))
        assert first == second

    def test_instance_order_golden(self):
        # Every instance of both generators, in the order yielded, for each
        # fixture spec; recorded while the generators returned lists.
        lines = []
        for spec, ctx_elems, enforce, form, generate in _fixture_universes():
            gvars = [f"G{j}" for j in range(1, spec.arity + 1)]
            digest = hashlib.sha256()
            count = 0
            for contexts in generate(spec, GenBounds(ctx_elems=ctx_elems), enforce):
                digest.update((render_contexts(gvars, contexts) + "\n").encode())
                count += 1
            record = {
                "spec": spec.name,
                "form": form,
                "ctx_elems": ctx_elems,
                "enforce_freshness": enforce,
                "instances": count,
                "sha256": digest.hexdigest(),
            }
            lines.append(json.dumps(record) + "\n")
        assert "".join(lines) == (FIXTURES / "golden" / "instance_digests.jsonl").read_text()

    def test_value_names_memo(self):
        values = set(suites._ASSOC_POOL)
        for spec, ctx_elems, enforce, _, generate in _fixture_universes():
            for contexts in generate(spec, GenBounds(ctx_elems=ctx_elems), enforce):
                values.update(e for g in contexts for e in elems(g))
        deep = I
        for k in range(40):
            deep = Arrow(deep, O) if k % 2 else Arrow(O, deep)
            values.update((deep, TyAssoc(N1, deep)))
        assert "junk" in values and any(isinstance(v, VarAssoc) for v in values)
        value_names.cache_clear()
        for value in values:
            assert value_names(value) == _names_of(value)  # computed
            kept = value_names.cache_info()
            assert value_names(value) == _names_of(value)  # kept
            info = value_names.cache_info()
            assert (info.hits, info.currsize) == (kept.hits + 1, kept.currsize)


class TestDeepElementTerms:
    """The element-term and pattern walkers take a 5,000-deep arrow nest."""

    DEPTH = 5000

    def test_values(self):
        deep = I
        for _ in range(self.DEPTH):
            deep = Arrow(O, deep)
        entry = TyAssoc(N1, deep)
        value_names.cache_clear()
        assert value_names(deep) is ctxspec.EMPTY_SET
        assert value_names(entry) == {N1}
        pools = ctxspec._collect_by_sort([from_list([entry])])
        assert pools["ty_assoc"] == [entry] and pools["name"] == [N1]
        # Parents first, left to right: the nest, O, the next arrow, ..., I.
        assert pools["ty"][:3] == [deep, O, deep.cod] and pools["ty"][-1] is I
        assert len(pools["ty"]) == self.DEPTH + 2
        assert str(entry) == f"ty_of {N1} (" + "o -> " * self.DEPTH + "i)"

    def test_patterns(self):
        pat = MetaVar("T0")
        for k in range(1, self.DEPTH + 1):
            pat = Arrow(MetaVar(f"T{k}"), pat)
        names = {f"T{k}" for k in range(self.DEPTH + 1)}
        assert ctxspec.pattern_vars(TyAssoc(NablaVar("x"), pat)) == names | {"x"}
        sorts = {"T7": "name"}  # the first sort recorded wins
        ctxspec._record_sorts(TyAssoc(NablaVar("x"), pat), "ty_assoc", sorts)
        assert sorts == {"x": "name", "T7": "name"} | dict.fromkeys(names - {"T7"}, "ty")

    def test_render_pattern(self):
        pat = I
        for _ in range(self.DEPTH):
            pat = Arrow(MetaVar("T"), pat)
        assert ctxspec.render_pattern(TyAssoc(NablaVar("x"), pat)) == (
            "ty_of x " + "(arrow T " * self.DEPTH + "i" + ")" * self.DEPTH
        )


def _fixture_universes():
    """(spec, ctx_elems, enforce, form, generator) for each fixture spec at
    ctx_elems 1-3 (1-2 above arity 1), with freshness on and off."""
    for spec in _fixture_specs():
        for ctx_elems in range(1, 3 if spec.arity > 1 else 4):
            for enforce in (True, False):
                yield spec, ctx_elems, enforce, "list", generate_list_instances
                yield spec, ctx_elems, enforce, "mset", generate_mset_instances


def _names_of(value) -> frozenset:
    """The names inside a value, read off its dataclass fields."""
    if isinstance(value, Name):
        return frozenset((value,))
    if not dataclasses.is_dataclass(value):
        return frozenset()
    fields = dataclasses.fields(value)
    return frozenset().union(*(_names_of(getattr(value, f.name)) for f in fields))


class TestStreaming:
    """Generation stops at a check's counterexample."""

    @pytest.mark.parametrize(
        "spec_name, lemma_file, lemma_name, lift, enforce, result, full",
        [
            (
                "loose_ctx", "broken_uniq.lem", "loose_uniq", False, True,
                (16, "L = [ty_of m1 o, ty_of m1 i] with T1 = o, T2 = i, X = m1"), 1885,
            ),
            (
                "loose_ctx", "broken_uniq.lem", "loose_uniq", True, True,
                (32, "G1 = [ty_of m1 o, ty_of m1 i] with T1 = o, T2 = i, X = m1"), 5497,
            ),
            (
                "ty_ctx'", "lemmas.lem", "ty_ctx_uniq", False, False,
                (11, "L = [ty_of n o, ty_of n i] with T1 = o, T2 = i, X = n"), 943,
            ),
        ],
        ids=["loose_uniq", "loose_uniq_mset", "ty_ctx_uniq_nofresh"],
    )
    def test_check_stops_at_counterexample(
        self, monkeypatch, spec_name, lemma_file, lemma_name, lift, enforce, result, full
    ):
        (spec,) = [s for s in _fixture_specs() if s.name == spec_name]
        lemmas = parse_lemma_file((FIXTURES / lemma_file).read_text())
        (stmt,) = [s for s in lemmas if s.name == lemma_name]
        if lift:
            stmt = lift_lemma(spec, stmt)[0]
        generate = generate_mset_instances if lift else generate_list_instances
        bounds = GenBounds(ctx_elems=3)
        steps = Counter()
        heads_ok = ctxspec._heads_ok

        def counting_heads_ok(*args):
            steps["heads_ok"] += 1
            return heads_ok(*args)

        monkeypatch.setattr(ctxspec, "_heads_ok", counting_heads_ok)
        assert sum(1 for _ in generate(spec, bounds, enforce)) == full
        full_steps = steps.pop("heads_ok")
        assert verify_lemma_cases(spec, stmt, bounds, enforce) == result
        assert steps["heads_ok"] * 50 < full_steps


# The instance that a reversed split mask fails on in every position.
_REVERSED_TRIPLE = (
    "G1 = [ty_of n2 i, ty_of n i]; G2 = [trans_to n2 n3, trans_to n n1]; "
    "G3 = [ty_of n3 i, ty_of n1 i]"
)


class TestDistributivity:
    def test_statement_golden(self, tr_spec):
        stmt = gen_distr_lemma(tr_spec, 2)
        assert stmt.render() == (
            "Theorem trans_rel_distr2 : forall G1 G2 G2' G2'' G3, "
            "trans_rel G1 G2 G3 -> G2 ~ G2' ++ G2'' -> "
            "exists G1' G1'' G3' G3'', "
            "trans_rel G1' G2' G3' /\\ trans_rel G1'' G2'' G3'' /\\ "
            "G1 ~ G1' ++ G1'' /\\ G3 ~ G3' ++ G3''."
        )

    def test_unary_statement(self, ty_spec):
        stmt = gen_distr_lemma(ty_spec, 1)
        assert stmt.render() == (
            "Theorem ty_ctx'_distr1 : forall G1 G1' G1'', "
            "ty_ctx' G1 -> G1 ~ G1' ++ G1'' -> ty_ctx' G1' /\\ ty_ctx' G1''."
        )

    def test_index_out_of_range(self, ty_spec):
        with pytest.raises(PreconditionError):
            gen_distr_lemma(ty_spec, 0)
        with pytest.raises(PreconditionError):
            gen_distr_lemma(ty_spec, 2)

    @pytest.mark.parametrize("index", [0, -2, 4])
    def test_cases_index_out_of_range(self, tr_spec, monkeypatch, index):
        def no_generation(*args, **kwargs):
            raise AssertionError("instances generated for an invalid index")

        monkeypatch.setattr(ctxspec, "generate_mset_instances", no_generation)
        with pytest.raises(PreconditionError, match=f"index {index} out of range for arity 3"):
            check_distr_cases(tr_spec, index, BOUNDS)

    def test_instances_outside_predicate_fail(self, tr_spec):
        inside = (
            from_list([TyAssoc(N1, I)]),
            from_list([VarAssoc(N1, M1)]),
            from_list([TyAssoc(M1, I)]),
        )
        outside = (inside[0], inside[1], from_list([TyAssoc(M1, O)]))
        assert check_distr_instances(tr_spec, 3, [inside]) == (2, None)
        assert check_distr_instances(tr_spec, 3, [inside, outside]) == (
            3,
            "G1 = [ty_of n1 i]; G2 = [trans_to n1 m1]; G3 = [ty_of m1 o]; "
            "G3 ~ [ty_of m1 o] ++ nil",
        )

    def test_split_witnesses(self, tr_spec):
        # The halves of one split: the split context's halves as given, the
        # other contexts' halves cut from the alignment by the same mask.
        g1 = from_list([TyAssoc(N1, I), TyAssoc(N2, O)])
        g2 = from_list([VarAssoc(N1, M1), VarAssoc(N2, M2)])
        g3 = from_list([TyAssoc(M1, I), TyAssoc(M2, O)])
        first, second = from_list([TyAssoc(N2, O)]), from_list([TyAssoc(N1, I)])
        half1 = (first, from_list([VarAssoc(N2, M2)]), from_list([TyAssoc(M2, O)]))
        half2 = (second, from_list([VarAssoc(N1, M1)]), from_list([TyAssoc(M1, I)]))
        aligned = ctxspec._align_instance(tr_spec, (g1, g2, g3), True)
        assert ctxspec._distr_witnesses(tr_spec, aligned, 0, first, second, True) == (
            half1,
            half2,
            half1,
            half2,
        )
        assert ctxspec._align_instance(tr_spec, (g1, g2, EMPTY), True) is None

    def test_checks_pass_every_index(self, ty_spec, tr_spec):
        assert check_distr_cases(ty_spec, 1, BOUNDS)[1] is None
        for i in (1, 2, 3):
            assert check_distr_cases(tr_spec, i, BOUNDS)[1] is None

    def test_cases_golden(self):
        # (cases, counterexample) of every spec and index in the fixtures,
        # recorded before the alignment was hoisted out of the split loop.
        lines = []
        for name in ("specs.ctx", "broken_freshness.ctx"):
            for spec in parse_spec_file((FIXTURES / name).read_text()):
                for index in range(1, spec.arity + 1):
                    for ctx_elems in (1, 2):
                        for enforce in (True, False):
                            cases, counterexample = check_distr_cases(
                                spec, index, GenBounds(ctx_elems=ctx_elems), enforce
                            )
                            record = {
                                "spec": spec.name,
                                "index": index,
                                "ctx_elems": ctx_elems,
                                "enforce_freshness": enforce,
                                "cases": cases,
                                "counterexample": counterexample,
                            }
                            lines.append(json.dumps(record) + "\n")
        assert "".join(lines) == (FIXTURES / "golden" / "distr_cases.jsonl").read_text()

    def test_memo_holds_only_alignments(self, tr_spec, monkeypatch):
        # The check fills one table, its spec's under its freshness flag,
        # and every entry is an alignment search's answer: a row tuple, or
        # None when there is none.  No split verdict is kept there.
        monkeypatch.setattr(ctxspec, "_ALIGNED", {})
        assert check_distr_cases(tr_spec, 2, BOUNDS)[1] is None
        assert list(ctxspec._ALIGNED) == [(tr_spec.clauses, True)]
        memo = ctxspec._ALIGNED[tr_spec.clauses, True]
        assert memo and all(v is None or isinstance(v, tuple) for v in memo.values())

    @pytest.mark.parametrize(
        "spec, index, cases, counterexample",
        [
            ("tr_spec", 1, 63, f"{_REVERSED_TRIPLE}; G1 ~ [ty_of n2 i] ++ [ty_of n i]"),
            ("tr_spec", 2, 63, f"{_REVERSED_TRIPLE}; G2 ~ [trans_to n2 n3] ++ [trans_to n n1]"),
            ("tr_spec", 3, 63, f"{_REVERSED_TRIPLE}; G3 ~ [ty_of n3 i] ++ [ty_of n1 i]"),
            ("ty_spec", 1, 27, "G1 = [ty_of n1 i, ty_of n i]; G1 ~ [ty_of n1 i] ++ [ty_of n i]"),
        ],
        ids=["1", "2", "3", "ty_ctx'"],
    )
    def test_reversed_mask_counterexample(
        self, request, monkeypatch, spec, index, cases, counterexample
    ):
        # A split mask applied in reverse pairs each half of the split
        # context with the wrong entries of the others.  With one context,
        # only the split context's halves show it: they are not
        # permutations of the split's halves.
        real = ctxspec.perm_to_part_mask
        monkeypatch.setattr(
            ctxspec, "perm_to_part_mask", lambda l, first, second: real(l, first, second)[::-1]
        )
        spec = request.getfixturevalue(spec)
        assert check_distr_cases(spec, index, BOUNDS) == (cases, counterexample)


def _fixture_specs() -> list:
    return [
        spec
        for name in ("specs.ctx", "broken_freshness.ctx")
        for spec in parse_spec_file((FIXTURES / name).read_text())
    ]


def _class_bounds(spec, enforce: bool) -> range:
    """ctx_elems 1-2, and 3 for the unary fixture specs with freshness on."""
    return range(1, 4 if enforce and spec.name in ("ty_ctx'", "loose_ctx") else 3)


def _assert_class_blind(verdicts: list) -> None:
    """Every case gets the verdict of the first case of its class."""
    first_of_class: dict = {}
    for case, (key, verdict) in enumerate(verdicts, 1):
        first, first_verdict = first_of_class.setdefault(key, (case, verdict))
        assert verdict == first_verdict, f"case {case} differs from case {first} of its class"


def _decided_cases(verdicts: list) -> list:
    """The cases a memoised check decides: the first case of each class, up
    to and including the first failing case."""
    seen: set = set()
    decided = []
    for key, holds, case in verdicts:
        if key not in seen:
            seen.add(key)
            decided.append(case)
        if not holds:
            break
    return decided


class TestClassVerdicts:
    """Deciding each multiset class once changes no verdict.  Every case is
    decided here on its own, with no verdict memo, and compared with the
    cases of its class.  The memoised checks then run with the per-case
    decision replaced by a stand-in that records which cases it is asked
    to decide and answers with the verdicts found here: each class has to
    be decided exactly once, in case order, up to the first failure."""

    @pytest.mark.parametrize("spec", _fixture_specs(), ids=lambda spec: spec.name)
    def test_distr(self, spec, monkeypatch):
        witnesses = ctxspec._distr_witnesses
        holds_of: dict = {}
        asked = []

        def decide(spec_, rows, index0, first, second, enforce_):
            # each aligned row holds exactly its context's entries
            key = (
                tuple(multiset(row) for row in rows),
                multiset(elems(first)),
            )
            asked.append(key)
            return () if holds_of[key] else None

        monkeypatch.setattr(ctxspec, "_distr_witnesses", decide)
        # The largest bound's instances start with those of the smaller
        # bounds (`test_lemmas` checks this), so its cases cover theirs.
        for enforce in (True, False):
            bounds = GenBounds(ctx_elems=_class_bounds(spec, enforce)[-1])
            instances = list(generate_mset_instances(spec, bounds, enforce))
            aligned = [ctxspec._align_instance(spec, g, enforce) for g in instances]
            # Verdicts of identical calls, which tree shapes aligning to the
            # same rows repeat; the key knows nothing of classes.
            decided: dict = {}
            for index in range(1, spec.arity + 1):
                verdicts = []
                for contexts, rows in zip(instances, aligned):
                    instance_key = tuple(multiset(elems(g)) for g in contexts)
                    for first, second in splits(contexts[index - 1]):
                        key = (instance_key, multiset(elems(first)))
                        call = (rows, index - 1, first, second)
                        if rows is not None and call not in decided:
                            found = witnesses(spec, rows, index - 1, first, second, enforce)
                            decided[call] = found is not None
                            # Witnesses read off the alignment, with no
                            # search of their own, are in the multiset form.
                            for witness in found[:2] if found else ():
                                assert align_mset(spec, witness, enforce) is not None
                        holds = rows is not None and decided[call]
                        holds_of.setdefault(key, holds)
                        # an instance that does not align fails undecided
                        verdicts.append((key, holds, key if rows is not None else None))
                _assert_class_blind([(key, holds) for key, holds, _ in verdicts])
                holds = [h for _, h, _ in verdicts]
                want = holds.index(False) + 1 if False in holds else len(holds)
                asked.clear()
                got, counterexample = check_distr_instances(spec, index, instances, enforce)
                assert (got, counterexample is None) == (want, all(holds))
                assert asked == [key for key in _decided_cases(verdicts) if key is not None]
                holds_of.clear()

    @pytest.mark.parametrize("lemma_file", ["lemmas.lem", "broken_uniq.lem"])
    def test_lemmas(self, lemma_file, monkeypatch):
        counterexample_of: dict = {}
        asked = []

        def decide(stmt_, sorts_, contexts):
            asked.append(contexts)
            return counterexample_of[contexts]

        specs = {}
        for spec in _fixture_specs():
            specs[spec.name] = specs[spec.list_name] = spec
        for stmt in parse_lemma_file((FIXTURES / lemma_file).read_text()):
            spec = specs[stmt.pred_name]
            for lemma in (stmt, lift_lemma(spec, stmt)[0]):
                generate = (
                    generate_list_instances
                    if lemma.pred_name == spec.list_name
                    else generate_mset_instances
                )
                sorts = ctxspec._lemma_var_sorts(spec, lemma)
                for enforce in (True, False):
                    bounds = _class_bounds(spec, enforce)
                    instances = list(generate(spec, GenBounds(ctx_elems=bounds[-1]), enforce))
                    counterexample_of.clear()
                    verdicts = []
                    for contexts in instances:
                        cex = ctxspec._lemma_counterexample(lemma, sorts, contexts)
                        counterexample_of[tuple(contexts)] = cex
                        key = tuple(multiset(elems(g)) for g in contexts)
                        verdicts.append((key, cex is None, tuple(contexts)))
                    _assert_class_blind([(key, holds) for key, holds, _ in verdicts])
                    with monkeypatch.context() as patch:
                        patch.setattr(ctxspec, "_lemma_counterexample", decide)
                        for ctx_elems in bounds:
                            smaller = GenBounds(ctx_elems=ctx_elems)
                            prefix = list(generate(spec, smaller, enforce))
                            count = len(prefix)
                            # each level of the generators extends the levels before it
                            assert prefix == instances[:count]
                            want = next(
                                (
                                    (n + 1, counterexample_of[case])
                                    for n, (_, holds, case) in enumerate(verdicts[:count])
                                    if not holds
                                ),
                                (count, None),
                            )
                            asked.clear()
                            assert verify_lemma_cases(spec, lemma, smaller, enforce) == want
                            assert asked == _decided_cases(verdicts[:count])


def _clause_walk(spec, heads, tail_names, enforce) -> bool:
    """Whether some clause accepts the heads: the reference walk, which
    matches every clause again at every list position, with no table."""
    for clause in spec.clauses:
        binding = {}
        for pat, entry in zip(clause.patterns, heads):
            binding = ctxspec.match_pattern(pat, entry, binding)
            if binding is None:
                break
        if binding is None:
            continue
        nabla_vals = [binding[NablaVar(v)] for v in clause.nabla_vars]
        if enforce:
            if len(set(nabla_vals)) != len(nabla_vals):
                continue
            if any(
                isinstance(key, MetaVar) and nv in value_names(val)
                for key, val in binding.items()
                for nv in nabla_vals
            ):
                continue
            if any(nv in tail_names for nv in nabla_vals):
                continue
        if ctxspec.eval_formula(clause.formula, binding):
            return True
    return False


class TestHeadTable:
    """`_heads_ok` answers from the kept `_head_accepts` table as the clause
    walk does, at every (heads, later names) that instance generation and
    `check_list_pred` (inside the distributivity checks) reach."""

    SPECS = _fixture_specs() + [
        parse_spec(TestSideFormulaSyntax.SMALL_CMD),
        parse_spec(TWO_CMD),
    ]
    # Distributivity at ctx_elems=3 has 730,345 cases per index for
    # trans_rel without freshness, and over a million for two.
    SLOW_AT_3 = {("trans_rel", False), ("two", True), ("two", False)}

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    @pytest.mark.parametrize("enforce", [True, False])
    def test_against_clause_walk(self, spec, enforce, monkeypatch):
        real = ctxspec._heads_ok
        reached = []

        def heads_ok(spec_, heads, tail_names, enforce_):
            got = real(spec_, heads, tail_names, enforce_)
            assert got == _clause_walk(spec_, heads, tail_names, enforce_)
            reached.append((spec_.clauses, heads, enforce_))
            return got

        ctxspec._head_accepts.cache_clear()
        monkeypatch.setattr(ctxspec, "_heads_ok", heads_ok)
        for ctx_elems in (1, 2, 3):
            bounds = GenBounds(ctx_elems=ctx_elems)
            list(generate_list_instances(spec, bounds, enforce))
            if ctx_elems < 3 or (spec.name, enforce) not in self.SLOW_AT_3:
                for index in range(1, spec.arity + 1):
                    assert check_distr_cases(spec, index, bounds, enforce)[1] is None
        keys = set(reached)
        assert ctxspec._head_accepts.cache_info().currsize == len(keys)
        for key in keys:
            assert ctxspec._head_accepts(*key) == ctxspec._head_accepts.__wrapped__(*key)


class TestSplitSkip:
    """Every presentation of an instance is aligned, and the splits of each
    instance class are enumerated once: a later presentation of a class
    all of whose splits passed counts them without `splits`."""

    # perfbench's schematic bounds; loose_ctx at its expected-FAIL bound
    PERFBENCH_BOUNDS = {
        "ty_ctx'": GenBounds(),
        "trans_rel": GenBounds(ctx_elems=2),
        "loose_ctx": GenBounds(ctx_elems=3),
    }

    @pytest.mark.parametrize("spec", _fixture_specs(), ids=lambda spec: spec.name)
    def test_splits_once_per_class(self, spec, monkeypatch):
        instances = list(generate_mset_instances(spec, self.PERFBENCH_BOUNDS[spec.name]))
        classes = {tuple(multiset(elems(g)) for g in contexts) for contexts in instances}
        assert len(classes) < len(instances)
        outside = (from_list([I]),) * spec.arity  # no clause matches a bare type
        # The plain loop of `TestClassVerdicts`: every split of every
        # instance decided on its own.  Identical calls are decided once.
        decided: dict = {}
        holds: dict = {index0: [] for index0 in range(spec.arity)}
        for contexts in instances:
            rows = ctxspec._align_instance(spec, contexts, True)
            for index0 in range(spec.arity):
                for first, second in splits(contexts[index0]):
                    call = (rows, index0, first, second)
                    if rows is not None and call not in decided:
                        found = ctxspec._distr_witnesses(spec, rows, index0, first, second, True)
                        decided[call] = found is not None
                    holds[index0].append(rows is not None and decided[call])
        indices = range(1, spec.arity + 1)
        failure = {index: check_distr_instances(spec, index, [outside]) for index in indices}

        counts = Counter()

        def count(name):
            real = getattr(ctxspec, name)

            def counted_call(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(ctxspec, name, counted_call)

        count("splits")
        count("_align_instance")
        for index in indices:
            assert all(holds[index - 1]) and failure[index][0] == 1
            for tail, cases, counterexample in (
                ([], len(holds[index - 1]), None),
                ([outside], len(holds[index - 1]) + 1, failure[index][1]),
            ):
                counts.clear()
                got = check_distr_instances(spec, index, instances + tail)
                assert got == (cases, counterexample)
                assert counts["_align_instance"] == len(instances) + len(tail)
                assert counts["splits"] == len(classes) + len(tail)


class TestVerifyLemma:
    def test_membership_and_uniqueness(self, ty_spec):
        for text in (MEM_LEMMA, UNIQ_LEMMA):
            cases, counterexample = verify_lemma_cases(ty_spec, parse_lemma(text), BOUNDS)
            assert counterexample is None and cases > 0

    def test_false_statement_fails_with_counterexample(self, ty_spec):
        false_stmt = parse_lemma(
            "Lemma bogus : forall L X Y T1 T2, ty_ctx'_list L -> "
            "member (ty_of X T1) L -> member (ty_of Y T2) L -> T1 = T2."
        )
        _, counterexample = verify_lemma_cases(ty_spec, false_stmt, BOUNDS)
        assert counterexample

    def test_mutation_sensitivity(self, ty_spec):
        uniq = parse_lemma(UNIQ_LEMMA)
        _, mutated = verify_lemma_cases(ty_spec, uniq, BOUNDS, enforce_freshness=False)
        assert mutated
        _, restored = verify_lemma_cases(ty_spec, uniq, BOUNDS, enforce_freshness=True)
        assert restored is None

    def test_wrong_predicate_name(self, ty_spec):
        stmt = parse_lemma(
            "Lemma other : forall L X, other_list L -> member X L -> true."
        )
        with pytest.raises(ShapeError):
            verify_lemma_cases(ty_spec, stmt, BOUNDS)

    @pytest.mark.parametrize(
        "application", ["trans_rel_list L", "trans_rel_list L M K N", "trans_rel L"]
    )
    def test_wrong_number_of_contexts(self, tr_spec, application):
        stmt = parse_lemma(f"Lemma a : forall L M K N X, {application} -> member X L -> true.")
        with pytest.raises(ShapeError, match="takes 3 context"):
            ctxspec.verify_lemma_cases(tr_spec, stmt, BOUNDS)
        if application.startswith("trans_rel_list"):
            with pytest.raises(ShapeError, match="takes 3 context"):
                lift_lemma(tr_spec, stmt)


@st.composite
def lemma_texts(draw, pred="p", arity=None, min_exists=0):
    """Lemma text from the grammar: distinct context variables (`arity`
    of them, when given, for the list form of `pred`), member hypotheses
    over the universal variables, and conclusion atoms over the universal
    and existential ones (at least `min_exists` of those), with optional
    redundant parentheses around pattern arguments."""
    if arity is None:
        ctx_vars = draw(
            st.lists(st.sampled_from(["L", "M", "K"]), min_size=1, max_size=3, unique=True)
        )
    else:
        ctx_vars = ["L", "M", "K"][:arity]
    forall_vars = draw(st.lists(st.sampled_from(["X", "Y", "T"]), max_size=3, unique=True))
    exist_vars = draw(
        st.lists(st.sampled_from(["E", "n"]), min_size=min_exists, max_size=2, unique=True)
    )

    def pattern(names, depth, arg):
        if depth == 0 or draw(st.booleans()):
            leaf = draw(st.sampled_from(names + ["i", "o"]))
            return f"({leaf})" if arg and draw(st.booleans()) else leaf
        ctor = draw(st.sampled_from(["ty_of", "trans_to", "arrow"]))
        text = f"{ctor} {pattern(names, depth - 1, True)} {pattern(names, depth - 1, True)}"
        return f"({text})" if arg else text

    def atom(kind, names):
        if kind == "member":
            return f"member {pattern(names, 2, True)} {draw(st.sampled_from(ctx_vars))}"
        if kind == "name":
            return f"name {pattern(names, 2, True)}"
        if kind == "=":
            return f"{pattern(names, 2, False)} = {pattern(names, 2, False)}"
        return "true"

    hyps = [atom("member", forall_vars) for _ in range(draw(st.integers(0, 2)))]
    kinds = draw(st.lists(st.sampled_from(["member", "name", "=", "true"]), min_size=1, max_size=3))
    names = forall_vars + exist_vars
    concl = " /\\ ".join(atom(kind, names) for kind in kinds)
    if exist_vars:
        concl = f"exists {' '.join(exist_vars)}, {concl}"
    body = " -> ".join([f"{pred}_list {' '.join(ctx_vars)}"] + hyps + [concl])
    return f"Lemma g : forall {' '.join(forall_vars + ctx_vars)}, {body}."


class TestLifting:
    def test_lift_reproduces_mset_membership_statement(self, ty_spec):
        lifted, _ = lift_lemma(ty_spec, parse_lemma(MEM_LEMMA))
        expected = parse_lemma(
            "Lemma ty_ctx_mem_mset : forall G1 X, ty_ctx' G1 -> member X G1 -> "
            "exists n T, name n /\\ X = ty_of n T."
        )
        assert lifted == expected

    def test_lift_reproduces_mset_uniqueness_statement(self, ty_spec):
        lifted, _ = lift_lemma(ty_spec, parse_lemma(UNIQ_LEMMA))
        expected = parse_lemma(
            "Lemma ty_ctx_uniq_mset : forall G1 X T1 T2, ty_ctx' G1 -> "
            "member (ty_of X T1) G1 -> member (ty_of X T2) G1 -> T1 = T2."
        )
        assert lifted == expected

    def test_lift_reproduces_coordination_statement(self, tr_spec):
        lifted, _ = lift_lemma(tr_spec, parse_lemma(TRANS_MEM_LEMMA))
        expected = parse_lemma(
            "Lemma trans_rel_mem_mset : forall G1 G2 G3 E, trans_rel G1 G2 G3 -> "
            "member E G2 -> exists X Y T, E = trans_to X Y /\\ name X /\\ name Y /\\ "
            "member (ty_of X T) G1 /\\ member (ty_of Y T) G3."
        )
        assert lifted == expected

    def test_lifted_statements_verify(self, ty_spec, tr_spec):
        for spec, text in (
            (ty_spec, MEM_LEMMA),
            (ty_spec, UNIQ_LEMMA),
            (tr_spec, TRANS_MEM_LEMMA),
        ):
            lifted, _ = lift_lemma(spec, parse_lemma(text))
            assert verify_lemma_cases(spec, lifted, BOUNDS)[1] is None

    def test_checker_never_fails_after_list_level_passes(self, ty_spec, tr_spec):
        for spec, text in (
            (ty_spec, MEM_LEMMA),
            (tr_spec, TRANS_MEM_LEMMA),
            (ty_spec, UNBOUND_FORALL_LEMMA),
        ):
            stmt = parse_lemma(text)
            assert verify_lemma_cases(spec, stmt, BOUNDS)[1] is None
            _, checker = lift_lemma(spec, stmt)
            for contexts in generate_mset_instances(spec, BOUNDS):
                _cases, counterexample = checker(contexts)
                assert counterexample is None

    def test_shape_violations(self, ty_spec):
        mset_stmt = parse_lemma(
            "Lemma m : forall G X, ty_ctx' G -> member X G -> true."
        )
        with pytest.raises(ShapeError):
            lift_lemma(ty_spec, mset_stmt)

    def test_render_round_trip(self, ty_spec):
        for name in ("lemmas.lem", "broken_uniq.lem"):
            for stmt in parse_lemma_file((FIXTURES / name).read_text()):
                assert parse_lemma(render_lemma(stmt)) == stmt
        for text in MEMBER_CONCL_LEMMAS:
            stmt = parse_lemma(text)
            assert len(stmt.hyps) == sum(isinstance(f, FMember) for f in stmt.concl) == 1
            assert parse_lemma(render_lemma(stmt)) == stmt

    @settings(max_examples=100, deadline=None)
    @given(lemma_texts())
    def test_render_round_trip_generated(self, text):
        stmt = parse_lemma(text)
        assert parse_lemma(render_lemma(stmt)) == stmt

    def test_unknown_constructor(self):
        with pytest.raises(SyntaxError_, match="unknown constructor 'foo'"):
            parse_lemma("Lemma u : forall L X, ty_ctx'_list L -> member X L -> foo X = X.")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "Lemma u : forall L X, ty_ctx'_list L -> member (ty_of X T) L -> X = X.",
                "undeclared variable 'T' (at position 56)",
            ),
            (
                "Lemma u : forall L X, ty_ctx'_list L -> member X L -> exists n, X = ty_of n U.",
                "undeclared variable 'U' (at position 76)",
            ),
            (
                "Lemma u : forall L X, trans_rel_list L X L -> member X L -> true.",
                "context variable 'L' is repeated (at position 41)",
            ),
            (
                "Lemma u : forall L X X, ty_ctx'_list L -> member X L -> true.",
                "variable 'X' is repeated (at position 21)",
            ),
            (
                "Lemma u : forall L X, ty_ctx'_list L -> member X L -> exists n n, name n.",
                "variable 'n' is repeated (at position 63)",
            ),
            (
                "Lemma u : forall L X, ty_ctx'_list L -> member X L -> exists X, name X.",
                "variable 'X' is repeated (at position 61)",
            ),
            (
                "Lemma u : forall L X, ty_ctx'_list L -> member X L -> X = L.",
                "context variable 'L' is used as a term (at position 58)",
            ),
            (
                "Lemma u : forall G X, ty_ctx' G -> member X G -> X = G.",
                "context variable 'G' is used as a term (at position 53)",
            ),
        ],
    )
    def test_rejected_identifiers(self, text, message):
        with pytest.raises(SyntaxError_) as err:
            parse_lemma(text)
        assert str(err.value) == message

    def test_lemma_file(self):
        stmts = parse_lemma_file(MEM_LEMMA + "\n" + UNIQ_LEMMA)
        assert [s.name for s in stmts] == ["ty_ctx_mem", "ty_ctx_uniq"]


def _product_universal_bindings(stmt, contexts, candidates) -> list:
    """The universal bindings by the search that `ctxspec._solutions`
    replaced: the member hypotheses matched in order against the distinct
    entries of their contexts, then the product of the candidates of the
    universals that no hypothesis binds."""
    bindings = [{}]
    for hyp in stmt.hyps:
        values = tuple(dict.fromkeys(elems(contexts[hyp.index])))
        bindings = [
            extended
            for b in bindings
            for value in values
            if (extended := ctxspec.match_pattern(hyp.term, value, b)) is not None
        ]
        if not bindings:
            return []
    unbound = [MetaVar(v) for v in stmt.forall_vars if MetaVar(v) not in bindings[0]]
    options = [candidates(v.name) for v in unbound]
    return [
        {**b, **dict(zip(unbound, combo))}
        for b in bindings
        for combo in itertools.product(*options)
    ]


def _product_witness(stmt, contexts, binding, candidates):
    """The first witness in the product of the existentials' candidates
    under which the conclusion holds, or None."""
    exist_keys = [MetaVar(v) for v in stmt.exist_vars]
    for combo in itertools.product(*(candidates(v) for v in stmt.exist_vars)):
        candidate = {**binding, **dict(zip(exist_keys, combo))}
        if all(
            ctxspec.member(ctxspec.instantiate(f.term, candidate), contexts[f.index])
            if isinstance(f, FMember)
            else ctxspec.eval_formula(f, candidate)
            for f in stmt.concl
        ):
            return candidate
    return None


def _product_counterexample(stmt, sorts, contexts):
    """`_lemma_counterexample` by the product search."""
    candidates = ctxspec._lemma_candidates(sorts, contexts)
    for binding in _product_universal_bindings(stmt, contexts, candidates):
        if _product_witness(stmt, contexts, binding, candidates) is None:
            return f"{render_contexts(stmt.ctx_vars, contexts)}" + (
                f" with {ctxspec._render_binding(binding)}" if binding else ""
            )
    return None


@st.composite
def fixture_lemma_texts(draw):
    """A `lemma_texts` lemma about `ty_ctx'_list` or `trans_rel_list`,
    with an existential."""
    pred, arity = draw(st.sampled_from([("ty_ctx'", 1), ("trans_rel", 3)]))
    return draw(lemma_texts(pred, arity, min_exists=1))


class TestBindingSearch:
    """`ctxspec._solutions` binds each variable by the first atom that can
    bind it and draws only the rest; the product search drew every
    existential.  Verdicts, case counts and counterexamples agree."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(fixture_lemma_texts())
    def test_agrees_with_product_search(self, text):
        specs = {spec.list_name: spec for spec in _fixture_specs()}
        stmt = parse_lemma(text)
        spec = specs[stmt.pred_name]
        for lemma in (stmt, lift_lemma(spec, stmt)[0]):
            for ctx_elems in (1, 2):
                bounds = GenBounds(ctx_elems=ctx_elems)
                got = verify_lemma_cases(spec, lemma, bounds)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(ctxspec, "_lemma_counterexample", _product_counterexample)
                    assert got == verify_lemma_cases(spec, lemma, bounds), (text, ctx_elems)

    def test_long_hypothesis_chain(self, ty_spec):
        # Each hypothesis is one step of the plan, not one frame.
        hyps = " -> ".join(["member X L"] * 2000)
        stmt = parse_lemma(f"Lemma long : forall L X, ty_ctx'_list L -> {hyps} -> true.")
        bounds = GenBounds(ctx_elems=1)
        assert verify_lemma_cases(ty_spec, stmt, bounds) == (7, None)
        lifted, checker = lift_lemma(ty_spec, stmt)
        assert verify_lemma_cases(ty_spec, lifted, bounds) == (13, None)
        # one universal binding on each instance but the empty one
        outcomes = [checker(contexts) for contexts in generate_mset_instances(ty_spec, bounds)]
        assert outcomes == [(0, None)] + [(1, None)] * 12


class TestTransportFailures:
    """Each non-passing outcome of the `lift_lemma` checker."""

    @pytest.fixture(scope="class")
    def fixtures(self):
        specs = {spec.name: spec for spec in _fixture_specs()}
        lemmas = {
            stmt.name: stmt
            for name in ("lemmas.lem", "broken_uniq.lem")
            for stmt in parse_lemma_file((FIXTURES / name).read_text())
        }
        return specs, lemmas

    def checker(self, fixtures, spec_name, lemma_name):
        specs, lemmas = fixtures
        return lift_lemma(specs[spec_name], lemmas[lemma_name])[1]

    def test_unaligned_instance_is_not_checked(self, fixtures):
        checker = self.checker(fixtures, "ty_ctx'", "ty_ctx_uniq")
        n = Name("n")
        assert checker((from_list([TyAssoc(n, I), TyAssoc(n, O)]),)) == (0, None)

    def test_list_level_conclusion_without_witness(self, fixtures):
        checker = self.checker(fixtures, "loose_ctx", "loose_uniq")
        assert checker((from_list([TyAssoc(M1, O), TyAssoc(M1, I)]),)) == (
            2,
            "list-level conclusion has no witness under T1 = o, T2 = i, X = m1",
        )

    def test_hypothesis_transport_failure(self, fixtures, monkeypatch):
        checker = self.checker(fixtures, "ty_ctx'", "ty_ctx_uniq")
        monkeypatch.setattr(ctxspec, "mem_transport", lambda x, g, g2: False)
        g = Union(from_list([TyAssoc(Name("n"), I)]), from_list([TyAssoc(N1, O)]))
        assert checker((g,)) == (
            1,
            "hypothesis transport failed for ty_of n i in G1 = [ty_of n i] ++ [ty_of n1 o]",
        )

    def test_conclusion_transport_failure(self, fixtures, monkeypatch):
        checker = self.checker(fixtures, "trans_rel", "trans_rel_mem")
        real = ctxspec.mem_transport
        # transport into a list works; transport back into a union fails
        monkeypatch.setattr(
            ctxspec, "mem_transport", lambda x, g, g2: is_list(g2) and real(x, g, g2)
        )
        x, y = Name("x"), Name("y")
        contexts = (
            Union(from_list([TyAssoc(x, I)]), EMPTY),
            from_list([VarAssoc(x, y)]),
            from_list([TyAssoc(y, I)]),
        )
        assert checker(contexts) == (
            1,
            "conclusion transport failed for ty_of x i in G1 = [ty_of x i] ++ nil; "
            "G2 = [trans_to x y]; G3 = [ty_of y i]",
        )

