"""Let elimination and the coordinated three-context relation."""

from pathlib import Path

import pytest

from linctx.ctx import EMPTY, Union, elems, from_list
from linctx.errors import LinearityError, PreconditionError, UnmappedVariableError
from linctx.report import GenBounds
from linctx.suites import _TRANS_TYPES, gen_linear_terms, gen_terms, gen_trans_triples
from linctx.terms import (
    Abs,
    App,
    Arrow,
    Base,
    Bound,
    Free,
    Let,
    Name,
    free_names,
    name_pool,
    parse_term,
)
from linctx.translate import (
    VarAssoc,
    ltrans_rel,
    trans_rel_list,
    trans_rel_mset,
    trans_rel_mset_exhaustive,
    translate,
)
from linctx.typecheck import TyAssoc, ml_type, linear_type

I = Base("i")
O = Base("o")
T = Base("t")
TP = Base("t'")
N1, N2 = Name("n", 1), Name("n", 2)
M1, M2 = Name("m", 1), Name("m", 2)


class TestLtransRel:
    def test_identity_abs(self):
        t = parse_term("abs i (x\\ x)")
        assert ltrans_rel(EMPTY, t, t)

    def test_let_clause(self):
        value = parse_term("abs o (z\\ z)")
        src = Let(Arrow(O, O), value, Bound(0))
        dst = App(Abs(Arrow(O, O), Bound(0)), value)
        assert ltrans_rel(EMPTY, src, dst)
        # wrong annotation on the produced abstraction
        assert not ltrans_rel(EMPTY, src, App(Abs(O, Bound(0)), value))

    def test_variable_clause(self):
        g = from_list([VarAssoc(N1, M1)])
        assert ltrans_rel(g, Free(N1), Free(M1))
        assert not ltrans_rel(g, Free(N1), Free(M2))

    def test_variable_clause_requires_empty_residual(self):
        g = from_list([VarAssoc(N1, M1), VarAssoc(N2, M2)])
        assert not ltrans_rel(g, Free(N1), Free(M1))

    def test_app_splits_context(self):
        g = Union(from_list([VarAssoc(N1, M1)]), from_list([VarAssoc(N2, M2)]))
        src = App(Free(N2), Free(N1))
        assert ltrans_rel(g, src, App(Free(M2), Free(M1)))
        assert not ltrans_rel(g, src, App(Free(M1), Free(M2)))


def _nested_applications(depth):
    """`abs i (x\\ app (abs i (y\\ y)) (... x))` with `depth` applications,
    in `print_term`'s own syntax."""
    inner = "app (abs i (y\\ y)) "
    return "abs i (x\\ " + f"{inner}(" * (depth - 1) + f"{inner}x" + ")" * depth


class TestTranslate:
    def test_identity(self):
        t = parse_term("abs i (x\\ x)")
        assert translate(EMPTY, t) == t

    def test_let_becomes_application(self):
        value = parse_term("abs t' (z\\ z)")
        src = Let(T, value, Bound(0))
        out = translate(EMPTY, src)
        assert out == App(Abs(T, Bound(0)), value)
        assert ltrans_rel(EMPTY, src, out)

    def test_linearity_violation(self):
        with pytest.raises(LinearityError):
            translate(EMPTY, parse_term("abs t (x\\ app x x)"))
        with pytest.raises(LinearityError):
            translate(from_list([VarAssoc(N1, M1)]), parse_term("abs i (x\\ x)"))

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                "abs i (y\\ abs i (x\\ app (app x x) y))",
                "bound variable y of binder 2 in abs i (x\\ abs i (y\\ app (app y y) x)) "
                "is not used exactly once",
            ),
            # The value's binder is entered before the let's own.
            (
                "let i (abs i (x\\ app x x)) (y\\ abs i (z\\ z))",
                "bound variable x of binder 1 in let i (abs i (x\\ app x x)) (x\\ abs i (y\\ y)) "
                "is not used exactly once",
            ),
            (
                "let i (abs i (x\\ x)) (y\\ abs i (z\\ z))",
                "bound variable x of binder 2 in let i (abs i (x\\ x)) (x\\ abs i (y\\ y)) "
                "is not used exactly once",
            ),
        ],
        ids=["inner", "value-first", "let-binder"],
    )
    def test_linearity_message_names_the_binder(self, source, message):
        with pytest.raises(LinearityError) as raised:
            translate(EMPTY, parse_term(source))
        assert str(raised.value) == message

    def test_source_names_are_checked_before_binders(self):
        g = from_list([VarAssoc(N1, M1)])
        with pytest.raises(LinearityError, match="source name n1 is used 0 times"):
            translate(g, parse_term("abs i (x\\ app x x)"))

    @pytest.mark.parametrize("depth", [3000, 5000])
    def test_deep_terms(self, depth):
        # A chain of applications inside one binder, and a chain of
        # binders each of whose variables is used once, at the bottom.
        apps = parse_term(_nested_applications(depth))
        out = translate(EMPTY, apps)
        assert out == apps
        body = Bound(0)
        for k in range(1, depth - 1):
            body = App(body, Bound(k))
        chain = Let(I, Abs(I, Bound(0)), body)
        for _ in range(depth - 2):
            chain = Abs(I, chain)
        translated = translate(EMPTY, chain)
        for _ in range(depth - 2):
            translated = translated.body
        assert translated == App(Abs(I, body), Abs(I, Bound(0)))

    def test_unmapped_variable(self):
        with pytest.raises(UnmappedVariableError):
            translate(EMPTY, Free(N1))

    def test_unmapped_variable_named_from_the_left(self):
        # Names hash by identity, so naming one from a set of free names
        # would pick either of two by memory layout; the leftmost is named.
        for k in range(1, 201):
            q, p = Name("q", k), Name("p", k)
            for e, named in (
                (App(Free(q), Free(p)), q),
                (App(Free(N1), App(Free(p), Free(q))), p),
                (Let(I, Free(p), App(Bound(0), Free(q))), p),
            ):
                with pytest.raises(UnmappedVariableError) as raised:
                    translate(from_list([VarAssoc(N1, M1)]), e)
                assert str(raised.value) == f"free variable {named} has no association"

    def test_requires_list_and_distinct_srcs(self):
        with pytest.raises(PreconditionError):
            translate(Union(EMPTY, EMPTY), parse_term("abs i (x\\ x)"))
        with pytest.raises(PreconditionError):
            translate(
                from_list([VarAssoc(N1, M1), VarAssoc(N1, M2)]),
                App(Free(N1), Free(N1)),
            )

    def test_sound_against_relation(self):
        g = from_list([VarAssoc(N1, M1)])
        for e in gen_terms((N1,), 4, (I, Arrow(I, I)), True):
            try:
                out = translate(g, e)
            except (LinearityError, UnmappedVariableError):
                continue
            assert ltrans_rel(g, e, out)

    def test_functional_in_output(self):
        # distinct accepted sources map to a single structural result
        g = from_list([VarAssoc(N1, M1)])
        seen = {}
        for e in gen_terms((N1,), 3, (I,), True):
            try:
                out = translate(g, e)
            except (LinearityError, UnmappedVariableError):
                continue
            assert seen.setdefault(e, out) == out

    def test_only_target_names_free(self):
        # A binder's name is closed back on the target side, so the output's
        # free names are the context's target names: on every fixture term,
        # and on every source term of check_ltrans_pres_ty at these bounds.
        lines = (Path(__file__).parent / "fixtures" / "terms.tm").read_text().splitlines()
        cases = [(EMPTY, parse_term(line)) for line in lines if line and not line.startswith("#")]
        assert len(cases) == 4
        xs = tuple(name_pool(3, "x"))
        for l1, l2, _ in gen_trans_triples(GenBounds(ctx_elems=2, term_size=5)):
            cases += [(l2, e) for e, _ in gen_linear_terms(elems(l1), xs, 5, _TRANS_TYPES, True)]
        assert len(cases) == 4 + 598
        for g, e in cases:
            assert free_names(translate(g, e)) == {a.dst for a in elems(g)}


class TestTransRelList:
    def test_examples(self):
        assert trans_rel_list(EMPTY, EMPTY, EMPTY)
        l1 = from_list([TyAssoc(N1, T)])
        l2 = from_list([VarAssoc(N1, M1)])
        l3 = from_list([TyAssoc(M1, T)])
        assert trans_rel_list(l1, l2, l3)
        assert not trans_rel_list(l1, l2, from_list([TyAssoc(M1, TP)]))

    def test_duplicate_source_rejected(self):
        l1 = from_list([TyAssoc(N1, T), TyAssoc(N1, T)])
        l2 = from_list([VarAssoc(N1, M1), VarAssoc(N1, M2)])
        l3 = from_list([TyAssoc(M1, T), TyAssoc(M2, T)])
        assert not trans_rel_list(l1, l2, l3)

    def test_source_equal_target_rejected(self):
        assert not trans_rel_list(
            from_list([TyAssoc(N1, T)]),
            from_list([VarAssoc(N1, N1)]),
            from_list([TyAssoc(N1, T)]),
        )

    def test_length_mismatch(self):
        assert not trans_rel_list(EMPTY, from_list([VarAssoc(N1, M1)]), EMPTY)


class TestTransRelMset:
    def test_examples(self):
        l1 = from_list([TyAssoc(N1, T)])
        l2 = from_list([VarAssoc(N1, M1)])
        l3 = from_list([TyAssoc(M1, T)])
        assert trans_rel_mset(Union(l1, EMPTY), l2, l3)
        assert not trans_rel_mset(l1, l2, from_list([TyAssoc(M2, T)]))
        assert trans_rel_mset(EMPTY, Union(EMPTY, EMPTY), EMPTY)

    def test_agrees_with_exhaustive_oracle(self):
        bounds = GenBounds(ctx_elems=2)
        triples = gen_trans_triples(bounds)
        for l1, l2, l3 in triples:
            variants = [
                (l1, l2, l3),
                (from_list(tuple(reversed(elems(l1)))), l2, l3),
                (l1, Union(l2, EMPTY), from_list(tuple(reversed(elems(l3))))),
            ]
            for triple in variants:
                assert trans_rel_mset(*triple) == trans_rel_mset_exhaustive(*triple)

    def test_oracle_agreement_on_mutations(self):
        l1 = from_list([TyAssoc(N1, T), TyAssoc(N2, TP)])
        l2 = from_list([VarAssoc(N1, M1), VarAssoc(N2, M2)])
        l3 = from_list([TyAssoc(M1, T), TyAssoc(M2, TP)])
        mutations = [
            (l1, l2, l3),
            (l1, l2, from_list([TyAssoc(M2, T), TyAssoc(M1, TP)])),  # types crossed
            (from_list(tuple(reversed(elems(l1)))), l2, l3),          # permuted
            (l1, from_list([VarAssoc(N1, M1), VarAssoc(N1, M2)]), l3),  # dup source
        ]
        for triple in mutations:
            assert trans_rel_mset(*triple) == trans_rel_mset_exhaustive(*triple)

    def test_permutation_invariance(self):
        l1 = from_list([TyAssoc(N1, T), TyAssoc(N2, TP)])
        l2 = from_list([VarAssoc(N1, M1), VarAssoc(N2, M2)])
        l3 = from_list([TyAssoc(M1, T), TyAssoc(M2, TP)])
        assert trans_rel_mset(l1, l2, l3)
        for v1 in (l1, from_list(tuple(reversed(elems(l1)))), Union(from_list(elems(l1)[:1]), from_list(elems(l1)[1:]))):
            for v3 in (l3, from_list(tuple(reversed(elems(l3))))):
                assert trans_rel_mset(v1, l2, v3)


class TestSymmetricUniqueness:
    def test_lookups_unique_from_all_three_perspectives(self):
        for triple in gen_trans_triples(GenBounds(ctx_elems=3)):
            if not trans_rel_list(*triple):
                continue
            l1, l2, l3 = (elems(g) for g in triple)
            for a, b in itertools_product2(l2):
                if a.src == b.src:
                    assert a.dst == b.dst
                if a.dst == b.dst:
                    assert a.src == b.src
            for a, b in itertools_product2(l1):
                if a.name == b.name:
                    assert a.ty == b.ty
            for a, b in itertools_product2(l3):
                if a.name == b.name:
                    assert a.ty == b.ty


def itertools_product2(items):
    return [(a, b) for a in items for b in items]


class TestRelationFunctionality:
    def test_output_unique_up_to_structure(self):
        # all accepted translations of a source agree structurally
        g = from_list([VarAssoc(N1, M1)])
        terms = gen_terms((N1,), 3, (I,), True)
        outputs = {}
        for e in terms:
            try:
                outputs[e] = translate(g, e)
            except (LinearityError, UnmappedVariableError):
                continue
        candidates = set(outputs.values())
        for e, expected in outputs.items():
            for e2 in candidates:
                if ltrans_rel(g, e, e2):
                    assert e2 == expected


class TestTypePreservationSpot:
    def test_let_example_end_to_end(self):
        l1 = from_list([TyAssoc(N1, I)])
        l2 = from_list([VarAssoc(N1, M1)])
        l3 = from_list([TyAssoc(M1, I)])
        src = Let(I, Free(N1), Bound(0))
        assert ml_type(l1, src) == I
        out = translate(l2, src)
        assert linear_type(l3, out) == I
        assert ltrans_rel(l2, src, out)
