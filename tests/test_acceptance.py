"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  Every check carries its stated runtime budget;
the pair-quantified permutation-oracle agreement documents the domain it
sweeps in `check_perm_equiv`.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import linctx
from linctx.ctx import EMPTY, gen_ctxs
from linctx.ctxspec import (
    check_distr,
    check_list_pred,
    check_mset_pred,
    lift_lemma,
    parse_lemma,
    parse_spec,
    verify_lemma,
)
from linctx.report import GenBounds, all_passed
from linctx.suites import (
    core_lemma_suite,
    equivalence_suite,
    gen_trans_triples,
    gen_trans_triples_mset,
    translation_lemma_suite,
    typing_lemma_suite,
)
from linctx.terms import Arrow, Base, Name, parse_term
from linctx.translate import trans_rel_list, trans_rel_mset, trans_rel_mset_exhaustive
from linctx.typecheck import (
    TyAssoc,
    linear_type,
    ltype_rel,
    ltype_types,
    ty_ctx_list,
    ty_ctx_mset,
    type_of_infer,
)

JOBS = 2

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


def _verdict(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{mark} criterion {number}: {label} ({elapsed:.2f} s, budget {budget:.0f} s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget} s: {elapsed:.2f} s"


def test_criterion_1_paper_examples():
    start = time.perf_counter()
    t1, t2 = Base("tau1"), Base("tau2")
    good = parse_term("abs (tau1 -> tau2) (x\\ abs tau1 (y\\ app x y))")
    good_ty = Arrow(Arrow(t1, t2), Arrow(t1, t2))
    bad_reuse = parse_term(
        "abs (tau1 -> tau1 -> tau2) (x\\ abs tau1 (y\\ app (app x y) y))"
    )
    bad_unused = parse_term("abs tau1 (x\\ abs tau2 (y\\ y))")
    ok = (
        type_of_infer(EMPTY, good) == good_ty
        and ltype_rel(EMPTY, good, good_ty)
        and linear_type(EMPTY, good) == good_ty
        and ltype_types(EMPTY, bad_reuse) == frozenset()
        and ltype_types(EMPTY, bad_unused) == frozenset()
        and type_of_infer(EMPTY, bad_reuse)
        == Arrow(Arrow(t1, Arrow(t1, t2)), Arrow(t1, t2))
    )
    _verdict(1, "paper typing examples", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_core_suite():
    start = time.perf_counter()
    reports = core_lemma_suite(max_elems=4, max_depth=3, jobs=JOBS)
    ok = all_passed(reports) and len(reports) == 7
    _verdict(2, "core context lemma suite", ok, time.perf_counter() - start, 30.0)


def test_criterion_3_typing_suite():
    start = time.perf_counter()
    reports = typing_lemma_suite(GenBounds(), jobs=JOBS)
    ok = all_passed(reports) and len(reports) == 7
    _verdict(3, "typing lemma suite", ok, time.perf_counter() - start, 30.0)


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    reports = equivalence_suite(GenBounds(term_size=4, ctx_elems=2), jobs=JOBS)
    ok = all_passed(reports)
    _verdict(
        4, "relational/algorithmic agreement", ok, time.perf_counter() - start, 120.0
    )


def test_criterion_5_translation_suite():
    start = time.perf_counter()
    reports = translation_lemma_suite(GenBounds(ctx_elems=3, term_size=5), jobs=JOBS)
    ok = all_passed(reports) and len(reports) == 7
    _verdict(5, "translation lemma suite", ok, time.perf_counter() - start, 120.0)


def test_criterion_6_schematic_engine():
    start = time.perf_counter()
    bounds = GenBounds()
    ty_spec = parse_spec(TY_CTX_CMD)
    tr_spec = parse_spec(TRANS_REL_CMD)

    # elaboration fidelity against the hand-coded predicates
    n1, n2 = Name("n", 1), Name("n", 2)
    pool = [
        TyAssoc(n, t)
        for n in (n1, n2)
        for t in (Base("i"), Base("o"), Arrow(Base("i"), Base("i")))
    ] + ["junk"]
    fidelity = all(
        check_list_pred(ty_spec, [l]) == ty_ctx_list(l)
        for l in gen_ctxs(pool, 3, 1)
    ) and all(
        check_mset_pred(ty_spec, [g]) == ty_ctx_mset(g)
        for g in gen_ctxs(pool, 3, 2)
    )
    fidelity = fidelity and all(
        check_list_pred(tr_spec, triple) == trans_rel_list(*triple)
        for triple in gen_trans_triples(bounds)
    )
    fidelity = fidelity and all(
        check_mset_pred(tr_spec, triple)
        == trans_rel_mset(*triple)
        == trans_rel_mset_exhaustive(*triple)
        for triple in gen_trans_triples_mset(bounds)
    )

    # generated distributivity checks, every index of both specifications
    distr_ok = check_distr(ty_spec, 1, bounds).passed and all(
        check_distr(tr_spec, i, bounds).passed for i in (1, 2, 3)
    )

    # lifting reproduces the multiset statements and they verify
    expectations = [
        (
            ty_spec,
            MEM_LEMMA,
            "Lemma ty_ctx_mem_mset : forall G1 X, ty_ctx' G1 -> member X G1 -> "
            "exists n T, name n /\\ X = ty_of n T.",
        ),
        (
            ty_spec,
            UNIQ_LEMMA,
            "Lemma ty_ctx_uniq_mset : forall G1 X T1 T2, ty_ctx' G1 -> "
            "member (ty_of X T1) G1 -> member (ty_of X T2) G1 -> T1 = T2.",
        ),
        (
            tr_spec,
            TRANS_MEM_LEMMA,
            "Lemma trans_rel_mem_mset : forall G1 G2 G3 E, trans_rel G1 G2 G3 -> "
            "member E G2 -> exists X Y T, E = trans_to X Y /\\ name X /\\ name Y /\\ "
            "member (ty_of X T) G1 /\\ member (ty_of Y T) G3.",
        ),
    ]
    lift_ok = True
    for spec, list_text, expected_text in expectations:
        stmt = parse_lemma(list_text)
        lift_ok = lift_ok and verify_lemma(spec, stmt, bounds).passed
        lifted, _checker = lift_lemma(spec, stmt)
        lift_ok = lift_ok and lifted == parse_lemma(expected_text)
        lift_ok = lift_ok and verify_lemma(spec, lifted, bounds).passed

    ok = fidelity and distr_ok and lift_ok
    _verdict(6, "schematic engine fidelity", ok, time.perf_counter() - start, 120.0)


def test_criterion_7_mutation_sensitivity():
    start = time.perf_counter()
    bounds = GenBounds(ctx_elems=2)
    ty_spec = parse_spec(TY_CTX_CMD)
    uniq = parse_lemma(UNIQ_LEMMA)
    mutated = verify_lemma(ty_spec, uniq, bounds, enforce_freshness=False)
    restored = verify_lemma(ty_spec, uniq, bounds, enforce_freshness=True)
    ok = (
        not mutated.passed
        and mutated.counterexample is not None
        and restored.passed
    )
    _verdict(7, "mutation sensitivity", ok, time.perf_counter() - start, 120.0)


def test_criterion_8_determinism_across_jobs():
    start = time.perf_counter()
    argv = [
        sys.executable,
        "-m",
        "linctx",
        "verify",
        "--suite",
        "typing",
        "--format",
        "structured",
        "--bound-ctx",
        "2",
    ]
    # The package the tests import, for the child interpreters too.
    src = str(Path(linctx.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run1 = subprocess.run(argv + ["--jobs", "1"], capture_output=True, env=env)
    run2 = subprocess.run(argv + ["--jobs", "2"], capture_output=True, env=env)
    ok = (
        run1.returncode == 0
        and run2.returncode == 0
        and run1.stdout == run2.stdout
        and run1.stdout.strip() != b""
    )
    _verdict(
        8, "byte-identical reports across --jobs", ok, time.perf_counter() - start, 120.0
    )
