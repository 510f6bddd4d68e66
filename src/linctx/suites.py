"""Built-in bounded-exhaustive lemma suites.

Each suite runs a fixed set of lemmas over generated universes and
returns one report per lemma.  Pair-quantified lemmas are reorganized
into equivalent per-bucket forms where possible (contexts grouped by
their element multiset, so that permutation-related pairs are exactly
the within-bucket pairs); where a stated bound is infeasible to sweep
pair-by-pair, the check notes the domain it actually covered in its
docstring.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable

from .ctx import (
    Ctx,
    Union,
    elems,
    from_list,
    gen_ctxs,
    member,
    no_elems,
    part_to_perm,
    partition_list,
    perm,
    perm_rel,
    perm_to_part,
    print_ctx,
    select,
    sel_transport,
    splits,
)
from .ctxspec import _class_key, check_distr_instances, render_contexts, render_value
from .report import GenBounds, run_checks
from .terms import (
    Abs,
    App,
    Arrow,
    Base,
    Bound,
    Free,
    Let,
    Name,
    TYPE_UNIVERSE,
    free_counts,
    name_pool,
    term_size,
)
from .translate import (
    TRANS_REL,
    ltrans_rel,
    trans_rel_list,
    trans_rel_mset,
    translate,
)
from .typecheck import (
    TyAssoc,
    VarAssoc,
    linear_type,
    ml_type,
    ty_ctx_list,
    ty_ctx_mset,
    type_of_enum,
    _linear_types,
)

_POOL = ("a", "b")
_FOREIGN = "z"


def _mkey(g: Ctx) -> tuple:
    return tuple(sorted(elems(g), key=str))


def _buckets(universe: list) -> dict:
    out: dict = {}
    for g in universe:
        out.setdefault(_mkey(g), []).append(g)
    return out


def _constant_on_buckets(universe: list, profile: Callable, what: str) -> tuple:
    """Check that `profile` is constant on each permutation bucket of the
    universe.  A counterexample names the first context that differs from
    the first context of its bucket."""
    cases = 0
    for bucket in _buckets(universe).values():
        witness = bucket[0]
        expected = profile(witness)
        cases += 1
        for g in bucket[1:]:
            cases += 1
            if profile(g) != expected:
                return cases, (
                    f"{what} across a permutation: {print_ctx(witness)} vs {print_ctx(g)}"
                )
    return cases, None


# ---------------------------------------------------------------------------
# Core context suite.
# ---------------------------------------------------------------------------


def check_mem_replace(max_elems: int = 4, max_depth: int = 3) -> tuple:
    """Membership is invariant across permutations.

    For all G, G2 in the universe with perm(G, G2) and all probe
    elements x: member(x, G) implies member(x, G2).  Quantifying both
    directions over every ordered pair inside a permutation bucket is
    equivalent to the membership profile being constant on the bucket,
    which is what is checked.
    """
    probes = list(_POOL) + [_FOREIGN]
    return _constant_on_buckets(
        gen_ctxs(_POOL, max_elems, max_depth),
        lambda g: tuple(member(x, g) for x in probes),
        "membership differs",
    )


def check_sel_replace(max_elems: int = 4, max_depth: int = 3) -> tuple:
    """Selection residuals are matched across permutations.

    For all permutation-related G1, G2 and every residual of selecting x
    from G1 there is a residual of selecting x from G2 that is a
    permutation of it.  Per bucket this says the set of residual
    multisets is constant, which is checked directly; the transport
    function itself is exercised on all within-bucket pairs of a smaller
    universe.
    """
    cases, cex = _constant_on_buckets(
        gen_ctxs(_POOL, max_elems, max_depth),
        lambda g: tuple(frozenset(_mkey(r) for r in select(x, g)) for x in _POOL),
        "selection residual classes differ",
    )
    if cex is not None:
        return cases, cex
    small = gen_ctxs(_POOL, 3, 2)
    for bucket in _buckets(small).values():
        for g1 in bucket:
            for g2 in bucket:
                for x in _POOL:
                    for residual in select(x, g1):
                        cases += 1
                        transported = sel_transport(x, g1, residual, g2)
                        if not perm(residual, transported):
                            return cases, (
                                f"transported residual is not a permutation: "
                                f"{print_ctx(g1)} / {print_ctx(g2)}"
                            )
    return cases, None


def _perm_rel_fast_table(universe: list) -> tuple:
    """Rows of the search-based permutation relation, as bitsets.

    Contexts are interned as integers; residuals of universe members are
    again universe members, so the whole recursion stays inside the
    integer coding.  Bit `j` of `rows[i]` is set when the search relates
    contexts `i` and `j`.  Each row is perm_rel's clause read for all `j`
    at once: if `i` is element-free, its row is the set of element-free
    contexts; otherwise it is the union, over each distinct `x` of `i`
    and each residual `a` of selecting `x` from `i`, of the contexts that
    have an `x`-residual in the row of `a`.  Each residual has exactly
    one element fewer than its context, so filling the rows in order of
    element count has every residual's row ready before it is read.
    Like perm_rel, this uses only `select`, `elems` and `no_elems`
    (agreement with the shipped function is itself asserted by the
    caller on a sub-universe).  Returns the interning index and the rows.
    """
    index = {g: i for i, g in enumerate(universe)}
    listed = [elems(g) for g in universe]
    sel_ids = []
    # (x, b) -> bitset of the contexts that have residual b after selecting x.
    parents: dict = {}
    for j, g in enumerate(universe):
        per_elem = {}
        for x in dict.fromkeys(listed[j]):
            per_elem[x] = tuple(dict.fromkeys(index[r] for r in select(x, g)))
            for b in per_elem[x]:
                parents[x, b] = parents.get((x, b), 0) | 1 << j
        sel_ids.append(per_elem)

    pre_memo: dict = {}

    def pre(x, s: int) -> int:
        # The contexts that have an x-residual in the bitset s.
        key = (x, s)
        out = pre_memo.get(key)
        if out is None:
            out = 0
            while s:
                low = s & -s
                out |= parents.get((x, low.bit_length() - 1), 0)
                s ^= low
            pre_memo[key] = out
        return out

    empties = 0
    for i, g in enumerate(universe):
        if no_elems(g):
            empties |= 1 << i
    rows = [0] * len(universe)
    for i in sorted(range(len(universe)), key=lambda i: len(listed[i])):
        if empties >> i & 1:
            rows[i] = empties
            continue
        row = 0
        for x, residuals in sel_ids[i].items():
            for a in residuals:
                row |= pre(x, rows[a])
        rows[i] = row
    return index, rows


def check_perm_equiv(max_elems: int = 4, max_depth: int = 3) -> tuple:
    """The multiset-equality decision agrees with the search-based relation.

    Checked on all ordered pairs of three universes: a small one against
    the shipped search directly, then (via an interned evaluation of the
    same search, validated against the shipped one on the small universe)
    all pairs at up to 3 elements with the full union depth, and all
    pairs at up to 4 elements with union depth 2.  The corner of
    4-element pairs at union depth 3 is not covered: covering it would
    change the case counts that the reports and perfbench pin.

    The interned search gives each context's whole row of the relation
    at once, the same clause read for all partners together, and a row
    is compared with the bitset of the context's `_mkey` bucket in one
    step.  Each row still counts one case per pair; on a mismatch the
    lowest differing bit is the first failing pair in row-major order,
    so counts and counterexamples are those of a pair-by-pair sweep.
    """
    cases = 0
    small = gen_ctxs(_POOL, 2, 2)
    memo: dict = {}
    for g1 in small:
        for g2 in small:
            cases += 1
            if perm(g1, g2) != perm_rel(g1, g2, memo):
                return cases, (
                    f"perm and perm_rel disagree on "
                    f"{print_ctx(g1)} / {print_ctx(g2)}"
                )
    for universe in (
        gen_ctxs(_POOL, 3, max_depth),
        gen_ctxs(_POOL, max_elems, 2),
    ):
        index, rows = _perm_rel_fast_table(universe)
        for g in small:
            if g in index:
                row = rows[index[g]]
                for h in small:
                    if h in index:
                        cases += 1
                        if bool(row >> index[h] & 1) != perm_rel(g, h, memo):
                            return cases, (
                                f"interned search disagrees with perm_rel on "
                                f"{print_ctx(g)} / {print_ctx(h)}"
                            )
        keys = [_mkey(g) for g in universe]
        buckets: dict = {}
        for j, key in enumerate(keys):
            buckets[key] = buckets.get(key, 0) | 1 << j
        n = len(universe)
        for i, row in enumerate(rows):
            diff = row ^ buckets[keys[i]]
            if diff:
                j = (diff & -diff).bit_length() - 1
                return cases + j + 1, (
                    f"perm and perm_rel disagree on "
                    f"{print_ctx(universe[i])} / {print_ctx(universe[j])}"
                )
            cases += n
    return cases, None


def check_perm_to_part(max_elems: int = 4, max_depth: int = 3) -> tuple:
    """Flattening a split of a list's elements into an ordered partition.

    For all context pairs (G1, G2) from the universe with at most
    max_elems elements combined, and every arrangement L of the combined
    multiset (all arrangements up to 3 elements, the canonical sorted one
    at 4): the result is an ordered partition of L whose components are
    permutations of G1 and G2.  The partition-to-permutation round trip
    is asserted on the fully-swept arrangements.
    """
    universe = gen_ctxs(_POOL, max_elems, max_depth)
    by_count: dict = {}  # size -> (context, its _mkey) pairs
    for g in universe:
        key = _mkey(g)
        by_count.setdefault(len(key), []).append((g, key))
    cases = 0
    for k1 in range(max_elems + 1):
        for k2 in range(max_elems + 1 - k1):
            total = k1 + k2
            for g1, key1 in by_count.get(k1, ()):
                for g2, key2 in by_count.get(k2, ()):
                    combined = tuple(sorted(key1 + key2))
                    if total <= 3:
                        arrangements = [
                            arr
                            for arr in dict.fromkeys(
                                itertools.permutations(combined)
                            )
                        ]
                    else:
                        arrangements = [combined]
                    for arr in arrangements:
                        cases += 1
                        l = from_list(arr)
                        l1, l2 = perm_to_part(l, g1, g2)
                        if _mkey(l1) != key1 or _mkey(l2) != key2:
                            return cases, (
                                f"perm_to_part output not permutations: "
                                f"L={print_ctx(l)}, G1={print_ctx(g1)}, "
                                f"G2={print_ctx(g2)}"
                            )
                        if total <= 3 and not part_to_perm(l, l1, l2):
                            return cases, (
                                f"round trip failed: L={print_ctx(l)}"
                            )
    return cases, None


def check_part_to_perm(max_elems: int = 4) -> tuple:
    """Every ordered partition of a list recombines to a permutation of it."""
    cases = 0
    for k in range(max_elems + 1):
        for items in itertools.product(_POOL, repeat=k):
            l = from_list(items)
            for l1, l2 in partition_list(l):
                cases += 1
                if not part_to_perm(l, l1, l2):
                    return cases, f"failed on L={print_ctx(l)}"
    return cases, None


def check_sel_implies_mem(max_elems: int = 4, max_depth: int = 3) -> tuple:
    """A selectable element is a member."""
    universe = gen_ctxs(_POOL, max_elems, max_depth)
    probes = list(_POOL) + [_FOREIGN]
    cases = 0
    for g in universe:
        for x in probes:
            cases += 1
            if select(x, g) and not member(x, g):
                return cases, f"select without member: {x} in {print_ctx(g)}"
    return cases, None


def check_partition_count(max_elems: int = 4) -> tuple:
    """A list of n elements has exactly 2**n ordered partitions."""
    cases = 0
    for k in range(max_elems + 1):
        for items in itertools.product(_POOL, repeat=k):
            cases += 1
            if len(partition_list(from_list(items))) != 2 ** k:
                return cases, f"wrong count for {list(items)}"
    return cases, None


def core_lemma_suite(max_elems: int = 4, max_depth: int = 3, jobs: int = 1) -> list:
    checks = [
        ("core.mem_replace", check_mem_replace, (max_elems, max_depth)),
        ("core.sel_replace", check_sel_replace, (max_elems, max_depth)),
        ("core.perm_equiv_perm_rel", check_perm_equiv, (max_elems, max_depth)),
        ("core.perm_to_part", check_perm_to_part, (max_elems, max_depth)),
        ("core.part_to_perm", check_part_to_perm, (max_elems,)),
        ("core.sel_implies_mem", check_sel_implies_mem, (max_elems, max_depth)),
        ("core.partition_count", check_partition_count, (max_elems,)),
    ]
    return run_checks(checks, jobs=jobs)


# ---------------------------------------------------------------------------
# Typing suite.
# ---------------------------------------------------------------------------


# Type associations over three names, plus one entry that is not an association.
_ASSOC_POOL = tuple(TyAssoc(n, t) for n in name_pool(3) for t in TYPE_UNIVERSE) + ("junk",)


def _ty_lists(bounds: GenBounds) -> list:
    return gen_ctxs(_ASSOC_POOL, bounds.ctx_elems, 1)


def _ty_msets(bounds: GenBounds) -> list:
    return gen_ctxs(_ASSOC_POOL, bounds.ctx_elems, bounds.union_depth)


def check_ty_ctx_mem(bounds: GenBounds, universe: Callable, holds: Callable) -> tuple:
    """Members of a typing context are type associations keyed by names.

    `universe` builds the candidate contexts and `holds` is the typing
    context predicate: `_ty_lists` with `ty_ctx_list` for the list form,
    `_ty_msets` with `ty_ctx_mset` for the multiset form.
    """
    cases = 0
    for g in universe(bounds):
        if not holds(g):
            continue
        for entry in elems(g):
            cases += 1
            if not (isinstance(entry, TyAssoc) and isinstance(entry.name, Name)):
                return cases, f"bad member {entry!r} in {print_ctx(g, render_value)}"
    return cases, None


def check_ty_ctx_uniq(bounds: GenBounds, universe: Callable, holds: Callable) -> tuple:
    """At most one association per name in a typing context; the form is
    chosen as for `check_ty_ctx_mem`."""
    cases = 0
    for g in universe(bounds):
        if not holds(g):
            continue
        entries = elems(g)
        for a in entries:
            for b in entries:
                if a.name == b.name:
                    cases += 1
                    if a.ty != b.ty:
                        return cases, (
                            f"two types for {a.name} in {print_ctx(g, render_value)}"
                        )
    return cases, None


def gen_terms(
    frees: tuple,
    max_size: int,
    anns: tuple,
    with_let: bool,
) -> list:
    """All locally closed terms up to the size, with the given free names
    and annotation types.  Deterministic order; bound variables appear
    only under their binders."""
    memo: dict = {}

    def at(size: int, depth: int) -> list:
        key = (size, depth)
        if key in memo:
            return memo[key]
        out: list = []
        if size == 1:
            out.extend(Free(n) for n in frees)
            out.extend(Bound(i) for i in range(depth))
        else:
            for ann in anns:
                out.extend(Abs(ann, b) for b in at(size - 1, depth + 1))
            for left in range(1, size - 1):
                for fn in at(left, depth):
                    for arg in at(size - 1 - left, depth):
                        out.append(App(fn, arg))
            if with_let:
                for ann in anns:
                    for left in range(1, size - 1):
                        for val in at(left, depth):
                            for body in at(size - 1 - left, depth + 1):
                                out.append(Let(ann, val, body))
        memo[key] = out
        return out

    result: list = []
    for size in range(1, max_size + 1):
        result.extend(at(size, 0))
    return result


def _typed_lists(names: list, max_k: int) -> list:
    """Type-association lists over distinct names, by size up to max_k."""
    return [
        from_list([TyAssoc(n, t) for n, t in zip(combo_names, combo_types)])
        for k in range(max_k + 1)
        for combo_names in itertools.permutations(names, k)
        for combo_types in itertools.product(TYPE_UNIVERSE, repeat=k)
    ]


def check_ty_uniq(bounds: GenBounds) -> tuple:
    """Typing contexts assign at most one type to any term."""
    names = name_pool(3)
    lists = _typed_lists(names, bounds.ctx_elems)
    terms = gen_terms(tuple(names), 3, (Base("i"), TYPE_UNIVERSE[-1]), False)
    cases = 0
    for l in lists:
        for e in terms:
            cases += 1
            derivable = type_of_enum(l, e)
            if len(derivable) > 1:
                return cases, (
                    f"{len(derivable)} types for {e!r} under {print_ctx(l, render_value)}"
                )
    return cases, None


def check_ty_ctx_distr(
    bounds: GenBounds, universe: Callable, holds: Callable, split: Callable
) -> tuple:
    """Typing contexts distribute over their splits.

    The form is chosen as for `check_ty_ctx_mem`; `split` enumerates the
    two-way splits of a context: `partition_list` (ordered partitions)
    for the list form, `splits` for the multiset form.
    """
    cases = 0
    for g in universe(bounds):
        if not holds(g):
            continue
        for g1, g2 in split(g):
            cases += 1
            if not (holds(g1) and holds(g2)):
                return cases, f"split of {print_ctx(g, render_value)} failed"
    return cases, None


def typing_lemma_suite(bounds: GenBounds = GenBounds(), jobs: int = 1) -> list:
    checks = [
        ("typing.ty_ctx_mem", check_ty_ctx_mem, (bounds, _ty_lists, ty_ctx_list)),
        ("typing.ty_ctx_uniq", check_ty_ctx_uniq, (bounds, _ty_lists, ty_ctx_list)),
        ("typing.ty_uniq", check_ty_uniq, (bounds,)),
        ("typing.ty_ctx_mem_mset", check_ty_ctx_mem, (bounds, _ty_msets, ty_ctx_mset)),
        ("typing.ty_ctx_uniq_mset", check_ty_ctx_uniq, (bounds, _ty_msets, ty_ctx_mset)),
        (
            "typing.ty_ctx_distr_part",
            check_ty_ctx_distr,
            (bounds, _ty_lists, ty_ctx_list, partition_list),
        ),
        ("typing.ty_ctx_distr", check_ty_ctx_distr, (bounds, _ty_msets, ty_ctx_mset, splits)),
    ]
    return run_checks(checks, jobs=jobs)


# ---------------------------------------------------------------------------
# Relational/algorithmic agreement for the linear systems.
# ---------------------------------------------------------------------------


def check_linear_equivalence(bounds: GenBounds, with_let: bool) -> tuple:
    """Top-level agreement of the relational and leftover-threading readings.

    For every list context with up to two distinctly-named associations
    and every locally closed term up to the size bound: the set of types
    derivable relationally equals the singleton (or empty) result of the
    algorithmic checker with an empty leftover.
    """
    contexts = _typed_lists(name_pool(2), min(bounds.ctx_elems, 2))
    terms = gen_terms(tuple(name_pool(2)), bounds.term_size, TYPE_UNIVERSE, with_let)
    checker = ml_type if with_let else linear_type
    cases = 0
    cache: dict = {}
    for g in contexts:
        for e in terms:
            cases += 1
            relational = _linear_types(g, e, with_let, cache)
            algo = checker(g, e)
            algo_set = frozenset(() if algo is None else (algo,))
            if relational != algo_set:
                return cases, (
                    f"disagreement on {e!r} under {print_ctx(g, render_value)}: "
                    f"relational {sorted(map(str, relational))}, checker {algo}"
                )
    return cases, None


def equivalence_suite(bounds: GenBounds = GenBounds(), jobs: int = 1) -> list:
    checks = [
        ("equiv.linear", check_linear_equivalence, (bounds, False)),
        ("equiv.linear_ml", check_linear_equivalence, (bounds, True)),
    ]
    return run_checks(checks, jobs=jobs)


# ---------------------------------------------------------------------------
# Translation suite.
# ---------------------------------------------------------------------------


_TRANS_TYPES = (Base("i"), Base("o"), Arrow(Base("i"), Base("i")))


def gen_trans_triples(bounds: GenBounds) -> list:
    """Coordinated list triples with up to ctx_elems associations."""
    xs = name_pool(3, "x")
    ys = name_pool(3, "y")
    out = []
    for k in range(min(bounds.ctx_elems, 3) + 1):
        for srcs in itertools.permutations(xs, k):
            for dsts in itertools.permutations(ys, k):
                for tys in itertools.product(_TRANS_TYPES, repeat=k):
                    l1 = from_list([TyAssoc(x, t) for x, t in zip(srcs, tys)])
                    l2 = from_list([VarAssoc(x, y) for x, y in zip(srcs, dsts)])
                    l3 = from_list([TyAssoc(y, t) for y, t in zip(dsts, tys)])
                    out.append((l1, l2, l3))
    return out


def _restructure(row: tuple, variant: int) -> Ctx:
    if variant == 0 or not row:
        return from_list(row)
    if variant == 1:
        return from_list(tuple(reversed(row)))
    if variant == 2:
        return Union(from_list(row[:1]), from_list(row[1:]))
    return Union(from_list(row[1:]), from_list(row[:1]))


def gen_trans_triples_mset(bounds: GenBounds) -> list:
    """List triples plus bounded union/permutation restructurings."""
    out = []
    seen = set()
    for l1, l2, l3 in gen_trans_triples(bounds):
        rows = (elems(l1), elems(l2), elems(l3))
        combos = [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 2, 1), (3, 0, 2), (1, 3, 0)]
        for variants in combos:
            triple = tuple(_restructure(r, v) for r, v in zip(rows, variants))
            if triple not in seen:
                seen.add(triple)
                out.append(triple)
    return out


_render_triple = partial(render_contexts, ("G1", "G2", "G3"))


def check_trans_rel_uniq(bounds: GenBounds) -> tuple:
    """Translation associations are unique per source name."""
    cases = 0
    memo: dict = {}
    for triple in gen_trans_triples_mset(bounds):
        if not trans_rel_mset(*triple, _memo=memo):
            continue
        entries = elems(triple[1])
        for a in entries:
            for b in entries:
                if a.src == b.src:
                    cases += 1
                    if a.dst != b.dst:
                        return cases, f"two targets for {a.src}: {_render_triple(triple)}"
    return cases, None


def check_trans_rel_mem(bounds: GenBounds) -> tuple:
    """Members of the translation context coordinate with both typing contexts."""
    cases = 0
    memo: dict = {}
    for triple in gen_trans_triples_mset(bounds):
        g1, g2, g3 = triple
        if not trans_rel_mset(g1, g2, g3, _memo=memo):
            continue
        for entry in elems(g2):
            cases += 1
            if not isinstance(entry, VarAssoc):
                return cases, f"non-association member: {_render_triple(triple)}"
            x, y = entry.src, entry.dst
            shared = [
                a.ty
                for a in elems(g1)
                if isinstance(a, TyAssoc) and a.name == x
                and any(
                    b.name == y and b.ty == a.ty
                    for b in elems(g3)
                    if isinstance(b, TyAssoc)
                )
            ]
            if not (isinstance(x, Name) and isinstance(y, Name) and shared):
                return cases, f"no coordinated type for {entry}: {_render_triple(triple)}"
    return cases, None


def check_trans_rel_sel(bounds: GenBounds) -> tuple:
    """Selection from the translation context coordinates with selections
    from both typing contexts, leaving a residual triple in the relation."""
    cases = 0
    memo: dict = {}
    for triple in gen_trans_triples_mset(bounds):
        g1, g2, g3 = triple
        if not trans_rel_mset(g1, g2, g3, _memo=memo):
            continue
        for entry in dict.fromkeys(elems(g2)):
            for g2r in select(entry, g2):
                cases += 1
                x, y = entry.src, entry.dst
                found = any(
                    trans_rel_mset(g1r, g2r, g3r, _memo=memo)
                    for a1 in dict.fromkeys(elems(g1))
                    if isinstance(a1, TyAssoc) and a1.name == x
                    for g1r in select(a1, g1)
                    for a3 in dict.fromkeys(elems(g3))
                    if isinstance(a3, TyAssoc) and a3.name == y and a3.ty == a1.ty
                    for g3r in select(a3, g3)
                )
                if not found:
                    return cases, (
                        f"no coordinated selection for {entry}: {_render_triple(triple)}"
                    )
    return cases, None


def check_trans_rel_list_distr(bounds: GenBounds) -> tuple:
    """Coordinated position-wise partitions preserve the list relation.

    The three lists of a triple have equal lengths, and `partition_list`
    lists the partitions of equal-length lists in the same mask order, so
    zipping their partitions applies one mask to all three lists.
    """
    cases = 0
    for triple in gen_trans_triples(bounds):
        if not trans_rel_list(*triple):
            continue
        for parts in zip(*(partition_list(l) for l in triple)):
            cases += 1
            firsts, seconds = zip(*parts)
            if not (trans_rel_list(*firsts) and trans_rel_list(*seconds)):
                return cases, f"partition failed: {_render_triple(triple)}"
    return cases, None


def check_trans_rel_distr(bounds: GenBounds) -> tuple:
    """Splits of the first context induce coordinated splits of the others."""
    return check_distr_instances(TRANS_REL, 1, gen_trans_triples_mset(bounds))


def check_trans_sel_implies_mem(bounds: GenBounds) -> tuple:
    """Selectable associations are members (translation contexts)."""
    cases = 0
    for triple in gen_trans_triples_mset(bounds):
        for g in triple:
            for entry in dict.fromkeys(elems(g)):
                cases += 1
                if select(entry, g) and not member(entry, g):
                    return cases, f"select without member in {_render_triple(triple)}"
    return cases, None


def check_ltrans_pres_ty(bounds: GenBounds) -> tuple:
    """Translation preserves types.

    For every coordinated triple and every source term within the size
    bound that types under the source context: the translated term types
    under the target context with the same type.  Typing goes through the
    leftover checkers (their agreement with the relational readings is a
    separate suite); the translation function's agreement with the
    translation relation is asserted on the smaller terms.

    The source terms are typed once per multiset class of the source
    context: by exchange, ML typing over distinct names does not depend
    on the order of the context.  Every triple still runs its own cases,
    in (triple, term) order, so the case count and the first
    counterexample are those of typing each triple afresh.
    """
    term_bound = max(bounds.term_size, 5)
    xs = name_pool(3, "x")
    terms = gen_terms(tuple(xs), term_bound, _TRANS_TYPES, True)
    by_frees: dict = {}
    for e in terms:
        counts = free_counts(e)
        if all(v == 1 for v in counts.values()):
            by_frees.setdefault(frozenset(counts), []).append(e)
    # Sound because gen_trans_triples builds every l1 from
    # itertools.permutations of the names, so its names are distinct, and
    # ML typing over distinct names does not depend on the context's order
    # (exchange): every arrangement in a class gives the same ml_type on
    # every term.  l1 holds the source names of l2, so its class fixes srcs.
    typed: dict = {}
    cases = 0
    for l1, l2, l3 in gen_trans_triples(bounds):
        srcs = frozenset(a.src for a in elems(l2))
        key = _class_key(l1)
        if key not in typed:
            typed[key] = [
                (e, src_ty)
                for e in by_frees.get(srcs, ())
                if (src_ty := ml_type(l1, e)) is not None
            ]
        for e, src_ty in typed[key]:
            cases += 1
            translated = translate(l2, e)
            dst_ty = linear_type(l3, translated)
            if dst_ty != src_ty:
                return cases, (
                    f"type not preserved for {e!r}: source {src_ty}, target {dst_ty}; "
                    f"{_render_triple((l1, l2, l3))}"
                )
            if term_size(e) <= 3 and not ltrans_rel(l2, e, translated):
                return cases, f"function output not in the relation for {e!r}"
    return cases, None


def translation_lemma_suite(bounds: GenBounds = GenBounds(), jobs: int = 1) -> list:
    checks = [
        ("translation.trans_rel_uniq", check_trans_rel_uniq, (bounds,)),
        ("translation.trans_rel_mem", check_trans_rel_mem, (bounds,)),
        ("translation.trans_rel_sel", check_trans_rel_sel, (bounds,)),
        ("translation.trans_rel_list_distr", check_trans_rel_list_distr, (bounds,)),
        ("translation.trans_rel_distr", check_trans_rel_distr, (bounds,)),
        ("translation.sel_implies_mem", check_trans_sel_implies_mem, (bounds,)),
        ("translation.ltrans_pres_ty", check_ltrans_pres_ty, (bounds,)),
    ]
    return run_checks(checks, jobs=jobs)
