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
    multiset,
    multiset_of,
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
from .ctxspec import check_distr_instances, render_contexts, render_value
from .report import GenBounds, counted, run_checks
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


def _buckets(universe: list) -> dict:
    out: dict = {}
    for g in universe:
        out.setdefault(multiset_of(g), []).append(g)
    return out


def _constant_on_buckets(universe: list, profile: Callable, what: str):
    """Cases checking that `profile` is constant on each permutation
    bucket of the universe, one per context.  A counterexample names the
    first context that differs from the first context of its bucket."""
    for bucket in _buckets(universe).values():
        witness = bucket[0]
        expected = profile(witness)
        yield None
        for g in bucket[1:]:
            yield profile(g) != expected and (
                f"{what} across a permutation: {print_ctx(witness)} vs {print_ctx(g)}"
            )


# ---------------------------------------------------------------------------
# Core context suite.
# ---------------------------------------------------------------------------


@counted
def check_mem_replace(max_elems: int = 4, max_depth: int = 3):
    """Membership is invariant across permutations.

    For all G, G2 in the universe with perm(G, G2) and all probe
    elements x: member(x, G) implies member(x, G2).  Quantifying both
    directions over every ordered pair inside a permutation bucket is
    equivalent to the membership profile being constant on the bucket,
    which is what is checked.
    """
    probes = list(_POOL) + [_FOREIGN]
    yield from _constant_on_buckets(
        gen_ctxs(_POOL, max_elems, max_depth),
        lambda g: tuple(member(x, g) for x in probes),
        "membership differs",
    )


@counted
def check_sel_replace(max_elems: int = 4, max_depth: int = 3):
    """Selection residuals are matched across permutations.

    For all permutation-related G1, G2 and every residual of selecting x
    from G1 there is a residual of selecting x from G2 that is a
    permutation of it.  Per bucket this says the set of residual
    multisets is constant, which is checked directly; the transport
    function itself is exercised on all within-bucket pairs of a smaller
    universe.
    """
    yield from _constant_on_buckets(
        gen_ctxs(_POOL, max_elems, max_depth),
        lambda g: tuple(frozenset(multiset_of(r) for r in select(x, g)) for x in _POOL),
        "selection residual classes differ",
    )
    small = gen_ctxs(_POOL, 3, 2)
    for bucket in _buckets(small).values():
        for g1 in bucket:
            for g2 in bucket:
                for x in _POOL:
                    for residual in select(x, g1):
                        transported = sel_transport(x, g1, residual, g2)
                        yield not perm(residual, transported) and (
                            f"transported residual is not a permutation: "
                            f"{print_ctx(g1)} / {print_ctx(g2)}"
                        )


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
    is compared in one step with the bitset of the context's `multiset`
    bucket, the class by which `perm` decides.  Each row still counts one
    case per pair; on a mismatch the lowest differing bit is the first
    failing pair in row-major order, so counts and counterexamples are
    those of a pair-by-pair sweep.

    This is the one check that keeps its own case counter rather than
    being a `counted` generator: a row decides a whole row of pairs at
    once and counts them in one step, where a generator would have to
    resume once per pair (2,797,385 times at (4, 3)).
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
        keys = [multiset(elems(g)) for g in universe]
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


@counted
def check_perm_to_part(max_elems: int = 4, max_depth: int = 3):
    """Flattening a split of a list's elements into an ordered partition.

    For all context pairs (G1, G2) from the universe with at most
    max_elems elements combined, and every arrangement L of the combined
    multiset (all arrangements up to 3 elements, the canonical sorted one
    at 4): the result is an ordered partition of L whose components are
    permutations of G1 and G2.  Both conjuncts are looked up in one table
    per L, from each ordered partition of L to its components' sorted
    entries.  The way back is `check_part_to_perm`, on every ordered
    partition of every list reached here.
    """
    universe = gen_ctxs(_POOL, max_elems, max_depth)
    # size -> (context, its sorted entries), which build the arrangements and,
    # on this pool of strings, decide exactly whether an output is a permutation
    by_count: dict = {}
    for g in universe:
        key = tuple(sorted(elems(g)))
        by_count.setdefault(len(key), []).append((g, key))
    # combined sorted entries -> [(L, {ordered partition of L: sorted entries of each side})]
    tables: dict = {}
    for k1 in range(max_elems + 1):
        for k2 in range(max_elems + 1 - k1):
            for g1, key1 in by_count.get(k1, ()):
                for g2, key2 in by_count.get(k2, ()):
                    combined = tuple(sorted(key1 + key2))
                    if combined not in tables:
                        if k1 + k2 <= 3:
                            arrangements = dict.fromkeys(itertools.permutations(combined))
                        else:
                            arrangements = [combined]
                        tables[combined] = [
                            (l, {(l1, l2): (tuple(sorted(elems(l1))), tuple(sorted(elems(l2))))
                                 for l1, l2 in partition_list(l)})
                            for l in map(from_list, arrangements)
                        ]
                    for l, table in tables[combined]:
                        found = table.get(perm_to_part(l, g1, g2))
                        yield found != (key1, key2) and (
                            f"perm_to_part output not "
                            f"{'an ordered partition' if found is None else 'permutations'}: "
                            f"L={print_ctx(l)}, G1={print_ctx(g1)}, G2={print_ctx(g2)}"
                        )


@counted
def check_part_to_perm(max_elems: int = 4):
    """Every ordered partition of a list recombines to a permutation of it."""
    for k in range(max_elems + 1):
        for items in itertools.product(_POOL, repeat=k):
            l = from_list(items)
            for l1, l2 in partition_list(l):
                yield not part_to_perm(l, l1, l2) and f"failed on L={print_ctx(l)}"


@counted
def check_sel_implies_mem(max_elems: int = 4, max_depth: int = 3):
    """A selectable element is a member."""
    probes = list(_POOL) + [_FOREIGN]
    for g in gen_ctxs(_POOL, max_elems, max_depth):
        for x in probes:
            yield select(x, g) and not member(x, g) and (
                f"select without member: {x} in {print_ctx(g)}"
            )


@counted
def check_partition_count(max_elems: int = 4):
    """A list of n elements has exactly 2**n ordered partitions."""
    for k in range(max_elems + 1):
        for items in itertools.product(_POOL, repeat=k):
            yield len(partition_list(from_list(items))) != 2 ** k and (
                f"wrong count for {list(items)}"
            )


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


@counted
def check_ty_ctx_mem(bounds: GenBounds, universe: Callable, holds: Callable):
    """Members of a typing context are type associations keyed by names.

    `universe` builds the candidate contexts and `holds` is the typing
    context predicate: `_ty_lists` with `ty_ctx_list` for the list form,
    `_ty_msets` with `ty_ctx_mset` for the multiset form.
    """
    for g in filter(holds, universe(bounds)):
        for entry in elems(g):
            yield not (isinstance(entry, TyAssoc) and isinstance(entry.name, Name)) and (
                f"bad member {entry!r} in {print_ctx(g, render_value)}"
            )


@counted
def check_ty_ctx_uniq(bounds: GenBounds, universe: Callable, holds: Callable):
    """At most one association per name in a typing context; the form is
    chosen as for `check_ty_ctx_mem`."""
    for g in filter(holds, universe(bounds)):
        entries = elems(g)
        for a in entries:
            for b in entries:
                if a.name == b.name:
                    yield a.ty != b.ty and (
                        f"two types for {a.name} in {print_ctx(g, render_value)}"
                    )


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


def gen_linear_terms(
    assocs: tuple,
    frees: tuple,
    max_size: int,
    anns: tuple,
    with_let: bool,
) -> list:
    """The terms of `gen_terms(frees, max_size, anns, with_let)` that type
    linearly under a list of exactly the type associations `assocs` (over
    distinct names), in `gen_terms` order, each paired with its type.

    The terms are built by the typing rules, not filtered.  `at` runs
    `gen_terms`' loops over the resources a subterm may use, a bitmask
    with bit i for the i-th association and bit len(assocs) + d for the
    binder at depth d.  A variable consumes its resource; an application
    and a let thread the leftover of their first part into the second;
    an abstraction and a let require their own binder to be consumed.
    This is the leftover-threading checker read backwards, so a term is
    kept exactly when that checker types it with an empty leftover
    (`ml_type` with let, `linear_type` without): each association and
    each binder is used exactly once.  The checker is deterministic, so a
    kept term has one type, and the output is the in-order subsequence of
    `gen_terms`.  The memo lives for one call.
    """
    k = len(assocs)
    leaves = [
        (Free(a.name), 1 << i, a.ty)
        for n in frees
        for i, a in enumerate(assocs)
        if a.name == n
    ]
    memo: dict = {}

    def at(size: int, avail: int, need: int, binders: tuple) -> list:
        # (term, type, leftover) for the terms of gen_terms' at(size,
        # len(binders)) that type from `avail` and consume all of `need`,
        # the resources no later part of the term can still consume;
        # `binders` holds the enclosing binders' annotations, outermost
        # first.  Each variable consumes one resource, and a term of this
        # size has at most (size + 1) // 2 variables.
        if need.bit_count() > (size + 1) // 2:
            return []
        key = (size, avail, need, binders)
        if key in memo:
            return memo[key]
        out: list = []
        depth = len(binders)
        if size == 1:
            for leaf, bit, ty in leaves:
                if avail & bit and not need & ~bit:
                    out.append((leaf, ty, avail ^ bit))
            for i in range(depth):
                bit = 1 << (k + depth - 1 - i)
                if avail & bit and not need & ~bit:
                    out.append((Bound(i), binders[depth - 1 - i], avail ^ bit))
        else:
            own = 1 << (k + depth)
            for ann in anns:
                for body, ty, rest in at(size - 1, avail | own, need | own, binders + (ann,)):
                    out.append((Abs(ann, body), Arrow(ann, ty), rest))
            for left in range(1, size - 1):
                for fn, fn_ty, rest in at(left, avail, 0, binders):
                    if isinstance(fn_ty, Arrow):
                        for arg, arg_ty, rest2 in at(size - 1 - left, rest, need & rest, binders):
                            if arg_ty == fn_ty.dom:
                                out.append((App(fn, arg), fn_ty.cod, rest2))
            if with_let:
                for ann in anns:
                    for left in range(1, size - 1):
                        for val, val_ty, rest in at(left, avail, 0, binders):
                            if val_ty == ann:
                                body_need = need & rest | own
                                for body, ty, rest2 in at(
                                    size - 1 - left, rest | own, body_need, binders + (ann,)
                                ):
                                    out.append((Let(ann, val, body), ty, rest2))
        memo[key] = out
        return out

    everything = (1 << k) - 1
    return [
        (e, ty) for size in range(1, max_size + 1) for e, ty, _ in at(size, everything, everything, ())
    ]


def _typed_lists(names: list, max_k: int) -> list:
    """Type-association lists over distinct names, by size up to max_k."""
    return [
        from_list([TyAssoc(n, t) for n, t in zip(combo_names, combo_types)])
        for k in range(max_k + 1)
        for combo_names in itertools.permutations(names, k)
        for combo_types in itertools.product(TYPE_UNIVERSE, repeat=k)
    ]


@counted
def check_ty_uniq(bounds: GenBounds):
    """Typing contexts assign at most one type to any term."""
    names = name_pool(3)
    terms = gen_terms(tuple(names), 3, (Base("i"), TYPE_UNIVERSE[-1]), False)
    for l in _typed_lists(names, bounds.ctx_elems):
        for e in terms:
            derivable = type_of_enum(l, e)
            yield len(derivable) > 1 and (
                f"{len(derivable)} types for {e!r} under {print_ctx(l, render_value)}"
            )


@counted
def check_ty_ctx_distr(bounds: GenBounds, universe: Callable, holds: Callable, split: Callable):
    """Typing contexts distribute over their splits.

    The form is chosen as for `check_ty_ctx_mem`; `split` enumerates the
    two-way splits of a context: `partition_list` (ordered partitions)
    for the list form, `splits` for the multiset form.
    """
    for g in filter(holds, universe(bounds)):
        for g1, g2 in split(g):
            yield not (holds(g1) and holds(g2)) and f"split of {print_ctx(g, render_value)} failed"


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


@counted
def check_linear_equivalence(bounds: GenBounds, with_let: bool):
    """Top-level agreement of the relational and leftover-threading readings.

    For every list context with up to two distinctly-named associations
    and every locally closed term up to the size bound: the set of types
    derivable relationally equals the singleton (or empty) result of the
    algorithmic checker with an empty leftover.
    """
    contexts = _typed_lists(name_pool(2), min(bounds.ctx_elems, 2))
    terms = gen_terms(tuple(name_pool(2)), bounds.term_size, TYPE_UNIVERSE, with_let)
    checker = ml_type if with_let else linear_type
    cache: dict = {}
    for g in contexts:
        for e in terms:
            relational = _linear_types(g, e, with_let, cache)
            algo = checker(g, e)
            yield relational != frozenset(() if algo is None else (algo,)) and (
                f"disagreement on {e!r} under {print_ctx(g, render_value)}: "
                f"relational {sorted(map(str, relational))}, checker {algo}"
            )


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


def _related_triples(bounds: GenBounds, memo: dict):
    """The generated multiset triples that trans_rel relates, in order;
    the relation is decided through `memo`."""
    for triple in gen_trans_triples_mset(bounds):
        if trans_rel_mset(*triple, _memo=memo):
            yield triple


@counted
def check_trans_rel_uniq(bounds: GenBounds):
    """Translation associations are unique per source name."""
    for triple in _related_triples(bounds, {}):
        entries = elems(triple[1])
        for a in entries:
            for b in entries:
                if a.src == b.src:
                    yield a.dst != b.dst and f"two targets for {a.src}: {_render_triple(triple)}"


@counted
def check_trans_rel_mem(bounds: GenBounds):
    """Members of the translation context coordinate with both typing contexts."""
    for triple in _related_triples(bounds, {}):
        g1, g2, g3 = triple
        for entry in elems(g2):
            if not isinstance(entry, VarAssoc):
                yield f"non-association member: {_render_triple(triple)}"
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
            yield not (isinstance(x, Name) and isinstance(y, Name) and shared) and (
                f"no coordinated type for {entry}: {_render_triple(triple)}"
            )


@counted
def check_trans_rel_sel(bounds: GenBounds):
    """Selection from the translation context coordinates with selections
    from both typing contexts, leaving a residual triple in the relation."""
    memo: dict = {}
    for triple in _related_triples(bounds, memo):
        g1, g2, g3 = triple
        for entry in dict.fromkeys(elems(g2)):
            for g2r in select(entry, g2):
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
                yield not found and (
                    f"no coordinated selection for {entry}: {_render_triple(triple)}"
                )


@counted
def check_trans_rel_list_distr(bounds: GenBounds):
    """Coordinated position-wise partitions preserve the list relation.

    The three lists of a triple have equal lengths, and `partition_list`
    lists the partitions of equal-length lists in the same mask order, so
    zipping their partitions applies one mask to all three lists.
    """
    for triple in filter(lambda t: trans_rel_list(*t), gen_trans_triples(bounds)):
        for parts in zip(*(partition_list(l) for l in triple)):
            firsts, seconds = zip(*parts)
            yield not (trans_rel_list(*firsts) and trans_rel_list(*seconds)) and (
                f"partition failed: {_render_triple(triple)}"
            )


def check_trans_rel_distr(bounds: GenBounds) -> tuple:
    """Splits of the first context induce coordinated splits of the others."""
    return check_distr_instances(TRANS_REL, 1, gen_trans_triples_mset(bounds))


@counted
def check_trans_sel_implies_mem(bounds: GenBounds):
    """Selectable associations are members (translation contexts)."""
    for triple in gen_trans_triples_mset(bounds):
        for g in triple:
            for entry in dict.fromkeys(elems(g)):
                yield select(entry, g) and not member(entry, g) and (
                    f"select without member in {_render_triple(triple)}"
                )


@counted
def check_ltrans_pres_ty(bounds: GenBounds):
    """Translation preserves types.

    For every coordinated triple and every source term within the size
    bound that types under the source context: the translated term types
    under the target context with the same type.  Typing goes through the
    leftover checkers (their agreement with the relational readings is a
    separate suite); the translation function's agreement with the
    translation relation is asserted on the smaller terms.

    The source terms of each multiset class of the source context are
    built once by `gen_linear_terms`, from the linear typing rules: they
    are the in-order subsequence of `gen_terms` that types under the
    class, since each association and each binder is used exactly once.
    The first triple of a class confirms each term's type with one
    `ml_type` call, so the shipped checker still decides the source
    type, and a term it types otherwise is a counterexample.  Every
    triple still runs its own cases, in (triple, term) order, so the
    case count and the first counterexample are those of typing each
    triple afresh.
    """
    term_bound = max(bounds.term_size, 5)
    xs = tuple(name_pool(3, "x"))
    # Sound because gen_trans_triples builds every l1 from
    # itertools.permutations of the names, so its names are distinct, and
    # ML typing over distinct names does not depend on the context's order
    # (exchange): every arrangement in a class types the same terms alike.
    typed: dict = {}
    for l1, l2, l3 in gen_trans_triples(bounds):
        key = multiset_of(l1)
        confirm = key not in typed
        if confirm:
            typed[key] = gen_linear_terms(elems(l1), xs, term_bound, _TRANS_TYPES, True)
        for e, src_ty in typed[key]:
            if confirm and (checked := ml_type(l1, e)) != src_ty:
                yield (
                    f"source type not confirmed for {e!r}: enumerated {src_ty}, "
                    f"checker {checked}; {_render_triple((l1, l2, l3))}"
                )
            translated = translate(l2, e)
            dst_ty = linear_type(l3, translated)
            if dst_ty != src_ty:
                yield (
                    f"type not preserved for {e!r}: source {src_ty}, target {dst_ty}; "
                    f"{_render_triple((l1, l2, l3))}"
                )
            yield term_size(e) <= 3 and not ltrans_rel(l2, e, translated) and (
                f"function output not in the relation for {e!r}"
            )


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
