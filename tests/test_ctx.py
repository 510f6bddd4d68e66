"""Core multiset-context operations: frozen examples and small oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linctx.ctx import (
    Cons,
    EMPTY,
    Union,
    depth,
    elems,
    from_list,
    gen_ctxs,
    is_list,
    mem_transport,
    member,
    no_elems,
    parse_ctx,
    part_to_perm,
    partition_list,
    perm,
    perm_rel,
    perm_to_part,
    perm_to_part_mask,
    print_ctx,
    sel_transport,
    select,
    splits,
)
from linctx.errors import PreconditionError
from linctx.terms import Name, type_universe
from linctx.typecheck import TyAssoc, parse_ty_assoc
from strategies import shaped

# Parsed names carry their whole text, so the round trip draws index-0 names.
ASSOC_NAMES = (Name("a"), Name("b1"), Name("c'"))
TYPES = type_universe(depth=3)


def lst(*items):
    return from_list(items)


class TestElems:
    def test_empty(self):
        assert elems(EMPTY) == ()

    def test_mixed_tree_in_order(self):
        g = Cons("a", Union(Cons("b", EMPTY), Cons("c", EMPTY)))
        assert elems(g) == ("a", "b", "c")

    def test_length_equals_cons_count(self):
        # independent oracle: count cons nodes by structural recursion
        def cons_count(g):
            if isinstance(g, Cons):
                return 1 + cons_count(g.tail)
            if isinstance(g, Union):
                return cons_count(g.left) + cons_count(g.right)
            return 0

        for g in gen_ctxs(["a", "b"], 3, 3):
            assert len(elems(g)) == cons_count(g)


class TestMember:
    def test_head(self):
        assert member("a", Cons("a", EMPTY))

    def test_through_union(self):
        assert member("a", Union(EMPTY, Cons("b", Cons("a", EMPTY))))

    def test_empty(self):
        assert not member("a", EMPTY)

    def test_deep_chain(self):
        g = from_list(range(5000))
        assert member(4999, g) and not member(5000, g)
        (residual,) = select(4999, g)
        assert elems(residual) == tuple(range(4999))


class TestSelect:
    def test_single(self):
        assert select("a", Cons("a", EMPTY)) == (EMPTY,)

    def test_union_both_occurrences(self):
        g = Union(Cons("a", EMPTY), Cons("a", EMPTY))
        assert select("a", g) == (
            Union(EMPTY, Cons("a", EMPTY)),
            Union(Cons("a", EMPTY), EMPTY),
        )

    def test_absent(self):
        assert select("a", Cons("b", EMPTY)) == ()

    def test_residual_loses_exactly_one_occurrence(self):
        for g in gen_ctxs(["a", "b"], 3, 2):
            for x in ("a", "b"):
                assert len(select(x, g)) == elems(g).count(x)
                for r in select(x, g):
                    before = list(elems(g))
                    before.remove(x)
                    assert sorted(before) == sorted(elems(r))


class TestNoElemsIsList:
    def test_no_elems(self):
        assert no_elems(EMPTY)
        assert no_elems(Union(EMPTY, Union(EMPTY, EMPTY)))
        assert not no_elems(Cons("a", EMPTY))

    def test_is_list(self):
        assert is_list(lst("a", "b"))
        assert not is_list(Union(EMPTY, EMPTY))
        assert is_list(EMPTY)

    def test_no_elems_iff_empty_flattening(self):
        for g in gen_ctxs(["a"], 2, 3):
            assert no_elems(g) == (elems(g) == ())

    def test_deep_union_chain(self):
        g = EMPTY
        for _ in range(5000):
            g = Union(g, EMPTY)
        assert no_elems(g) and depth(g) == 5001
        assert not no_elems(Union(g, lst("a")))
        assert depth(Cons("a", Union(EMPTY, g))) == 5002


class TestEquality:
    def test_agrees_with_repr(self):
        universe = gen_ctxs(["a", "b"], 2, 2)
        for g1, g2 in itertools.product(universe, repeat=2):
            assert (g1 == g2) == (repr(g1) == repr(g2))

    def test_distinct_equal_deep_lists(self):
        g1, g2 = from_list(range(5000)), from_list(range(5000))
        assert g1 is not g2 and g1 == g2
        assert g1 != from_list(list(range(4999)) + [5000])
        assert select(4999, g1) == (from_list(range(4999)),)

    def test_distinct_equal_deep_union_chains(self):
        g1 = g2 = g3 = EMPTY
        for k in range(5000):
            g1, g2 = Union(g1, lst(k)), Union(g2, lst(k))
            g3 = Union(g3, lst(k if k else "x"))
        assert g1 is not g2 and g1 == g2
        assert g1 != g3


class TestPerm:
    def test_examples(self):
        assert perm(Union(lst("a"), lst("b")), lst("b", "a"))
        assert perm(EMPTY, Union(EMPTY, EMPTY))
        assert not perm(lst("a"), lst("a", "a"))

    def test_perm_rel_examples(self):
        assert perm_rel(EMPTY, EMPTY)
        assert perm_rel(lst("a", "b"), lst("b", "a"))
        assert not perm_rel(lst("a"), EMPTY)

    def test_agrees_with_perm_rel_small(self):
        universe = gen_ctxs(["a", "b"], 2, 2)
        memo = {}
        for g1 in universe:
            for g2 in universe:
                assert perm(g1, g2) == perm_rel(g1, g2, memo)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_perm_rel_beyond_universe(self, data):
        # up to 7 elements in arbitrary cons/union shapes, past gen_ctxs' bounds
        items1 = data.draw(st.lists(st.sampled_from("abc"), max_size=7))
        items2 = data.draw(
            st.one_of(st.permutations(items1), st.lists(st.sampled_from("abc"), max_size=7))
        )
        g1 = data.draw(shaped(items1, 3))
        g2 = data.draw(shaped(items2, 3))
        assert elems(g1) == tuple(items1) and elems(g2) == tuple(items2)
        assert perm(g1, g2) == perm_rel(g1, g2, {})

    def test_structural_equality_implies_perm(self):
        for g in gen_ctxs(["a", "b"], 3, 2):
            assert perm(g, g)

    def test_equivalence_relation(self):
        universe = gen_ctxs(["a", "b"], 2, 2)
        for g1, g2 in itertools.product(universe, repeat=2):
            assert perm(g1, g2) == perm(g2, g1)
        keys = {}
        for g in universe:
            keys.setdefault(tuple(sorted(elems(g))), []).append(g)
        for bucket in keys.values():
            for g1, g2, g3 in itertools.product(bucket, repeat=3):
                assert perm(g1, g2) and perm(g2, g3) and perm(g1, g3)


class TestPartition:
    def test_pair_order(self):
        got = [(elems(l1), elems(l2)) for l1, l2 in partition_list(lst("a", "b"))]
        assert got == [
            (("a", "b"), ()),
            (("a",), ("b",)),
            (("b",), ("a",)),
            ((), ("a", "b")),
        ]

    def test_empty(self):
        assert partition_list(EMPTY) == ((EMPTY, EMPTY),)

    def test_mask_order(self):
        # Exactly the mask splits of elems(l), in the order of
        # itertools.product((True, False), repeat=k): zipping the partitions
        # of equal-length lists applies one mask to each.
        for k in range(5):
            for items in itertools.product(("a", "b"), repeat=k):
                l = from_list(items)
                expected = tuple(
                    (
                        from_list([e for e, m in zip(elems(l), mask) if m]),
                        from_list([e for e, m in zip(elems(l), mask) if not m]),
                    )
                    for mask in itertools.product((True, False), repeat=k)
                )
                assert partition_list(l) == expected

    def test_count_is_power_of_two(self):
        for k in range(5):
            for items in itertools.product(("a", "b"), repeat=k):
                assert len(partition_list(from_list(items))) == 2 ** k

    def test_order_preserved(self):
        l = lst("a", "b", "c", "a")
        items = elems(l)
        for l1, l2 in partition_list(l):
            # each component is a subsequence of the original
            def is_subseq(sub, full):
                it = iter(full)
                return all(x in it for x in sub)

            assert is_subseq(elems(l1), items)
            assert is_subseq(elems(l2), items)

    def test_rejects_non_list(self):
        with pytest.raises(PreconditionError):
            partition_list(Union(EMPTY, EMPTY))


class TestSplits:
    def test_example(self):
        got = [(elems(a), elems(b)) for a, b in splits(Union(lst("a"), lst("b")))]
        assert (("a",), ("b",)) in got
        assert (("b",), ("a",)) in got
        assert len(got) == 4

    def test_empty(self):
        assert splits(EMPTY) == ((EMPTY, EMPTY),)

    def test_each_split_is_a_partition_of_g(self):
        for g in gen_ctxs(["a", "b"], 4, 2):
            for g1, g2 in splits(g):
                assert perm(g, Union(g1, g2))

    def test_complete_up_to_permutation(self):
        universe = gen_ctxs(["a", "b"], 3, 2)
        by_key = {}
        for g in universe:
            by_key.setdefault(tuple(sorted(elems(g))), []).append(g)
        for g in gen_ctxs(["a", "b"], 3, 2):
            yielded = [(tuple(sorted(elems(a))), tuple(sorted(elems(b)))) for a, b in splits(g)]
            gkey = tuple(sorted(elems(g)))
            for d1 in universe:
                for d2 in universe:
                    if tuple(sorted(elems(d1) + elems(d2))) == gkey:
                        pair = (tuple(sorted(elems(d1))), tuple(sorted(elems(d2))))
                        assert pair in yielded


class TestTransport:
    def test_mem_transport_examples(self):
        assert mem_transport("a", Cons("a", EMPTY), Union(Cons("a", EMPTY), EMPTY))
        assert mem_transport("b", lst("b", "c"), Union(lst("c"), lst("b")))

    def test_mem_transport_precondition(self):
        with pytest.raises(PreconditionError):
            mem_transport("a", lst("a"), lst("b"))
        with pytest.raises(PreconditionError):
            mem_transport("a", lst("b"), lst("b"))

    def test_sel_transport_examples(self):
        out = sel_transport("a", lst("a", "b"), lst("b"), Union(lst("b"), lst("a")))
        assert perm(out, lst("b"))
        assert sel_transport("a", lst("a"), EMPTY, lst("a")) == EMPTY
        out = sel_transport("a", lst("a", "a"), lst("a"), Union(lst("a"), lst("a")))
        assert perm(out, lst("a"))

    def test_sel_transport_precondition(self):
        with pytest.raises(PreconditionError):
            sel_transport("a", lst("a"), EMPTY, lst("b"))
        with pytest.raises(PreconditionError):
            sel_transport("a", lst("a", "b"), lst("a", "b"), lst("b", "a"))

    def test_sel_transport_exhaustive_small(self):
        universe = gen_ctxs(["a", "b"], 3, 2)
        buckets = {}
        for g in universe:
            buckets.setdefault(tuple(sorted(elems(g))), []).append(g)
        for bucket in buckets.values():
            for g1 in bucket:
                for g2 in bucket:
                    for x in ("a", "b"):
                        for r in select(x, g1):
                            assert perm(r, sel_transport(x, g1, r, g2))


class TestPermToPart:
    def test_front_to_back_extraction(self):
        # first-context preference: 'a' is absent from G1, so it is drawn
        # from G2; 'b' from G1
        l1, l2 = perm_to_part(lst("a", "b"), Cons("b", EMPTY), Cons("a", EMPTY))
        assert (elems(l1), elems(l2)) == (("b",), ("a",))

    def test_empty(self):
        assert perm_to_part(EMPTY, EMPTY, Union(EMPTY, EMPTY)) == (EMPTY, EMPTY)

    def test_duplicate_tie_breaks_to_first(self):
        l1, l2 = perm_to_part(lst("a", "a"), lst("a"), lst("a"))
        assert (elems(l1), elems(l2)) == (("a",), ("a",))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            perm_to_part(Union(EMPTY, EMPTY), EMPTY, EMPTY)
        with pytest.raises(PreconditionError):
            perm_to_part(lst("a"), lst("b"), EMPTY)

    def test_deep_list(self):
        l = from_list(range(3000))
        odds = from_list(range(2999, 0, -2))
        evens = from_list(range(0, 3000, 2))
        assert perm_to_part_mask(l, odds, evens) == tuple(k % 2 == 1 for k in range(3000))

    def test_round_trip(self):
        universe = gen_ctxs(["a", "b"], 2, 2)
        for g1 in universe:
            for g2 in universe:
                combined = tuple(sorted(elems(g1) + elems(g2)))
                for arr in set(itertools.permutations(combined)):
                    l = from_list(arr)
                    l1, l2 = perm_to_part(l, g1, g2)
                    assert perm(g1, l1) and perm(g2, l2)
                    assert part_to_perm(l, l1, l2)


class TestPartToPerm:
    def test_examples(self):
        assert part_to_perm(lst("a", "b"), lst("a"), lst("b"))
        assert part_to_perm(lst("a", "b", "c"), lst("b"), lst("a", "c"))

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            part_to_perm(lst("a"), lst("a"), lst("a"))


class TestGen:
    def test_empty_pool(self):
        assert gen_ctxs([], 0, 1) == [EMPTY]

    def test_single(self):
        got = gen_ctxs(["a"], 1, 1)
        assert EMPTY in got and Cons("a", EMPTY) in got
        assert len(got) == 2

    def test_no_duplicates_and_bounds(self):
        got = gen_ctxs(["a", "b"], 3, 2)
        assert len(set(got)) == len(got)
        for g in got:
            assert len(elems(g)) <= 3
            assert depth(g) <= 2
            assert set(elems(g)) <= {"a", "b"}

    def test_count_against_recurrence(self):
        # independent counting recurrence over (elements, depth budget)
        def count(pool_size, k, d):
            if d <= 0:
                return 0
            total = 1 if k == 0 else 0
            if k >= 1:
                total += pool_size * count(pool_size, k - 1, d)
            if d >= 2:
                total += sum(
                    count(pool_size, k1, d - 1) * count(pool_size, k - k1, d - 1)
                    for k1 in range(k + 1)
                )
            return total

        for pool, max_elems, max_depth in [
            (["a"], 2, 2),
            (["a", "b"], 3, 2),
            (["a", "b"], 2, 3),
        ]:
            expected = sum(
                count(len(pool), k, max_depth) for k in range(max_elems + 1)
            )
            assert len(gen_ctxs(pool, max_elems, max_depth)) == expected

    def test_deterministic(self):
        assert gen_ctxs(["a", "b"], 3, 2) == gen_ctxs(["a", "b"], 3, 2)


class TestLiteralSyntax:
    def test_parse_examples(self):
        assert parse_ctx("nil") == EMPTY
        assert parse_ctx("[a, b, c]") == lst("a", "b", "c")
        assert parse_ctx("a :: nil") == Cons("a", EMPTY)
        assert parse_ctx("[a] ++ [b]") == Union(lst("a"), lst("b"))

    def test_cons_binds_tighter_than_union(self):
        got = parse_ctx("a :: nil ++ [b]")
        assert got == Union(Cons("a", EMPTY), lst("b"))

    def test_deep_cons_chain(self):
        items = [f"e{k}" for k in range(5000)]
        assert parse_ctx(" :: ".join(items) + " :: nil") == from_list(items)

    def test_union_right_associative(self):
        got = parse_ctx("[a] ++ [b] ++ [c]")
        assert got == Union(lst("a"), Union(lst("b"), lst("c")))

    def test_deep_union_chain(self):
        items = [f"e{k}" for k in range(5000)]
        expected = lst(items[-1])
        for item in reversed(items[:-1]):
            expected = Union(lst(item), expected)
        assert parse_ctx(" ++ ".join(f"[{item}]" for item in items)) == expected
        assert parse_ctx(print_ctx(expected)) == expected

    def test_deep_cons_over_union(self):
        # 3,000 levels of `c :: (.. ++ nil)`, printed with nested parentheses
        g = EMPTY
        for _ in range(3000):
            g = Cons("c", Union(g, EMPTY))
        text = print_ctx(g)
        assert text.startswith("c :: (c :: (") and text.endswith("nil) ++ nil)")
        assert parse_ctx(text) == g

    def test_deep_parentheses(self):
        assert parse_ctx("(" * 3000 + "[a]" + ")" * 3000) == lst("a")

    def test_round_trip(self):
        for g in gen_ctxs(["a", "b"], 3, 3):
            assert parse_ctx(print_ctx(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_beyond_universe(self, data):
        atoms = data.draw(st.lists(st.sampled_from(("a", "b", "e1", "x'")), max_size=8))
        g = data.draw(shaped(atoms, 4))
        assert parse_ctx(print_ctx(g)) == g
        entry = st.builds(TyAssoc, st.sampled_from(ASSOC_NAMES), st.sampled_from(TYPES))
        assocs = data.draw(st.lists(entry, max_size=8))
        h = data.draw(shaped(assocs, 4))
        assert parse_ctx(print_ctx(h), parse_ty_assoc) == h

    def test_print_golden(self):
        assert print_ctx(EMPTY) == "nil"
        assert print_ctx(lst("a", "b")) == "[a, b]"
        assert print_ctx(Cons("a", Union(lst("b"), EMPTY))) == "a :: ([b] ++ nil)"
        assert print_ctx(Union(Union(lst("a"), EMPTY), lst("b"))) == "([a] ++ nil) ++ [b]"
