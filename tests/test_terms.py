"""Term syntax: locally nameless representation, parsing, printing."""

import copy
import re
import pickle

import pytest
from hypothesis import given, settings

from linctx.errors import MalformedTermError, SyntaxError_, UnboundIdentifierError
from linctx.terms import (
    Abs,
    App,
    Arrow,
    Base,
    Bound,
    Free,
    Let,
    Name,
    close_term,
    closed_free_names,
    free_counts,
    free_names,
    fresh,
    name_pool,
    open_term,
    parse_term,
    parse_type,
    print_term,
    print_type,
    term_size,
    type_universe,
)
from linctx.suites import gen_terms
from linctx.typecheck import TyAssoc, VarAssoc
from strategies import terms as drawn_terms, types as drawn_types

I = Base("i")
O = Base("o")
FREES = (Name("x"), Name("x", 1), Name("c", 1))


class TestNamesAndFresh:
    def test_fresh_chain(self):
        assert str(fresh(set())) == "n"
        assert str(fresh({Name("n")})) == "n1"
        assert fresh({Name("n"), Name("n", 1)}) == Name("n", 2)

    def test_fresh_avoids(self):
        avoid = {Name("n", k) for k in range(5)}
        assert fresh(avoid) not in avoid

    def test_fresh_deterministic(self):
        avoid = frozenset({Name("q"), Name("n")})
        assert fresh(avoid) == fresh(set(avoid))

    def test_fresh_takes_any_iterable(self):
        # A generator is read once, in full, before the chain is searched.
        assert fresh(Name("n", k) for k in (2, 1, 0)) == Name("n", 3)
        assert fresh([Name("n", 1), Name("n")]) == Name("n", 2)

    def test_fresh_injective_along_chain(self):
        avoid = set()
        seen = []
        for _ in range(10):
            n = fresh(avoid)
            assert n not in seen
            seen.append(n)
            avoid.add(n)


class TestOpenClose:
    def test_open_base(self):
        assert open_term(Bound(0), Name("n", 1)) == Free(Name("n", 1))

    def test_open_under_app(self):
        got = open_term(App(Bound(0), Free(Name("n", 2))), Name("n", 1))
        assert got == App(Free(Name("n", 1)), Free(Name("n", 2)))

    def test_open_under_binder(self):
        # the binder shifts the reference: index 1 points past one abs
        got = open_term(Abs(I, Bound(1)), Name("n", 1))
        assert got == Abs(I, Free(Name("n", 1)))
        # oracle: named substitution on the printed form agrees
        assert print_term(got) == "abs i (x\\ n1)"

    def test_open_malformed(self):
        with pytest.raises(MalformedTermError):
            open_term(Bound(1), Name("n"))

    def test_open_preserves_local_closure(self):
        body = App(Bound(0), Abs(I, App(Bound(0), Bound(1))))
        assert closed_free_names(body) is None
        assert closed_free_names(Abs(I, body)) == frozenset()
        assert closed_free_names(open_term(body, Name("n"))) == {Name("n")}

    def test_close_inverts_open(self):
        body = App(Bound(0), Abs(I, App(Bound(0), Bound(1))))
        n = Name("q")
        assert close_term(open_term(body, n), n) == body


class TestFreeNames:
    def test_closed_abs(self):
        assert free_names(Abs(I, Bound(0))) == frozenset()

    def test_repeated(self):
        n1 = Name("n", 1)
        assert free_names(App(Free(n1), Free(n1))) == {n1}

    def test_open_adds_at_most_the_name(self):
        n = Name("q")
        for body in [Bound(0), App(Bound(0), Free(Name("r"))), Abs(I, Bound(1))]:
            assert free_names(open_term(body, n)) <= free_names(Abs(I, body)) | {n}

    def test_counts(self):
        n1, n2 = Name("n", 1), Name("n", 2)
        t = Let(I, App(Free(n1), Free(n2)), Abs(I, App(Free(n1), App(Bound(0), Bound(1)))))
        assert free_counts(t) == {n1: 2, n2: 1}
        assert free_counts(Abs(I, Bound(0))) == {}
        assert set(free_counts(t)) == free_names(t)

    def test_closed_free_names(self):
        n1 = Name("n", 1)
        t = Let(I, Free(n1), Abs(I, App(Bound(0), Bound(1))))
        assert closed_free_names(t) == {n1}
        assert closed_free_names(Abs(I, Bound(1))) is None
        assert closed_free_names(Abs(I, Bound(0))) == frozenset()
        for t in gen_terms(FREES, 4, (I,), True):
            assert closed_free_names(t) == free_names(t)

    def test_walkers_deep_binder_chain(self):
        # 5,000 nested binders, alternately let and abs, built without the
        # parser.  The innermost index reaches the outermost binder or,
        # one higher, escapes it.
        c = Name("c", 1)
        closed, escaping = App(Bound(4999), Free(c)), Bound(5000)
        for k in range(5000):
            if k % 2:
                closed, escaping = Abs(I, closed), Abs(I, escaping)
            else:
                closed, escaping = Let(I, Free(c), closed), Let(I, Free(c), escaping)
        assert closed_free_names(closed) == free_names(closed) == {c}
        assert closed_free_names(escaping) is None
        assert free_names(escaping) == {c}
        assert free_counts(closed) == {c: 2501}
        assert term_size(closed) == 7503
        assert term_size(escaping) == 7501

    def test_open_close_deep_binder_chain(self):
        # 5,000 nested binders under the opened one; the innermost index
        # reaches past all of them to it or, one higher, escapes.
        c, n = Name("c", 1), Name("q")
        body, escaping, opened = App(Bound(5000), Free(c)), Bound(5001), App(Free(n), Free(c))
        for k in range(5000):
            wrap = (lambda t: Abs(I, t)) if k % 2 else (lambda t: Let(I, Free(c), t))
            body, escaping, opened = wrap(body), wrap(escaping), wrap(opened)
        assert open_term(body, n) is opened
        assert close_term(opened, n) is body
        with pytest.raises(MalformedTermError, match="unbound index 5001 at depth 5000"):
            open_term(escaping, n)

    def test_open_reports_first_escaping_index(self):
        with pytest.raises(MalformedTermError, match="unbound index 2 at depth 0"):
            open_term(App(Bound(2), Let(I, Bound(3), Bound(0))), Name("n"))

    def test_counts_deep(self):
        n = Name("n")
        t = Free(n)
        for _ in range(5000):
            t = App(t, Free(n))
        assert free_counts(t) == {n: 5001}


class TestParsePrint:
    def test_paper_shape(self):
        t = parse_term("abs (i -> i) (x\\ abs i (y\\ app x y))")
        assert t == Abs(Arrow(I, I), Abs(I, App(Bound(1), Bound(0))))

    def test_alpha_variants_parse_equal(self):
        pairs = [
            ("abs i (x\\ x)", "abs i (y\\ y)"),
            ("abs i (x\\ abs i (y\\ app x y))", "abs i (u\\ abs i (v\\ app u v))"),
            ("let i (abs i (z\\ z)) (x\\ x)", "let i (abs i (q\\ q)) (w\\ w)"),
        ]
        for left, right in pairs:
            assert parse_term(left) == parse_term(right)

    def test_round_trip(self):
        sources = [
            "abs (i -> i) (x\\ abs i (y\\ app x y))",
            "let (i -> o) (abs i (z\\ z)) (x\\ app x (abs i (y\\ y)))",
            "abs i (x\\ abs i (y\\ abs i (z\\ app (app x y) z)))",
        ]
        for s in sources:
            t = parse_term(s)
            assert parse_term(print_term(t)) == t
        frees = (Name("c", 1), Name("c", 2))
        terms = gen_terms(frees, 5, (I, Arrow(I, O)), True)
        assert len(terms) == 1566
        for t in terms:
            assert parse_term(print_term(t), nominals=frees) == t

    @settings(max_examples=200, deadline=None)
    @given(drawn_terms(FREES, (I, Arrow(I, O), Arrow(Arrow(I, I), O)), 12))
    def test_round_trip_beyond_universe(self, t):
        # sizes up to 12, past gen_terms' size 5; free names that binders avoid
        assert parse_term(print_term(t), nominals=FREES) == t

    def test_print_golden(self):
        t = parse_term("abs (i -> i) (x\\ abs i (y\\ app x y))")
        assert print_term(t) == "abs (i -> i) (x\\ abs i (y\\ app x y))"

    def test_binders_avoid_free_and_outer_names(self):
        # Depth 0 passes over the free `x`; depth 6 over depth 0's `x1`.
        x = Name("x")
        t = App(Bound(0), Free(x))
        for k in range(7):
            t = Abs(I, t) if k % 2 else Let(I, Free(x), t)
        assert print_term(t) == (
            "let i x (x1\\ abs i (y\\ let i x (z\\ abs i (u\\ let i x (v\\ abs i (w\\ "
            "let i x (x2\\ app x2 x)))))))"
        )

    @pytest.mark.parametrize(
        "t, message",
        [
            (Bound(0), "unbound index 0 at depth 0"),
            (Abs(I, Bound(1)), "unbound index 1 at depth 1"),
        ],
    )
    def test_print_escaping_index(self, t, message):
        with pytest.raises(MalformedTermError, match=message):
            print_term(t)

    def test_print_deep_abs_app_chain(self):
        # 5,000 binders, each applying its variable to the term below;
        # the binder at depth d is the stem d mod 6 with suffix d // 6.
        c = Name("c", 1)
        t = Free(c)
        for _ in range(5000):
            t = Abs(I, App(Bound(0), t))
        names = ["xyzuvw"[d % 6] + (str(d // 6) if d >= 6 else "") for d in range(5000)]
        last = names[-1]
        assert last == "y833"
        assert print_term(t) == (
            "".join(f"abs i ({n}\\ app {n} (" for n in names[:-1])
            + f"abs i ({last}\\ app {last} c1)"
            + "))" * 4999
        )

    @pytest.mark.parametrize("depth", [3000, 5000])
    def test_parse_deep_parentheses(self, depth):
        t = parse_term("(" * depth + "abs i (x\\ x)" + ")" * depth)
        assert t is Abs(I, Bound(0))

    def test_deep_abs_app_chain_round_trip(self):
        c = Name("c", 1)
        t = Free(c)
        for _ in range(5000):
            t = Abs(I, App(Bound(0), t))
        assert parse_term(print_term(t), nominals=[c]) is t

    @pytest.mark.parametrize(
        "text, error, message, pos",
        [
            ("", SyntaxError_, "expected 'identifier', found 'end of input'", 0),
            ("app x", UnboundIdentifierError, "identifier 'x' is not bound or declared", 4),
            ("abs i (x\\ app x", SyntaxError_, "expected 'identifier', found 'end of input'", 15),
            ("abs i (x\\ x", SyntaxError_, "expected ')', found 'end of input'", 11),
            ("abs i x\\ x)", SyntaxError_, "expected '(', found 'x'", 6),
            ("abs i (x x)", SyntaxError_, "expected '\\\\', found 'x'", 9),
            ("let i c1 x", SyntaxError_, "expected '(', found 'x'", 9),
            ("abs i (app\\ app)", SyntaxError_, "expected 'identifier', found ')'", 15),
            ("app abs c1", SyntaxError_, "keyword 'abs' is not an atomic term", 4),
            ("app (abs i (x\\ x)) let", SyntaxError_, "keyword 'let' is not an atomic term", 19),
            ("abs (i -> (x\\ x)", SyntaxError_, "expected ')', found '\\\\'", 12),
            pytest.param(
                "(" * 3000 + "x",
                UnboundIdentifierError,
                "identifier 'x' is not bound",
                3000,
                id="3000-open-unbound",
            ),
            pytest.param(
                "(" * 3000 + "c1" + ")" * 2999,
                SyntaxError_,
                "expected ')', found 'end of input'",
                6001,
                id="3000-open-2999-closed",
            ),
            ("app c1 c1)", SyntaxError_, "unexpected trailing input ')'", 9),
        ],
    )
    def test_malformed_terms_rejected(self, text, error, message, pos):
        # Pinned from the recursive-descent parser that came before, run
        # with a raised recursion limit for the 3,000-deep inputs.
        with pytest.raises(error, match=re.escape(message)) as err:
            parse_term(text, nominals=["c1"])
        assert err.value.pos == pos

    def test_nominals(self):
        t = parse_term("app q q", nominals=["q"])
        assert t == App(Free(Name("q")), Free(Name("q")))

    def test_unbound(self):
        with pytest.raises(UnboundIdentifierError):
            parse_term("app x y")

    def test_syntax_error_position(self):
        with pytest.raises(SyntaxError_) as err:
            parse_term("abs i (x\\ app x")
        assert err.value.pos >= 0

    def test_binder_shadowing(self):
        t = parse_term("abs i (x\\ abs i (x\\ x))")
        assert t == Abs(I, Abs(I, Bound(0)))


class TestTypes:
    def test_arrow_right_assoc(self):
        assert parse_type("i -> i -> o") == Arrow(I, Arrow(I, O))
        assert parse_type("(i -> i) -> o") == Arrow(Arrow(I, I), O)

    def test_print_round_trip(self):
        for ty in type_universe(("i", "o"), 3):
            assert parse_type(print_type(ty)) == ty
            assert parse_type(str(ty)) == ty

    @settings(max_examples=200, deadline=None)
    @given(drawn_types)
    def test_str_round_trip(self, ty):
        assert str(ty) == print_type(ty)
        assert parse_type(str(ty)) is ty

    def test_deep_types_round_trip(self):
        right = left = I
        for _ in range(3000):
            right, left = Arrow(I, right), Arrow(left, I)
        assert parse_type(print_type(right)) is right
        assert parse_type(print_type(left)) is left
        assert parse_type("(" * 3000 + "i" + ")" * 3000) is I

    @pytest.mark.parametrize("text", ["i ->", "(i -> o", "(i))", "-> i", "()"])
    def test_malformed_types_rejected(self, text):
        with pytest.raises(SyntaxError_):
            parse_type(text)

    def test_universe_sizes(self):
        assert len(type_universe(("i", "o"), 1)) == 2
        assert len(type_universe(("i", "o"), 2)) == 6

    def test_name_pool_distinct(self):
        pool = name_pool(4)
        assert len(set(pool)) == 4


class TestSize:
    def test_sizes(self):
        assert term_size(Bound(0)) == 1
        assert term_size(parse_term("abs i (x\\ app x x)")) == 4
        assert term_size(parse_term("let i (abs i (z\\ z)) (x\\ x)")) == 4


LET_SOURCE = "let (i -> o) (abs i (z\\ z)) (x\\ app x c)"


class TestInterning:
    """Every node is hash-consed: building it twice gives the same object."""

    def test_default_index_is_the_same_name(self):
        assert Name("c") is Name("c", 0)
        assert Name("c", 1) is not Name("c")

    @settings(max_examples=200, deadline=None)
    @given(drawn_terms(FREES, (I, Arrow(I, O), Arrow(Arrow(I, I), O)), 12))
    def test_rebuilt_term_is_the_same_object(self, t):
        assert parse_term(print_term(t), nominals=FREES) is t

    def test_open_term_shares_nodes(self):
        body = parse_term("abs i (y\\ app x y)", nominals=["x"])
        x = Name("c", 1)
        assert open_term(Abs(I, body), x) is open_term(Abs(I, body), Name("c", 1))
        assert open_term(App(Bound(0), Bound(0)), x) is App(Free(x), Free(x))

    def test_pickle_and_copy_reintern(self):
        nodes = [
            parse_term(LET_SOURCE, nominals=["c"]),
            Name("x", 2),
            Arrow(Arrow(I, I), O),
            TyAssoc(Name("x", 2), Arrow(I, O)),
            VarAssoc(Name("x"), Name("y", 1)),
        ]
        for node in nodes:
            assert pickle.loads(pickle.dumps(node)) is node
            assert copy.deepcopy(node) is node
            assert copy.copy(node) is node

    def test_repr_pinned(self):
        assert repr(Name("c")) == "Name(text='c', index=0)"
        assert repr(parse_term(LET_SOURCE, nominals=["c"])) == (
            "Let(ann=Arrow(dom=Base(label='i'), cod=Base(label='o')), "
            "val=Abs(ann=Base(label='i'), body=Bound(index=0)), "
            "body=App(fn=Bound(index=0), arg=Free(name=Name(text='c', index=0))))"
        )
        assert repr(TyAssoc(Name("x", 2), Arrow(I, O))) == (
            "TyAssoc(name=Name(text='x', index=2), "
            "ty=Arrow(dom=Base(label='i'), cod=Base(label='o')))"
        )
        assert repr(VarAssoc(Name("x"), Name("y", 1))) == (
            "VarAssoc(src=Name(text='x', index=0), dst=Name(text='y', index=1))"
        )
