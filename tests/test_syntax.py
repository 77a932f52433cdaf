"""States, expression evaluation, and the wrap-around value domain."""

import itertools
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from coindwhile.syntax import (
    FF,
    TT,
    Add,
    And,
    Assign,
    If,
    Input,
    Mul,
    Not,
    NumLit,
    Output,
    Seq,
    Skip,
    State,
    Sub,
    TrueLit,
    FalseLit,
    Le,
    Eq,
    VarRef,
    While,
    aexp,
    bexp,
    compile_aexp,
    compile_bexp,
    is_pure,
    map_variables,
    variables,
    wrap,
)

from coindwhile.parse import parse

from gen import gen_aexp, gen_bexp, gen_state

EMPTY = State.empty()


class TestState:
    def test_lookup_default(self):
        assert EMPTY.lkp(0) == 0

    def test_read_after_write(self):
        assert EMPTY.upd(0, 17).lkp(0) == 17

    def test_frame_condition(self):
        assert EMPTY.upd(0, 17).lkp(1) == 0

    def test_default_write_is_identity(self):
        assert EMPTY.upd(0, 0) == EMPTY

    def test_last_write_wins(self):
        s = EMPTY.upd(1, 9)
        assert s.upd(0, 3).upd(0, 5) == s.upd(0, 5)

    def test_canonical_no_default_bindings(self):
        s = EMPTY.upd(1, 7).upd(0, 5)
        s = s.upd(0, 0)
        assert s.items() == ((1, 7),)

    def test_writing_zero_at_the_end_trims_it(self):
        assert EMPTY.upd(7, 1).upd(7, 0) == EMPTY
        assert EMPTY.upd(7, 1).upd(7, 0).items() == ()
        s = EMPTY.upd(0, 4).upd(3, 5).upd(5, 6)
        assert s.upd(5, 0).upd(3, 0) == EMPTY.upd(0, 4)
        assert s.upd(40, 0) is s

    @pytest.mark.parametrize("key", [-1, -40, "x", 1.0, None, True])
    def test_a_key_must_be_a_non_negative_int(self, key):
        with pytest.raises(TypeError):
            State({key: 1})
        with pytest.raises(TypeError):
            EMPTY.upd(0, 1).upd(key, 2)
        with pytest.raises(TypeError):
            EMPTY.upd(key, 2)
        with pytest.raises(TypeError):
            EMPTY.upd(key, 0)
        with pytest.raises(TypeError):
            EMPTY.upd(0, 1).lkp(key)
        with pytest.raises(TypeError):
            VarRef(key)
        with pytest.raises(TypeError):
            Assign(key, NumLit(1))
        with pytest.raises(TypeError):
            Input(key)

    def test_constructor_matches_updates(self):
        s = State({3: 5, 0: -1, 9: 0, 4: 2**64 + 1})
        assert s == EMPTY.upd(0, -1).upd(3, 5).upd(4, 1)
        assert s.items() == ((0, -1), (3, 5), (4, 1))
        assert repr(s) == "State({0=-1, 3=5, 4=1})"

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0, 0, 1, -1, 7, 2**64])),
                     max_size=12),
            min_size=2, max_size=2,
        )
    )
    def test_against_a_dict_model(self, runs):
        # two runs of writes from EMPTY; the model is a dict without the
        # bindings to 0, so two states must be equal iff their models are
        states, models = [], []
        for writes in runs:
            s, m = EMPTY, {}
            for x, v in writes:
                s = s.upd(x, v)
                m[x] = wrap(v)
                m = {y: w for y, w in m.items() if w}
                for y in range(42):
                    assert s.lkp(y) == m.get(y, 0)
                assert s.items() == tuple(sorted(m.items()))
                assert s == State(m) and hash(s) == hash(State(m))
            states.append(s)
            models.append(m)
        a, b = states
        assert (a == b) == (models[0] == models[1])
        if a == b:
            assert hash(a) == hash(b)

    def test_extensional_equality_and_hash(self):
        a = EMPTY.upd(1, 2).upd(0, 1)
        b = EMPTY.upd(0, 1).upd(1, 2)
        assert a == b and hash(a) == hash(b)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            max_size=20,
        ),
        st.integers(0, 5),
        st.integers(-100, 100),
    )
    def test_laws_against_assoc_list_reference(self, writes, x, v):
        # reference: naive association list, last write wins
        def ref_lkp(y, alist):
            for xx, vv in reversed(alist):
                if xx == y:
                    return vv
            return 0

        s = EMPTY
        alist = []
        for xx, vv in writes:
            s = s.upd(xx, vv)
            alist.append((xx, vv))
        assert s.upd(x, v).lkp(x) == v
        for y in range(6):
            assert s.lkp(y) == ref_lkp(y, alist)
            if y != x:
                assert s.upd(x, v).lkp(y) == s.lkp(y)


class TestWrap:
    def test_in_range_untouched(self):
        assert wrap(42) == 42
        assert wrap(-42) == -42

    def test_bounds(self):
        hi = 2**63 - 1
        assert wrap(hi) == hi
        assert wrap(hi + 1) == -(2**63)
        assert wrap(-(2**63) - 1) == hi

    def test_arithmetic_is_closed(self):
        big = NumLit(2**63 - 1)
        assert aexp(Add(big, NumLit(1)), EMPTY) == -(2**63)
        assert aexp(Mul(big, NumLit(2)), EMPTY) == -2
        assert aexp(Sub(NumLit(-(2**63)), NumLit(1)), EMPTY) == 2**63 - 1


class TestAexp:
    def test_literal(self):
        assert aexp(NumLit(7), gen_state(random.Random(0))) == 7

    def test_literal_arithmetic(self):
        assert aexp(Add(NumLit(2), NumLit(3)), EMPTY) == 5

    def test_mul_absorbing(self):
        rng = random.Random(1)
        for _ in range(20):
            s = gen_state(rng)
            assert aexp(Mul(VarRef(0), NumLit(0)), s) == 0

    def test_pure(self):
        rng = random.Random(2)
        for _ in range(50):
            a, s = gen_aexp(rng, 4), gen_state(rng)
            assert aexp(a, s) == aexp(a, s)


class TestBexp:
    def test_constants(self):
        assert bexp(TrueLit(), EMPTY) is True
        assert bexp(FalseLit(), EMPTY) is False

    def test_le_reflexive(self):
        assert bexp(Le(NumLit(1), NumLit(1)), EMPTY) is True

    def test_not(self):
        assert bexp(Not(FalseLit()), EMPTY) is True

    def test_eq(self):
        s = EMPTY.upd(0, 4)
        assert bexp(Eq(VarRef(0), NumLit(4)), s) is True

    def test_pure(self):
        rng = random.Random(3)
        for _ in range(50):
            b, s = gen_bexp(rng, 4), gen_state(rng)
            assert bexp(b, s) == bexp(b, s)


class TestCompiledExpressions:
    def test_agree_with_aexp_bexp(self):
        # both interpreters run the compiled closures; aexp/bexp are the reference
        rng = random.Random(4)
        edge = (2**63 - 1, -(2**63), 2**62, -1)
        for _ in range(300):
            a, b, s = gen_aexp(rng, 4), gen_bexp(rng, 4), gen_state(rng)
            s = s.upd(rng.randrange(4), rng.choice(edge))
            assert compile_aexp(a)(s) == aexp(a, s)
            assert compile_bexp(b)(s) is bexp(b, s)

    def test_literal_out_of_range_wraps(self):
        assert compile_aexp(NumLit(2**64 + 5))(EMPTY) == 5

    # a binary node reads a variable or literal operand inline: each shape
    # on each side is its own closure, checked against aexp/bexp
    OPERANDS = [
        lambda: VarRef(0),
        lambda: VarRef(9),  # past the state's end
        lambda: NumLit(-7),
        lambda: NumLit(2**63),
        lambda: NumLit(2**64 + 5),
        lambda: NumLit(-(2**64) - 1),
        lambda: Mul(VarRef(1), NumLit(3)),
    ]
    VALUES = [0, 1, -1, 2**63 - 1, -(2**63), 2**62 + 1]

    @pytest.mark.parametrize("op", [Add, Sub, Mul, Eq, Le])
    def test_each_operand_shape_agrees_with_aexp_bexp(self, op):
        run, ref = (compile_bexp, bexp) if op in (Eq, Le) else (compile_aexp, aexp)
        for left, right in itertools.product(self.OPERANDS, repeat=2):
            e = op(left(), right())
            f = run(e)
            for x, y in itertools.product(self.VALUES, repeat=2):
                s = State({0: x, 1: y})
                assert f(s) == ref(e, s), (e, s)
                assert type(f(s)) is type(ref(e, s))

    def test_products_wrap(self):
        s = State({0: 2**63 - 1, 1: -(2**63)})
        for e in (Mul(VarRef(0), VarRef(0)), Mul(VarRef(1), NumLit(-1)),
                  Mul(Add(VarRef(0), NumLit(1)), VarRef(1)),
                  Add(VarRef(1), Mul(NumLit(2**40), NumLit(2**40)))):
            assert compile_aexp(e)(s) == aexp(e, s)
            assert -(2**63) <= compile_aexp(e)(s) < 2**63
        assert compile_aexp(Mul(VarRef(1), NumLit(-1)))(s) == -(2**63)

    @pytest.mark.parametrize("e", [
        Add(TrueLit(), NumLit(1)), Sub(VarRef(0), FalseLit()), Mul(TT, TT),
        Add(NumLit(1), Eq(VarRef(0), NumLit(1))),
    ], ids=repr)
    def test_a_boolean_operand_is_refused(self, e):
        with pytest.raises(TypeError, match="not an arithmetic expression"):
            compile_aexp(e)

    @pytest.mark.parametrize("e", [
        Le(VarRef(0), TT), Eq(FF, NumLit(1)), Le(Not(TT), VarRef(0)),
        Eq(VarRef(0), And(TT, FF)),
    ], ids=repr)
    def test_a_boolean_comparand_is_refused(self, e):
        with pytest.raises(TypeError, match="not an arithmetic expression"):
            compile_bexp(e)


class TestStmtUtils:
    def test_is_pure(self):
        assert is_pure(Seq(Skip(), While(TrueLit(), Assign(0, NumLit(1)))))
        assert not is_pure(Seq(Skip(), Input(0)))
        assert not is_pure(If(TrueLit(), Skip(), Output(NumLit(1))))

    def test_purity_is_a_flag_set_at_construction(self):
        leaves = [Skip(), Assign(0, NumLit(1)), Input(0), Output(NumLit(1))]
        assert [is_pure(n) for n in leaves] == [True, True, False, False]
        for impure in leaves[2:]:
            for node in (Seq(Skip(), impure), Seq(impure, Skip()),
                         If(TrueLit(), impure, Skip()), If(TrueLit(), Skip(), impure),
                         While(TrueLit(), impure)):
                assert not is_pure(node)
                assert not is_pure(pickle.loads(pickle.dumps(node)))
                assert not is_pure(map_variables(node, lambda x: x + 1))
        # a child that is not a statement still constructs, and is pure
        assert is_pure(If(TrueLit(), Skip(), NumLit(7)))

    def test_is_pure_on_a_deep_chain(self):
        stmt = Skip()
        for _ in range(5000):
            stmt = Seq(stmt, Assign(0, NumLit(1)))
        assert is_pure(stmt)
        assert not is_pure(Seq(stmt, Input(0)))

    @pytest.mark.parametrize("src", [
        " ;\n".join(["x := 1"] * 5000),
        "x := " + "+".join(["1"] * 3000),
    ], ids=["seq-chain-5000", "flat-sum-3000"])
    def test_deep_trees_hash_and_compare_without_recursion(self, src):
        a, _ = parse(src)
        b, _ = parse(src)
        assert a is not b
        assert hash(a) == hash(b) and a == b
        c, _ = parse(src[:-1] + "2")
        assert a != c

    def test_pickled_node_equals_in_another_process(self):
        # a node's hash mixes in its class, whose hash differs per process
        src = "while not x <= 3 do x := x + 1 ; output x * 2 od"
        code = f"import pickle, sys; from coindwhile.parse import parse; " \
               f"sys.stdout.write(pickle.dumps(parse({src!r})[0]).hex())"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=30, check=True).stdout
        node = pickle.loads(bytes.fromhex(out))
        assert node == parse(src)[0] and hash(node) == hash(parse(src)[0])

    def test_variables(self):
        stmt = Seq(Assign(0, VarRef(2)), Output(VarRef(1)))
        assert variables(stmt) == {0, 1, 2}

    def test_map_variables_calls_f_in_source_order(self):
        stmt, _ = parse("x := y + z ; if w <= x then input v else output u fi")
        seen = []
        map_variables(stmt, lambda i: (seen.append(i), i)[1])
        assert seen == [0, 1, 2, 3, 0, 4, 5]

    def test_map_variables_keeps_unchanged_subtrees(self):
        stmt, _ = parse("x := 1 ; while y <= 3 do y := y + 1 od ; output z")
        assert map_variables(stmt, lambda i: i) is stmt
        # only z (index 2) changes: the assignment and the loop are kept
        mapped = map_variables(stmt, lambda i: 7 if i == 2 else i)
        assert mapped == Seq(stmt.first, Seq(stmt.second.first, Output(VarRef(7))))
        assert mapped.first is stmt.first
        assert mapped.second.first is stmt.second.first

    def test_map_variables_on_a_deep_while_nest(self):
        stmt = Assign(0, Add(VarRef(1), NumLit(1)))
        want = Assign(10, Add(VarRef(11), NumLit(1)))
        for i in range(5000):
            stmt = While(Le(VarRef(i % 3), NumLit(i)), stmt)
            want = While(Le(VarRef(i % 3 + 10), NumLit(i)), want)
        assert variables(stmt) == {0, 1, 2}
        assert map_variables(stmt, lambda i: i + 10) == want


class TestRecordRepr:
    def test_keyword_fields(self):
        stmt = Seq(Assign(0, Add(VarRef(1), NumLit(-2))), If(TrueLit(), Skip(), Input(3)))
        assert repr(stmt) == (
            "Seq(first=Assign(var=0, expr=Add(left=VarRef(var=1), "
            "right=NumLit(value=-2))), second=If(cond=TrueLit(), then=Skip(), "
            "orelse=Input(var=3)))"
        )

    def test_deep_chain_prints_without_recursion(self):
        stmt, _ = parse(" ;\n".join(["x := 1"] * 5000))
        one = "Assign(var=0, expr=NumLit(value=1))"
        assert repr(stmt) == f"Seq(first={one}, second=" * 4999 + one + ")" * 4999
