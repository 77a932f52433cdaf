"""Parser, pretty-printer, and name-table tests."""

import random

import pytest

from coindwhile.parse import (
    NameTable,
    ParseError,
    UnnamedVariableError,
    parse,
    pretty,
)
from coindwhile.syntax import (
    Add,
    And,
    Assign,
    Eq,
    FalseLit,
    If,
    Input,
    Le,
    Mul,
    Not,
    NumLit,
    Output,
    Seq,
    Skip,
    Sub,
    TrueLit,
    VarRef,
    While,
    map_variables,
)

from gen import gen_stmt


def ast(src):
    stmt, _ = parse(src)
    return stmt


class TestParse:
    def test_skip(self):
        assert ast("skip") == Skip()

    def test_assign(self):
        assert ast("x := 17") == Assign(0, NumLit(17))

    def test_seq_right_associated(self):
        assert ast("skip ; skip ; x := 1") == Seq(
            Skip(), Seq(Skip(), Assign(0, NumLit(1)))
        )

    def test_if_while(self):
        assert ast("if tt then skip else x := 1 fi") == If(
            TrueLit(), Skip(), Assign(0, NumLit(1))
        )
        assert ast("while x <= 3 do x := x + 1 od").cond == Le(VarRef(0), NumLit(3))

    def test_io(self):
        assert ast("input x ; output x + 1") == Seq(
            Input(0), Output(Add(VarRef(0), NumLit(1)))
        )

    def test_repeat_desugars(self):
        body = Assign(0, Sub(VarRef(0), NumLit(1)))
        expected = Seq(body, While(Not(Le(VarRef(0), NumLit(0))), body))
        assert ast("repeat x := x - 1 until x <= 0") == expected

    def test_precedence(self):
        assert ast("x := 1 + 2 * 3") == Assign(
            0,
            Add(
                NumLit(1),
                Mul(
                    NumLit(2), NumLit(3)
                ),
            ),
        )

    def test_left_associative_sub(self):
        got = ast("x := 10 - 3 - 2")
        assert got == Assign(0, Sub(Sub(NumLit(10), NumLit(3)), NumLit(2)))

    def test_negative_literal(self):
        assert ast("x := -5") == Assign(0, NumLit(-5))

    def test_comments_and_newlines(self):
        src = "# set up\nx := 1 ; # inline\nskip"
        assert ast(src) == Seq(Assign(0, NumLit(1)), Skip())

    def test_parenthesized_bool(self):
        got = ast("while (x = 0 or tt) and not ff do skip od")
        assert isinstance(got, While)

    def test_comparison_with_parenthesized_aexp(self):
        got = ast("while (x + 1) <= 2 do skip od")
        assert got.cond == Le(
            Add(VarRef(0), NumLit(1)),
            NumLit(2),
        )

    def test_not_binds_looser_than_comparison_tighter_than_and(self):
        got = ast("while not x = 1 and not (tt and ff) do skip od").cond
        assert got == And(
            Not(Eq(VarRef(0), NumLit(1))),
            Not(And(TrueLit(), FalseLit())),
        )

    def test_deep_not_chain_parses_without_recursion(self):
        cond = ast("while " + "not " * 3000 + "tt do skip od").cond
        for _ in range(3000):
            assert type(cond) is Not
            cond = cond.operand
        assert cond == TrueLit()

    @pytest.mark.parametrize("opening, closing, build", [
        ("while x <= 0 do ", " od", lambda s: While(Le(VarRef(0), NumLit(0)), s)),
        ("if tt then ", " else skip fi", lambda s: If(TrueLit(), s, Skip())),
        ("if tt then skip else ", " fi", lambda s: If(TrueLit(), Skip(), s)),
        ("repeat ", " until ff", lambda s: Seq(s, While(Not(FalseLit()), s))),
    ])
    def test_deep_statement_nesting_parses_without_recursion(self, opening, closing,
                                                              build):
        # open constructs are frames on a stack, not calls; a repeat body
        # occurs twice in its desugaring, so == walks 2^depth paths there
        depth = 5000 if opening.startswith(("while", "if")) else 12
        got = ast(opening * depth + "x := 1" + closing * depth)
        want = Assign(0, NumLit(1))
        for _ in range(depth):
            want = build(want)
        assert got == want

    def test_seq_chains_inside_nested_constructs(self):
        got = ast("while tt do x := 1 ; if ff then skip ; skip else output x fi ;"
                  " repeat skip ; skip until tt od ; skip")
        loop = Seq(Skip(), Skip())
        assert got == Seq(
            While(TrueLit(), Seq(
                Assign(0, NumLit(1)),
                Seq(If(FalseLit(), Seq(Skip(), Skip()), Output(VarRef(0))),
                    Seq(loop, While(Not(TrueLit()), loop))))),
            Skip())

    def test_name_table_dense_first_appearance(self):
        _, names = parse("y := 1 ; x := y")
        assert names.names == ("y", "x")
        assert names.index_of("x") == 1

    def test_literal_wraps_to_64_bits(self):
        got = ast(f"x := {2**63}")
        assert got == Assign(0, NumLit(-(2**63)))


class TestParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "", "x :=", "if tt then skip fi", "while tt do skip",
            "x + 1", "output", "x := 1 ;", "skip skip", "x := (1", "x := $",
            "while x do skip od", "repeat skip", "input 5",
        ],
    )
    def test_rejected(self, src):
        with pytest.raises(ParseError):
            parse(src)

    def test_position_is_one_based(self):
        with pytest.raises(ParseError) as exc:
            parse("skip ;\n  oops!")
        assert exc.value.line == 2
        assert exc.value.column == 7  # the '!' after two spaces and 'oops'

    def test_position_counts_comments_and_tabs_as_columns(self):
        with pytest.raises(ParseError) as exc:
            parse("skip ; # a comment ; with ; tokens\nx := 1 ;\n\ty := $")
        assert (exc.value.line, exc.value.column) == (3, 7)
        with pytest.raises(ParseError) as exc:
            parse("skip ;\r\n# x := 1\n\t\tx := (1 ; skip")
        assert (exc.value.line, exc.value.column) == (3, 11)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_oversized_literal_names_its_position(self, sign):
        # longer than CPython's int conversion limit (4,300 digits)
        with pytest.raises(ParseError) as exc:
            parse(f"skip ;\nx := {sign}{'7' * 5000}")
        assert (exc.value.line, exc.value.column) == (2, 6 + len(sign))
        assert exc.value.found == "a 5000-digit number"

    @pytest.mark.parametrize("src, col, expected, found", [
        ("while x do skip od", 7, "a boolean expression", "an arithmetic expression"),
        ("x := 1 = 2", 6, "an arithmetic expression", "a boolean expression"),
        ("x := (1 = 2)", 6, "an arithmetic expression", "a boolean expression"),
        ("while 1 + tt <= 2 do skip od", 11, "an arithmetic expression",
         "a boolean expression"),
    ])
    def test_sort_error_is_reported_at_its_operand(self, src, col, expected, found):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.column) == (1, col)
        assert (exc.value.expected, exc.value.found) == ([expected], found)

    def test_reports_expected_and_found(self):
        with pytest.raises(ParseError) as exc:
            parse("if tt then skip else skip")
        assert exc.value.found == "<end of input>"
        assert exc.value.expected

    @pytest.mark.parametrize("src, line, col, expected, found", [
        # both operands of 'and' are arithmetic: the left one is reported
        ("x := 1 ; if 1 + 2 and 3 then skip else skip fi", 1, 13,
         "a boolean expression", "an arithmetic expression"),
        ("x := 1 = 2 and 3", 1, 16, "a boolean expression", "an arithmetic expression"),
        # a bad character is reported before an earlier syntax error
        ("x := ) ; y := @", 1, 15, "a token", "'@'"),
        # '-' must be followed by a number
        ("x := - y", 1, 8, "a number", "y"),
        ("x := 1 ;\n  y := -\n  tt", 3, 3, "a number", "tt"),
        # 'input' must be followed by a variable name, not a keyword
        ("input then", 1, 7, "a variable name", "then"),
        ("input 5", 1, 7, "a variable name", "5"),
        # errors at the end of input
        ("while tt do skip", 1, 17, "'od'", "<end of input>"),
        ("x := (1 + 2", 1, 12, "')'", "<end of input>"),
        ("skip ;\n", 2, 1, "a statement", "<end of input>"),
    ])
    def test_error_position_expected_and_found(self, src, line, col, expected, found):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.line, exc.value.column) == (line, col)
        assert (exc.value.expected, exc.value.found) == ([expected], found)


class TestPretty:
    def test_skip(self):
        assert pretty(Skip(), NameTable()) == "skip"

    def test_assign(self):
        assert pretty(Assign(0, NumLit(17)), NameTable(["x"])) == "x := 17"

    def test_unnamed_variable_is_an_error(self):
        with pytest.raises(UnnamedVariableError):
            pretty(Assign(3, NumLit(1)), NameTable(["x"]))

    @pytest.mark.parametrize("tree, kind", [
        (NumLit(1), "statement"),
        (TrueLit(), "statement"),
        (Seq(Skip(), Add(NumLit(1), NumLit(2))), "statement"),
        (While(TrueLit(), Not(FalseLit())), "statement"),
        (If(TrueLit(), Skip(), VarRef(0)), "statement"),
        (Assign(0, Skip()), "expression"),
        (Output(Input(0)), "expression"),
        (While(Skip(), Skip()), "expression"),
        (Assign(0, Add(NumLit(1), Seq(Skip(), Skip()))), "expression"),
        (Output(Not(Skip())), "expression"),
        (None, "statement"),
        ("skip", "statement"),
    ])
    def test_a_node_of_the_wrong_kind_is_a_type_error(self, tree, kind):
        # the printer walks statements and expressions in one loop, so it
        # must check each node against its position: not print x := skip
        with pytest.raises(TypeError, match=f"not an? {kind}"):
            pretty(tree, NameTable(["x"]))

    def test_round_trip_random_asts(self):
        rng = random.Random(42)
        names = NameTable(["a", "b", "c", "d"])
        for _ in range(300):
            stmt = gen_stmt(rng, depth=6, io=rng.random() < 0.5)
            text = pretty(stmt, names)
            stmt2, names2 = parse(text)
            # parse interns in first-appearance order; map back via names
            remapped = map_variables(
                stmt2, lambda i: names.index_of(names2.name_of(i))
            )
            assert remapped == stmt, text

    def test_round_trip_is_stable(self):
        rng = random.Random(7)
        names = NameTable(["a", "b", "c", "d"])
        for _ in range(50):
            stmt = gen_stmt(rng, depth=5, io=True)
            text = pretty(stmt, names)
            stmt2, names2 = parse(text)
            assert pretty(stmt2, names2) == text

    def test_long_seq_chain_round_trips(self):
        # parser and printer loop over ';' instead of recursing per statement
        text = " ; ".join(f"x := {i}" for i in range(5000))
        head, names = parse(text)
        stmt = head
        for i in range(4999):
            assert stmt.first == Assign(0, NumLit(i))
            stmt = stmt.second
        assert stmt == Assign(0, NumLit(4999))
        assert pretty(head, names) == text
