"""Concrete syntax for While with I/O: lexer, parser, pretty-printer, and
the variable-name interning table.

Grammar (statements, parsed by recursive descent):

    stmt   ::= simple (';' simple)*                     right-associative
    simple ::= 'skip'
             | ident ':=' aexp
             | 'if' bexp 'then' stmt 'else' stmt 'fi'
             | 'while' bexp 'do' stmt 'od'
             | 'repeat' stmt 'until' bexp               desugars to seq + while
             | 'input' ident
             | 'output' aexp

Expressions of both sorts are parsed by one operator-precedence routine
driven by the table _BINARY, which the printer reads too. From loosest to
tightest: 'or', 'and', prefix 'not', the comparisons '=' and '<=' (whose
operands are arithmetic), '+' and '-', '*'; binary operators are
left-associative. Parentheses are allowed everywhere; '#' starts a line
comment.
"""

from __future__ import annotations

import re

from .syntax import (
    FF,
    TT,
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
    Or,
    Output,
    Seq,
    Skip,
    Stmt,
    Sub,
    TrueLit,
    Var,
    VarRef,
    While,
    wrap,
)

KEYWORDS = {
    "skip", "if", "then", "else", "fi", "while", "do", "od",
    "repeat", "until", "input", "output", "not", "and", "or", "tt", "ff",
}

# The two expression sorts, named as an error message names them.
_A = "an arithmetic expression"
_B = "a boolean expression"

# binary operator -> (precedence, node class, operand sort, result sort);
# every binary operator is left-associative, and prefix 'not' binds
# tighter than 'and' but looser than the comparisons
_BINARY = {
    "or": (1, Or, _B, _B),
    "and": (2, And, _B, _B),
    "=": (4, Eq, _A, _B),
    "<=": (4, Le, _A, _B),
    "+": (5, Add, _A, _A),
    "-": (5, Sub, _A, _A),
    "*": (6, Mul, _A, _A),
}
_NOT = 3
_SPELLING = {node: op for op, (_, node, _, _) in _BINARY.items()}

# One match is one token with the blanks and comments before it; a
# character that starts no token is a 'bad' token, and 'eof' matches at the
# end. A token is the tuple (kind, text, offset).
_TOKEN_RE = re.compile(
    r"""
      (?:[ \t\r\n]+ | \#[^\n]*)*
      (?:
          (?P<num>[0-9]+)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<op>:=|<=|[=+\-*();])
        | (?P<eof>\Z)
        | (?P<bad>.)
      )
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    """Lexical or syntactic violation, with 1-based source position."""

    def __init__(self, line: int, column: int, expected: list[str], found: str):
        self.line = line
        self.column = column
        self.expected = sorted(set(expected))
        self.found = found
        want = ", ".join(self.expected)
        super().__init__(f"{line}:{column}: expected {want}, found {found}")


class UnnamedVariableError(LookupError):
    """Pretty-printing hit a variable index with no surface name."""


class NameTable:
    """Bijection between surface identifiers and dense variable indices."""

    def __init__(self, names=()):
        self._names: list[str] = []
        self._index: dict[str, Var] = {}
        for name in names:
            self.intern(name)

    def intern(self, name: str) -> Var:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._names.append(name)
            self._index[name] = idx
        return idx

    def name_of(self, idx: Var) -> str:
        if 0 <= idx < len(self._names):
            return self._names[idx]
        raise UnnamedVariableError(f"no name for variable index {idx}")

    def index_of(self, name: str) -> Var:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)


def _position(src: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of offset in src."""
    line_start = src.rfind("\n", 0, offset) + 1
    return src.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(src: str) -> list[tuple]:
    """The tokens of src as (kind, text, offset), ending with an 'eof' token;
    kind is 'num', 'ident', or the spelling of a keyword or operator."""
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        if kind == "ident":
            if text in KEYWORDS:
                kind = text
        elif kind == "op":
            kind = text
        elif kind == "eof":
            append(("eof", "<end of input>", len(src)))
            return tokens
        elif kind == "bad":
            raise ParseError(*_position(src, m.start(kind)), ["a token"], repr(text))
        append((kind, text, m.end() - len(text)))


class _Parser:
    def __init__(self, src: str, names: NameTable):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.names = names

    def error(self, tok: tuple, expected: list[str], found: str):
        """A ParseError at the start of tok; its position is worked out
        only now, so that lexing keeps no line or column."""
        line, col = _position(self.src, tok[2])
        return ParseError(line, col, expected, found)

    def accept(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str | None = None) -> tuple:
        tok = self.accept(kind)
        if tok is None:
            found = self.tokens[self.pos]
            raise self.error(found, [what or repr(kind)], found[1])
        return tok

    def fail(self, expected: list[str]):
        tok = self.tokens[self.pos]
        raise self.error(tok, expected, tok[1])

    # statements -----------------------------------------------------------

    def stmt(self) -> Stmt:
        # a loop, not recursion, so that long ';' chains parse
        parts = [self.simple_stmt()]
        while self.accept(";"):
            parts.append(self.simple_stmt())
        stmt = parts.pop()
        while parts:
            stmt = Seq(parts.pop(), stmt)
        return stmt

    def simple_stmt(self) -> Stmt:
        tok = self.tokens[self.pos]
        if self.accept("skip"):
            return Skip()
        if self.accept("input"):
            name = self.expect("ident", "a variable name")
            return Input(self.names.intern(name[1]))
        if self.accept("output"):
            return Output(self.expr(_A))
        if self.accept("if"):
            cond = self.expr(_B)
            self.expect("then")
            then = self.stmt()
            self.expect("else")
            orelse = self.stmt()
            self.expect("fi")
            return If(cond, then, orelse)
        if self.accept("while"):
            cond = self.expr(_B)
            self.expect("do")
            body = self.stmt()
            self.expect("od")
            return While(cond, body)
        if self.accept("repeat"):
            body = self.stmt()
            self.expect("until")
            cond = self.expr(_B)
            # run once, then keep running while the exit condition is false
            return Seq(body, While(Not(cond), body))
        if tok[0] == "ident":
            self.pos += 1
            self.expect(":=")
            return Assign(self.names.intern(tok[1]), self.expr(_A))
        self.fail(["a statement"])

    # expressions --------------------------------------------------------

    def number(self, tok: tuple) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than the interpreter's int conversion limit
            raise self.error(tok, ["a shorter number"],
                             f"a {len(tok[1])}-digit number") from None

    def expr(self, sort: str):
        """An expression of the given sort, _A or _B.

        Operator precedence with an explicit operand stack and operator
        stack, so parentheses and 'not' nest without recursion. An operand
        is (node, sort, token it starts at). Sorts are checked only when an
        operator reduces, so a '(' need not decide which sort it opens.
        """
        tokens = self.tokens
        args: list[tuple] = []
        # (precedence, token) for '(', 'not' and binary operators; a '(' is
        # 0, below every operator, so no reduction passes it
        ops: list[tuple] = []
        while True:
            # operand position: any prefixes, then one atom
            tok = tokens[self.pos]
            self.pos += 1
            kind = tok[0]
            while kind == "(" or kind == "not":
                ops.append((0 if kind == "(" else _NOT, tok))
                tok = tokens[self.pos]
                self.pos += 1
                kind = tok[0]
            if kind == "num":
                args.append((NumLit(wrap(self.number(tok))), _A, tok))
            elif kind == "ident":
                args.append((VarRef(self.names.intern(tok[1])), _A, tok))
            elif kind == "tt" or kind == "ff":
                args.append((TT if kind == "tt" else FF, _B, tok))
            elif kind == "-":
                num = self.expect("num", "a number")
                args.append((NumLit(wrap(-self.number(num))), _A, tok))
            else:
                self.pos -= 1
                self.fail(["an expression"])
            # operator position: reduce what binds tighter than the next
            # token; anything but a binary operator reduces down to a '('
            while True:
                tok = tokens[self.pos]
                entry = _BINARY.get(tok[0])
                prec = entry[0] if entry else 1
                while ops and ops[-1][0] >= prec:
                    self.reduce(args, ops.pop()[1])
                if entry is not None:
                    ops.append((prec, tok))
                    self.pos += 1
                    break
                if not ops:
                    return self.check(args.pop(), sort)
                if tok[0] != ")":
                    self.fail(["')'"])
                # the parenthesized operand starts at its '('
                args[-1] = args[-1][:2] + (ops.pop()[1],)
                self.pos += 1

    def reduce(self, args: list, op: tuple):
        right = args.pop()
        if op[0] == "not":
            args.append((Not(self.check(right, _B)), _B, op))
            return
        _, node, arg_sort, result_sort = _BINARY[op[0]]
        left = args.pop()
        args.append((node(self.check(left, arg_sort), self.check(right, arg_sort)),
                     result_sort, left[2]))

    def check(self, operand: tuple, sort: str):
        """The operand's node, if it has the given sort."""
        node, have, tok = operand
        if have != sort:
            raise self.error(tok, [sort], have)
        return node


def parse(src: str, names: NameTable | None = None) -> tuple[Stmt, NameTable]:
    """Parse a source program; raises ParseError on any violation.

    Variables are interned into names, a fresh table unless one is given;
    programs parsed into one table number their variables alike.
    """
    p = _Parser(src, NameTable() if names is None else names)
    stmt = p.stmt()
    p.expect("eof", "end of input")
    return stmt, p.names


# ---------------------------------------------------------------------------
# pretty-printer


def _pe(e, names: NameTable, ctx: int) -> str:
    """Render an expression of either sort; parenthesize it if it binds
    looser than ctx, the precedence its position requires."""
    t = type(e)
    if t is NumLit:
        return str(e.value)
    if t is VarRef:
        return names.name_of(e.var)
    if t is TrueLit:
        return "tt"
    if t is FalseLit:
        return "ff"
    if t is Not:
        prec, text = _NOT, f"not {_pe(e.operand, names, _NOT)}"
    elif t in _SPELLING:
        op = _SPELLING[t]
        prec = _BINARY[op][0]
        # left-associative: a right operand of equal precedence needs parentheses
        text = f"{_pe(e.left, names, prec)} {op} {_pe(e.right, names, prec + 1)}"
    else:
        raise TypeError(f"not an expression: {e!r}")
    return f"({text})" if prec < ctx else text


def pretty(stmt: Stmt, names: NameTable) -> str:
    """Render stmt in concrete syntax; the result re-parses to an equal AST
    (up to the name/index bijection)."""
    if type(stmt) is Seq:
        # walk the right spine with a loop, so that long ';' chains print
        parts = []
        while type(stmt) is Seq:
            parts.append(pretty(stmt.first, names))
            stmt = stmt.second
        parts.append(pretty(stmt, names))
        return " ; ".join(parts)
    match stmt:
        case Skip():
            return "skip"
        case Assign(var=x, expr=a):
            return f"{names.name_of(x)} := {_pe(a, names, 0)}"
        case If(cond=c, then=a, orelse=b):
            return (
                f"if {_pe(c, names, 0)} then {pretty(a, names)}"
                f" else {pretty(b, names)} fi"
            )
        case While(cond=c, body=a):
            return f"while {_pe(c, names, 0)} do {pretty(a, names)} od"
        case Input(var=x):
            return f"input {names.name_of(x)}"
        case Output(expr=a):
            return f"output {_pe(a, names, 0)}"
    raise TypeError(f"not a statement: {stmt!r}")
