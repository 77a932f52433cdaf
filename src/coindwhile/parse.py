"""Concrete syntax for While with I/O: lexer, recursive-descent parser,
pretty-printer, and the variable-name interning table.

Grammar (statements):

    stmt   ::= simple (';' simple)*                     right-associative
    simple ::= 'skip'
             | ident ':=' aexp
             | 'if' bexp 'then' stmt 'else' stmt 'fi'
             | 'while' bexp 'do' stmt 'od'
             | 'repeat' stmt 'until' bexp               desugars to seq + while
             | 'input' ident
             | 'output' aexp

Expressions: '*' binds tighter than '+'/'-' (all left-associative);
'not' > 'and' > 'or'; comparisons are 'aexp = aexp' and 'aexp <= aexp';
parentheses allowed everywhere; '#' starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Add,
    AExp,
    And,
    Assign,
    BExp,
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

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>\#[^\n]*)
    | (?P<nl>\n)
    | (?P<num>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|<=|[=+\-*();])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | keyword or operator spelling | 'eof'
    text: str
    line: int
    col: int


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


def tokenize(src: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(line, col, ["a token"], repr(src[pos]))
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "ident" and text in KEYWORDS:
                tokens.append(Token(text, text, line, col))
            elif kind == "op":
                tokens.append(Token(text, text, line, col))
            else:
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "<end of input>", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], names: NameTable):
        self.tokens = tokens
        self.pos = 0
        self.names = names

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def accept(self, kind: str):
        tok = self.peek()
        if tok.kind == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.accept(kind)
        if tok is None:
            found = self.peek()
            raise ParseError(found.line, found.col, [what or repr(kind)], found.text)
        return tok

    def fail(self, expected: list[str]):
        tok = self.peek()
        raise ParseError(tok.line, tok.col, expected, tok.text)

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
        tok = self.peek()
        if self.accept("skip"):
            return Skip()
        if self.accept("input"):
            name = self.expect("ident", "a variable name")
            return Input(self.names.intern(name.text))
        if self.accept("output"):
            return Output(self.aexp())
        if self.accept("if"):
            cond = self.bexp()
            self.expect("then")
            then = self.stmt()
            self.expect("else")
            orelse = self.stmt()
            self.expect("fi")
            return If(cond, then, orelse)
        if self.accept("while"):
            cond = self.bexp()
            self.expect("do")
            body = self.stmt()
            self.expect("od")
            return While(cond, body)
        if self.accept("repeat"):
            body = self.stmt()
            self.expect("until")
            cond = self.bexp()
            # run once, then keep running while the exit condition is false
            return Seq(body, While(Not(cond), body))
        if tok.kind == "ident":
            self.pos += 1
            self.expect(":=")
            return Assign(self.names.intern(tok.text), self.aexp())
        self.fail(["a statement"])

    # boolean expressions --------------------------------------------------

    def bexp(self) -> BExp:
        b = self.band()
        while self.accept("or"):
            b = Or(b, self.band())
        return b

    def band(self) -> BExp:
        b = self.bnot()
        while self.accept("and"):
            b = And(b, self.bnot())
        return b

    def bnot(self) -> BExp:
        if self.accept("not"):
            return Not(self.bnot())
        return self.batom()

    def batom(self) -> BExp:
        if self.accept("tt"):
            return TrueLit()
        if self.accept("ff"):
            return FalseLit()
        # Ambiguity: '(' may open a parenthesized boolean expression or the
        # arithmetic left operand of a comparison. Try the comparison first
        # and fall back; report whichever attempt got further.
        start = self.pos
        try:
            left = self.aexp()
            if self.accept("="):
                return Eq(left, self.aexp())
            if self.accept("<="):
                return Le(left, self.aexp())
            self.fail(["'='", "'<='"])
        except ParseError as cmp_err:
            cmp_pos = self.pos
            self.pos = start
            if self.accept("("):
                try:
                    b = self.bexp()
                    self.expect(")")
                    return b
                except ParseError as paren_err:
                    raise paren_err if self.pos >= cmp_pos else cmp_err from None
            self.pos = start
            if cmp_pos > start:
                raise cmp_err
            raise ParseError(
                self.peek().line, self.peek().col,
                ["a boolean expression"], self.peek().text,
            ) from None

    # arithmetic expressions -----------------------------------------------

    def aexp(self) -> AExp:
        a = self.term()
        while True:
            if self.accept("+"):
                a = Add(a, self.term())
            elif self.accept("-"):
                a = Sub(a, self.term())
            else:
                return a

    def term(self) -> AExp:
        a = self.factor()
        while self.accept("*"):
            a = Mul(a, self.factor())
        return a

    def number(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int conversion limit
            raise ParseError(tok.line, tok.col, ["a shorter number"],
                             f"a {len(tok.text)}-digit number") from None

    def factor(self) -> AExp:
        tok = self.peek()
        if self.accept("num"):
            return NumLit(wrap(self.number(tok)))
        if self.accept("-"):
            num = self.expect("num", "a number")
            return NumLit(wrap(-self.number(num)))
        if tok.kind == "ident":
            self.pos += 1
            return VarRef(self.names.intern(tok.text))
        if self.accept("("):
            a = self.aexp()
            self.expect(")")
            return a
        self.fail(["an arithmetic expression"])


def parse(src: str, names: NameTable | None = None) -> tuple[Stmt, NameTable]:
    """Parse a source program; raises ParseError on any violation.

    Variables are interned into names, a fresh table unless one is given;
    programs parsed into one table number their variables alike.
    """
    p = _Parser(tokenize(src), NameTable() if names is None else names)
    stmt = p.stmt()
    p.expect("eof", "end of input")
    return stmt, p.names


# ---------------------------------------------------------------------------
# pretty-printer

_ADD, _MUL, _ATOM = 1, 2, 3
_OR, _AND, _NOT, _BATOM = 1, 2, 3, 4


def _pa(a: AExp, names: NameTable, ctx: int) -> str:
    match a:
        case NumLit(value=v):
            return str(v)
        case VarRef(var=x):
            return names.name_of(x)
        case Add(left=l, right=r):
            text = f"{_pa(l, names, _ADD)} + {_pa(r, names, _ADD + 1)}"
            prec = _ADD
        case Sub(left=l, right=r):
            text = f"{_pa(l, names, _ADD)} - {_pa(r, names, _ADD + 1)}"
            prec = _ADD
        case Mul(left=l, right=r):
            text = f"{_pa(l, names, _MUL)} * {_pa(r, names, _MUL + 1)}"
            prec = _MUL
        case _:
            raise TypeError(repr(a))
    return f"({text})" if prec < ctx else text


def _pb(b: BExp, names: NameTable, ctx: int) -> str:
    match b:
        case TrueLit():
            return "tt"
        case FalseLit():
            return "ff"
        case Eq(left=l, right=r):
            return f"{_pa(l, names, 0)} = {_pa(r, names, 0)}"
        case Le(left=l, right=r):
            return f"{_pa(l, names, 0)} <= {_pa(r, names, 0)}"
        case Not(operand=x):
            text = f"not {_pb(x, names, _NOT)}"
            prec = _NOT
        case And(left=l, right=r):
            text = f"{_pb(l, names, _AND)} and {_pb(r, names, _AND + 1)}"
            prec = _AND
        case Or(left=l, right=r):
            text = f"{_pb(l, names, _OR)} or {_pb(r, names, _OR + 1)}"
            prec = _OR
        case _:
            raise TypeError(repr(b))
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
            return f"{names.name_of(x)} := {_pa(a, names, 0)}"
        case If(cond=c, then=a, orelse=b):
            return (
                f"if {_pb(c, names, 0)} then {pretty(a, names)}"
                f" else {pretty(b, names)} fi"
            )
        case While(cond=c, body=a):
            return f"while {_pb(c, names, 0)} do {pretty(a, names)} od"
        case Input(var=x):
            return f"input {names.name_of(x)}"
        case Output(expr=a):
            return f"output {_pa(a, names, 0)}"
    raise TypeError(f"not a statement: {stmt!r}")
