"""Concrete syntax for While with I/O: lexer, parser, pretty-printer, and
the variable-name interning table.

Grammar (statements, parsed with an explicit stack of the open 'while',
'if' and 'repeat' constructs, so nesting depth costs no recursion):

    stmt   ::= simple (';' simple)*                     right-associative
    simple ::= 'skip'
             | ident ':=' aexp
             | 'if' bexp 'then' stmt 'else' stmt 'fi'
             | 'while' bexp 'do' stmt 'od'
             | 'repeat' stmt 'until' bexp               desugars to seq + while
             | 'input' ident
             | 'output' aexp

Expressions of both sorts are parsed by one operator-precedence routine
driven by the table _BINARY. From loosest to tightest: 'or', 'and', prefix
'not', the comparisons '=' and '<=' (whose operands are arithmetic), '+'
and '-', '*'; binary operators are left-associative. Parentheses are
allowed everywhere; '#' starts a line comment. The printer reads the same
table, in one loop on an explicit stack, so a tree of any depth prints.
"""

from __future__ import annotations

import re
from itertools import islice

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
    SKIP,
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

# The two expression sorts, by "is boolean", named as an error message
# names them.
_SORT = {False: "an arithmetic expression", True: "a boolean expression"}
# the node classes of boolean sort; every other expression is arithmetic
_BOOL = frozenset({TrueLit, FalseLit, Eq, Le, Not, And, Or})

# binary operator -> (precedence, node class, operands are boolean); every
# binary operator is left-associative, and prefix 'not' binds tighter than
# 'and' but looser than the comparisons
_BINARY = {
    "or": (1, Or, True),
    "and": (2, And, True),
    "=": (4, Eq, False),
    "<=": (4, Le, False),
    "+": (5, Add, False),
    "-": (5, Sub, False),
    "*": (6, Mul, False),
}
_NOT = 3
# operator class -> (precedence, spelling), for the printer; operators are
# left-associative, so a right operand of equal precedence is parenthesized
_PRINTED = {node: (prec, f" {op} ") for op, (prec, node, _) in _BINARY.items()}
_PRINTED[Not] = (_NOT, "not ")

# One match is one token, captured in group 1, with the blanks and comments
# before it. A character that starts no token is a token of its own, a bad
# one, and the end of input is the empty token (findall may give it twice).
_TOKEN_RE = re.compile(
    r"""
      (?:[ \t\r\n]+ | \#[^\n]*)*
      ( [0-9]+ | [A-Za-z_][A-Za-z0-9_]* | :=|<=|[=+\-*();] | \Z | . )
    """,
    re.VERBOSE,
)
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# a token of one character is bad unless it is one of these
_ONE_CHAR = _DIGITS | _NAME_START | frozenset("=+-*();")
# open construct -> the token that ends its current body
_CLOSER = {"while": "od", "if": "else", "else": "fi", "repeat": "until"}


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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)


def _position(src: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of offset in src."""
    line_start = src.rfind("\n", 0, offset) + 1
    return src.count("\n", 0, line_start) + 1, offset - line_start + 1


class _Parser:
    """One parse of src. A token is its text, so the parser dispatches on
    the text; a token's position is worked out only for an error."""

    def __init__(self, src: str, names: NameTable):
        self.src = src
        self.tokens = tokens = _TOKEN_RE.findall(src)
        self.names = names
        # token -> its node, one per name and per unsigned literal in a parse;
        # nodes are immutable, so they can be shared
        self.atoms = {"tt": TT, "ff": FF}
        # a bad character is reported before any syntax error; the program's
        # few distinct tokens are searched first, the whole list only if one
        # of them is bad
        bad = {t for t in set(tokens) if len(t) == 1 and t not in _ONE_CHAR}
        if bad:
            i = next(i for i, t in enumerate(tokens) if t in bad)
            raise self.error(i, ["a token"], repr(tokens[i]))

    def error(self, i: int, expected: list[str], found: str | None = None):
        """A ParseError at the start of token i; by default it was found."""
        if found is None:
            found = self.tokens[i] or "<end of input>"
        offset = next(islice(_TOKEN_RE.finditer(self.src), i, None)).start(1)
        return ParseError(*_position(self.src, offset), expected, found)

    def atom(self, i: int, negate: bool = False):
        """The node of the number or variable name at token i; for a name,
        made once per parse, interning it on first sight."""
        tok = self.tokens[i]
        if tok[:1] in _DIGITS:
            try:
                n = int(tok)
            except ValueError:  # longer than the interpreter's int conversion limit
                raise self.error(i, ["a shorter number"],
                                 f"a {len(tok)}-digit number") from None
            if negate:
                return NumLit(wrap(-n))
            node = self.atoms[tok] = NumLit(wrap(n))
            return node
        if negate:
            raise self.error(i, ["a number"])
        if tok[:1] in _NAME_START and tok not in KEYWORDS:
            node = self.atoms[tok] = VarRef(self.names.intern(tok))
            return node
        raise self.error(i, ["an expression"])

    def program(self) -> Stmt:
        """The whole source: a statement, then the end of input.

        The open 'while', 'if' and 'repeat' constructs are frames on a
        stack, and the finished simple statements of every open ';' chain
        share one list; so neither nesting nor chains recurse.
        """
        tokens = self.tokens
        pos = 0
        parts: list = []
        # (construct, where its chain starts in parts, condition, 'then'
        # branch); an 'if' whose 'then' branch is closed becomes 'else'
        frames: list[tuple] = []
        while True:
            # a simple statement, or the opening of a construct
            tok = tokens[pos]
            pos += 1
            if tok == "while" or tok == "if":
                cond = self.expr(pos, True)
                pos = self.pos
                opener = "do" if tok == "while" else "then"
                if tokens[pos] != opener:
                    raise self.error(pos, [repr(opener)])
                pos += 1
                frames.append((tok, len(parts), cond, None))
                continue
            if tok == "repeat":
                frames.append((tok, len(parts), None, None))
                continue
            if tok == "skip":
                node = SKIP
            elif tok == "input":
                tok = tokens[pos]
                if tok[:1] not in _NAME_START or tok in KEYWORDS:
                    raise self.error(pos, ["a variable name"])
                node = Input((self.atoms.get(tok) or self.atom(pos)).var)
                pos += 1
            elif tok == "output":
                node = Output(self.expr(pos, False))
                pos = self.pos
            elif tok[:1] in _NAME_START and tok not in KEYWORDS:
                if tokens[pos] != ":=":
                    raise self.error(pos, ["':='"])
                ref = self.atoms.get(tok) or self.atom(pos - 1)
                node = Assign(ref.var, self.expr(pos + 1, False))
                pos = self.pos
            else:
                raise self.error(pos - 1, ["a statement"])
            # node is a finished simple statement: close every construct
            # whose body it ends
            while True:
                parts.append(node)
                if tokens[pos] == ";":
                    pos += 1
                    break
                base = frames[-1][1] if frames else 0
                stmt = parts.pop()
                while len(parts) > base:
                    stmt = Seq(parts.pop(), stmt)
                if not frames:
                    if tokens[pos]:
                        raise self.error(pos, ["end of input"])
                    return stmt
                construct, base, cond, then = frames.pop()
                closer = _CLOSER[construct]
                if tokens[pos] != closer:
                    raise self.error(pos, [repr(closer)])
                pos += 1
                if construct == "while":
                    node = While(cond, stmt)
                elif construct == "if":
                    frames.append(("else", base, cond, stmt))
                    break
                elif construct == "else":
                    node = If(cond, then, stmt)
                else:
                    cond = self.expr(pos, True)
                    pos = self.pos
                    # run once, then keep running while the exit condition is false
                    node = Seq(stmt, While(Not(cond), stmt))

    def expr(self, pos: int, boolean: bool):
        """The expression of the given sort starting at token pos; self.pos
        is set to the token after it.

        Operator precedence with an explicit operand stack and operator
        stack, so parentheses and 'not' nest without recursion. Operands are
        nodes, with the token index each starts at alongside; an operand's
        sort is its node's class, checked only when an operator reduces, so
        a '(' need not decide which sort it opens.
        """
        tokens = self.tokens
        atoms = self.atoms
        args: list = []
        starts: list[int] = []
        # (precedence, token index, node class, operands are boolean) for
        # '(', 'not' and binary operators; a '(' is 0, below every
        # operator, so no reduction passes it
        ops: list[tuple] = []
        while True:
            # operand position: any prefixes, then one atom
            tok = tokens[pos]
            while tok == "(" or tok == "not":
                ops.append((0, pos, None, False) if tok == "(" else (_NOT, pos, Not, True))
                pos += 1
                tok = tokens[pos]
            starts.append(pos)
            node = atoms.get(tok)
            if node is None:
                if tok == "-":
                    pos += 1
                    node = self.atom(pos, True)
                else:
                    node = self.atom(pos)
            args.append(node)
            pos += 1
            # operator position: reduce what binds tighter than the next
            # token; anything but a binary operator reduces down to a '('
            while True:
                tok = tokens[pos]
                entry = _BINARY.get(tok)
                prec = entry[0] if entry else 1
                while ops and ops[-1][0] >= prec:
                    _, at, cls, want = ops.pop()
                    right = args.pop()
                    right_at = starts.pop()
                    if cls is Not:
                        if type(right) not in _BOOL:
                            raise self.error(right_at, [_SORT[True]], _SORT[False])
                        args.append(Not(right))
                        starts.append(at)
                        continue
                    left = args[-1]
                    # the left operand is checked first
                    if (type(left) in _BOOL) is not want:
                        raise self.error(starts[-1], [_SORT[want]], _SORT[not want])
                    if (type(right) in _BOOL) is not want:
                        raise self.error(right_at, [_SORT[want]], _SORT[not want])
                    args[-1] = cls(left, right)
                if entry is not None:
                    ops.append((prec, pos, entry[1], entry[2]))
                    pos += 1
                    break
                if not ops:
                    node = args[0]
                    if (type(node) in _BOOL) is not boolean:
                        raise self.error(starts[0], [_SORT[boolean]], _SORT[not boolean])
                    self.pos = pos
                    return node
                if tok != ")":
                    raise self.error(pos, ["')'"])
                # the parenthesized operand starts at its '('
                starts[-1] = ops.pop()[1]
                pos += 1


def parse(src: str, names: NameTable | None = None) -> tuple[Stmt, NameTable]:
    """Parse a source program; raises ParseError on any violation.

    Variables are interned into names, a fresh table unless one is given;
    programs parsed into one table number their variables alike.
    """
    p = _Parser(src, NameTable() if names is None else names)
    return p.program(), p.names


# ---------------------------------------------------------------------------
# pretty-printer


def pretty(stmt: Stmt, names: NameTable) -> str:
    """Render stmt in concrete syntax; the result re-parses to an equal AST
    (up to the name/index bijection). One loop over a stack of text and of
    (node, precedence) items, so no nesting recurses: an expression is
    parenthesized if it binds looser than its position needs, and a
    statement's position is None, where only a statement may stand."""
    out: list[str] = []
    todo: list = [(stmt, None)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, ctx = item
        t = type(node)
        if ctx is None:
            if t is Seq:
                w = node.second  # repeat s until b is s ; while not b do s od, s shared
                if type(w) is While and w.body is node.first and type(w.cond) is Not:
                    todo += (w.cond.operand, 0), " until ", (w.body, None), "repeat "
                else:
                    todo += (w, None), " ; ", (node.first, None)
            elif t is Assign:
                todo += (node.expr, 0), " := ", names.name_of(node.var)
            elif t is While:
                todo += " od", (node.body, None), " do ", (node.cond, 0), "while "
            elif t is If:
                todo += (" fi", (node.orelse, None), " else ", (node.then, None),
                         " then ", (node.cond, 0), "if ")
            elif t is Output:
                todo += (node.expr, 0), "output "
            elif t is Input:
                out += "input ", names.name_of(node.var)
            elif t is Skip:
                out.append("skip")
            else:
                raise TypeError(f"not a statement: {node!r}")
        elif t is VarRef:
            out.append(names.name_of(node.var))
        elif t is NumLit:
            out.append(str(node.value))
        elif t in _PRINTED:
            prec, op = _PRINTED[t]
            if prec < ctx:  # parenthesized, it fits any position
                todo += ")", (node, 0), "("
            elif t is Not:
                todo += (node.operand, prec), op
            else:
                todo += (node.right, prec + 1), op, (node.left, prec)
        elif t is TrueLit or t is FalseLit:
            out.append("tt" if t is TrueLit else "ff")
        else:
            raise TypeError(f"not an expression: {node!r}")
    return "".join(out)
