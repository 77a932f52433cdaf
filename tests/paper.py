"""The paper's two semantics, written the way the paper writes them, and
its evaluation of expressions.

Expressions: ``aexp`` and ``bexp``, the recursive reference evaluators,
total functions from states to values. The library evaluates expressions
only through the closures of ``syntax.compile_aexp`` and
``syntax.compile_bexp``, and ``tests/test_syntax.py`` checks those against
these. ``variables`` lists the variables of a statement.

Big-step: the sequencing and loop combinators on resumptions
(``seque_res``, ``loop_res``, ``loopseq_res``), their views on traces
(``seque``, ``loop``, ``loopseq``), and an interpreter, ``denote``, built
from them. Small-step: the labelled one-step reduction ``red_ref`` on whole
statements, and ``norm_ref``, its coinductive iteration.

These are the references that the tests compare ``eval_res`` and
``norm_res`` against, and each other: ``denote`` = ``norm_ref`` is the
paper's theorem that big-step and small-step semantics agree. The library
runs compiled big-step code (``resumption._compile``) and a small step that
keeps its context as a stack (``resumption._resume``) instead. Both
references evaluate expressions with ``aexp`` and ``bexp``, so they share
no code with either interpreter beyond ``Res`` and ``State``. An
observation passes through one combinator, or one ``red_ref`` call, per
level of statement nesting, so they recurse as deeply as the program
nests: this is for small programs.
"""

from __future__ import annotations

from collections.abc import Callable

from coindwhile.resumption import Res
from coindwhile.syntax import (
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
    State,
    Stmt,
    Sub,
    TrueLit,
    Val,
    Var,
    VarRef,
    While,
    map_variables,
)
from coindwhile.trace import Trace


# ---------------------------------------------------------------------------
# expression evaluation (total; arithmetic wraps at 64 bits)


def _wrap(n: int) -> Val:
    """n as a signed 64-bit value, written out here rather than taken from
    syntax.wrap, so that the reference shares no arithmetic with the
    compiled closures."""
    return (n + (1 << 63)) % (1 << 64) - (1 << 63)


def aexp(a: AExp, s: State) -> Val:
    t = type(a)
    if t is VarRef:
        return s.lkp(a.var)
    if t is NumLit:
        return _wrap(a.value)
    if t is Add:
        return _wrap(aexp(a.left, s) + aexp(a.right, s))
    if t is Sub:
        return _wrap(aexp(a.left, s) - aexp(a.right, s))
    if t is Mul:
        return _wrap(aexp(a.left, s) * aexp(a.right, s))
    raise TypeError(f"not an arithmetic expression: {a!r}")


def bexp(b: BExp, s: State) -> bool:
    t = type(b)
    if t is Le:
        return aexp(b.left, s) <= aexp(b.right, s)
    if t is Eq:
        return aexp(b.left, s) == aexp(b.right, s)
    if t is TrueLit:
        return True
    if t is FalseLit:
        return False
    if t is Not:
        # a loop over the chain of nots, so that a long one costs no recursion
        negate = False
        while type(b) is Not:
            b, negate = b.operand, not negate
        return not bexp(b, s) if negate else bexp(b, s)
    if t is And:
        return bexp(b.left, s) and bexp(b.right, s)
    if t is Or:
        return bexp(b.left, s) or bexp(b.right, s)
    raise TypeError(f"not a boolean expression: {b!r}")


def variables(stmt: Stmt) -> set[Var]:
    """All variable indices occurring in stmt."""
    seen: set[Var] = set()
    map_variables(stmt, lambda x: (seen.add(x), x)[1])
    return seen


# ---------------------------------------------------------------------------
# big-step semantics


def seque_res(k: Callable[[State], Res], r: Res) -> Res:
    """Continue with k from the final state of r, if r ever returns."""

    def force():
        obs = r.step()
        tag = obs[0]
        if tag == "ret":
            return k(obs[1])
        if tag == "in":
            f = obs[1]
            return Res.inp(lambda v: seque_res(k, f(v)))
        if tag == "out":
            return Res.out(obs[1], seque_res(k, obs[2]))
        return Res.delay(seque_res(k, obs[1]), obs[2])

    return Res.suspend(force)


def loop_res(k: Callable[[State], Res], p: Callable[[State], bool], s: State) -> Res:
    """Repeat the body k while the guard p holds, starting from state s."""
    if not p(s):
        return Res.ret(s)
    obs = k(s).step()
    tag = obs[0]
    if tag == "ret":
        s1 = obs[1]
        return Res.delay(Res.suspend(lambda: loop_res(k, p, s1)), s1)
    if tag == "in":
        f = obs[1]
        return Res.inp(lambda v: loopseq_res(k, p, f(v)))
    if tag == "out":
        rest = obs[2]
        return Res.out(obs[1], Res.suspend(lambda: loopseq_res(k, p, rest)))
    rest = obs[1]
    return Res.delay(Res.suspend(lambda: loopseq_res(k, p, rest)), obs[2])


def loopseq_res(k: Callable[[State], Res], p: Callable[[State], bool], r: Res) -> Res:
    """Flush the current body resumption r, then hand back to loop_res."""

    def force():
        obs = r.step()
        tag = obs[0]
        if tag == "ret":
            s = obs[1]
            return Res.delay(Res.suspend(lambda: loop_res(k, p, s)), s)
        if tag == "in":
            f = obs[1]
            return Res.inp(lambda v: loopseq_res(k, p, f(v)))
        if tag == "out":
            return Res.out(obs[1], loopseq_res(k, p, obs[2]))
        return Res.delay(loopseq_res(k, p, obs[1]), obs[2])

    return Res.suspend(force)


def denote(stmt: Stmt, s: State) -> Res:
    """Big-step resumption semantics of While with I/O, by the combinators.

    Skip returns at once; an assignment is one delay; an if is one delay,
    then the chosen branch; a while is one delay, then ``loop_res``, which
    delays once more before each later guard test. A delay records the
    state its step starts from, as in ``eval_res``.
    """
    t = type(stmt)
    if t is Skip:
        return Res.ret(s)
    if t is Assign:
        return Res.delay(Res.ret(s.upd(stmt.var, aexp(stmt.expr, s))), s)
    if t is Seq:
        return seque_res(lambda s1: denote(stmt.second, s1), denote(stmt.first, s))
    if t is If:
        branch = lambda: denote(stmt.then if bexp(stmt.cond, s) else stmt.orelse, s)
        return Res.delay(Res.suspend(branch), s)
    if t is While:
        body = lambda s1: denote(stmt.body, s1)
        guard = lambda s1: bexp(stmt.cond, s1)
        return Res.delay(Res.suspend(lambda: loop_res(body, guard, s)), s)
    if t is Input:
        return Res.inp(lambda v: Res.ret(s.upd(stmt.var, v)))
    if t is Output:
        return Res.out(aexp(stmt.expr, s), Res.ret(s))
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# small-step semantics


def red_ref(stmt: Stmt, s: State) -> tuple:
    """One labelled small step of the configuration (stmt, s), as one of

        ("ret", s)                 stmt is terminal
        ("in", stmt1, update)      reading v continues from (stmt1, update(v))
        ("out", v, stmt1, s1)
        ("delay", stmt1, s1)

    A Seq steps its first component, or its second once the first is
    terminal; a while unrolls to its body followed by itself.
    """
    t = type(stmt)
    if t is Skip:
        return ("ret", s)
    if t is Assign:
        return ("delay", Skip(), s.upd(stmt.var, aexp(stmt.expr, s)))
    if t is Seq:
        c = red_ref(stmt.first, s)
        tag = c[0]
        if tag == "ret":
            return red_ref(stmt.second, c[1])
        if tag == "delay":
            return ("delay", Seq(c[1], stmt.second), c[2])
        if tag == "out":
            return ("out", c[1], Seq(c[2], stmt.second), c[3])
        return ("in", Seq(c[1], stmt.second), c[2])
    if t is If:
        return ("delay", stmt.then if bexp(stmt.cond, s) else stmt.orelse, s)
    if t is While:
        return ("delay", Seq(stmt.body, stmt) if bexp(stmt.cond, s) else Skip(), s)
    if t is Input:
        return ("in", Skip(), lambda v: s.upd(stmt.var, v))
    if t is Output:
        return ("out", aexp(stmt.expr, s), Skip(), s)
    raise TypeError(f"not a statement: {stmt!r}")


def norm_ref(stmt: Stmt, s: State) -> Res:
    """Small-step resumption semantics: red_ref, iterated lazily. A delay
    records the state its step starts from, as in ``norm_res``."""
    c = red_ref(stmt, s)
    tag = c[0]
    if tag == "ret":
        return Res.ret(c[1])
    if tag == "delay":
        return Res.delay(Res.suspend(lambda: norm_ref(c[1], c[2])), s)
    if tag == "out":
        return Res.out(c[1], Res.suspend(lambda: norm_ref(c[2], c[3])))
    return Res.inp(lambda v: Res.suspend(lambda: norm_ref(c[1], c[2](v))))


# ---------------------------------------------------------------------------
# the trace views


def nil(s: State) -> Trace:
    """The trace of one state."""
    return Trace(Res.ret(s))


def delay(s: State, tail: Trace) -> Trace:
    """The trace that is s, then tail."""
    return Trace(Res.delay(tail._res, s))


def seque(k: Callable[[State], Trace], t: Trace) -> Trace:
    """Continue with k from the last state of t, if t ever ends."""
    return Trace(seque_res(lambda s: k(s)._res, t._res))


def loop(k: Callable[[State], Trace], p: Callable[[State], bool], s: State) -> Trace:
    """Repeat the body k while the guard p holds, starting from state s."""
    return Trace(loop_res(lambda s1: k(s1)._res, p, s))


def loopseq(k: Callable[[State], Trace], p: Callable[[State], bool], t: Trace) -> Trace:
    """Flush the current body trace t, then hand back to loop."""
    return Trace(loopseq_res(lambda s: k(s)._res, p, t._res))
