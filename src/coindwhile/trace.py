"""Coinductive traces and the two trace-producing interpreters for pure While.

A trace is a possibly infinite, nonempty sequence of states. It is observed
one step at a time: ``step()`` returns ``(state, tail)`` where ``tail`` is
``None`` when the trace ends here, or the rest of the trace otherwise. Tails
are produced on demand, so infinite traces are fine; each observation does
work bounded by the size of the statement that produced the trace, never by
the (possibly infinite) length of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .syntax import (
    SKIP,
    Assign,
    If,
    Input,
    Output,
    Seq,
    Skip,
    State,
    Stmt,
    While,
    aexp,
    bexp,
    compile_stmt,
    is_pure,
    unspine,
)


class ImpureProgramError(ValueError):
    """A program with input/output was fed to the pure-While interpreters."""


Observation = tuple  # (State, Optional[Trace])


class Trace:
    """A suspended trace; ``step()`` forces and memoizes one observation."""

    __slots__ = ("_force", "_obs", "__weakref__")

    def __init__(self, force: Callable[[], Observation]):
        self._force = force
        self._obs = None

    def step(self) -> Observation:
        obs = self._obs
        if obs is None:
            obs = self._obs = self._force()
            self._force = None
        return obs

    @staticmethod
    def nil(s: State) -> "Trace":
        t = Trace.__new__(Trace)
        t._force = None
        t._obs = (s, None)
        return t

    @staticmethod
    def delay(s: State, tail: "Trace") -> "Trace":
        t = Trace.__new__(Trace)
        t._force = None
        t._obs = (s, tail)
        return t

    @staticmethod
    def suspend(make: Callable[[], "Trace"]) -> "Trace":
        """A trace whose first observation is delegated to make()."""
        return Trace(lambda: make().step())


@dataclass(frozen=True)
class TracePrefix:
    """A finite observation of a trace: the states seen, and whether the
    trace actually ended or the fuel ran out first."""

    states: tuple
    ended: bool

    @property
    def status(self) -> str:
        return "ended" if self.ended else "truncated"


def take(t: Trace, fuel: int) -> TracePrefix:
    """Observe at most fuel steps (plus a free final nil observation).

    Fuel counts Delay observations; a trace that ends within the budget
    yields all its states and ``ended``, otherwise the states seen so far
    and ``truncated``.
    """
    states = []
    for _ in range(fuel):
        s, tail = t.step()
        states.append(s)
        if tail is None:
            return TracePrefix(tuple(states), True)
        t = tail
    s, tail = t.step()
    if tail is None:
        states.append(s)
        return TracePrefix(tuple(states), True)
    return TracePrefix(tuple(states), False)


# ---------------------------------------------------------------------------
# big-step interpreter


def eval_trace(stmt: Stmt, s: State) -> Trace:
    """Big-step trace semantics of pure While.

    Skip is silent; assignment and every guard test contribute one delay.
    Total: diverging programs yield infinite traces. The statement is
    compiled once into CPS code (``compile_stmt``) whose continuation is
    the rest of the trace; this is the denotation of seque and loop below,
    unfolded by associativity of sequencing.
    """
    code = compile_stmt(stmt, _delay, _impure)
    return Trace(lambda: code(s, _nil))


def _delay(s: State, rest: Callable[[], Observation]) -> Observation:
    return (s, Trace(rest))


def _nil(s: State) -> Observation:
    return (s, None)


def _impure(stmt: Stmt):
    raise ImpureProgramError(
        "trace semantics is for pure While; program performs input/output"
    )


def seque(k: Callable[[State], Trace], t: Trace) -> Trace:
    """Continue with k from the last state of t, if t ever ends."""

    def force():
        s, tail = t.step()
        if tail is None:
            return k(s)
        return Trace.delay(s, seque(k, tail))

    return Trace.suspend(force)


def loop(k: Callable[[State], Trace], p: Callable[[State], bool], s: State) -> Trace:
    """Repeat the body k while the guard p holds, starting from state s."""
    if not p(s):
        return Trace.nil(s)
    s1, tail = k(s).step()
    if tail is None:
        return Trace.delay(s1, Trace.suspend(lambda: loop(k, p, s1)))
    return Trace.delay(s1, Trace.suspend(lambda: loopseq(k, p, tail)))


def loopseq(k: Callable[[State], Trace], p: Callable[[State], bool], t: Trace) -> Trace:
    """Flush the current body trace t, then hand back to loop."""

    def force():
        s, tail = t.step()
        if tail is None:
            return Trace.delay(s, Trace.suspend(lambda: loop(k, p, s)))
        return Trace.delay(s, Trace.suspend(lambda: loopseq(k, p, tail)))

    return Trace.suspend(force)


# ---------------------------------------------------------------------------
# small-step interpreter


def red(stmt: Stmt, s: State) -> Optional[tuple[Stmt, State]]:
    """One-step reduction; None means the statement is terminal.

    Walks the left spine of nested Seqs with a loop, reduces the first
    redex, and rebuilds the spine around the result.
    """
    spine = []
    while True:
        t = type(stmt)
        if t is Seq:
            spine.append(stmt.second)
            stmt = stmt.first
        elif t is Skip:
            if not spine:
                return None
            stmt = spine.pop()
        elif t is Assign:
            return (unspine(SKIP, spine), s.upd(stmt.var, aexp(stmt.expr, s)))
        elif t is If:
            branch = stmt.then if bexp(stmt.cond, s) else stmt.orelse
            return (unspine(branch, spine), s)
        elif t is While:
            again = Seq(stmt.body, stmt) if bexp(stmt.cond, s) else SKIP
            return (unspine(again, spine), s)
        elif t is Input or t is Output:
            raise ImpureProgramError(f"input/output statement in pure context: {stmt!r}")
        else:
            raise TypeError(f"not a statement: {stmt!r}")


def norm(stmt: Stmt, s: State) -> Trace:
    """Small-step trace semantics: repeatedly apply red, one delay per step."""
    if not is_pure(stmt):
        _impure(stmt)
    return _norm(stmt, s)


def _norm(stmt: Stmt, s: State) -> Trace:
    def force():
        r = red(stmt, s)
        if r is None:
            return (s, None)
        return (s, _norm(*r))

    return Trace(force)
