"""Coinductive traces and the two trace-producing interpreters for pure While.

A trace is a possibly infinite, nonempty stream of states. It is observed
one step at a time: ``step()`` returns ``(state, tail)`` where ``tail`` is
``None`` when the trace ends here, or the rest of the trace otherwise. Tails
are produced on demand, so infinite traces are fine; each observation does
work bounded by the size of the statement, never by the length of the trace.

A trace is a resumption that never does input or output, so ``Trace`` is a
view over a ``Res``: a delay observation ``("delay", rest, s)`` reads as
``(s, Trace(rest))`` and ``("ret", s)`` as ``(s, None)``. The memo cell and
the interpreters are those of ``resumption.py``; this module only checks
that a program is pure and changes the point of view. ``Trace.step()``
memoizes, as ``Res.step()`` does; ``walk`` and ``take`` look at each state
once and memoize nothing.
"""

from __future__ import annotations

from collections.abc import Iterator

from .resumption import Res, _raw, eval_res, norm_res
from .syntax import Record, State, Stmt, is_pure


class ImpureProgramError(ValueError):
    """A program with input/output was fed to the pure-While interpreters."""


Observation = tuple  # (State, Trace | None)


class Trace:
    """A pure resumption seen as a trace; ``step()`` returns ``(s, tail)``."""

    __slots__ = ("_res",)

    def __init__(self, res: Res):
        self._res = res

    def step(self) -> Observation:
        obs = self._res.step()
        if obs[0] == "delay":
            return (obs[2], Trace(obs[1]))
        return (obs[1], None)


class TracePrefix(Record):
    """A finite observation of a trace: the states seen, and whether the
    trace actually ended or the fuel ran out first."""

    __slots__ = __match_args__ = ("states", "ended")

    def __init__(self, states: tuple, ended: bool):
        self.states = states
        self.ended = ended


def walk(t: Trace, fuel: int) -> Iterator[State | None]:
    """Yield the states of t one at a time, at most fuel delays' worth plus
    a free final state if t ends by then; then None if the fuel ran out.

    It steps raw observations (see ``resumption._raw``): no memo cell is
    made or filled, so a run streams in constant memory even when the
    caller keeps t.
    """
    fn, arg = _raw, t._res
    del t  # a held head would keep any cells already memoized behind it
    for _ in range(fuel):
        obs = fn(arg)
        if obs[0] != "delay":
            yield obs[1]
            return
        yield obs[3]
        fn, arg = obs[1], obs[2]
    obs = fn(arg)
    yield None if obs[0] == "delay" else obs[1]


def take(t: Trace, fuel: int) -> TracePrefix:
    """Observe at most fuel steps (plus a free final nil observation).

    Fuel counts Delay observations; a trace that ends within the budget
    yields all its states and ``ended``, otherwise the states seen so far
    and ``truncated``.
    """
    seen = walk(t, fuel)
    del t  # as in walk: the head must not outlive the call
    states = list(seen)
    ended = states[-1] is not None
    if not ended:
        states.pop()
    return TracePrefix(tuple(states), ended)


def _pure(stmt: Stmt) -> Stmt:
    if not is_pure(stmt):
        raise ImpureProgramError(
            "trace semantics is for pure While; program performs input/output"
        )
    return stmt


def eval_trace(stmt: Stmt, s: State) -> Trace:
    """Big-step trace semantics of pure While: ``eval_res`` seen as a trace.

    Skip is silent; assignment and every guard test contribute one delay.
    Total: diverging programs yield infinite traces.
    """
    return Trace(eval_res(_pure(stmt), s))


def norm(stmt: Stmt, s: State) -> Trace:
    """Small-step trace semantics: ``norm_res`` seen as a trace."""
    return Trace(norm_res(_pure(stmt), s))
