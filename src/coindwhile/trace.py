"""Coinductive traces and the two trace-producing interpreters for pure While.

A trace is a possibly infinite, nonempty stream of states. It is observed
one step at a time: ``step()`` returns ``(state, tail)`` where ``tail`` is
``None`` when the trace ends here, or the rest of the trace otherwise. Tails
are produced on demand, so infinite traces are fine; each observation does
work bounded by the size of the statement, never by the length of the trace.

A trace is a resumption that never does input or output, so ``Trace`` is a
view over a ``Res``: a delay observation ``("delay", rest, s)`` reads as
``(s, Trace(rest))`` and ``("ret", s)`` as ``(s, None)``. The suspension
and the interpreters are those of ``resumption.py``; this module only
checks that a program is pure and changes the point of view. Like
``Res.step()``, ``Trace.step()`` caches nothing; ``walk`` and ``take``
compute each state once and make no ``Res``. A trace whose run does input
or output raises ``ImpureProgramError`` where it would end.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import takewhile
from operator import is_not

from .resumption import Res, _fuel, _raw, eval_res, norm_res
from .syntax import Record, State, Stmt, is_pure


class ImpureProgramError(ValueError):
    """A program with input/output was fed to the pure-While interpreters."""


Observation = tuple  # (State, Trace | None)

# s is not None, as a call into C: comparing a State with None, as
# iter(f, None) does, would call State.__eq__, which is Python
_is_state = partial(is_not, None)


class Trace:
    """A pure resumption seen as a trace; ``step()`` returns ``(s, tail)``."""

    __slots__ = ("_res",)

    def __init__(self, res: Res):
        self._res = res

    def step(self) -> Observation:
        obs = self._res.step()
        if obs[0] == "delay":
            return (obs[2], Trace(obs[1]))
        return (_final(obs), None)


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

    It steps raw observations (see ``resumption._raw``) and makes no
    ``Res``, so a run streams in constant memory. fuel is checked as
    ``resumption._fuel`` checks it.
    """
    fn, arg = _raw, t._res
    for _ in range(_fuel(fuel)):
        obs = fn(arg)
        if obs[0] != "delay":
            yield _final(obs)
            return
        yield obs[3]
        fn, arg = obs[1], obs[2]
    obs = fn(arg)
    yield None if obs[0] == "delay" else _final(obs)


def take(t: Trace, fuel: int) -> TracePrefix:
    """Observe at most fuel steps (plus a free final nil observation).

    Fuel counts Delay observations; a trace that ends within the budget
    yields all its states and ``ended``, otherwise the states seen so far
    and ``truncated``.
    """
    seen = walk(t, fuel)
    # the tuple is built once, straight from walk, up to a None if the fuel
    # ran out; walk has returned, and its frame is gone, iff t ended
    states = tuple(takewhile(_is_state, seen))
    return TracePrefix(states, seen.gi_frame is None)


def _pure(stmt: Stmt) -> Stmt:
    if not is_pure(stmt):
        raise ImpureProgramError(
            "trace semantics is for pure While; program performs input/output"
        )
    return stmt


def _final(obs: tuple) -> State:
    """The final state of obs, an observation that is not a delay: it must
    be a ret, or the run does input or output."""
    if obs[0] != "ret":
        raise ImpureProgramError(f"a trace ends on {obs[0]!r}: the run does input/output")
    return obs[1]


def eval_trace(stmt: Stmt, s: State) -> Trace:
    """Big-step trace semantics of pure While: ``eval_res`` seen as a trace.

    Skip is silent; assignment and every guard test contribute one delay.
    Total: diverging programs yield infinite traces.
    """
    return Trace(eval_res(_pure(stmt), s))


def norm(stmt: Stmt, s: State) -> Trace:
    """Small-step trace semantics: ``norm_res`` seen as a trace."""
    return Trace(norm_res(_pure(stmt), s))
