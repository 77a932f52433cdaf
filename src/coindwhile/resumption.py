"""Resumptions and the two interpreters for While with interactive I/O.

A resumption describes all possible evolutions of a program: it has either
terminated (``ret``), waits for an input value and branches on it (``in``),
emits an output value (``out``), or takes a silent step (``delay``).
``step()`` returns one of the tagged tuples

    ("ret", state)
    ("in", continuation)        continuation: Val -> Res, total and pure
    ("out", value, rest)
    ("delay", rest, state)      state: where the silent step was taken

computed on demand and memoized, so infinite resumptions are observed
incrementally in bounded time per step. The interpreters record in each
delay the state the step starts from; the hand-built stock resumptions have
no state and record None. A trace is a resumption that never does input or
output: ``trace.Trace`` reads ``("delay", rest, s)`` as ``(s, rest)`` and
``("ret", s)`` as ``(s, None)``.

The big-step interpreter ``eval_res`` runs closures in continuation-passing
style (``_compile``) that build these tuples themselves. Each statement is
compiled on first entry, so a run compiles only what it reaches. The
small-step interpreter ``norm_res`` runs configurations
``(stmt, context, state)``. The context is the stack of ``Seq`` second
components still to run, and it is kept from one step to the next
(refocusing, Danvy & Nielsen 2004), so a step costs the same however deeply
the running statement sits inside nested sequences. ``red_res`` plugs the
context back into a statement.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .syntax import (
    SKIP,
    Assign,
    If,
    Input,
    Output,
    Record,
    Seq,
    Skip,
    State,
    Stmt,
    Val,
    While,
    aexp,
    bexp,
    compile_aexp,
    compile_bexp,
)


class Res:
    """A suspended resumption; ``step()`` forces and memoizes one observation."""

    __slots__ = ("_force", "_obs", "__weakref__")

    def __init__(self, force: Callable[[], tuple]):
        self._force = force
        self._obs = None

    def step(self) -> tuple:
        obs = self._obs
        if obs is None:
            obs = self._obs = self._force()
            self._force = None
        return obs

    @staticmethod
    def _of(obs: tuple) -> "Res":
        r = Res.__new__(Res)
        r._force = None
        r._obs = obs
        return r

    @staticmethod
    def ret(s: State) -> "Res":
        return Res._of(("ret", s))

    @staticmethod
    def inp(f: Callable[[Val], "Res"]) -> "Res":
        return Res._of(("in", f))

    @staticmethod
    def out(v: Val, rest: "Res") -> "Res":
        return Res._of(("out", v, rest))

    @staticmethod
    def delay(rest: "Res", s: State | None = None) -> "Res":
        return Res._of(("delay", rest, s))

    @staticmethod
    def suspend(make: Callable[[], "Res"]) -> "Res":
        return Res(lambda: make().step())


# ---------------------------------------------------------------------------
# stock resumptions


def bot() -> Res:
    """Silent divergence: an infinite stream of delays."""
    return Res.delay(Res.suspend(bot))


def rep(v: Val) -> Res:
    """Output v forever, two delays per cycle."""
    return Res.delay(Res.delay(Res.out(v, Res.suspend(lambda: rep(v)))))


def rep_fast(v: Val) -> Res:
    """Output v forever, one delay per cycle (shorter latency than rep)."""
    return Res.delay(Res.out(v, Res.suspend(lambda: rep_fast(v))))


def echo(s: State) -> Res:
    """Echo inputs back while they are 0; terminate on the first nonzero."""

    def k(v: Val) -> Res:
        if v == 0:
            return Res.delay(Res.out(v, Res.suspend(lambda: echo(s))))
        return Res.delay(Res.ret(s))

    return Res.inp(k)


def echo_div() -> Res:
    """Like echo, but silently diverges instead of terminating."""

    def k(v: Val) -> Res:
        if v == 0:
            return Res.delay(Res.out(v, Res.suspend(echo_div)))
        return Res.delay(Res.suspend(bot))

    return Res.inp(k)


# ---------------------------------------------------------------------------
# big-step interpreter


# A context is None or (second, context): the Seq second components still to
# run, innermost first. Both interpreters walk sequences with it. It is a
# persistent linked stack, so configurations (stmt, context, state) share
# their tails and one small step allocates no Seq.
Context = tuple | None


def eval_res(stmt: Stmt, s: State) -> Res:
    """Big-step resumption semantics of While with I/O.

    Same delay placement as the pure trace semantics: skip is silent,
    assignment and guard tests each delay once; input/output statements
    perform their action and terminate. Runs CPS code (``_compile``) whose
    continuation is the rest of the run; this is the denotation of seque_res
    and loop_res below, unfolded by associativity of sequencing. Each
    statement is compiled on first entry, so a run pays only for the
    statements it reaches, and a malformed node raises ``TypeError`` when
    the run reaches it, not before.
    """
    return Res(lambda: _compile(stmt)(s, _ret))


def _ret(s: State) -> tuple:
    return ("ret", s)


# Code: a compiled statement. code(s, k) is the first observation of running
# it from s and then continuing with k, from its final state.
Code = Callable[[State, Callable[[State], tuple]], tuple]


def _skip(s: State, k: Callable[[State], tuple]) -> tuple:
    return k(s)


def _first(stmt: Stmt, ctx: Context) -> tuple | None:
    """The first statement of the configuration (stmt, ctx) that is neither
    a Seq nor a Skip, with the context after it; None if it only skips."""
    while True:
        t = type(stmt)
        if t is Seq:
            ctx = (stmt.second, ctx)
            stmt = stmt.first
        elif t is not Skip:
            return stmt, ctx
        elif ctx is None:
            return None
        else:
            stmt, ctx = ctx


def _compile(stmt: Stmt, ctx: Context = None) -> Code:
    """CPS code for the configuration (stmt, ctx).

    Only the first statement to run is compiled now: its guard or its
    expression. Each part that runs later (the branches of an if, a loop
    body, the rest of the sequence) starts as a stub that compiles it when
    first called and rebinds the variable its parent reads, so later calls
    go straight to compiled code and nothing here recurses. Skip calls k at
    once; assignment, if and each guard test emit one delay whose memo cell
    runs the rest. Sequences are walked on the context stack, as in _red
    (sequencing is associative and skip is its identity), and a loop's body
    continues with the loop's own guard test, so the calls between two
    observations are bounded by the syntax of one statement, not by the
    depth of the Seq tree or of the loop nest.
    """
    first = _first(stmt, ctx)
    if first is None:
        return _skip
    stmt, ctx = first
    t = type(stmt)
    if t is Assign:
        x, e = stmt.var, compile_aexp(stmt.expr)
        code = lambda s, k: ("delay", Res(lambda: k(s.upd(x, e(s)))), s)
    elif t is If:
        c, then, orelse = compile_bexp(stmt.cond), stmt.then, stmt.orelse

        def a(s, k):
            nonlocal a
            a = _compile(then)
            return a(s, k)

        def b(s, k):
            nonlocal b
            b = _compile(orelse)
            return b(s, k)

        code = lambda s, k: ("delay", Res(lambda: a(s, k) if c(s) else b(s, k)), s)
    elif t is While:
        c, inner = compile_bexp(stmt.cond), stmt.body

        def body(s, k):
            nonlocal body
            body = _compile(inner)
            return body(s, k)

        def code(s, k):
            def loop(s):
                return ("delay", Res(lambda: body(s, loop) if c(s) else k(s)), s)

            return loop(s)

    elif t is Input:
        x = stmt.var
        # f may be called any number of times: checkers probe and replay it
        code = lambda s, k: ("in", lambda v: Res(lambda: k(s.upd(x, v))))
    elif t is Output:
        e = compile_aexp(stmt.expr)
        code = lambda s, k: ("out", e(s), Res(lambda: k(s)))
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    # look past the Skips after stmt: code that ends a run must call k
    # itself, or each nesting level would add a frame to the final k chain
    after = None if ctx is None else _first(*ctx)
    if after is None:
        return code

    def rest(s, k):
        nonlocal rest
        rest = _compile(*after)
        return rest(s, k)

    return lambda s, k: code(s, lambda s1: rest(s1, k))


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


# ---------------------------------------------------------------------------
# small-step interpreter


class LRet(Record):
    __slots__ = __match_args__ = ("state",)

    def __init__(self, state: State):
        self.state = state


class LIn(Record):
    __slots__ = __match_args__ = ("stmt", "update")

    def __init__(self, stmt: Stmt, update: Callable[[Val], State]):
        self.stmt = stmt
        self.update = update


class LOut(Record):
    __slots__ = __match_args__ = ("value", "stmt", "state")

    def __init__(self, value: Val, stmt: Stmt, state: State):
        self.value = value
        self.stmt = stmt
        self.state = state


class LDelay(Record):
    __slots__ = __match_args__ = ("stmt", "state")

    def __init__(self, stmt: Stmt, state: State):
        self.stmt = stmt
        self.state = state


# Lconf: the labeled outcome of one small step of I/O While.
Lconf = LRet | LIn | LOut | LDelay


def _red(stmt: Stmt, k: Context, s: State) -> tuple:
    """One labeled small step of the configuration (stmt, k, s), as a
    tagged tuple:

        ("ret", state)
        ("in", stmt, k, update)        update: Val -> State
        ("out", value, stmt, k, state)
        ("delay", stmt, k, state)

    A Seq pushes its second component onto k and a Skip pops it, so only
    the focused statement is taken apart; _plug(stmt, k) is the statement
    the configuration stands for.
    """
    while True:
        t = type(stmt)
        if t is Seq:
            k = (stmt.second, k)
            stmt = stmt.first
        elif t is Skip:
            if k is None:
                return ("ret", s)
            stmt, k = k
        elif t is Assign:
            return ("delay", SKIP, k, s.upd(stmt.var, aexp(stmt.expr, s)))
        elif t is If:
            return ("delay", stmt.then if bexp(stmt.cond, s) else stmt.orelse, k, s)
        elif t is While:
            if bexp(stmt.cond, s):
                return ("delay", stmt.body, (stmt, k), s)
            return ("delay", SKIP, k, s)
        elif t is Input:
            x = stmt.var
            return ("in", SKIP, k, lambda v: s.upd(x, v))
        elif t is Output:
            return ("out", aexp(stmt.expr, s), SKIP, k, s)
        else:
            raise TypeError(f"not a statement: {stmt!r}")


def _plug(stmt: Stmt, k: Context) -> Stmt:
    """The statement that the configuration (stmt, k) stands for."""
    while k is not None:
        second, k = k
        stmt = Seq(stmt, second)
    return stmt


def red_res(stmt: Stmt, s: State) -> Lconf:
    """One labeled small step of While with I/O."""
    c = _red(stmt, None, s)
    tag = c[0]
    if tag == "delay":
        return LDelay(_plug(c[1], c[2]), c[3])
    if tag == "out":
        return LOut(c[1], _plug(c[2], c[3]), c[4])
    if tag == "in":
        return LIn(_plug(c[1], c[2]), c[3])
    return LRet(c[1])


def norm_res(stmt: Stmt, s: State) -> Res:
    """Small-step resumption semantics: repeatedly apply the reducer."""
    return _norm(stmt, None, s)


def _norm(stmt: Stmt, k: Context, s: State) -> Res:
    """The run from the configuration (stmt, k, s)."""

    def force():
        c = _red(stmt, k, s)
        tag = c[0]
        if tag == "delay":
            return ("delay", _norm(c[1], c[2], c[3]), s)
        if tag == "out":
            return ("out", c[1], _norm(c[2], c[3], c[4]))
        if tag == "in":
            stmt1, k1, f = c[1], c[2], c[3]
            return ("in", lambda v: _norm(stmt1, k1, f(v)))
        return c

    return Res(force)


# ---------------------------------------------------------------------------
# driving a resumption with scripted input

# Events are tagged tuples:
#   ("delay",) ("in", v) ("out", v) ("ret", state)
#   ("truncated",) ("input-exhausted",)
# The last three are terminal.
Event = tuple


def drive(r: Res, next_input: Callable[[], Val | None], fuel: int) -> Iterator[Event]:
    """Yield the events of running r; next_input() supplies input values
    (None meaning no more input). Every delay, in, and out consumes one
    fuel; a terminal event always closes the stream."""
    while True:
        if fuel <= 0:
            yield ("truncated",)
            return
        obs = r.step()
        tag = obs[0]
        if tag == "ret":
            yield ("ret", obs[1])
            return
        if tag == "in":
            v = next_input()
            if v is None:
                yield ("input-exhausted",)
                return
            yield ("in", v)
            r = obs[1](v)
        elif tag == "out":
            yield ("out", obs[1])
            r = obs[2]
        else:
            yield ("delay",)
            r = obs[1]
        fuel -= 1


def run_events(r: Res, script: Iterable[Val], fuel: int) -> list[Event]:
    """Run r against a finite input script; returns the full event log."""
    it = iter(script)
    return list(drive(r, lambda: next(it, None), fuel))
