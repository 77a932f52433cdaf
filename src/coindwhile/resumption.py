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

A resumption is a memo cell ``Res(fn, arg)``, and ``fn(arg)`` is its
observation in raw form, each rest a function and its argument:
``("out", value, fn, arg)`` and ``("delay", fn, arg, state)``. An input
``("in", fn, arg)`` that reads v leaves the rest ``fn`` with the argument
``(arg, v)``. Only ``step()`` memoizes: it puts the rest in a new cell, or
for an input gives a continuation that makes one per call. A run that
looks at each observation once (``drive``, ``trace.walk``,
``checks.trace_eq`` and ``checks.strip_delays``) calls the pairs itself
and makes no cell; ``_raw(r)`` gives any cell's observation in raw form,
forced or not.

The big-step interpreter ``eval_res`` runs code made by ``_compile`` when a
statement is first entered, so a run compiles only what it reaches; each
statement calls the code of the one after it directly, and a rest is that
code or a function made at compile time, with the state as its argument.
The small-step interpreter ``norm_res`` runs configurations
``(stmt, context, state)``. The context is the stack of ``Seq`` second
components still to run, and it is kept from one step to the next
(refocusing, Danvy & Nielsen 2004), so a step costs the same however deeply
the running statement sits inside nested ``Seq`` nodes. Any other
statement is stepped by a function built by ``_step`` when the statement
is first reached and cached on its node, so no step dispatches on the
statement's syntax. That function returns the raw observation itself,
and its rest is ``_resume`` with the configuration after the step. The
paper's one-step reduction ``red``, which plugs the context back into a
statement, is kept in ``tests/paper.py`` as the reference. Both
interpreters evaluate expressions through the closures that
``syntax.compile_aexp``/``compile_bexp`` cache on the expression nodes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import partial

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
    Val,
    While,
    compile_aexp,
    compile_bexp,
)


class Res:
    """A suspended resumption; ``step()`` forces it once, as ``fn(arg)``,
    memoizes the observation and drops ``fn`` and ``arg``."""

    __slots__ = ("_fn", "_arg", "_obs")

    def __init__(self, fn: Callable[[object], tuple], arg: object):
        self._fn = fn
        self._arg = arg
        self._obs = None

    def step(self) -> tuple:
        obs = self._obs
        if obs is None:
            obs = self._obs = _memo(self._fn(self._arg))
            self._fn = self._arg = None
        return obs

    @staticmethod
    def _of(obs: tuple) -> "Res":
        r = Res.__new__(Res)
        r._fn = r._arg = None
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
        return Res(_first_of, make)


def _raw(r: Res) -> tuple:
    """The observation of r in raw form. It memoizes nothing: a cell not
    yet forced is computed afresh, and a forced one hands back its rest as
    the pair (_raw, cell)."""
    obs = r._obs
    if obs is None:
        return r._fn(r._arg)
    tag = obs[0]
    if tag == "delay":
        return ("delay", _raw, obs[1], obs[2])
    if tag == "out":
        return ("out", obs[1], _raw, obs[2])
    if tag == "in":
        return ("in", _apply, obs[1])
    return obs


def _memo(obs: tuple) -> tuple:
    """The raw observation obs as step() returns it: its rest in a cell,
    and for an input, a continuation that makes one."""
    tag = obs[0]
    if tag == "delay":
        fn, arg = obs[1], obs[2]
        return ("delay", arg if fn is _raw else Res(fn, arg), obs[3])
    if tag == "out":
        fn, arg = obs[2], obs[3]
        return ("out", obs[1], arg if fn is _raw else Res(fn, arg))
    if tag == "in":
        fn, arg = obs[1], obs[2]
        return ("in", arg if fn is _apply else partial(_feed, fn, arg))
    return obs


def _apply(fv: tuple) -> tuple:
    """The raw observation of f(v), for the pair (f, v) of a continuation
    f: Val -> Res and a value v."""
    f, v = fv
    return _raw(f(v))


def _feed(fn: Callable[[tuple], tuple], arg: object, v: Val) -> Res:
    """The cell of the run after a raw input observation ("in", fn, arg)
    reads v."""
    return Res(fn, (arg, v))


def _first_of(make: Callable[[], Res]) -> tuple:
    return _raw(make())


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
# run, innermost first. Both interpreters walk Seq nodes with it. It is a
# persistent linked stack, so configurations (stmt, context, state) share
# their tails and one small step allocates no Seq. In _compile a context ends
# in a link instead of None: the code that runs after its statements.
Context = tuple | None


def eval_res(stmt: Stmt, s: State) -> Res:
    """Big-step resumption semantics of While with I/O.

    Same delay placement as the pure trace semantics: skip is silent,
    assignment and guard tests each delay once; input/output statements
    perform their action and terminate. Runs the code that ``_compile``
    makes, in which each statement calls the code of the one after it. This
    is the denotation of the paper's combinators for ``;`` and ``while``,
    unfolded by associativity of ``;``. ``tests/paper.py`` keeps those
    combinators as the reference that this interpreter is tested against.
    Each statement is compiled on first entry, so a run pays only for the
    statements it reaches, and a malformed node raises ``TypeError`` when
    the run reaches it, not before.
    """
    return Res(lambda s: _compile(stmt, ([_ret, None], None))(s), s)


def _ret(s: State) -> tuple:
    return ("ret", s)


# Code: compiled statements. code(s) is the first observation, in raw form,
# of running them from s and then the rest of the program.
Code = Callable[[State], tuple]

# A link is a list [code, conf]: the code that runs after some statements,
# shared by all the code that can run before it. Until first called it is
# [None, conf], and conf is the configuration (stmt, context) to compile.
def _link(link: list) -> Code:
    """The code of a link, compiled now if it has not been yet."""
    code = link[0]
    if code is None:
        code = link[0] = _compile(*link[1])
        link[1] = None
    return code


def _first(stmt: Stmt, ctx: Context) -> tuple:
    """The first statement of the configuration (stmt, ctx) that is neither
    a Seq nor a Skip, or else the link that ctx ends in, with the context
    after it."""
    while True:
        t = type(stmt)
        if t is Seq:
            ctx = (stmt.second, ctx)
            stmt = stmt.first
        elif t is Skip:
            stmt, ctx = ctx
        else:
            return stmt, ctx


def _delay(then: Code) -> Code:
    """Code that takes one silent step from s, whose rest is then(s)."""
    return lambda s: ("delay", then, s, s)


def _compile(stmt: Stmt, ctx: Context) -> Code:
    """Code for the configuration (stmt, ctx).

    Only the first statement to run is compiled now: its guard or its
    expression. Each part that runs later (the code after it, ``rest``, the
    branches of an if, a loop body) starts as a stub that compiles it when
    first called and rebinds the variable its parent reads, so later calls
    go straight to compiled code and nothing here recurses. Sequences are
    walked on the context stack, as in _resume. A context ends in a link to
    the code after it: the branches of an if share the if's, and a loop
    body's is the loop's own guard test. Every stub that reads a link
    rebinds to the link's code, whichever ran first. So the calls between
    two observations are bounded by the syntax of one statement, not by the
    depth of the Seq tree or of the loop nest.
    """
    stmt, ctx = _first(stmt, ctx)
    if type(stmt) is list:
        return _link(stmt)
    after = _first(*ctx)
    link = after[0] if type(after[0]) is list else [None, after]
    rest = link[0]
    if rest is None:

        def rest(s):
            # observations made before its first call hold this stub; a
            # call through it after that only forwards
            nonlocal rest
            rest = _link(link)
            return rest(s)

    t = type(stmt)
    if t is Assign:
        x, e = stmt.var, compile_aexp(stmt.expr)
        return _delay(lambda s: rest(s._set(x, e(s))))
    if t is If:
        c, then, orelse = compile_bexp(stmt.cond), stmt.then, stmt.orelse

        def a(s):
            nonlocal a
            a = _compile(then, (link, None))
            return a(s)

        def b(s):
            nonlocal b
            b = _compile(orelse, (link, None))
            return b(s)

        return _delay(lambda s: a(s) if c(s) else b(s))
    if t is While:
        c, inner = compile_bexp(stmt.cond), stmt.body

        def body(s):
            nonlocal body
            body = _compile(inner, ([test, None], None))
            return body(s)

        test = _delay(lambda s: body(s) if c(s) else rest(s))
        return test
    if t is Input:
        x = stmt.var

        # called any number of times: checkers probe and replay it
        def read(sv):
            s, v = sv
            return rest(s.upd(x, v))

        return lambda s: ("in", read, s)
    if t is Output:
        e = compile_aexp(stmt.expr)
        return lambda s: ("out", e(s), rest, s)
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# small-step interpreter


def norm_res(stmt: Stmt, s: State) -> Res:
    """Small-step resumption semantics: repeatedly apply the reducer."""
    return Res(_resume, (stmt, None, s))


def _resume(c: tuple) -> tuple:
    """The raw observation of the configuration c = (stmt, k, s): one
    labelled small step, whose rest is _resume of the configuration after
    it (for an input, _read). A delay records s, the state the step starts
    from.

    A Seq pushes its second component onto k and a Skip pops it, so only
    the focused statement is taken apart. Any other statement is stepped by
    the function that _step built for it and cached on the node.
    """
    stmt, k, s = c
    while True:
        t = type(stmt)
        if t is Seq:
            k = (stmt.second, k)
            stmt = stmt.first
        elif t is Skip:
            if k is None:
                return ("ret", s)
            stmt, k = k
        else:
            try:
                step = stmt._step
            except AttributeError:  # not built yet, or not a statement
                step = _step(stmt)
            return step(stmt, k, s)


def _step(stmt: Stmt) -> Callable[[Stmt, Context, State], tuple]:
    """The one-step reducer of stmt, neither a Seq nor a Skip, cached on
    it: step(stmt, k, s) is _resume((stmt, k, s)). It is built when _resume
    first reaches stmt, so a malformed node raises TypeError only then. The
    node is passed in, not captured, so that it is in no reference cycle
    with its own step."""
    t = type(stmt)
    if t is Assign:
        x, e = stmt.var, compile_aexp(stmt.expr)
        step = lambda node, k, s: ("delay", _resume, (SKIP, k, s._set(x, e(s))), s)
    elif t is If:
        c, then, orelse = compile_bexp(stmt.cond), stmt.then, stmt.orelse
        step = lambda node, k, s: ("delay", _resume,
                                   (then if c(s) else orelse, k, s), s)
    elif t is While:
        c, body = compile_bexp(stmt.cond), stmt.body
        step = lambda node, k, s: (("delay", _resume, (body, (node, k), s), s) if c(s)
                                   else ("delay", _resume, (SKIP, k, s), s))
    elif t is Input:
        x = stmt.var
        step = lambda node, k, s: ("in", _read, (x, k, s))
    elif t is Output:
        e = compile_aexp(stmt.expr)
        step = lambda node, k, s: ("out", e(s), _resume, (SKIP, k, s))
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    stmt._step = step
    return step


def _read(cv: tuple) -> tuple:
    """The raw observation of the run after an input into x, waiting in
    the context k at the state s, reads v, for the pair ((x, k, s), v)."""
    (x, k, s), v = cv
    return _resume((SKIP, k, s.upd(x, v)))


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
    fuel; a terminal event always closes the stream. It steps raw
    observations and makes no cell."""
    fn, arg = _raw, r
    del r  # a held head would keep any cells already memoized behind it
    while True:
        if fuel <= 0:
            yield ("truncated",)
            return
        obs = fn(arg)
        tag = obs[0]
        if tag == "delay":
            yield ("delay",)
            fn, arg = obs[1], obs[2]
        elif tag == "out":
            yield ("out", obs[1])
            fn, arg = obs[2], obs[3]
        elif tag == "in":
            v = next_input()
            if v is None:
                yield ("input-exhausted",)
                return
            yield ("in", v)
            fn, arg = obs[1], (obs[2], v)
        else:
            yield ("ret", obs[1])
            return
        fuel -= 1


def run_events(r: Res, script: Iterable[Val], fuel: int) -> list[Event]:
    """Run r against a finite input script; returns the full event log."""
    it = iter(script)
    return list(drive(r, lambda: next(it, None), fuel))
