"""Resumptions and the two interpreters for While with interactive I/O.

A resumption describes all possible evolutions of a program: it has either
terminated (``ret``), waits for an input value and branches on it (``in``),
emits an output value (``out``), or takes a silent step (``delay``).
``step()`` returns one of the tagged tuples

    ("ret", state)
    ("in", continuation)        continuation: Val -> Res, total and pure
    ("out", value, rest)
    ("delay", rest, state)      state: where the silent step was taken

computed on demand, so infinite resumptions are observed incrementally in
bounded time per step. The interpreters record in each delay the state the
step starts from; the hand-built stock resumptions have no state and record
None. A trace is a resumption that never does input or output:
``trace.Trace`` reads ``("delay", rest, s)`` as ``(s, rest)`` and
``("ret", s)`` as ``(s, None)``.

A resumption is a suspension ``Res(fn, arg)``, and ``fn(arg)`` is its
observation in raw form, each rest a function and its argument:
``("out", value, fn, arg)`` and ``("delay", fn, arg, state)``. An input
``("in", fn, arg)`` that reads v leaves the rest ``fn`` with the argument
``(arg, v)``. ``step()`` makes that call, and it alone puts a rest in a
``Res``: a new one, or for an input a continuation that makes one per
call. It caches nothing, so a held resumption keeps none of the run it
has shown. Every run the library makes (``drive``, ``trace.walk`` and
the checkers in ``checks``) calls the pairs itself from the root
``(_raw, r)``, ``_raw(r)`` being r's observation in raw form, and makes
no ``Res``. The stock constructors (``Res.delay`` and the rest) hold an
observation already made, under the identity ``_same``, with a rest r as
r's own pair ``(r._fn, r._arg)``, so every rest has one form.

The big-step interpreter ``eval_res`` runs code made by ``_compile`` when a
statement is first entered, so a run compiles only what it reaches. All
code that runs later is reached through a link, a one-item list
``[code]`` that first holds a stub, which compiles the code and puts it in
its place: a statement calls the code after it as ``rest[0](s)``, and a
rest is that code or a function made at compile time, with the state as
its argument.
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
from operator import index

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
    wrap,
)


class Res:
    """A suspended resumption: a function and its argument, whose call
    ``fn(arg)`` is its observation in raw form. ``step()`` makes that call
    each time it is called and keeps nothing."""

    __slots__ = ("_fn", "_arg")

    def __init__(self, fn: Callable[[object], tuple], arg: object):
        self._fn = fn
        self._arg = arg

    def step(self) -> tuple:
        obs = self._fn(self._arg)
        if obs[0] == "delay":
            return ("delay", Res(obs[1], obs[2]), obs[3])
        if obs[0] == "out":
            return ("out", obs[1], Res(obs[2], obs[3]))
        if obs[0] == "in":
            return ("in", partial(_feed, obs[1], obs[2]))
        return obs

    @staticmethod
    def ret(s: State) -> "Res":
        return Res(_same, ("ret", s))

    @staticmethod
    def inp(f: Callable[[Val], "Res"]) -> "Res":
        return Res(_same, ("in", _apply, f))

    @staticmethod
    def out(v: Val, rest: "Res") -> "Res":
        return Res(_same, ("out", v, rest._fn, rest._arg))

    @staticmethod
    def delay(rest: "Res", s: State | None = None) -> "Res":
        return Res(_same, ("delay", rest._fn, rest._arg, s))

    @staticmethod
    def suspend(make: Callable[[], "Res"]) -> "Res":
        return Res(_first_of, make)


def _raw(r: Res) -> tuple:
    """The observation of r in raw form."""
    return r._fn(r._arg)


def _same(obs: tuple) -> tuple:
    return obs


def _apply(fv: tuple) -> tuple:
    """The raw observation of f(v), for the pair (f, v) of a continuation
    f: Val -> Res and a value v."""
    f, v = fv
    return _raw(f(v))


def _feed(fn: Callable[[tuple], tuple], arg: object, v: Val) -> Res:
    """The run after a raw input observation ("in", fn, arg) reads v."""
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
    makes, in which each statement calls the code of the one after it
    through a link. This is the denotation of the paper's combinators for
    ``;`` and ``while``, unfolded by associativity of ``;``.
    ``tests/paper.py`` keeps those combinators as the reference that this
    interpreter is tested against. Each statement is compiled on first
    entry, so a run compiles only the statements it reaches, and a
    malformed node raises ``TypeError`` when the run reaches it, not
    before.
    """
    return Res(_link(stmt, ([_ret], None))[0], s)


def _ret(s: State) -> tuple:
    return ("ret", s)


# Code: compiled statements. code(s) is the first observation, in raw form,
# of running them from s and then the rest of the program.
Code = Callable[[State], tuple]


def _link(stmt: Stmt, ctx: Context) -> list:
    """The link to the code of the configuration (stmt, ctx): a one-item
    list [code], shared by all the code that runs before it.

    The leading Seq and Skip nodes are walked on the context stack, as in
    _resume. If that reaches the link that ctx ends in, nothing runs
    before it, and it is the link returned. Otherwise the new link holds a
    stub that compiles the first statement on its first call, puts the code
    in the link and runs it. A raw observation made before that call holds
    the stub as its rest and may be called again, so a later call of the
    stub only forwards to the code.
    """
    while True:
        t = type(stmt)
        if t is Seq:
            ctx = (stmt.second, ctx)
            stmt = stmt.first
        elif t is Skip:
            stmt, ctx = ctx
        elif t is list:
            return stmt
        else:
            break

    def stub(s):
        if link[0] is stub:
            link[0] = _compile(stmt, ctx)
        return link[0](s)

    link = [stub]
    return link


def _delay(then: Code) -> Code:
    """Code that takes one silent step from s, whose rest is then(s)."""
    return lambda s: ("delay", then, s, s)


def _compile(stmt: Stmt, ctx: Context) -> Code:
    """Code for the configuration (stmt, ctx), stmt neither a Seq nor a Skip.

    Only stmt is compiled now: its guard or its expression. Everything that
    runs later is reached through a link made by _link: the code after it,
    ``rest``, the branches of an if and a loop body. The branches' context
    ends in ``rest``, so they share the code after the if, and a loop body's
    ends in the link of the loop's own guard test. Nothing here recurses,
    and the calls between two observations are bounded by the syntax of one
    statement, not by the depth of the Seq tree or of the loop nest.
    """
    rest = _link(*ctx)
    t = type(stmt)
    if t is Assign:
        x, e = stmt.var, compile_aexp(stmt.expr)
        return _delay(lambda s: rest[0](s._set(x, e(s))))
    if t is If:
        c = compile_bexp(stmt.cond)
        a, b = _link(stmt.then, (rest, None)), _link(stmt.orelse, (rest, None))
        return _delay(lambda s: a[0](s) if c(s) else b[0](s))
    if t is While:
        c = compile_bexp(stmt.cond)
        test = [_delay(lambda s: body[0](s) if c(s) else rest[0](s))]
        body = _link(stmt.body, (test, None))
        return test[0]
    if t is Input:
        x = stmt.var

        # called any number of times: checkers probe and replay it
        def read(sv):
            s, v = sv
            return rest[0](s.upd(x, v))

        return lambda s: ("in", read, s)
    if t is Output:
        e = compile_aexp(stmt.expr)
        return lambda s: ("out", e(s), rest[0], s)
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


def _fuel(fuel: int) -> int:
    """The fuel of a run, checked: an int of at least 0. A value that is
    not an integer raises TypeError, a negative one ValueError. drive,
    trace.walk and checks.trace_eq all take their fuel through this."""
    fuel = index(fuel)
    if fuel < 0:
        raise ValueError(f"fuel must be non-negative, got {fuel}")
    return fuel


def drive(r: Res, next_input: Callable[[], Val | None], fuel: int) -> Iterator[Event]:
    """Yield the events of running r; next_input() supplies input values
    (None meaning no more input), each shown as the program reads it. Every
    delay, in, and out consumes one fuel, an int of at least 0, checked by
    _fuel when the first event is asked for; a terminal event always closes
    the stream. It steps raw observations and makes no Res."""
    fn, arg = _raw, r
    for _ in range(_fuel(fuel)):
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
            if type(v) is not int or v.bit_length() > 63:
                v = wrap(v)  # a non-int raises TypeError
            yield ("in", v)
            fn, arg = obs[1], (obs[2], v)
        else:
            yield ("ret", obs[1])
            return
    yield ("truncated",)


def run_events(r: Res, script: Iterable[Val], fuel: int) -> list[Event]:
    """Run r against a finite input script; returns the full event log."""
    it = iter(script)
    return list(drive(r, lambda: next(it, None), fuel))
