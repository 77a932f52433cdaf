"""Reference semantics for While with I/O, written apart from `coindwhile`.

Programs are plain tuples:

    aexp  ('num', n) ('var', name) ('add'|'sub'|'mul', a, a)
    bexp  ('tt',) ('ff',) ('eq'|'le', a, a) ('not', b) ('and'|'or', b, b)
    stmt  ('skip',) ('block', (stmt, ...)) ('assign', name, a)
          ('if', b, stmt, stmt) ('while', b, stmt) ('input', name)
          ('output', a)

States are dicts from names to signed 64-bit values that hold no binding to
0. The machine follows the delay rules the project README states: `skip`
is silent; an assignment, an `if` and every guard test take one delay;
`input` and `output` are one event each and take no delay. A machine is an
explicit stack of pending statements, so no Python recursion grows with the
size of a program, and a configuration is copied to branch on an input.
"""

from __future__ import annotations

_MOD = 1 << 64
_HALF = 1 << 63

DELAY = ("delay",)
RET = ("ret",)


def wrap(n: int) -> int:
    return (n + _HALF) % _MOD - _HALF


def aval(a, env) -> int:
    tag = a[0]
    if tag == "num":
        return wrap(a[1])
    if tag == "var":
        return env.get(a[1], 0)
    x, y = aval(a[1], env), aval(a[2], env)
    if tag == "add":
        return wrap(x + y)
    if tag == "sub":
        return wrap(x - y)
    return wrap(x * y)


def bval(b, env) -> bool:
    tag = b[0]
    if tag == "tt":
        return True
    if tag == "ff":
        return False
    if tag == "eq":
        return aval(b[1], env) == aval(b[2], env)
    if tag == "le":
        return aval(b[1], env) <= aval(b[2], env)
    if tag == "not":
        return not bval(b[1], env)
    if tag == "and":
        return bval(b[1], env) and bval(b[2], env)
    return bval(b[1], env) or bval(b[2], env)


def assign(env: dict, x: str, v: int) -> None:
    v = wrap(v)
    if v:
        env[x] = v
    else:
        env.pop(x, None)


def step(stack: list, env: dict):
    """Run silently to the next observable and return it: DELAY, RET,
    ('out', v) or ('in', name). For ('in', name) the caller binds the input
    with `assign` before the next step. Mutates stack and env."""
    while stack:
        s = stack.pop()
        tag = s[0]
        if tag == "block":
            stack.extend(reversed(s[1]))
        elif tag == "assign":
            assign(env, s[1], aval(s[2], env))
            return DELAY
        elif tag == "if":
            stack.append(s[2] if bval(s[1], env) else s[3])
            return DELAY
        elif tag == "while":
            if bval(s[1], env):
                stack.append(s)
                stack.append(s[2])
            return DELAY
        elif tag == "output":
            return ("out", aval(s[1], env))
        elif tag == "input":
            return ("in", s[1])
    return RET


# ---------------------------------------------------------------------------
# observing one run


def iter_states(prog, env: dict, fuel: int, key):
    """The trace prefix of a pure program as `take` defines it, one item at
    a time: key(state) for each state (at most `fuel` delays, the final
    state free), then True if the run ended within the fuel, else False."""
    stack, env = [prog], dict(env)
    n = 0
    while True:
        k = key(env)
        ev = step(stack, env)
        if ev is RET:
            yield k
            yield True
            return
        if ev is not DELAY:
            raise ValueError("iter_states() is for programs without input/output")
        if n == fuel:
            yield False
            return
        yield k
        n += 1


def states(prog, env: dict, fuel: int, key):
    """iter_states() as ([key(state), ...], ended)."""
    *out, ended = iter_states(prog, env, fuel, key)
    return out, ended


def iter_events(prog, env: dict, script, fuel: int, key):
    """The event log `drive` defines, one event at a time: ('delay',)
    ('in', v) ('out', v) ('ret', key(state)) ('truncated',)
    ('input-exhausted',); every delay, input and output costs one fuel."""
    stack, env = [prog], dict(env)
    it = iter(script)
    while True:
        if fuel <= 0:
            yield ("truncated",)
            return
        ev = step(stack, env)
        if ev is RET:
            yield ("ret", key(env))
            return
        if ev[0] == "in":
            v = next(it, None)
            if v is None:
                yield ("input-exhausted",)
                return
            assign(env, ev[1], v)
            yield ("in", wrap(v))
        else:
            yield ev
        fuel -= 1


def events(prog, env: dict, script, fuel: int, key) -> list:
    """iter_events() as a list."""
    return list(iter_events(prog, env, script, fuel, key))


# ---------------------------------------------------------------------------
# bounded properties


def _visible(stack, env, cap: int):
    """Skip at most `cap` delays; the next observable, or None if the run
    is still silent after that many."""
    for _ in range(cap + 1):
        ev = step(stack, env)
        if ev is not DELAY:
            return ev
    return None


def responsive(prog, latency: int, depth: int, sample) -> tuple | None:
    """None if, on every path that feeds values of `sample`, each of the
    first `depth` silent stretches has at most `latency` delays; otherwise
    the path of ('in', v) / ('out', v) steps to the first longer stretch,
    searched depth first in sample order."""

    def go(stack, env, depth, path):
        if depth <= 0:
            return None
        ev = _visible(stack, env, latency)
        if ev is None:
            return path
        if ev is RET:
            return None
        if ev[0] == "out":
            return go(stack, env, depth - 1, path + (ev,))
        for v in sample:
            env1 = dict(env)
            assign(env1, ev[1], v)
            found = go(list(stack), env1, depth - 1, path + (("in", v),))
            if found is not None:
                return found
        return None

    return go([prog], {}, depth, ())


def head_after(prog, path, cap: int, key):
    """Follow a path of ('in', v) / ('out', v) steps, skipping at most `cap`
    delays before each, and describe the next observable as ('ret', key)
    ('in',) or ('out', v). None if the run leaves the path or stays silent."""
    stack, env = [prog], {}
    for want in path:
        ev = _visible(stack, env, cap)
        if ev is None or ev is RET or ev[0] != want[0]:
            return None
        if want[0] == "in":
            assign(env, ev[1], want[1])
        elif ev[1] != want[1]:
            return None
    ev = _visible(stack, env, cap)
    if ev is None:
        return None
    if ev is RET:
        return ("ret", key(env))
    return ("in",) if ev[0] == "in" else ev


def first_difference(prog_a, prog_b, depth: int, sample, cap: int, key):
    """Lock-step search over the visible events of two programs, feeding
    values of `sample`: the first path whose next heads differ, or None if
    none does within `depth` events. Stretches longer than `cap` delays are
    treated as a head of their own."""

    def go(sa, ea, sb, eb, depth, path):
        if depth <= 0:
            return None
        ha, hb = _visible(sa, ea, cap), _visible(sb, eb, cap)
        ka = ("ret", key(ea)) if ha is RET else ha and ha[0]
        kb = ("ret", key(eb)) if hb is RET else hb and hb[0]
        if ka != kb or (ka == "out" and ha[1] != hb[1]):
            return path
        if ha is None or ha is RET:
            return None
        if ka == "out":
            return go(sa, ea, sb, eb, depth - 1, path + (ha,))
        for v in sample:
            ea1, eb1 = dict(ea), dict(eb)
            assign(ea1, ha[1], v)
            assign(eb1, hb[1], v)
            found = go(list(sa), ea1, list(sb), eb1, depth - 1, path + (("in", v),))
            if found is not None:
                return found
        return None

    return go([prog_a], {}, [prog_b], {}, depth, ())


# ---------------------------------------------------------------------------
# concrete syntax

_ARITH = {"add": ("+", 1), "sub": ("-", 1), "mul": ("*", 2)}
_LOGIC = {"or": ("or", 1), "and": ("and", 2)}


def render_a(a, ctx: int = 0) -> str:
    tag = a[0]
    if tag == "num":
        return str(a[1])
    if tag == "var":
        return a[1]
    op, prec = _ARITH[tag]
    text = f"{render_a(a[1], prec)} {op} {render_a(a[2], prec + 1)}"
    return f"({text})" if prec < ctx else text


def render_b(b, ctx: int = 0) -> str:
    tag = b[0]
    if tag in ("tt", "ff"):
        return tag
    if tag == "eq":
        return f"{render_a(b[1])} = {render_a(b[2])}"
    if tag == "le":
        return f"{render_a(b[1])} <= {render_a(b[2])}"
    if tag == "not":
        text, prec = f"not {render_b(b[1], 3)}", 3
    else:
        op, prec = _LOGIC[tag]
        text = f"{render_b(b[1], prec)} {op} {render_b(b[2], prec + 1)}"
    return f"({text})" if prec < ctx else text


def render(s) -> str:
    """One-line source text; `;` chains are flattened."""
    tag = s[0]
    if tag == "skip":
        return "skip"
    if tag == "block":
        return " ; ".join(render(x) for x in s[1])
    if tag == "assign":
        return f"{s[1]} := {render_a(s[2])}"
    if tag == "if":
        return f"if {render_b(s[1])} then {render(s[2])} else {render(s[3])} fi"
    if tag == "while":
        return f"while {render_b(s[1])} do {render(s[2])} od"
    if tag == "input":
        return f"input {s[1]}"
    return f"output {render_a(s[1])}"


def has_io(s) -> bool:
    tag = s[0]
    if tag in ("input", "output"):
        return True
    if tag == "block":
        return any(has_io(x) for x in s[1])
    if tag == "if":
        return has_io(s[2]) or has_io(s[3])
    return tag == "while" and has_io(s[2])
