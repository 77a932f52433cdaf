"""Seeded generator of While programs for the benchmark, in the tuple syntax
of `reference.py`; it shares no code with `coindwhile`.

Loops are counted (`iN := 0 ; while iN <= k do ... ; iN := iN + 1 od`, with
k at most 3 and at most three loops nested), and `skip` only ever stands
alone in an `else` branch, so no run has a long stretch of silent steps.
Data variables are `a` to `e`; counters `i0` to `i2` are never assigned in
loop bodies.
"""

from __future__ import annotations

import random

DATA = ("a", "b", "c", "d", "e")
MAX_NEST = 3


def _aexp(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.6:
            return ("var", rng.choice(DATA))
        if rng.random() < 0.1:
            return ("num", rng.randrange(1 << 62))
        return ("num", rng.randrange(20))
    op = rng.choice(("add", "add", "sub", "mul"))
    return (op, _aexp(rng, depth - 1), _aexp(rng, depth - 1))


def _bexp(rng: random.Random, depth: int):
    r = rng.random()
    if depth <= 0 or r < 0.55:
        if rng.random() < 0.05:
            return (rng.choice(("tt", "ff")),)
        return (rng.choice(("eq", "le", "le")), _aexp(rng, 2), _aexp(rng, 2))
    if r < 0.7:
        return ("not", _bexp(rng, depth - 1))
    return (rng.choice(("and", "or")), _bexp(rng, depth - 1), _bexp(rng, depth - 1))


def _block(rng: random.Random, n: int, nest: int, io: bool) -> list:
    """Statements using about n simple statements in all."""
    out = []
    while n > 0:
        r = rng.random()
        if n >= 3 and nest < MAX_NEST and r < 0.14:
            size = rng.randint(2, min(n, 24))
            n -= size
            then = _block(rng, (size + 1) // 2, nest + 1, io)
            orelse = (
                [("skip",)] if rng.random() < 0.25
                else _block(rng, max(1, size // 2), nest + 1, io)
            )
            out.append(("if", _bexp(rng, 2), _seq(then), _seq(orelse)))
        elif n >= 3 and nest < MAX_NEST and r < 0.26:
            size = rng.randint(2, min(n, 16))
            n -= size
            i = f"i{nest}"
            body = _block(rng, size - 1, nest + 1, io)
            body.append(("assign", i, ("add", ("var", i), ("num", 1))))
            out.append(("assign", i, ("num", 0)))
            out.append(("while", ("le", ("var", i), ("num", rng.randint(1, 3))),
                        ("block", tuple(body))))
        elif io and r < 0.36:
            n -= 1
            out.append(("output", _aexp(rng, 2)))
        elif io and r < 0.42:
            n -= 1
            out.append(("input", rng.choice(DATA)))
        else:
            n -= 1
            out.append(("assign", rng.choice(DATA), _aexp(rng, 2)))
    return out


def _seq(stmts: list):
    return stmts[0] if len(stmts) == 1 else ("block", tuple(stmts))


def program(rng: random.Random, size: int, io: bool, forever: bool):
    """A program of about `size` simple statements; with `forever` it ends
    in `while tt do ... od`, so every run uses its whole fuel."""
    stmts = _block(rng, size, 0, io)
    if forever:
        body = _block(rng, 3, MAX_NEST, io)
        if io:
            body.append(("output", _aexp(rng, 1)))
        stmts.append(("while", ("tt",), _seq(body)))
    return ("block", tuple(stmts))


# ---------------------------------------------------------------------------
# twins


def _positions(s, path=()):
    """Preorder (path, stmt) over every statement below a block."""
    yield path, s
    tag = s[0]
    if tag == "block":
        for i, x in enumerate(s[1]):
            yield from _positions(x, path + (i,))
    elif tag == "if":
        yield from _positions(s[2], path + (2,))
        yield from _positions(s[3], path + (3,))
    elif tag == "while":
        yield from _positions(s[2], path + (2,))


def _replace(s, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if s[0] == "block":
        items = list(s[1])
        items[i] = _replace(items[i], rest, new)
        return ("block", tuple(items))
    items = list(s)
    items[i] = _replace(items[i], rest, new)
    return tuple(items)


def padded(rng: random.Random, prog, pads: int = 3):
    """The same program with `pads` silent steps `v := v` inserted after
    randomly chosen statements: delay-bisimilar to the original."""
    for _ in range(pads):
        spots = [(p, s) for p, s in _positions(prog) if s[0] not in ("block", "skip")]
        path, s = rng.choice(spots)
        v = rng.choice(DATA)
        prog = _replace(prog, path, ("block", (s, ("assign", v, ("var", v)))))
    return prog


def mutated(rng: random.Random, prog):
    """The same program with one assigned or printed expression e made e + 1;
    a program with neither, only inputs, gets `a := a + 1` appended."""
    spots = [(p, s) for p, s in _positions(prog) if s[0] in ("assign", "output")]
    if not spots:
        return ("block", (prog, ("assign", "a", ("add", ("var", "a"), ("num", 1)))))
    path, s = rng.choice(spots)
    return _replace(prog, path, s[:-1] + (("add", s[-1], ("num", 1)),))
