"""The work per observation is bounded by the syntax of one statement.

Big-step runs compiled CPS code and small-step keeps its evaluation context
as a stack, so in all four interpreters the Python calls per observation
grow neither with the loop nest nor with the depth of the Seqs around the
running statement, and a deep Seq spine does not recurse. Both must still
produce the same runs.
"""

import sys
from itertools import repeat
from pathlib import Path

import pytest

from coindwhile.checks import EquivalentUpToBounds, trace_eq
from coindwhile.parse import parse
from coindwhile.resumption import (
    LDelay,
    drive,
    eval_res,
    norm_res,
    red_res,
    run_events,
)
from coindwhile.syntax import Assign, NumLit, Seq, Skip, State, is_pure
from coindwhile.trace import eval_trace, norm, red, take

EMPTY = State.empty()
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def nest(depth):
    """s := 7 ; while tt do <depth counted loops around s := s * 3 + v> od"""
    body = "s := s * 3 + v0"
    for d in range(depth):
        body = (f"v{d} := 0 ; while v{d} <= 2 do {body} ; "
                f"v{d} := v{d} + 1 od")
    stmt, _ = parse(f"s := 7 ; while tt do {body} od")
    return stmt


NESTED = nest(3)  # the shape of the benchmark's nested stream program


def left_chain(n):
    stmt = Assign(0, NumLit(1))
    for i in range(n - 1):
        stmt = Seq(stmt, Assign(0, NumLit(i + 2)))
    return stmt


def spine_depth(stmt):
    depth = 0
    while type(stmt) is Seq:
        stmt, depth = stmt.first, depth + 1
    return depth, stmt


class TestDeepSeqSpine:
    def test_red_does_not_recurse(self):
        stmt, s = red(left_chain(5000), EMPTY)
        assert s == EMPTY.upd(0, 1)
        assert spine_depth(stmt) == (4999, Skip())
        stmt, s = red(stmt, s)
        assert s == EMPTY.upd(0, 2) and spine_depth(stmt) == (4998, Skip())

    def test_red_res_does_not_recurse(self):
        c = red_res(left_chain(5000), EMPTY)
        assert type(c) is LDelay and c.state == EMPTY.upd(0, 1)
        assert spine_depth(c.stmt) == (4999, Skip())

    def test_interpreters_run_a_deep_chain(self):
        stmt = left_chain(5000)
        assert is_pure(stmt)
        want = take(eval_trace(stmt, EMPTY), 10)
        assert take(norm(stmt, EMPTY), 10) == want
        assert want.states[-1] == EMPTY.upd(0, 9)
        log = run_events(eval_res(stmt, EMPTY), [], 10)
        assert run_events(norm_res(stmt, EMPTY), [], 10) == log
        assert log == [("delay",)] * 10 + [("truncated",)]


def calls_per_observation(observe, n=2000):
    """Python function calls made while taking n observations, over n."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        observe(n)
    finally:
        sys.setprofile(None)
    return calls / n


def under_seqs(depth):
    """while tt do x := x + 1 od as the first leaf of depth left-nested Seqs"""
    stmt, _ = parse("while tt do x := x + 1 od")
    for _ in range(depth):
        stmt = Seq(stmt, Skip())
    return stmt


def observe_trace(interp, stmt):
    def run(n):
        t = interp(stmt, EMPTY)
        for _ in range(n):
            _, t = t.step()

    return run


def observe_res(interp, stmt):
    def run(n):
        for _ in drive(interp(stmt, EMPTY), lambda: None, n):
            pass

    return run


@pytest.mark.parametrize(
    "observe, interp",
    [
        pytest.param(observe_trace, eval_trace, id="eval_trace"),
        pytest.param(observe_res, eval_res, id="eval_res"),
        pytest.param(observe_trace, norm, id="norm"),
        pytest.param(observe_res, norm_res, id="norm_res"),
    ],
)
@pytest.mark.parametrize(
    "shallow, deep",
    [
        pytest.param(nest(1), nest(4), id="loop_nest"),
        pytest.param(under_seqs(1), under_seqs(50), id="seq_context"),
    ],
)
def test_calls_per_observation_do_not_grow_with_nesting(observe, interp, shallow, deep):
    shallow = calls_per_observation(observe(interp, shallow))
    deep = calls_per_observation(observe(interp, deep))
    assert deep <= 1.25 * shallow, (shallow, deep)


SOURCES = [pytest.param(NESTED, id="nested")] + [
    pytest.param(parse(p.read_text())[0], id=p.name)
    for p in sorted(PROGRAMS.glob("*.whl"))
]


@pytest.mark.parametrize("stmt", SOURCES)
def test_big_step_equals_small_step_over_long_runs(stmt):
    fuel = 10**4
    if is_pure(stmt):
        verdict = trace_eq(eval_trace(stmt, EMPTY), norm(stmt, EMPTY), fuel)
        assert verdict == EquivalentUpToBounds()
    big = drive(eval_res(stmt, EMPTY), repeat(0).__next__, fuel)
    small = drive(norm_res(stmt, EMPTY), repeat(0).__next__, fuel)
    for n, (b, s) in enumerate(zip(big, small, strict=True)):
        assert b == s, (n, b, s)
    assert n >= 1
