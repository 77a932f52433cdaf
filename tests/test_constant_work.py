"""The work per observation is bounded by the syntax of one statement.

Big-step runs code compiled on first entry and small-step keeps its
evaluation context as a stack, so in all four interpreters the Python calls
per observation grow neither with the loop nest nor with the depth of the
Seqs around the running statement, and neither a deep Seq spine nor a deep
nest of loops or conditionals recurses. Big-step compiles only the
statements a run reaches, each once. Both must still produce the same runs.
"""

import gc
import sys
from itertools import repeat
from pathlib import Path

import pytest

from coindwhile import resumption
from coindwhile.checks import EquivalentUpToBounds, trace_eq
from coindwhile.parse import parse
from coindwhile.resumption import drive, eval_res, norm_res, run_events
from coindwhile.syntax import (
    TT,
    Assign,
    Eq,
    If,
    Le,
    NumLit,
    Seq,
    Skip,
    State,
    VarRef,
    While,
    is_pure,
)
from coindwhile.trace import eval_trace, norm, take

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


class TestDeepSeqSpine:
    def test_interpreters_run_a_deep_chain(self):
        stmt = left_chain(5000)
        assert is_pure(stmt)
        want = take(eval_trace(stmt, EMPTY), 10)
        assert take(norm(stmt, EMPTY), 10) == want
        assert want.states[-1] == EMPTY.upd(0, 9)
        log = run_events(eval_res(stmt, EMPTY), [], 10)
        assert run_events(norm_res(stmt, EMPTY), [], 10) == log
        assert log == [("delay",)] * 10 + [("truncated",)]


def deep_while(n):
    """n nested `while x = 0 do ... od` around y := 9 ; x := 1: each loop
    runs once."""
    stmt = Seq(Assign(1, NumLit(9)), Assign(0, NumLit(1)))
    for _ in range(n):
        stmt = While(Eq(VarRef(0), NumLit(0)), stmt)
    return stmt


def deep_if(n):
    """n nested conditionals, taken alternately by then and by else; each
    else branch ends in a skip, after which the run goes on outward."""
    stmt = Assign(1, NumLit(9))
    for i in range(n):
        guard = Le(VarRef(0), NumLit(0))
        stmt = If(guard, Skip(), Seq(stmt, Skip())) if i % 2 else If(guard, stmt, Skip())
        stmt = Seq(Assign(0, NumLit(i % 2)), stmt)
    return stmt


class TestCompileOnFirstEntry:
    @pytest.mark.parametrize("stmt", [pytest.param(deep_while(5000), id="while-5000"),
                                      pytest.param(deep_if(5000), id="if-5000")])
    def test_deep_nests_run_without_recursion(self, stmt):
        fuel = 30_000
        log = run_events(eval_res(stmt, EMPTY), [], fuel)
        assert log == run_events(norm_res(stmt, EMPTY), [], fuel)
        assert log[-1][0] == "ret" and log[-1][1].lkp(1) == 9
        assert len(log) > 10_000
        want = take(norm(stmt, EMPTY), fuel)
        assert want.ended and take(eval_trace(stmt, EMPTY), fuel) == want

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The statements resumption._compile is called on, in order."""
        seen = []
        compile_ = resumption._compile

        def counting(stmt, ctx=None):
            seen.append(stmt)
            return compile_(stmt, ctx)

        monkeypatch.setattr(resumption, "_compile", counting)
        return seen

    def test_a_branch_never_taken_is_never_compiled(self, compiled):
        big = left_chain(10**4)
        stmt = Seq(Assign(0, NumLit(1)), If(Le(VarRef(0), NumLit(0)), big, Skip()))
        log = run_events(eval_res(stmt, EMPTY), [], 100)
        assert log == [("delay",), ("delay",), ("ret", EMPTY.upd(0, 1))]
        assert compiled == [stmt.first, stmt.second]

    def test_a_trace_starts_without_walking_the_program(self):
        # the purity check reads a flag set at construction, so the first
        # observation of a trace does not visit the 10^4 unreached statements
        stmt = Seq(Assign(0, NumLit(1)),
                   If(Le(VarRef(0), NumLit(0)), left_chain(10**4), Skip()))
        for interp in (eval_trace, norm):
            lines = 0

            def tracer(frame, event, arg):
                nonlocal lines
                lines += event == "line"
                return tracer

            sys.settrace(tracer)
            try:
                s, _ = interp(stmt, EMPTY).step()
            finally:
                sys.settrace(None)
            assert s == EMPTY
            assert lines < 200, (interp.__name__, lines)

    def test_a_loop_body_is_compiled_once(self, compiled):
        stmt, _ = parse("x := 0 ; while x <= 999 do y := y + x ; x := x + 1 od")
        log = run_events(eval_res(stmt, EMPTY), [], 10**4)
        assert log[-1] == ("ret", EMPTY.upd(0, 1000).upd(1, 499500))
        loop = stmt.second
        assert compiled == [stmt.first, loop, loop.body.first, loop.body.second]

    def test_the_rest_of_an_output_is_compiled_once_however_often_called(self, compiled):
        # the out observation is made before its rest is compiled, so it
        # holds the stub; a checker may call that pair more than once
        stmt, _ = parse("output 5 ; x := 2")
        obs = resumption._raw(eval_res(stmt, EMPTY))
        assert obs[:2] == ("out", 5)
        assert compiled == [stmt.first]
        fn, s = obs[2], obs[3]
        for _ in range(2):
            delay = fn(s)
            assert delay[0] == "delay" and delay[3] == EMPTY
            assert delay[1](delay[2]) == ("ret", EMPTY.upd(0, 2))
        assert compiled == [stmt.first, stmt.second]

    @pytest.fixture
    def stepped(self, monkeypatch):
        """The statements resumption._step builds a small step for, in order."""
        seen = []
        step_ = resumption._step

        def counting(stmt):
            seen.append(stmt)
            return step_(stmt)

        monkeypatch.setattr(resumption, "_step", counting)
        return seen

    def test_a_small_step_is_built_once_per_statement(self, stepped):
        stmt, _ = parse("x := 0 ; while x <= 999 do y := y + x ; x := x + 1 od")
        want = ("ret", EMPTY.upd(0, 1000).upd(1, 499500))
        for _ in range(2):
            assert run_events(norm_res(stmt, EMPTY), [], 10**4)[-1] == want
            assert take(norm(stmt, EMPTY), 10**4).states[-1] == want[1]
        loop = stmt.second
        assert stepped == [stmt.first, loop, loop.body.first, loop.body.second]

    def test_a_small_step_run_leaves_no_cyclic_garbage(self):
        # a cached step is passed its node, never holds it, so a parsed
        # tree is freed by reference counting once the run is dropped
        src = (PROGRAMS / "echo.whl").read_text()
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                stmt, _ = parse(f"{src} ; x := 0 ; while x <= 9 do "
                                "if x = 3 then x := x + 2 else x := x + 1 fi od")
                assert run_events(norm_res(stmt, EMPTY), [0, 0, 1], 100)[-1][0] == "ret"
                stmt, _ = parse("x := 0 ; while x <= 9 do x := x + 1 od")
                assert take(norm(stmt, EMPTY), 100).ended
                del stmt
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_malformed_node_raises_when_reached(self):
        bad = NumLit(7)  # a node that is not a statement
        assert run_events(eval_res(If(TT, Skip(), bad), EMPTY), [], 10) == \
            [("delay",), ("ret", EMPTY)]
        r = eval_res(Seq(Assign(0, NumLit(1)), bad), EMPTY)
        assert r.step()[0] == "delay"
        with pytest.raises(TypeError, match="not a statement"):
            r.step()[1].step()
        r = eval_res(Seq(Skip(), Assign(0, TT)), EMPTY)
        with pytest.raises(TypeError, match="not an arithmetic expression"):
            r.step()

    @pytest.mark.parametrize("then", [pytest.param(Skip(), id="skip"),
                                      pytest.param(Assign(0, NumLit(1)), id="assign")])
    def test_a_malformed_node_after_an_if_raises_when_reached(self, then):
        bad = NumLit(7)
        r = eval_res(Seq(If(TT, then, Skip()), bad), EMPTY)
        log = []
        with pytest.raises(TypeError, match="not a statement"):
            for ev in drive(r, lambda: None, 10):
                log.append(ev)
        # the guard, then the branch's own delay if it has one
        assert log == [("delay",)] * (1 if type(then) is Skip else 2)
        # a branch that never ends never reaches it
        loop = While(TT, Skip())
        assert run_events(eval_res(Seq(If(TT, loop, Skip()), bad), EMPTY), [], 50) == \
            [("delay",)] * 50 + [("truncated",)]

    def test_the_code_after_an_if_is_compiled_once(self, compiled):
        # both branches are taken, in turn, and share the code after the if
        stmt, _ = parse("while tt do if x = 0 then x := 1 else x := 0 fi ; y := y + 1 od")
        log = run_events(eval_res(stmt, EMPTY), [], 100)
        assert log == [("delay",)] * 100 + [("truncated",)]
        body = stmt.body
        assert compiled == [stmt, body.first, body.first.then, body.second,
                            body.first.orelse]

    @pytest.mark.parametrize("interp", [eval_res, norm_res])
    def test_a_node_compiled_in_one_sort_is_refused_in_the_other(self, interp):
        # the loop guard compiles TT, and so caches a closure on it, before
        # the body reaches TT as a number; that closure must not be reused
        r = interp(While(TT, Assign(0, TT)), EMPTY)
        assert r.step()[0] == "delay"
        with pytest.raises(TypeError, match="not an arithmetic expression"):
            r.step()[1].step()
        one = NumLit(1)
        r = interp(Seq(Assign(0, one), While(one, Skip())), EMPTY)
        assert r.step()[0] == "delay"
        with pytest.raises(TypeError, match="not a boolean expression"):
            r.step()[1].step()


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


@pytest.mark.parametrize(
    "observe, small, big",
    [
        pytest.param(observe_res, norm_res, eval_res, id="res"),
        pytest.param(observe_trace, norm, eval_trace, id="trace"),
    ],
)
def test_a_small_step_costs_no_more_calls_than_a_big_one(observe, small, big):
    # a cached small step returns its raw observation itself, so a step is
    # _resume and the step, as a big step is its compiled code
    small = calls_per_observation(observe(small, NESTED))
    big = calls_per_observation(observe(big, NESTED))
    assert small <= big + 0.05, (small, big)


IF_FIRST = "while tt do if x = 0 then y := 2 else y := 3 fi ; x := 0 od"
IF_LAST = "while tt do x := 0 ; if x = 0 then y := 2 else y := 3 fi od"


@pytest.mark.parametrize("interp", [eval_res, norm_res])
def test_an_if_costs_the_same_first_or_last_in_a_loop_body(interp):
    # both loops run the same statements; the branches read the code after
    # the if through one link, so a branch compiled before that code still
    # calls it directly, with no forwarding call per exit
    first = calls_per_observation(observe_res(interp, parse(IF_FIRST)[0]), 3000)
    last = calls_per_observation(observe_res(interp, parse(IF_LAST)[0]), 3000)
    assert first == pytest.approx(last, abs=0.01), (first, last)


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
