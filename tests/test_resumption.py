"""Resumption semantics: the interpreters for While with I/O, the stock
resumptions, and the scripted event driver."""

import gc
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from coindwhile.checks import Distinguished, EquivalentUpToBounds, trace_eq
from coindwhile.parse import parse
from coindwhile.resumption import (
    Res,
    bot,
    echo,
    echo_div,
    eval_res,
    norm_res,
    rep,
    rep_fast,
    run_events,
)
from coindwhile.syntax import (
    Input,
    NumLit,
    Output,
    Seq,
    Skip,
    State,
    TrueLit,
    While,
    is_pure,
)
from coindwhile.trace import Trace, TracePrefix, eval_trace, norm, take

from gen import gen_script, gen_state, gen_stmt, gen_while_stmt
from paper import denote, loop_res, loopseq_res, norm_ref, red_ref, seque_res

EMPTY = State.empty()
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def ast(src):
    stmt, _ = parse(src)
    return stmt


def left_nested(src):
    """The three statements of "a ; b ; c", parsed over one name table."""
    stmt = ast(src)
    return stmt.first, stmt.second.first, stmt.second.second


def observe_with_states(r, script, fuel):
    """The observations of r against script, each delay with its state."""
    inputs = iter(script)
    seen = []
    for _ in range(fuel):
        obs = r.step()
        if obs[0] == "ret":
            return seen + [obs]
        if obs[0] == "in":
            v = next(inputs, None)
            if v is None:
                break
            seen.append(("in", v))
            r = obs[1](v)
        elif obs[0] == "out":
            seen.append(("out", obs[1]))
            r = obs[2]
        else:
            seen.append(("delay", obs[2]))
            r = obs[1]
    return seen


class TestEvalGoldens:
    def test_skip_returns(self):
        assert eval_res(Skip(), EMPTY).step() == ("ret", EMPTY)

    def test_input_binds_then_returns(self):
        obs = eval_res(Input(0), EMPTY).step()
        assert obs[0] == "in"
        assert obs[1](7).step() == ("ret", EMPTY.upd(0, 7))

    def test_output_emits_then_returns(self):
        obs = eval_res(Output(NumLit(5)), EMPTY).step()
        assert obs[0] == "out" and obs[1] == 5
        assert obs[2].step() == ("ret", EMPTY)

    def test_assignment_delays_once(self):
        obs = eval_res(ast("x := 17"), EMPTY).step()
        assert obs[0] == "delay"
        assert obs[1].step() == ("ret", EMPTY.upd(0, 17))

    def test_delay_carries_the_state_it_starts_from(self):
        s = EMPTY.upd(1, 4)
        for interp in (eval_res, norm_res):
            obs = interp(ast("y := 2 ; x := y + 1"), s).step()
            assert obs[0] == "delay" and obs[2] == s
            assert obs[1].step()[2] == s.upd(0, 2)  # y is variable 0
        assert bot().step()[2] is None

    def test_input_then_output_log(self):
        # hand-unfolded: no delay between the input and the sequenced output
        prog = ast("input x ; output x + 1")
        log = run_events(eval_res(prog, EMPTY), [41], 32)
        assert log == [("in", 41), ("out", 42), ("ret", EMPTY.upd(0, 41))]


class TestSequeLoop:
    def test_seque_ret_invokes_continuation(self):
        k = lambda s: Res.ret(s.upd(0, 1))
        assert seque_res(k, Res.ret(EMPTY)).step() == ("ret", EMPTY.upd(0, 1))

    def test_seque_out_passes_through(self):
        k = lambda s: Res.ret(s)
        obs = seque_res(k, Res.out(9, Res.ret(EMPTY))).step()
        assert obs[0] == "out" and obs[1] == 9

    def test_seque_ret_identity(self):
        for r in (rep(3), echo(EMPTY), bot(), eval_res(ast("output 1"), EMPTY)):
            wrapped = seque_res(Res.ret, r)
            assert run_events(wrapped, [0, 1], 16) == run_events(r, [0, 1], 16)

    def test_loop_false_guard(self):
        assert loop_res(Res.ret, lambda s: False, EMPTY).step() == ("ret", EMPTY)

    def test_loop_silent_body_diverges(self):
        log = run_events(loop_res(Res.ret, lambda s: True, EMPTY), [], 4)
        assert log == [("delay",)] * 4 + [("truncated",)]

    def test_loopseq_ret_delays_then_loops(self):
        r = loopseq_res(Res.ret, lambda s: False, Res.ret(EMPTY))
        obs = r.step()
        assert obs[0] == "delay"
        assert obs[1].step() == ("ret", EMPTY)

    def test_loopseq_in_branches(self):
        r = loopseq_res(Res.ret, lambda s: False, Res.inp(lambda v: Res.ret(EMPTY)))
        obs = r.step()
        assert obs[0] == "in"

    def test_loopseq_passes_infinite_delays_through(self):
        def boom(s):
            raise AssertionError("reached loop")

        log = run_events(loopseq_res(boom, boom, bot()), [], 8)
        assert log == [("delay",)] * 8 + [("truncated",)]

    def test_output_loop_matches_rep_fast(self):
        # while tt do output v od unfolds to delay, out, delay, out, ...
        prog = ast("while tt do output 1 od")
        assert run_events(eval_res(prog, EMPTY), [], 9) == run_events(
            rep_fast(1), [], 9
        )


class TestPaperOracle:
    def test_both_interpreters_agree_with_the_combinators(self):
        # denote is the paper's big-step semantics, built from seque_res and
        # loop_res, and norm_ref its small-step semantics, red_ref iterated;
        # both evaluate expressions with aexp/bexp. eval_res and norm_res
        # share the expression compiler, so this test, not their comparison
        # with each other, checks it under both. denote against norm_ref is
        # the paper's theorem that big-step equals small-step, on its own
        # definitions. 400 programs, 60% of them generated with I/O allowed,
        # at fuel 200, delay states included.
        rng = random.Random(2011)
        for i in range(400):
            stmt = gen_stmt(rng, 6, io=i % 5 < 3)
            s = gen_state(rng)
            script = gen_script(rng)
            big = observe_with_states(denote(stmt, s), script, 200)
            small = observe_with_states(norm_ref(stmt, s), script, 200)
            assert big == small, (stmt, s, script)
            for interp, want in ((eval_res, big), (norm_res, small)):
                got = observe_with_states(interp(stmt, s), script, 200)
                assert got == want, (interp.__name__, stmt, s, script)
            if is_pure(stmt):
                big = take(Trace(denote(stmt, s)), 200)
                small = take(Trace(norm_ref(stmt, s)), 200)
                assert big == small, (stmt, s)
                for interp, want in ((eval_trace, big), (norm, small)):
                    assert take(interp(stmt, s), 200) == want, (interp.__name__, stmt, s)


class TestSmallStep:
    # goldens of the paper's labelled one-step reduction, red_ref in
    # tests/paper.py, which the interpreters are tested against

    def test_skip(self):
        assert red_ref(Skip(), EMPTY) == ("ret", EMPTY)

    def test_input(self):
        c = red_ref(Input(0), EMPTY)
        assert c[:2] == ("in", Skip())
        assert c[2](9) == EMPTY.upd(0, 9)

    def test_seq_output(self):
        q = ast("x := 1")
        c = red_ref(Seq(Output(NumLit(5)), q), EMPTY)
        assert c == ("out", 5, Seq(Skip(), q), EMPTY)

    def test_assignment_is_a_delay_step(self):
        c = red_ref(ast("x := 2"), EMPTY)
        assert c == ("delay", Skip(), EMPTY.upd(0, 2))

    def test_while_under_a_context(self):
        stmt = ast("while x <= 0 do x := 1 od ; y := 2")
        w, rest = stmt.first, stmt.second
        assert red_ref(stmt, EMPTY) == ("delay", Seq(Seq(w.body, w), rest), EMPTY)
        s = EMPTY.upd(0, 1)
        assert red_ref(stmt, s) == ("delay", Seq(Skip(), rest), s)

    def test_input_under_a_context(self):
        io, mid, last = left_nested("input x ; y := 1 ; output y")
        c = red_ref(Seq(Seq(io, mid), last), EMPTY)
        assert c[:2] == ("in", Seq(Seq(Skip(), mid), last))
        assert c[2](4) == EMPTY.upd(0, 4)

    def test_output_under_a_context(self):
        io, mid, last = left_nested("output 5 ; y := 1 ; output y")
        c = red_ref(Seq(Seq(io, mid), last), EMPTY)
        assert c == ("out", 5, Seq(Seq(Skip(), mid), last), EMPTY)

    def test_norm_skip(self):
        assert norm_res(Skip(), EMPTY).step() == ("ret", EMPTY)

    def test_norm_output_two_steps(self):
        log = run_events(norm_res(Output(NumLit(5)), EMPTY), [], 8)
        assert log == [("out", 5), ("ret", EMPTY)]


class TestStockResumptions:
    def test_bot_only_delays(self):
        obs = bot().step()
        assert obs[0] == "delay"
        assert run_events(bot(), [], 3) == [("delay",)] * 3 + [("truncated",)]

    def test_rep_cycle(self):
        log = run_events(rep(4), [], 6)
        assert log == [
            ("delay",), ("delay",), ("out", 4),
            ("delay",), ("delay",), ("out", 4),
            ("truncated",),
        ]

    def test_rep_fast_cycle(self):
        log = run_events(rep_fast(4), [], 4)
        assert log == [("delay",), ("out", 4), ("delay",), ("out", 4), ("truncated",)]

    def test_echo_zero_then_nonzero(self):
        log = run_events(echo(EMPTY), [0, 1], 16)
        assert log == [
            ("in", 0), ("delay",), ("out", 0),
            ("in", 1), ("delay",), ("ret", EMPTY),
        ]

    def test_echo_div_diverges_on_nonzero(self):
        log = run_events(echo_div(), [1], 6)
        assert log == [("in", 1)] + [("delay",)] * 5 + [("truncated",)]


INC_ECHO = "while tt do input x ; x := x + 1 ; output x od"


class TestMemoCell:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: eval_res(ast(INC_ECHO), EMPTY), id="eval_res"),
        pytest.param(lambda: norm_res(ast(INC_ECHO), EMPTY), id="norm_res"),
        pytest.param(lambda: echo(EMPTY), id="echo"),
        pytest.param(lambda: rep(4), id="rep"),
    ])
    def test_a_forced_cell_keeps_only_its_observation(self, make):
        # a cell drops the function and argument it was forced with, so a
        # held run costs no more than its observations
        r = make()
        for _ in range(12):
            obs = r.step()
            held = [x for x in gc.get_referents(r) if x is not None and x is not Res]
            assert held == [obs]
            tag = obs[0]
            r = obs[1](0) if tag == "in" else obs[2] if tag == "out" else obs[1]


class TestDriver:
    def test_ret_consumes_no_fuel(self):
        assert run_events(Res.ret(EMPTY), [], 10) == [("ret", EMPTY)]

    def test_zero_fuel_truncates(self):
        assert run_events(Res.ret(EMPTY), [], 0) == [("truncated",)]

    def test_input_exhaustion_is_terminal_not_an_error(self):
        log = run_events(eval_res(ast("input x ; input y"), EMPTY), [3], 32)
        assert log == [("in", 3), ("input-exhausted",)]

    def test_log_is_deterministic(self):
        rng = random.Random(21)
        for _ in range(25):
            stmt = gen_stmt(rng, 5, io=True)
            s = gen_state(rng)
            script = gen_script(rng)
            a = run_events(eval_res(stmt, s), script, 64)
            b = run_events(eval_res(stmt, s), script, 64)
            assert a == b


class TestProperties:
    def test_big_small_agreement(self):
        rng = random.Random(77)
        for _ in range(150):
            stmt = gen_stmt(rng, 6, io=True)
            s = gen_state(rng)
            script = gen_script(rng)
            big = run_events(eval_res(stmt, s), script, 128)
            small = run_events(norm_res(stmt, s), script, 128)
            assert big == small

    def test_trace_embedding_for_pure_programs(self):
        # pure programs yield all-delay logs whose length matches the trace
        rng = random.Random(31)
        for _ in range(80):
            stmt = gen_stmt(rng, 5, io=False)
            assert is_pure(stmt)
            s = gen_state(rng)
            log = run_events(eval_res(stmt, s), [], 64)
            prefix = take(eval_trace(stmt, s), 64)
            if prefix.ended:
                assert log[:-1] == [("delay",)] * (len(prefix.states) - 1)
                assert log[-1] == ("ret", prefix.states[-1])
            else:
                assert log == [("delay",)] * 64 + [("truncated",)]

    def test_delay_states_big_equal_small(self):
        # each delay records the state its step starts from; the event logs
        # above carry no states, so this is the finer differential check
        rng = random.Random(41)
        for _ in range(150):
            stmt = gen_stmt(rng, 6, io=True)
            s = gen_state(rng)
            script = gen_script(rng)
            big = observe_with_states(eval_res(stmt, s), script, 128)
            small = observe_with_states(norm_res(stmt, s), script, 128)
            assert big == small

    def test_guard_progress(self):
        rng = random.Random(13)
        for _ in range(100):
            w = gen_while_stmt(rng, 5, io=True)
            s = gen_state(rng)
            assert eval_res(w, s).step()[0] == "delay"

    def test_continuations_are_reapplicable(self):
        rng = random.Random(17)
        checked = 0
        while checked < 30:
            stmt = gen_stmt(rng, 5, io=True)
            s = gen_state(rng)
            obs = eval_res(stmt, s).step()
            # walk to the first input branch, if any
            fuel = 32
            while obs[0] in ("delay", "out") and fuel:
                obs = (obs[2] if obs[0] == "out" else obs[1]).step()
                fuel -= 1
            if obs[0] != "in":
                continue
            f = obs[1]
            for v in (0, 5, -3):
                a = run_events(f(v), [1, 2], 32)
                b = run_events(f(v), [1, 2], 32)
                assert a == b
            checked += 1


# ---------------------------------------------------------------------------
# the single-pass runs against Res.step()


def step_events(r, script, fuel):
    """The event log of drive(), made by calling only Res.step()."""
    inputs = iter(script)
    log = []
    for _ in range(fuel):
        obs = r.step()
        tag = obs[0]
        if tag == "ret":
            return log + [obs]
        if tag == "in":
            v = next(inputs, None)
            if v is None:
                return log + [("input-exhausted",)]
            log.append(("in", v))
            r = obs[1](v)
        elif tag == "out":
            log.append(("out", obs[1]))
            r = obs[2]
        else:
            log.append(("delay",))
            r = obs[1]
    return log + [("truncated",)]


def step_take(t, fuel):
    """take(t, fuel), made by calling only Trace.step()."""
    states = []
    for _ in range(fuel + 1):
        s, t = t.step()
        if t is None:
            return TracePrefix((*states, s), True)
        states.append(s)
    return TracePrefix(tuple(states[:-1]), False)


def step_trace_eq(t0, t1, fuel):
    """trace_eq(t0, t1, fuel), made by calling only Trace.step()."""

    def describe(s, tail):
        return ("nil", s) if tail is None else ("delay", s)

    for i in range(fuel + 1):
        (s0, n0), (s1, n1) = t0.step(), t1.step()
        if s0 != s1 or (n0 is None) != (n1 is None):
            return Distinguished((i, describe(s0, n0), describe(s1, n1)))
        if n0 is None:
            return EquivalentUpToBounds()
        t0, t1 = n0, n1
    return EquivalentUpToBounds()


def forced(r, n):
    """r after its first n observations have been memoized by step()."""
    head = r
    for _ in range(n):
        obs = r.step()
        tag = obs[0]
        if tag == "ret":
            break
        r = obs[1](0) if tag == "in" else obs[2] if tag == "out" else obs[1]
    return head


HAND_BUILT = [
    pytest.param(bot, id="bot"),
    pytest.param(lambda: rep(4), id="rep"),
    pytest.param(lambda: rep_fast(2), id="rep_fast"),
    pytest.param(lambda: echo(EMPTY), id="echo"),
    pytest.param(echo_div, id="echo_div"),
]
LOOP = "while tt do skip od"


class TestSinglePassRuns:
    # drive, take and trace_eq step raw observations and memoize nothing;
    # they must see what a loop of step() calls sees, on fresh cells, on
    # cells that step() has already forced, and on hand-built resumptions

    @pytest.mark.parametrize("interp", [eval_res, norm_res, denote])
    def test_run_events_equals_stepping(self, interp):
        rng = random.Random(1601)
        for i in range(150):
            stmt = gen_stmt(rng, 6, io=i % 2 == 0)
            s = gen_state(rng)
            script = gen_script(rng)
            want = step_events(interp(stmt, s), script, 100)
            assert run_events(interp(stmt, s), script, 100) == want, (stmt, s, script)
            for n in (1, 5):
                # an input's continuation makes a fresh cell on each call,
                # so the branch forced() took does not bind the script's
                r = forced(interp(stmt, s), n)
                assert run_events(r, script, 100) == want, (stmt, s, script, n)

    @pytest.mark.parametrize("make", HAND_BUILT)
    def test_run_events_equals_stepping_on_stock_resumptions(self, make):
        script = [0, 0, 0, 5, 0]
        want = step_events(make(), script, 60)
        assert run_events(make(), script, 60) == want
        r = forced(make(), 7)
        assert run_events(r, [0] * 3 + script, 60) == step_events(r, [0] * 3 + script, 60)

    @pytest.mark.parametrize("interp", [eval_trace, norm, lambda p, s: Trace(denote(p, s))])
    def test_take_equals_stepping(self, interp):
        rng = random.Random(1602)
        for _ in range(150):
            stmt = gen_stmt(rng, 6)
            s = gen_state(rng)
            for fuel in (0, 3, 80):
                want = step_take(interp(stmt, s), fuel)
                assert take(interp(stmt, s), fuel) == want, (stmt, s, fuel)
                t = interp(stmt, s)
                t.step()
                assert take(t, fuel) == want, (stmt, s, fuel)
                assert take(t, fuel) == want, (stmt, s, fuel)

    def test_trace_eq_equals_stepping(self):
        rng = random.Random(1603)
        verdicts = set()
        for _ in range(150):
            a, b = gen_stmt(rng, 5), gen_stmt(rng, 5)
            s = gen_state(rng)
            pairs = [(eval_trace(a, s), norm(a, s)), (eval_trace(a, s), norm(b, s)),
                     (Trace(denote(a, s)), eval_trace(b, s))]
            for t0, t1 in pairs:
                want = step_trace_eq(t0, t1, 60)
                assert trace_eq(t0, t1, 60) == want, (a, b, s)
                verdicts.add(type(want))
        assert verdicts == {EquivalentUpToBounds, Distinguished}

    def test_trace_eq_on_forced_heads(self):
        stmt = ast("x := 3 ; while 1 <= x do x := x - 1 od")
        t0, t1 = eval_trace(stmt, EMPTY), norm(stmt, EMPTY)
        for t in (t0, t1):
            step_take(t, 4)
        want = step_trace_eq(eval_trace(stmt, EMPTY), norm(stmt, EMPTY), 20)
        assert want == EquivalentUpToBounds()
        assert trace_eq(t0, t1, 20) == want
        other = eval_trace(ast("x := 3 ; while 2 <= x do x := x - 1 od"), EMPTY)
        want = step_trace_eq(t0, other, 20)
        assert type(want) is Distinguished
        assert trace_eq(t0, other, 20) == want


def cells_built(run):
    """The number of Res cells made while run() runs."""
    made = 0
    codes = {Res.__init__.__code__, Res._of.__code__}

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code in codes:
            made += 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return made


class TestFusion:
    @pytest.mark.parametrize("make, run", [
        pytest.param(lambda: eval_res(ast(LOOP), EMPTY),
                     lambda r: run_events(r, [], 10_000), id="drive-eval_res"),
        pytest.param(lambda: norm_res(ast(LOOP), EMPTY),
                     lambda r: run_events(r, [], 10_000), id="drive-norm_res"),
        pytest.param(lambda: eval_trace(ast(LOOP), EMPTY),
                     lambda t: take(t, 10_000), id="take-eval_trace"),
        pytest.param(lambda: norm(ast(LOOP), EMPTY),
                     lambda t: take(t, 10_000), id="take-norm"),
        pytest.param(lambda: (eval_trace(ast(LOOP), EMPTY), norm(ast(LOOP), EMPTY)),
                     lambda ts: trace_eq(*ts, 10_000), id="trace_eq"),
    ])
    def test_a_long_run_builds_no_cells(self, make, run):
        head = make()
        assert cells_built(lambda: run(head)) == 0

    @pytest.mark.parametrize("interp", [eval_res, norm_res])
    def test_an_input_builds_no_cell(self, interp):
        # an input step reads its value into the rest's argument, as a
        # delay or an output passes its state, so drive builds nothing
        stmt = ast((PROGRAMS / "echo.whl").read_text())
        r = interp(stmt, EMPTY)
        log = []
        assert cells_built(lambda: log.extend(run_events(r, [0] * 10**4, 10**4))) == 0
        assert log == step_events(interp(stmt, EMPTY), [0] * 10**4, 10**4)
        assert log.count(("in", 0)) == 3334

    def test_stepping_builds_a_cell_per_observation(self):
        r = eval_res(ast(LOOP), EMPTY)
        assert cells_built(lambda: step_events(r, [], 100)) == 100

    @pytest.mark.parametrize("interp", [eval_trace, norm])
    def test_take_of_a_held_trace_keeps_nothing(self, interp):
        t = interp(ast(LOOP), EMPTY)
        tracemalloc.start()
        try:
            prefix = take(t, 10**5)
            assert len(prefix.states) == 10**5 and not prefix.ended
            del prefix
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # a memoized step costs over 100 bytes: 10^5 of them would be ~10 MB
        assert kept < 64 * 1024, kept
        assert t.step()[0] == EMPTY
