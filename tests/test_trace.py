"""Trace semantics: the big-step and small-step interpreters for pure While."""

import random
import tracemalloc

import pytest

from coindwhile.parse import parse
from coindwhile.syntax import (
    Assign,
    FalseLit,
    Input,
    NumLit,
    Output,
    Seq,
    Skip,
    State,
    TrueLit,
    While,
)
from coindwhile.trace import (
    ImpureProgramError,
    TracePrefix,
    eval_trace,
    norm,
    take,
)

from gen import gen_state, gen_stmt, gen_while_stmt
from paper import delay, loop, loopseq, nil, red_ref, seque

EMPTY = State.empty()


def ast(src):
    stmt, _ = parse(src)
    return stmt


class TestTake:
    def test_nil_at_zero_fuel_still_yields_the_state(self):
        assert take(nil(EMPTY), 0) == TracePrefix((EMPTY,), True)

    def test_truncates_infinite_trace(self):
        pre = take(eval_trace(While(TrueLit(), Skip()), EMPTY), 2)
        assert pre == TracePrefix((EMPTY, EMPTY), False)

    def test_does_not_hold_the_head(self):
        # the memoized cells of 50,000 steps take about 6 MB if retained
        tracemalloc.start()
        try:
            pre = take(eval_trace(While(TrueLit(), Skip()), EMPTY), 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pre == TracePrefix((EMPTY,) * 50_000, False)
        assert peak < 2_000_000, f"peak {peak} bytes"

    def test_a_held_state_is_a_tuple_of_values(self):
        # each State holds the tuple of its variables' values: about 112
        # bytes for 4 variables (3.11-3.13; 3.10 adds GC-header bytes),
        # against 264 as a dict. A delay records the state its step starts
        # from, so a guard and the assignment after it share one object.
        p = ast("a := 1 ; b := 2 ; c := 3 ; d := 4 ; while tt do d := 9 - d od")
        tracemalloc.start()
        try:
            pre = take(eval_trace(p, EMPTY), 10_000)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pre.states[-1].items() == ((0, 1), (1, 2), (2, 3), (3, 5))
        states = len({id(s) for s in pre.states})
        assert states > 5_000
        assert retained / states < 200, f"{retained / states:.1f} bytes per state"

    def test_fuel_counts_delays_not_states(self):
        s1 = EMPTY.upd(0, 17)
        t = delay(EMPTY, nil(s1))
        assert take(t, 1) == TracePrefix((EMPTY, s1), True)


class TestEvalGoldens:
    def test_skip_is_singleton(self):
        assert take(eval_trace(Skip(), EMPTY), 10) == TracePrefix((EMPTY,), True)

    def test_assignment_is_doubleton(self):
        t = eval_trace(ast("x := 17"), EMPTY)
        s, tail = t.step()
        assert s == EMPTY
        s2, tail2 = tail.step()
        assert s2 == EMPTY.upd(0, 17) and tail2 is None

    def test_false_guard_still_steps(self):
        t = eval_trace(While(FalseLit(), Skip()), EMPTY)
        s, tail = t.step()
        assert s == EMPTY
        assert tail.step() == (EMPTY, None)

    def test_skip_loop_diverges_silently(self):
        pre = take(eval_trace(While(TrueLit(), Skip()), EMPTY), 4)
        assert pre == TracePrefix((EMPTY,) * 4, False)

    def test_countdown_against_small_step_oracle(self):
        # states frozen from hand-running the one-step reducer:
        # 8 reduction steps, then the final state; x ends at 0 (dropped
        # from the canonical state).
        prog = ast("x := 3 ; while 1 <= x do x := x - 1 od")
        x3, x2, x1 = (EMPTY.upd(0, v) for v in (3, 2, 1))
        expected = TracePrefix(
            (EMPTY, x3, x3, x2, x2, x1, x1, EMPTY, EMPTY), True
        )
        assert take(norm(prog, EMPTY), 64) == expected  # the oracle itself
        assert take(eval_trace(prog, EMPTY), 64) == expected


class TestSeque:
    def test_continues_from_final_state(self):
        k = lambda s: nil(s.upd(0, 1))
        assert take(seque(k, nil(EMPTY)), 8).states[-1] == EMPTY.upd(0, 1)

    def test_infinite_trace_passes_through(self):
        marker = EMPTY.upd(1, 99)
        k = lambda s: nil(marker)  # must never be reached
        t = seque(k, eval_trace(While(TrueLit(), Skip()), EMPTY))
        for fuel in (1, 5, 20):
            pre = take(t, fuel)
            assert pre == TracePrefix((EMPTY,) * fuel, False)

    def test_skip_continuation_is_right_identity(self):
        rng = random.Random(11)
        for _ in range(30):
            stmt, s = gen_stmt(rng, 4), gen_state(rng)
            t = eval_trace(stmt, s)
            for fuel in (0, 3, 16):
                assert take(seque(nil, eval_trace(stmt, s)), fuel) == take(
                    t, fuel
                )


class TestLoop:
    def test_false_guard_terminates_immediately(self):
        t = loop(nil, lambda s: False, EMPTY)
        assert t.step() == (EMPTY, None)

    def test_silent_body_still_progresses(self):
        t = loop(nil, lambda s: True, EMPTY)
        assert take(t, 5) == TracePrefix((EMPTY,) * 5, False)

    def test_loopseq_flushes_then_loops(self):
        t = loopseq(nil, lambda s: False, nil(EMPTY))
        s, tail = t.step()
        assert s == EMPTY
        assert tail.step() == (EMPTY, None)

    def test_loopseq_passes_infinite_trace_through(self):
        infinite = eval_trace(While(TrueLit(), Skip()), EMPTY)

        def boom(s):
            raise AssertionError("reached loop")

        t = loopseq(boom, boom, infinite)
        assert take(t, 10) == TracePrefix((EMPTY,) * 10, False)


class TestRed:
    # goldens of the paper's one-step reduction, red_ref in tests/paper.py,
    # which the interpreters are tested against

    def test_skip_is_terminal(self):
        assert red_ref(Skip(), EMPTY) == ("ret", EMPTY)

    def test_assignment_reduces_to_skip(self):
        assert red_ref(ast("x := 2 + 3"), EMPTY) == ("delay", Skip(), EMPTY.upd(0, 5))

    def test_while_unrolls_once(self):
        w = While(TrueLit(), Skip())
        assert red_ref(w, EMPTY) == ("delay", Seq(Skip(), w), EMPTY)

    def test_seq_falls_through_terminal_first_component(self):
        assert red_ref(Seq(Skip(), ast("x := 1")), EMPTY) == \
            ("delay", Skip(), EMPTY.upd(0, 1))

    def test_while_under_a_context(self):
        stmt = ast("while x <= 0 do x := 1 od ; y := 2")
        w, rest = stmt.first, stmt.second
        assert red_ref(stmt, EMPTY) == ("delay", Seq(Seq(w.body, w), rest), EMPTY)
        s = EMPTY.upd(0, 1)
        assert red_ref(stmt, s) == ("delay", Seq(Skip(), rest), s)

    def test_norm_of_skip(self):
        assert norm(Skip(), EMPTY).step() == (EMPTY, None)

    def test_norm_skip_loop(self):
        # hand-unrolled: each step re-reduces While TT Skip at the same state
        t = norm(While(TrueLit(), Skip()), EMPTY)
        for _ in range(3):
            s, t = t.step()
            assert s == EMPTY
        assert take(t, 50) == TracePrefix((EMPTY,) * 50, False)


class TestContracts:
    @pytest.mark.parametrize("prog", [Input(0), Seq(Skip(), Output(NumLit(1)))])
    def test_io_rejected_by_both_interpreters(self, prog):
        with pytest.raises(ImpureProgramError):
            eval_trace(prog, EMPTY)
        with pytest.raises(ImpureProgramError):
            norm(prog, EMPTY)


class TestProperties:
    def test_prefix_agreement_eval_norm(self):
        rng = random.Random(1234)
        for _ in range(150):
            stmt = gen_stmt(rng, 6)
            s = gen_state(rng)
            f = rng.choice([0, 1, 7, 64])
            assert take(eval_trace(stmt, s), f) == take(norm(stmt, s), f)

    def test_skip_identity(self):
        rng = random.Random(99)
        for _ in range(100):
            stmt, s = gen_stmt(rng, 5), gen_state(rng)
            ref = take(eval_trace(stmt, s), 64)
            assert take(eval_trace(Seq(Skip(), stmt), s), 64) == ref
            assert take(eval_trace(Seq(stmt, Skip()), s), 64) == ref

    def test_guard_progress(self):
        rng = random.Random(5)
        for _ in range(100):
            w, s = gen_while_stmt(rng, 5), gen_state(rng)
            _, tail = eval_trace(w, s).step()
            assert tail is not None, "first observation of a loop must delay"

    def test_observation_is_pure(self):
        rng = random.Random(6)
        for _ in range(50):
            stmt, s = gen_stmt(rng, 5), gen_state(rng)
            t = eval_trace(stmt, s)
            assert take(t, 32) == take(t, 32)
            assert take(eval_trace(stmt, s), 32) == take(t, 32)

    def test_seq_associativity_of_trace(self):
        rng = random.Random(8)
        for _ in range(50):
            a, b, c = (gen_stmt(rng, 3) for _ in range(3))
            s = gen_state(rng)
            left = take(eval_trace(Seq(Seq(a, b), c), s), 64)
            right = take(eval_trace(Seq(a, Seq(b, c)), s), 64)
            assert left == right
