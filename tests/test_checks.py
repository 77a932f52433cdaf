"""Bounded checkers: delay stripping, delay-bisimilarity, responsiveness,
and trace-prefix equality."""

import random
import time
import tracemalloc

import pytest

from coindwhile import checks
from coindwhile.checks import (
    BisimConfig,
    BudgetExhausted,
    Distinguished,
    EquivalentUpToBounds,
    LatencyExceeded,
    ResponsiveUpToBounds,
    delay_bisim,
    replay_witness,
    responsive,
    trace_eq,
)
from coindwhile.parse import parse
from coindwhile.resumption import (
    Res,
    _raw,
    bot,
    echo,
    echo_div,
    eval_res,
    norm_res,
    rep,
    rep_fast,
)
from coindwhile.syntax import Assign, NumLit, Seq, Skip, State
from coindwhile.trace import eval_trace, norm, take

from gen import gen_state, gen_stmt
from test_resumption import cells_built

EMPTY = State.empty()


def ast(src):
    stmt, _ = parse(src)
    return stmt


def strip(r, budget):
    """The head of r under at most budget delays, as the checkers strip it."""
    return checks._strip(_raw, r, budget)


class TestStripDelays:
    # a head under n leading delays needs a budget of n: budget n - 1
    # gives the delay after the first n - 1

    def test_already_resolved(self):
        assert strip(Res.ret(EMPTY), 0) == ("ret", EMPTY)
        assert strip(Res.ret(EMPTY), 5) == ("ret", EMPTY)

    def test_rep_has_two_leading_delays(self):
        assert strip(rep(4), 1)[0] == "delay"
        assert strip(rep(4), 2)[:2] == ("out", 4)

    def test_all_delays_exhausts_budget(self):
        for budget in (1, 3, 8):
            head = strip(bot(), budget)
            assert head[0] == "delay"
            # what follows it still starts with a delay
            assert head[1](head[2])[0] == "delay"

    def test_the_delay_at_the_budget_is_handed_back_computed(self):
        calls = 0

        def tick(n):
            nonlocal calls
            calls += 1
            return ("delay", tick, n + 1, n)

        head = checks._strip(tick, 0, 5)
        # the sixth delay, and the pair after it: no observation is
        # computed twice
        assert head == ("delay", tick, 6, 5) and calls == 6
        assert head[1](head[2])[3] == 6 and calls == 7


def peak_bytes(run):
    """The peak of memory allocated while run() runs, and its result."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


LOOP = "while tt do skip od"
# a kept delay costs over 100 bytes: 10^5 kept would be ~10 MB
FLAT = 64 * 1024


class TestFlatMemory:
    # the checkers peel silent stretches without keeping them, so memory
    # stays flat however long a stretch is

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: eval_res(ast(LOOP), EMPTY), id="eval_res"),
        pytest.param(lambda: norm_res(ast(LOOP), EMPTY), id="norm_res"),
        pytest.param(bot, id="bot"),
    ])
    def test_a_long_silent_stretch_is_stripped_in_flat_memory(self, make):
        r = make()
        peak, head = peak_bytes(lambda: strip(r, 10**5))
        assert head[0] == "delay"
        assert peak < FLAT, peak

    @pytest.mark.parametrize("interp", [eval_res, norm_res])
    def test_a_long_stretch_is_stripped_to_its_end_in_flat_memory(self, interp):
        # 1 + 50,000 guard tests + 49,999 increments: 10^5 delays, then ret
        stmt = ast("x := 0 ; while x <= 49998 do x := x + 1 od")
        peak, head = peak_bytes(lambda: strip(interp(stmt, EMPTY), 10**5 - 1))
        assert head[0] == "delay"
        assert peak < FLAT, peak
        peak, head = peak_bytes(lambda: strip(interp(stmt, EMPTY), 10**5))
        assert head == ("ret", EMPTY.upd(0, 49999))
        assert peak < FLAT, peak

    def test_responsive_peels_a_long_stretch_in_flat_memory(self):
        r = eval_res(ast(LOOP), EMPTY)
        peak, verdict = peak_bytes(lambda: responsive(r, 10**5, 4))
        assert verdict == LatencyExceeded(())
        assert peak < FLAT, peak

    def test_bisim_strips_long_stretches_in_flat_memory(self):
        # each side is stripped of D + 1 delays, none of them kept
        r0, r1 = eval_res(ast(LOOP), EMPTY), norm_res(ast(LOOP), EMPTY)
        peak, verdict = peak_bytes(
            lambda: delay_bisim(r0, r1, BisimConfig(delay_budget=10**5)))
        assert verdict == BudgetExhausted("delay")
        assert peak < FLAT, peak


class TestDelayBisim:
    CFG = BisimConfig(delay_budget=2, depth_budget=100, input_sample=(0,))

    def test_rep_and_rep_fast_are_bisimilar(self):
        for v in (0, 1, -7):
            assert delay_bisim(rep(v), rep_fast(v), self.CFG) == EquivalentUpToBounds()

    def test_distinct_outputs_distinguish(self):
        verdict = delay_bisim(rep(1), rep(2), self.CFG)
        assert isinstance(verdict, Distinguished)
        assert verdict.witness[-1] == ("mismatch", ("out", 1), ("out", 2))

    def test_bot_vs_ret_exhausts_delay_budget(self):
        verdict = delay_bisim(bot(), Res.ret(EMPTY), self.CFG)
        assert verdict == BudgetExhausted("delay", ())

    def test_echo_vs_echo_div(self):
        # hand-traced on input 1: ret after one delay vs delays forever,
        # which the bounded checker reports as delay-budget exhaustion
        cfg = BisimConfig(delay_budget=4, depth_budget=30, input_sample=(0, 1))
        verdict = delay_bisim(echo(EMPTY), echo_div(), cfg)
        assert isinstance(verdict, BudgetExhausted)
        assert verdict.budget == "delay"
        assert verdict.path[-1] == ("in", 1)

    def test_different_final_states_distinguish(self):
        r0 = eval_res(ast("x := 1"), EMPTY)
        r1 = eval_res(ast("x := 2"), EMPTY)
        verdict = delay_bisim(r0, r1, self.CFG)
        assert isinstance(verdict, Distinguished)

    def test_same_state_different_latency_is_equivalent(self):
        r0 = eval_res(ast("x := 1"), EMPTY)
        r1 = eval_res(ast("skip ; x := 1 ; skip"), EMPTY)
        r2 = eval_res(ast("x := 1 ; y := 0"), EMPTY)  # extra silent step
        assert delay_bisim(r0, r1, self.CFG) == EquivalentUpToBounds()
        assert delay_bisim(r0, r2, self.CFG) == EquivalentUpToBounds()

    def test_in_vs_out_mismatch(self):
        r0 = eval_res(ast("input x"), EMPTY)
        r1 = eval_res(ast("output 1"), EMPTY)
        verdict = delay_bisim(r0, r1, self.CFG)
        assert isinstance(verdict, Distinguished)

    def test_reflexive_on_generated_programs(self):
        rng = random.Random(41)
        cfg = BisimConfig(delay_budget=8, depth_budget=12, input_sample=(0, 1))
        for _ in range(40):
            stmt = gen_stmt(rng, 5, io=True)
            s = gen_state(rng)
            verdict = delay_bisim(eval_res(stmt, s), eval_res(stmt, s), cfg)
            assert not isinstance(verdict, Distinguished)

    def test_symmetric_verdicts(self):
        cfg = BisimConfig(delay_budget=4, depth_budget=20, input_sample=(0, 1))
        pairs = [
            (rep(1), rep_fast(1)),
            (rep(1), rep(2)),
            (bot(), Res.ret(EMPTY)),
            (echo(EMPTY), echo_div()),
        ]
        for r0, r1 in pairs:
            a = delay_bisim(r0, r1, cfg)
            b = delay_bisim(r1, r0, cfg)
            assert type(a) is type(b)

    def test_big_vs_small_step_always_bisimilar(self):
        rng = random.Random(43)
        cfg = BisimConfig(delay_budget=8, depth_budget=10, input_sample=(0, 1))
        for _ in range(40):
            stmt = gen_stmt(rng, 5, io=True)
            s = gen_state(rng)
            verdict = delay_bisim(eval_res(stmt, s), norm_res(stmt, s), cfg)
            assert not isinstance(verdict, Distinguished)

    def test_monotone_in_delay_budget(self):
        # enlarging the delay budget never flips an equivalence verdict
        # into a distinction
        rng = random.Random(47)
        for _ in range(30):
            stmt = gen_stmt(rng, 5, io=True)
            s = gen_state(rng)
            small = delay_bisim(
                eval_res(stmt, s), norm_res(stmt, s),
                BisimConfig(delay_budget=2, depth_budget=8, input_sample=(0,)),
            )
            big = delay_bisim(
                eval_res(stmt, s), norm_res(stmt, s),
                BisimConfig(delay_budget=32, depth_budget=8, input_sample=(0,)),
            )
            if small == EquivalentUpToBounds():
                assert not isinstance(big, Distinguished)

    def test_distinguished_witness_replays(self):
        cfg = BisimConfig(delay_budget=4, depth_budget=30, input_sample=(0, 1))
        cases = [
            (rep(1), rep(2)),
            (eval_res(ast("x := 1"), EMPTY), eval_res(ast("x := 2"), EMPTY)),
            (eval_res(ast("input x ; output x"), EMPTY),
             eval_res(ast("input x ; output x + 1"), EMPTY)),
        ]
        for r0, r1 in cases:
            verdict = delay_bisim(r0, r1, cfg)
            assert isinstance(verdict, Distinguished)
            assert replay_witness(r0, r1, cfg, verdict.witness)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BisimConfig(delay_budget=0)
        with pytest.raises(ValueError):
            BisimConfig(input_sample=())

    def test_budgets_are_ints(self):
        for budgets in ({"delay_budget": 2.5}, {"depth_budget": 4.0}):
            with pytest.raises(TypeError):
                BisimConfig(**budgets)
        with pytest.raises(TypeError):
            responsive(bot(), 2.5, 10, (0,))
        with pytest.raises(TypeError):
            responsive(bot(), 2, 10.0, (0,))
        assert BisimConfig(delay_budget=True).delay_budget == 1

    def test_a_sample_is_a_tuple_of_distinct_values(self):
        # a repeated value explores the same branch again: six zeros would
        # end on the node budget where one zero confirms
        cfg = BisimConfig(input_sample=[0, 0, 1, 1, 1, -1, 0])
        assert cfg.input_sample == (0, 1, -1)
        assert cfg == BisimConfig() and hash(cfg) == hash(BisimConfig())
        r = eval_res(ast("while tt do input x ; output x od"), EMPTY)
        for sample in ((0,), [0] * 6):
            assert delay_bisim(r, r, BisimConfig(input_sample=sample)) == EquivalentUpToBounds()
            assert responsive(r, 4, 64, sample) == ResponsiveUpToBounds()

    def test_sample_values_are_ints_read_as_64_bit_values(self):
        # a non-int is refused up front, not mid-search on a run that reads
        # it, and the stock echo no longer confirms a sample it cannot read
        r = eval_res(ast("while tt do input x ; output x od"), EMPTY)
        for res in (r, echo(EMPTY)):
            for bad in (0.5, "1"):
                with pytest.raises(TypeError):
                    delay_bisim(res, res, BisimConfig(input_sample=(bad,)))
                with pytest.raises(TypeError):
                    responsive(res, 4, 8, (bad,))
        cfg = BisimConfig(input_sample=(0, 2**64, 2**63, -(2**63), True))
        assert cfg.input_sample == (0, -(2**63), 1)
        # 2**64 is read as 0, so echo and echo_div both echo it forever
        cfg = BisimConfig(delay_budget=4, depth_budget=8, input_sample=(2**64,))
        assert delay_bisim(echo(EMPTY), echo_div(), cfg) == EquivalentUpToBounds()


def delays(p):
    """p delays, then ret."""
    r = Res.ret(EMPTY)
    for _ in range(p):
        r = Res.delay(r)
    return r


class TestDelayBudget:
    # D bounds the delays before each head, on each side, as the latency
    # budget does for responsive

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heads_match_iff_each_is_under_at_most_d_delays(self, d):
        cfg = BisimConfig(delay_budget=d, depth_budget=4, input_sample=(0,))
        for p0 in range(d + 3):
            for p1 in range(d + 3):
                verdict = delay_bisim(delays(p0), delays(p1), cfg)
                if p0 <= d and p1 <= d:
                    assert verdict == EquivalentUpToBounds(), (p0, p1)
                else:
                    assert verdict == BudgetExhausted("delay"), (p0, p1)

    @pytest.mark.parametrize("d", [1, 100, 10**5])
    def test_a_query_computes_d_plus_1_observations_per_side(self, d):
        # a pair that delays forever and counts its observations
        calls = [0]

        def f(n):
            calls[0] += 1
            return ("delay", f, n + 1, None)

        r = Res(f, 0)
        cfg = BisimConfig(delay_budget=d, depth_budget=4, input_sample=(0,))
        assert delay_bisim(r, r, cfg) == BudgetExhausted("delay")
        assert calls[0] == 2 * (d + 1)
        calls[0] = 0
        assert responsive(r, d, 4, (0,)) == LatencyExceeded(())
        assert calls[0] == d + 1


class TestNoCells:
    # the search steps raw (fn, arg) pairs, as drive does, so a query on
    # the interpreters' resumptions makes no Res

    @pytest.mark.parametrize("interp", [eval_res, norm_res])
    def test_the_checkers_build_no_cells(self, interp):
        echo = interp(ast("while tt do input x ; output x od"), EMPTY)
        padded = interp(ast("while tt do input x ; output x ; x := 0 od"), EMPTY)
        off = interp(ast("while tt do input x ; output x + 1 od"), EMPTY)
        loop = interp(ast(LOOP), EMPTY)
        cfg = BisimConfig(delay_budget=8, depth_budget=12, input_sample=(0, 1))
        got = []
        runs = [
            lambda: delay_bisim(echo, padded, cfg),
            lambda: delay_bisim(echo, off, cfg),
            lambda: delay_bisim(loop, loop, cfg),
            lambda: responsive(echo, 8, 12, (0, 1)),
            lambda: responsive(loop, 8, 12, (0, 1)),
        ]
        for run in runs:
            assert cells_built(lambda: got.append(run())) == 0
        witness = (("in", 0), ("mismatch", ("out", 0), ("out", 1)))
        assert got == [
            EquivalentUpToBounds(), Distinguished(witness), BudgetExhausted("delay"),
            ResponsiveUpToBounds(), LatencyExceeded(()),
        ]
        assert cells_built(lambda: got.append(replay_witness(echo, off, cfg, witness))) == 0
        assert got[-1] is True


class TestResponsive:
    def test_echo_is_responsive(self):
        assert responsive(echo(EMPTY), 2, 50, (0, 1)) == ResponsiveUpToBounds()

    def test_echo_div_is_not(self):
        verdict = responsive(echo_div(), 8, 50, (0, 1))
        assert isinstance(verdict, LatencyExceeded)
        assert verdict.path[-1] == ("in", 1)

    def test_rep_is_responsive(self):
        # rep emits within exactly two delays each cycle
        assert strip(rep(3), 2)[0] == "out"
        assert responsive(rep(3), 2, 50, (0,)) == ResponsiveUpToBounds()

    def test_bot_is_not_responsive(self):
        assert responsive(bot(), 8, 50, (0,)) == LatencyExceeded(())

    def test_latency_budget_matters(self):
        assert isinstance(responsive(rep(3), 1, 50, (0,)), LatencyExceeded)

    def test_validation(self):
        with pytest.raises(ValueError):
            responsive(bot(), 0, 10, (0,))
        with pytest.raises(ValueError):
            responsive(bot(), 1, 10, ())


class TestNodeBudget:
    # depth 6 under a two-value sample makes 2^7 - 1 calls: 63 input nodes
    # and 64 leaves at depth 0
    INPUTS = "while tt do input x od"
    CFG = BisimConfig(delay_budget=8, depth_budget=6, input_sample=(0, 1))

    def test_bisim_counts_one_node_per_call(self, monkeypatch):
        r = eval_res(ast(self.INPUTS), EMPTY)
        monkeypatch.setattr(checks, "NODE_BUDGET", 127)
        assert delay_bisim(r, r, self.CFG) == EquivalentUpToBounds()
        # the last call is the rightmost leaf
        monkeypatch.setattr(checks, "NODE_BUDGET", 126)
        assert delay_bisim(r, r, self.CFG) == BudgetExhausted("nodes", (("in", 1),) * 6)

    def test_responsive_counts_one_node_per_call(self, monkeypatch):
        r = eval_res(ast(self.INPUTS), EMPTY)
        monkeypatch.setattr(checks, "NODE_BUDGET", 127)
        assert responsive(r, 8, 6, (0, 1)) == ResponsiveUpToBounds()
        monkeypatch.setattr(checks, "NODE_BUDGET", 126)
        assert responsive(r, 8, 6, (0, 1)) == BudgetExhausted("nodes", (("in", 1),) * 6)

    def test_no_sibling_is_explored_once_the_budget_is_spent(self):
        # input 1 tells the two apart at once, but input 0 is explored
        # first and spends the budget
        r0 = eval_res(ast(f"input x ; if x = 0 then {self.INPUTS} else output 1 fi"), EMPTY)
        r1 = eval_res(ast(f"input x ; if x = 0 then {self.INPUTS} else output 2 fi"), EMPTY)
        cfg = BisimConfig(delay_budget=8, depth_budget=64, input_sample=(0, 1))
        verdict = delay_bisim(r0, r1, cfg)
        assert verdict.budget == "nodes" and verdict.path[0] == ("in", 0)
        assert isinstance(delay_bisim(r0, r1, self.CFG), Distinguished)
        assert responsive(r0, 8, 64, (0, 1)).budget == "nodes"

    def test_the_budget_leaves_small_queries_alone(self):
        rng = random.Random(59)
        for _ in range(40):
            stmt = gen_stmt(rng, 5, io=True)
            s = gen_state(rng)
            verdict = delay_bisim(eval_res(stmt, s), norm_res(stmt, s), self.CFG)
            assert getattr(verdict, "budget", None) != "nodes"
            verdict = responsive(eval_res(stmt, s), 8, 6, (0, 1))
            assert getattr(verdict, "budget", None) != "nodes"


class TestDeepSearch:
    def test_a_node_budget_query_costs_the_same_per_node_at_any_depth(self):
        # the search keeps one path list and no call frame per level, so a
        # query that ends at the node budget takes about a second at any
        # depth; a path copied per node would make this take over a minute
        r = eval_res(ast("while tt do output 5 od"), EMPTY)
        cfg = BisimConfig(depth_budget=10**6)
        for check in (lambda: delay_bisim(r, r, cfg), lambda: responsive(r, 16, 10**6)):
            start = time.perf_counter()
            verdict = check()
            assert time.perf_counter() - start < 10.0
            assert verdict == BudgetExhausted("nodes", (("out", 5),) * checks.NODE_BUDGET)


class TestReplayWitness:
    CFG = BisimConfig(delay_budget=4, depth_budget=8, input_sample=(0, 1))
    # both output 1, then end in different states
    R0 = eval_res(ast("output 1 ; x := 1"), EMPTY)
    R1 = eval_res(ast("output 1 ; x := 2"), EMPTY)
    END = ("mismatch", ("ret", EMPTY.upd(0, 1)), ("ret", EMPTY.upd(0, 2)))

    def test_the_found_witness_replays(self):
        verdict = delay_bisim(self.R0, self.R1, self.CFG)
        assert verdict == Distinguished((("out", 1), self.END))
        assert replay_witness(self.R0, self.R1, self.CFG, verdict.witness)

    @pytest.mark.parametrize("witness", [
        (("out", 2), END),  # a wrong output value
        (("in", 1), END),  # an input step where both heads are outputs
        (("delay",), ("out", 1), END),  # delays are not steps of a witness
        (END,),  # the witness ends where both heads output 1
    ])
    def test_a_wrong_witness_does_not_replay(self, witness):
        assert not replay_witness(self.R0, self.R1, self.CFG, witness)

    def test_an_input_outside_the_sample_replays(self):
        r0 = eval_res(ast("input x ; output x"), EMPTY)
        r1 = eval_res(ast("input x ; if x = 7 then output 0 else output x fi"), EMPTY)
        assert delay_bisim(r0, r1, self.CFG) == EquivalentUpToBounds()
        witness = (("in", 7), ("mismatch", ("out", 7), ("out", 0)))
        assert replay_witness(r0, r1, self.CFG, witness)
        # a witness's input is read as the interpreters read it, wrapped
        witness = (("in", 7 + 2**64), ("mismatch", ("out", 7), ("out", 0)))
        assert replay_witness(r0, r1, self.CFG, witness)


class TestTraceEq:
    def test_reflexive(self):
        rng = random.Random(51)
        for _ in range(30):
            stmt, s = gen_stmt(rng, 5), gen_state(rng)
            t = eval_trace(stmt, s)
            assert trace_eq(t, t, 32) == EquivalentUpToBounds()

    def test_eval_equals_norm(self):
        rng = random.Random(53)
        for _ in range(80):
            stmt, s = gen_stmt(rng, 6), gen_state(rng)
            verdict = trace_eq(eval_trace(stmt, s), norm(stmt, s), 256)
            assert verdict == EquivalentUpToBounds()

    def test_distinguishes_nil_from_delay(self):
        # fuel 0 compares the first observation
        for fuel in (4, 0):
            verdict = trace_eq(
                eval_trace(Skip(), EMPTY),
                eval_trace(Assign(0, NumLit(0)), EMPTY),
                fuel,
            )
            assert verdict == Distinguished((0, ("nil", EMPTY), ("delay", EMPTY)))

    def test_fuel_is_a_non_negative_int(self):
        t0 = eval_trace(ast("x := 1"), EMPTY)
        t1 = eval_trace(ast("x := 2"), EMPTY)
        assert isinstance(trace_eq(t0, t1, 1), Distinguished)
        with pytest.raises(ValueError):
            trace_eq(t0, t1, -1)
        with pytest.raises(TypeError):
            trace_eq(t0, t1, 1.0)

    def test_the_last_delay_shows_no_state(self):
        # take(t, 2) shows the states of two delays and no more, so a third
        # observation that is a delay agrees whatever its state
        t0 = eval_trace(ast("x := 1 ; x := 2 ; x := 3"), EMPTY)
        t1 = eval_trace(ast("x := 1 ; x := 7 ; x := 3"), EMPTY)
        assert take(t0, 2) == take(t1, 2)
        assert trace_eq(t0, t1, 2) == EquivalentUpToBounds()
        assert trace_eq(t0, t1, 3) == Distinguished(
            (2, ("delay", State({0: 2})), ("delay", State({0: 7}))))

    def test_equivalent_iff_take_agrees(self):
        # random pairs, and pairs that share a first statement so that
        # their traces agree for a while and then part
        rng = random.Random(59)
        for _ in range(60):
            p, q0, q1 = gen_stmt(rng, 4), gen_stmt(rng, 4), gen_stmt(rng, 4)
            s = gen_state(rng)
            for a, b in ((p, q0), (Seq(p, q0), Seq(p, q1))):
                for fuel in range(9):
                    t0, t1 = eval_trace(a, s), eval_trace(b, s)
                    same = take(t0, fuel) == take(t1, fuel)
                    verdict = trace_eq(t0, t1, fuel)
                    assert (verdict == EquivalentUpToBounds()) is same, (a, b, fuel)

    def test_witness_index_points_at_first_disagreement(self):
        t0 = eval_trace(ast("x := 1 ; x := 2"), EMPTY)
        t1 = eval_trace(ast("x := 1 ; x := 3"), EMPTY)
        verdict = trace_eq(t0, t1, 16)
        assert isinstance(verdict, Distinguished)
        idx = verdict.witness[0]
        # replay: prefixes agree strictly before idx
        assert trace_eq(t0, t1, idx - 1) == EquivalentUpToBounds() if idx else True
