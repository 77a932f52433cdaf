"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
"criterion N (...): PASS/FAIL" line (visible with pytest -s, and captured
into the failure report otherwise).
"""

import random
import time
import tracemalloc
from pathlib import Path

from coindwhile.checks import (
    BisimConfig,
    Distinguished,
    EquivalentUpToBounds,
    LatencyExceeded,
    ResponsiveUpToBounds,
    delay_bisim,
    responsive,
    trace_eq,
)
from coindwhile.cli import main
from coindwhile.parse import NameTable, parse, pretty
from coindwhile.resumption import (
    drive,
    echo,
    echo_div,
    eval_res,
    norm_res,
    rep,
    rep_fast,
    run_events,
)
from coindwhile.syntax import (
    If,
    Input,
    Output,
    Seq,
    Skip,
    State,
    TrueLit,
    While,
    map_variables,
)
from coindwhile.trace import TracePrefix, eval_trace, norm, take

from gen import gen_script, gen_state, gen_stmt, gen_while_stmt

EMPTY = State.empty()
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def ast(src):
    stmt, _ = parse(src)
    return stmt


def _report(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


def test_criterion_1_interpreter_goldens():
    def body():
        t0 = time.perf_counter()
        for s in (EMPTY, EMPTY.upd(0, 9).upd(2, -4)):
            assert eval_trace(Skip(), s).step() == (s, None)

            t = eval_trace(ast("x := 17"), s)
            head, tail = t.step()
            assert head == s and tail.step() == (s.upd(0, 17), None)

            t = eval_trace(ast("while ff do skip od"), s)
            head, tail = t.step()
            assert head == s and tail.step() == (s, None)

            diverge = eval_trace(While(TrueLit(), Skip()), s)
            for n in (1, 10, 10**5):
                assert take(diverge, n) == TracePrefix((s,) * n, False)
        assert time.perf_counter() - t0 < 1.0

    _report(1, "interpreter golden equations", body)


def test_criterion_2_pure_differential():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(2024)
        for _ in range(500):
            stmt = gen_stmt(rng, 6)
            for _ in range(10):
                s = gen_state(rng)
                verdict = trace_eq(eval_trace(stmt, s), norm(stmt, s), 256)
                assert verdict == EquivalentUpToBounds()
        assert time.perf_counter() - t0 < 30.0

    _report(2, "big/small differential, pure programs", body)


def test_criterion_3_io_differential():
    def body():
        t0 = time.perf_counter()
        rng = random.Random(2025)
        for _ in range(500):
            stmt = gen_stmt(rng, 6, io=True)
            s = gen_state(rng)
            script = gen_script(rng)
            big = run_events(eval_res(stmt, s), script, 256)
            small = run_events(norm_res(stmt, s), script, 256)
            render = lambda log: b"\n".join(repr(ev).encode() for ev in log)
            assert render(big) == render(small)
        assert time.perf_counter() - t0 < 30.0

    _report(3, "big/small differential, I/O programs", body)


def test_criterion_4_skip_identity():
    def body():
        rng = random.Random(2026)
        for _ in range(500):
            stmt = gen_stmt(rng, 6)
            s = gen_state(rng)
            ref = take(eval_trace(stmt, s), 256)
            assert take(eval_trace(Seq(Skip(), stmt), s), 256) == ref
            assert take(eval_trace(Seq(stmt, Skip()), s), 256) == ref

    _report(4, "skip is the sequencing identity", body)


def test_criterion_5_guard_progress():
    def body():
        rng = random.Random(2027)
        for _ in range(200):
            w = gen_while_stmt(rng, 5, io=True)
            s = gen_state(rng)
            _, tail = eval_trace(_purify(w), s).step()
            assert tail is not None
            assert eval_res(w, s).step()[0] == "delay"

    _report(5, "loops always make progress", body)


def _purify(stmt):
    # replace I/O statements by skip so the trace interpreter accepts them;
    # the loop shape (and hence its first observation) is unchanged
    match stmt:
        case Seq(a, b):
            return Seq(_purify(a), _purify(b))
        case If(c, a, b):
            return If(c, _purify(a), _purify(b))
        case While(c, b):
            return While(c, _purify(b))
        case Input(_) | Output(_):
            return Skip()
        case _:
            return stmt


def test_criterion_6_checker_verdicts():
    def body():
        cfg = BisimConfig(delay_budget=2, depth_budget=100, input_sample=(0,))
        for v in (0, 1, -7):
            assert delay_bisim(rep(v), rep_fast(v), cfg) == EquivalentUpToBounds()
        assert isinstance(delay_bisim(rep(1), rep(2), cfg), Distinguished)
        assert responsive(echo(EMPTY), 8, 64, (0, 1)) == ResponsiveUpToBounds()
        assert isinstance(responsive(echo_div(), 8, 64, (0, 1)), LatencyExceeded)

    _report(6, "bisimilarity and responsiveness verdicts", body)


def test_criterion_7_productivity_budget():
    def body():
        steps = 10**5
        prog = ast("while tt do output 1 od")

        def observe_trace():
            t = norm(While(TrueLit(), Skip()), EMPTY)
            for _ in range(steps):
                _, t = t.step()  # drop the head each step

        def observe_events():
            seen = 0
            # drive keeps none of the prefix it has observed
            for _ in drive(eval_res(prog, EMPTY), lambda: None, steps):
                seen += 1
            # fuel delays/outputs plus the truncation mark
            assert seen == steps + 1

        # timing pass (tracemalloc off: its hooks would dominate the cost)
        for name, run in (("trace", observe_trace), ("events", observe_events)):
            t0 = time.perf_counter()
            run()
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"{name}: {steps} observations took {elapsed:.2f}s"

        # memory pass: retained allocations must not scale with steps
        for name, run in (("trace", observe_trace), ("events", observe_events)):
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            run()
            cur = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
            assert cur - base < 1_000_000, f"{name} retained {cur - base} bytes"

    _report(7, "productivity and flat memory", body)


def test_criterion_8_parser_round_trip():
    def body():
        rng = random.Random(2028)
        names = NameTable(["a", "b", "c", "d"])
        for _ in range(1000):
            stmt = gen_stmt(rng, depth=6, io=rng.random() < 0.5)
            text = pretty(stmt, names)
            stmt2, names2 = parse(text)
            remapped = map_variables(
                stmt2, lambda i: names.index_of(names2.name_of(i))
            )
            assert remapped == stmt, text

    _report(8, "parser/pretty-printer round trip", body)


def test_criterion_9_cli_integration(capsys):
    def body():
        for name in ("counter.whl", "loop.whl", "echo.whl"):
            status = main(
                ["compare", str(PROGRAMS / name), "--fuel", "256",
                 "--script", "0,0,1"]
            )
            out = capsys.readouterr().out
            assert status == 0 and out.startswith("agree"), (name, out)
        assert main(["run", str(PROGRAMS / "loop.whl"), "--fuel", "5"]) == 2
        assert main(
            ["run", str(PROGRAMS / "echo.whl"), "--script", "0"]
        ) == 3
        capsys.readouterr()

    _report(9, "command-line integration", body)
