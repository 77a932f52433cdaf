#!/usr/bin/env python3
"""The repository's benchmark.

    python3 bench/run.py --workload stream|verify|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout. It imports `coindwhile` from `src/` of that
checkout, runs the named workload in whole rounds for at least S seconds as a
closed loop (one job at a time, at most one child process alive), checks
every output against the reference interpreter in `bench/reference.py`, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from itertools import chain, repeat
from pathlib import Path
from types import CodeType

import gen
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAMS = ROOT / "programs"
OUT = ROOT / ".bench_out"

WORKLOADS = ("stream", "verify", "cli")
SETUPS = 11  # set-ups per run, spread over it; setup_s is their median
WORKERS = 16  # fresh processes per round of stream or verify
PROFILE_SEED = 0  # call counts come from this seed's inputs, whatever --seed is

# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans around the benchmark's calls into the program, kept in memory.

    A span is [name, start, end, parent index, job id, attrs]. With
    `profile`, every span but a job's also runs under a cProfile profiler
    of its own name, for exact call counts."""

    def __init__(self, profile: bool = False):
        self.spans: list = []
        self.open: list = []
        self.job = None
        self.profilers: dict | None = {} if profile else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self.open[-1] if self.open else None
        rec = [name, 0.0, 0.0, parent, self.job, attrs]
        self.spans.append(rec)
        self.open.append(len(self.spans) - 1)
        prof = None
        if self.profilers is not None and name != "job":
            if name not in self.profilers:
                self.profilers[name] = cProfile.Profile()
            prof = self.profilers[name]
        rec[1] = time.perf_counter()
        if prof:
            prof.enable()
        try:
            yield attrs
        finally:
            if prof:
                prof.disable()
            rec[2] = time.perf_counter()
            self.open.pop()


def span(tr, name, **attrs):
    return tr.span(name, **attrs) if tr else contextlib.nullcontext({})


# ---------------------------------------------------------------------------
# calls into the program, shared by the workloads


def observe_trace(tr, name, interp, stmt, fuel):
    """take() of one trace interpreter's run from the empty state, after the
    first observation of another run of it."""
    with span(tr, name) as sp:
        t0 = time.perf_counter()
        interp(stmt, EMPTY).step()
        sp["first_s"] = time.perf_counter() - t0
        # no head is held, so take() frees each memoized step behind it
        prefix = cw.take(interp(stmt, EMPTY), fuel)
        sp["obs"] = len(prefix.states)
    return prefix


def observe_events(tr, name, interp, stmt, script, fuel):
    """The drive() event log of one resumption interpreter's run."""
    inputs = iter(script)
    with span(tr, name) as sp:
        t0 = time.perf_counter()
        r = interp(stmt, EMPTY)
        r.step()
        sp["first_s"] = time.perf_counter() - t0
        events = drive(r, lambda: next(inputs, None), fuel)
        del r  # a held head would keep every memoized step alive
        log = list(events)
        sp["obs"] = len(log)
    return log


_TOKEN = re.compile(r":=|<=|[=+\-*();]|\w+")


def parse_text(tr, text, tokens, names=None):
    """Parse; with `names`, put the program on that table's numbering."""
    with span(tr, "parse", tokens=tokens):
        stmt, own = cw.parse(text)
    if names is None:
        return stmt, own
    with span(tr, "syntax.map_variables"):
        return map_variables(stmt, lambda i: names.intern(own.name_of(i))), names


def index_key(names):
    """Render a reference state as State.items() renders a program state."""
    return lambda env: tuple(sorted((names.index_of(n), v) for n, v in env.items()))


def keyed(log):
    return (("ret", e[1].items()) if e[0] == "ret" else e for e in log)


def digest(items) -> str:
    """A digest of a sequence, made item by item so that no copy of a long
    run is held."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()


class Job:
    """One closed-loop operation. prepare() computes the reference's answer
    before any timing; run() makes the timed calls into the program; check()
    compares their result with the reference, untimed, and returns (ok,
    observations). `known_fault` names a fault of the program that makes the
    job fail every time today."""

    known_fault = None

    def __init__(self, label: str):
        self.label = label

    def prepare(self):
        raise NotImplementedError

    def run(self, tr):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# stream: a few long runs under all four interpreters

STREAM_FUEL = 100_000
LOOP = ("while", ("tt",), ("skip",))
ECHO = ("block", (
    ("input", "x"),
    ("while", ("eq", ("var", "x"), ("num", 0)),
     ("block", (("output", ("var", "x")), ("input", "x")))),
))
COUNTER = ("block", (
    ("assign", "x", ("num", 3)),
    ("while", ("le", ("num", 1), ("var", "x")),
     ("assign", "x", ("sub", ("var", "x"), ("num", 1)))),
))
EMIT = ("while", ("tt",), ("output", ("num", 5)))
EMIT_PADDED = ("while", ("tt",), ("block", (
    ("assign", "x", ("var", "x")), ("output", ("num", 5)))))
INTERPRETERS = {
    ("trace", "big"): "eval_trace", ("trace", "small"): "norm",
    ("resumption", "big"): "eval_res", ("resumption", "small"): "norm_res",
}


def _n(v):
    return ("num", v)


def _v(x):
    return ("var", x)


def _forever(*body):
    return ("while", ("tt",), ("block", body))


def _counted(i, bound, body):
    return ("block", (("assign", i, _n(0)), ("while", ("le", _v(i), _n(bound)),
            ("block", (body, ("assign", i, ("add", _v(i), _n(1))))))))


def stream_programs(rng):
    """(name, AST, source) of the stream programs; the seed picks constants,
    never the shape of a run."""
    a, b, c = (rng.randrange(1, 1000) for _ in range(3))
    counter = ("block", (("assign", "x", _n(a)), _forever(
        ("assign", "x", ("add", _v("x"), _n(1))),
        ("if", ("le", ("mul", _v("x"), _v("x")), _n(b * 1000)),
         ("assign", "y", ("add", _v("y"), _v("x"))),
         ("assign", "y", ("sub", _v("y"), ("mul", _v("x"), _n(c))))))))
    nested = ("block", (("assign", "s", _n(a)), _forever(
        _counted("i", 2, _counted("j", 2, _counted(
            "k", 3, ("assign", "s", ("add", ("mul", _v("s"), _n(3)), _v("k")))))))))
    output = ("block", (("assign", "x", _n(b)), _forever(
        ("assign", "x", ("add", ("mul", _v("x"), _n(5)), _n(c))),
        ("output", _v("x")))))
    return [
        ("loop", LOOP, (PROGRAMS / "loop.whl").read_text()),
        ("counter", counter, ref.render(counter)),
        ("nested", nested, ref.render(nested)),
        ("output", output, ref.render(output)),
        ("echo", ECHO, (PROGRAMS / "echo.whl").read_text()),
    ]


class StreamJob(Job):
    def __init__(self, name, prog, stmt, names, interp, fuel, cache):
        super().__init__(f"{name}/{INTERPRETERS[interp]}")
        self.name, self.prog, self.stmt, self.names = name, prog, stmt, names
        self.interp, self.fuel, self.cache = interp, fuel, cache
        # echo reads zeros: its script never runs out within the fuel

    def run(self, tr):
        kind, mode = self.interp
        fn = getattr(cw, INTERPRETERS[self.interp])
        if kind == "trace":
            return observe_trace(tr, f"trace.{mode}", fn, self.stmt, self.fuel)
        return observe_events(tr, f"resumption.{mode}", fn, self.stmt,
                              repeat(0, self.fuel), self.fuel)

    def prepare(self):
        """The reference run is digested as it goes, so that it adds nothing
        to the worker's peak memory beside the program's own."""
        key = (self.name, self.interp[0], self.fuel)
        if key not in self.cache:
            k = index_key(self.names)
            if self.interp[0] == "trace":
                items = ref.iter_states(self.prog, {}, self.fuel, k)
            else:
                items = ref.iter_events(self.prog, {}, repeat(0, self.fuel), self.fuel, k)
            self.cache[key] = digest(items)
        self.want = self.cache[key]

    def check(self, result):
        if self.interp[0] == "trace":
            n = len(result.states)
            got = digest(chain((s.items() for s in result.states), [result.ended]))
        else:
            n = len(result)
            got = digest(keyed(result))
        return got == self.want, n


def stream_jobs(seed, fuel):
    cache: dict = {}
    jobs = []
    for name, prog, text in stream_programs(random.Random(seed)):
        stmt, names = cw.parse(text)
        interps = list(INTERPRETERS)
        if ref.has_io(prog):
            interps = interps[2:]
        jobs += [StreamJob(name, prog, stmt, names, i, fuel, cache) for i in interps]
    return jobs


# ---------------------------------------------------------------------------
# verify: parse, differential run and checkers on many short programs

VERIFY_SIZES = (3, 5, 9, 16, 30, 55, 100, 180, 320)
VERIFY_REPEAT = 4
VERIFY_FUEL = 500
BISIM = dict(delay_budget=8, depth_budget=6, input_sample=(0, 1))
RESPONSIVE = dict(latency_budget=16, depth_budget=6, input_sample=(0, 1))
# delay_bisim skips at most this many delays per side before any head
REPLAY_CAP = (BISIM["delay_budget"] + 2) ** 2


def verify_corpus(seed):
    """(AST, padded twin, mutated twin, script) for every size, kind and
    ending, VERIFY_REPEAT times; the seed picks programs, not the schedule."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(VERIFY_REPEAT):
        for size in VERIFY_SIZES:
            for io_ in (False, True):
                for forever in (False, True):
                    prog = gen.program(rng, size, io_, forever)
                    script = [rng.randint(-3, 3) for _ in range(64)]
                    corpus.append((prog, gen.padded(rng, prog), gen.mutated(rng, prog),
                                   script))
    return corpus


class VerifyJob(Job):
    def __init__(self, label, prog, pad, mut, script):
        super().__init__(label)
        self.prog, self.mut, self.script = prog, mut, script
        self.texts = [(t, len(_TOKEN.findall(t)))
                      for t in map(ref.render, (prog, pad, mut))]
        self.pure = not ref.has_io(prog)

    def prepare(self):
        # the twins go on the original's numbering as run() puts them
        _, names = cw.parse(self.texts[0][0])
        for text, tokens in self.texts[1:]:
            parse_text(None, text, tokens, names)
        self.key = key = index_key(names)
        # Within the delay budget, delay_bisim must find the first difference
        # the reference finds. If the reference's differing heads include a
        # silent stretch longer than the budget, delay_bisim runs out of
        # budget there instead, unless it is distinguished on another path.
        diff = ref.first_difference(self.prog, self.mut, BISIM["depth_budget"],
                                    BISIM["input_sample"], BISIM["delay_budget"], key)
        if diff is None:
            self.mut_verdicts = None  # any verdict; a Distinguished one must replay
        elif all(ref.head_after(p, diff, BISIM["delay_budget"], key) is not None
                 for p in (self.prog, self.mut)):
            self.mut_verdicts = (cw.Distinguished,)
        else:
            self.mut_verdicts = (cw.Distinguished, cw.BudgetExhausted)
        if self.pure:
            runs = ref.states(self.prog, {}, VERIFY_FUEL, key)
        else:
            runs = ref.events(self.prog, {}, self.script, VERIFY_FUEL, key)
        resp = ref.responsive(self.prog, RESPONSIVE["latency_budget"],
                              RESPONSIVE["depth_budget"], RESPONSIVE["input_sample"])
        self.want = runs, resp

    def run(self, tr):
        (text, n0), (pad_text, n1), (mut_text, n2) = self.texts
        stmt, names = parse_text(tr, text, n0)
        pad, _ = parse_text(tr, pad_text, n1, names)
        mut, _ = parse_text(tr, mut_text, n2, names)
        if self.pure:
            with span(tr, "checks.trace_eq"):
                eq = cw.trace_eq(cw.eval_trace(stmt, EMPTY), cw.norm(stmt, EMPTY),
                                 VERIFY_FUEL)
            prefix = observe_trace(tr, "trace.big", cw.eval_trace, stmt, VERIFY_FUEL)
            runs = (eq, prefix)
        else:
            runs = tuple(observe_events(tr, f"resumption.{mode}", fn, stmt, self.script,
                                        VERIFY_FUEL)
                         for mode, fn in (("big", cw.eval_res), ("small", cw.norm_res)))
        cfg = cw.BisimConfig(**BISIM)
        verdicts = []
        for twin in (pad, mut):
            with span(tr, "checks.bisim"):
                verdicts.append(cw.delay_bisim(cw.eval_res(stmt, EMPTY),
                                               cw.eval_res(twin, EMPTY), cfg))
        with span(tr, "checks.responsive"):
            verdicts.append(cw.responsive(cw.eval_res(stmt, EMPTY), **RESPONSIVE))
        return runs, verdicts

    def check(self, result):
        runs, (v_pad, v_mut, v_resp) = result
        want_runs, want_resp = self.want
        if self.pure:
            eq, prefix = runs
            ok = isinstance(eq, cw.EquivalentUpToBounds) and (
                [s.items() for s in prefix.states], prefix.ended) == want_runs
            n = 3 * len(prefix.states)
        else:
            ok = list(keyed(runs[0])) == want_runs == list(keyed(runs[1]))
            n = len(runs[0]) + len(runs[1])
        ok = ok and not isinstance(v_pad, cw.Distinguished)
        if self.mut_verdicts is not None:
            ok = ok and isinstance(v_mut, self.mut_verdicts)
        if isinstance(v_mut, cw.Distinguished):
            ok = ok and self.replays(v_mut.witness)
        if want_resp is None:
            ok = ok and isinstance(v_resp, cw.ResponsiveUpToBounds)
        else:
            ok = (ok and isinstance(v_resp, cw.LatencyExceeded)
                  and v_resp.path == want_resp)
        return ok, n

    def replays(self, witness) -> bool:
        """The witness's path leads both programs, on the reference, to the
        differing heads it names."""
        *path, (tag, h0, h1) = witness
        if tag != "mismatch":
            return False
        want = [("ret", h[1].items()) if h[0] == "ret" else h for h in (h0, h1)]
        got = [ref.head_after(p, path, REPLAY_CAP, self.key)
               for p in (self.prog, self.mut)]
        return got == want and got[0] != got[1]


def verify_jobs(seed, small=False):
    corpus = verify_corpus(seed)
    if small:  # one text of each size, both kinds, both endings
        corpus = [corpus[4 * j + 2 * (j % 2) + (j // 2) % 2] for j in range(9)]
    return [VerifyJob(f"text{i}", *item) for i, item in enumerate(corpus)]


# ---------------------------------------------------------------------------
# cli: one `python -m coindwhile` command at a time

CLI_FUEL = 20_000
CLI_SUMMARY_FUEL = 100_000
CLI_ECHO_ZEROS = 3_000
CLI_SHORT_FUEL = 1_000
NAME_FAULT = ("`bisim` parses each file with its own NameTable and so compares "
              "states by variable index, not by name")


def render_state(env) -> str:
    return "{" + ", ".join(f"{n}={v}" for n, v in sorted(env.items())) + "}"


def event_line(e) -> str:
    if e[0] == "ret":
        return f"ret {render_state(e[1])}"
    return e[0] if len(e) == 1 else f"{e[0]} {e[1]}"


def event_json(e):
    if e[0] in ("in", "out"):
        return {"tag": e[0], "value": e[1]}
    if e[0] == "ret":
        return {"tag": "ret", "state": e[1]}
    return {"tag": e[0]}


class CliJob(Job):
    """One command. expect() gives (exit status, the stdout lines or a
    predicate on them, observations the command prints or summarises)."""

    def __init__(self, label, argv, expect, as_json=False, known_fault=None):
        super().__init__(label)
        self.argv, self.expect, self.as_json = argv, expect, as_json
        self.known_fault = known_fault

    def prepare(self):
        self.want = self.expect()

    def run(self, tr):
        with span(tr, f"cli.{self.label}") as sp:
            out, status, rss_kb = run_child(self.argv)
            sp["lines"] = out.count(b"\n")
            sp["rss_mb"] = rss_kb / 1024
        return out, status, rss_kb

    def check(self, result):
        out, status, _ = result
        want_status, want_lines, n = self.want
        lines = out.decode().splitlines()
        if self.as_json:
            try:
                lines = [json.loads(line) for line in lines]
            except ValueError:
                return False, n
        ok = want_lines(lines) if callable(want_lines) else lines == want_lines
        return ok and status == want_status, n


def run_child(argv):
    """Run `python -m coindwhile argv` from the checkout root; returns
    (stdout, exit status, peak RSS of that child in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(OUT / "child.stderr", "wb") as err:
        p = subprocess.Popen([sys.executable, "-m", "coindwhile", *argv], cwd=ROOT,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=err, env=env)
        with p.stdout:
            out = p.stdout.read()
        _, wstatus, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(wstatus)
    return out, p.returncode, usage.ru_maxrss


def cli_jobs(seed, small=False):
    rng = random.Random(seed)
    work = OUT / "work" / str(seed)
    work.mkdir(parents=True, exist_ok=True)

    def put(name, prog):
        path = work / f"{name}.whl"
        path.write_text(ref.render(prog) + "\n")
        return str(path.relative_to(ROOT))

    a, b, c, k = (rng.randrange(1, 1000) for _ in range(4))
    count = ("block", (("assign", "i", _n(0)), ("assign", "x", _n(a)), _forever(
        ("assign", "i", ("add", _v("i"), _n(1))),
        ("assign", "x", ("add", ("mul", _v("x"), _n(3)), _n(b))))))
    grow = ("block", (("assign", "x", _n(a)),
                      _forever(("assign", "x", ("add", _v("x"), _n(1))))))
    output = ("block", (("assign", "x", _n(b)), _forever(
        ("assign", "x", ("add", ("mul", _v("x"), _n(5)), _n(c))), ("output", _v("x")))))
    mid_pure = gen.program(rng, 60, False, True)
    mid = gen.program(rng, 120, True, False)
    # seed-independent: the two queries that meet the NameTable fault
    xy = ("block", (("assign", "x", _n(1)), ("assign", "y", _n(2))))
    yx = ("block", (("assign", "y", _n(2)), ("assign", "x", _n(1))))
    x2y1 = ("block", (("assign", "x", _n(2)), ("assign", "y", _n(1))))
    files = {name: put(name, prog) for name, prog in (
        ("count", count), ("grow", grow), ("output", output), ("mid_pure", mid_pure),
        ("mid", mid), ("xy", xy), ("yx", yx), ("x2y1", x2y1))}
    echo_file, emit_file, padded_file, counter_file, loop_file = (
        f"programs/{f}.whl" for f in ("echo", "emit", "emit_padded", "counter", "loop"))
    fuel = 2_000 if small else CLI_FUEL
    echo_script = [0] * CLI_ECHO_ZEROS + [k]
    echo_fuel = 4 * len(echo_script)

    def states_run(prog, fuel, as_json):
        def expect():
            seq, ended = ref.states(prog, {}, fuel, dict)
            end = "ended" if ended else "truncated"
            if as_json:
                lines = [{"tag": "state", "state": s} for s in seq] + [{"tag": end}]
            else:
                lines = [render_state(s) for s in seq] + [end]
            return (0 if ended else 2), lines, len(seq)
        return expect

    def events_run(prog, script, fuel, as_json):
        def expect():
            log = ref.events(prog, {}, script, fuel, dict)
            status = {"ret": 0, "truncated": 2, "input-exhausted": 3}[log[-1][0]]
            render = event_json if as_json else event_line
            return status, [render(e) for e in log], len(log) - 1
        return expect

    def summary(prog):
        def expect():
            if ref.has_io(prog):
                log = ref.events(prog, {}, [], CLI_SUMMARY_FUEL, dict)
                n = {t: sum(e[0] == t for e in log) for t in ("in", "out", "delay")}
                line = (f"status={log[-1][0]} in={n['in']} out={n['out']}"
                        f" delay={n['delay']}")
                return 2, [line], sum(n.values())
            seq, _ = ref.states(prog, {}, CLI_SUMMARY_FUEL, lambda env: None)
            return 2, [f"status=truncated steps={len(seq)}"], len(seq)
        return expect

    def bisim(pa, pb):
        def expect():
            if ref.first_difference(pa, pb, 64, (0, 1, -1), 16, dict) is None:
                return 0, ["equivalent up to bounds"], 0
            return 4, (lambda lines: len(lines) == 1
                       and lines[0].startswith("distinguished: ")), 0
        return expect

    def responsive(prog):
        def expect():
            if ref.responsive(prog, 8, 64, (0, 1, -1)) is None:
                return 0, ["responsive up to bounds"], 0
            return 4, (lambda lines: lines[0].startswith("latency exceeded: ")), 0
        return expect

    def parsed(prog):
        return lambda: (0, (lambda lines: len(lines) == 1
                            and lines[0].split() == ref.render(prog).split()), 0)

    run_count = ["run", files["count"], "--fuel", str(fuel)]
    run_output = ["run", files["output"], "--fuel", str(fuel)]
    jobs = [
        CliJob("parse", ["parse", files["mid"]], parsed(mid)),
        CliJob("responsive", ["responsive", echo_file], responsive(ECHO)),
        CliJob("run-states", run_count, states_run(count, fuel, False)),
        CliJob("run-states-json", run_count + ["--json"], states_run(count, fuel, True),
               as_json=True),
        CliJob("summary-pure", ["run", files["grow"], "--emit", "summary",
                                "--fuel", str(CLI_SUMMARY_FUEL)], summary(grow)),
    ]
    if small:
        return jobs
    return jobs + [
        CliJob("run-events", run_output, events_run(output, [], fuel, False)),
        CliJob("run-events-json", run_output + ["--json"],
               events_run(output, [], fuel, True), as_json=True),
        CliJob("summary-io", ["run", files["output"], "--emit", "summary",
                              "--fuel", str(CLI_SUMMARY_FUEL)], summary(output)),
        CliJob("echo-script", ["run", echo_file, "--fuel", str(echo_fuel),
                               "--script", ",".join(map(str, echo_script))],
               events_run(ECHO, echo_script, echo_fuel, False)),
        CliJob("run-short", ["run", counter_file], states_run(COUNTER, 10_000, False)),
        CliJob("compare", ["compare", files["mid_pure"], "--fuel", "500"],
               lambda: (0, ["agree up to fuel 500"], 0)),
        CliJob("compare-io", ["compare", echo_file, "--script", f"0,0,{k}"],
               lambda: (0, ["agree up to fuel 10000"], 0)),
        CliJob("bisim", ["bisim", emit_file, padded_file], bisim(EMIT, EMIT_PADDED)),
        CliJob("bisim-names-equal", ["bisim", files["xy"], files["yx"]], bisim(xy, yx),
               known_fault=NAME_FAULT),
        CliJob("bisim-names-differ", ["bisim", files["yx"], files["x2y1"]],
               bisim(yx, x2y1), known_fault=NAME_FAULT),
        # short commands on the example programs: with them most of a round
        # is start-up, so the median job lies inside that cluster
        *(CliJob(f"parse-{f}", ["parse", f"programs/{f}.whl"], parsed(prog))
          for f, prog in (("loop", LOOP), ("echo", ECHO), ("counter", COUNTER),
                          ("emit", EMIT), ("emit_padded", EMIT_PADDED))),
        CliJob("run-short-json", ["run", counter_file, "--json"],
               states_run(COUNTER, 10_000, True), as_json=True),
        CliJob("run-loop", ["run", loop_file, "--fuel", str(CLI_SHORT_FUEL)],
               states_run(LOOP, CLI_SHORT_FUEL, False)),
        CliJob("run-emit", ["run", emit_file, "--fuel", str(CLI_SHORT_FUEL)],
               events_run(EMIT, [], CLI_SHORT_FUEL, False)),
        CliJob("echo-short", ["run", echo_file, "--script", f"0,0,{k}"],
               events_run(ECHO, [0, 0, k], 10_000, False)),
        CliJob("responsive-emit", ["responsive", emit_file], responsive(EMIT)),
        CliJob("compare-short", ["compare", counter_file],
               lambda: (0, ["agree up to fuel 10000"], 0)),
        CliJob("compare-emit", ["compare", emit_file, "--fuel", str(CLI_SHORT_FUEL)],
               lambda: (0, [f"agree up to fuel {CLI_SHORT_FUEL}"], 0)),
        CliJob("bisim-self", ["bisim", counter_file, counter_file],
               bisim(COUNTER, COUNTER)),
    ]


# ---------------------------------------------------------------------------
# set-up


def make_jobs(workload, seed, small=False):
    if workload == "stream":
        return stream_jobs(seed, 10_000 if small else STREAM_FUEL)
    if workload == "verify":
        return verify_jobs(seed, small)
    return cli_jobs(seed, small)


def setup(workload, seed):
    """Make the inputs, then warm up so that caches are filled and lazy
    set-up is done before timing: a short run of every stream job, the first
    verify texts, one cli command."""
    jobs = make_jobs(workload, seed)
    if workload == "stream":
        for job in make_jobs(workload, seed, small=True):
            job.fuel = 200
            job.run(None)
    elif workload == "verify":
        for job in jobs[:4]:
            job.run(None)
    else:
        jobs[0].run(None)
    return jobs


class SetupClock:
    """Times SETUPS fresh processes from spawn to the end of set-up:
    interpreter start, import, input generation and warm-up. The machine's
    speed drifts over seconds, so the set-ups are spread over the run, one
    whenever another share of it has passed; `spent` is their own time,
    which the run does not count against its length."""

    def __init__(self, workload, seed):
        self.argv = [sys.executable, __file__, "--setup-only", "--workload",
                     workload, "--seed", str(seed)]
        self.times: list = []
        self.spent = 0.0

    def tick(self, share):
        """Set up until the share `share` (0 to 1) of SETUPS is done."""
        while len(self.times) < 1 + int((SETUPS - 1) * min(share, 1.0)):
            t0 = time.perf_counter()
            p = subprocess.Popen(self.argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE)
            with p.stdout:
                line = p.stdout.readline()
                self.times.append(time.perf_counter() - t0)
                p.stdout.read()
            if p.wait() != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up process failed with status {p.returncode}")
            self.spent += time.perf_counter() - t0

    def median(self) -> float:
        self.tick(1.0)
        return statistics.median(self.times)


# ---------------------------------------------------------------------------
# running jobs


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.obs = 0
        self.correct = True
        self.times: list = []
        self.child_kb = 0
        self.known: set = set()

    def run(self, job, tr=None) -> float:
        """Run one job after a full collection, time it and check it;
        returns its time (0 if it raised)."""
        gc.collect()
        self.attempted += 1
        if tr:
            tr.job = job.label
        try:
            t0 = time.perf_counter()
            with span(tr, "job"):
                result = job.run(tr)
            dt = time.perf_counter() - t0
            ok, n = job.check(result)
        except Exception:  # a crash fails the job; the run goes on
            traceback.print_exc()
            self.failed += 1
            self.correct = False
            return 0.0
        self.times.append(dt)
        self.obs += n
        if isinstance(job, CliJob):
            self.child_kb = max(self.child_kb, result[2])
        if not ok:
            self.failed += 1
            if job.known_fault:
                self.known.add(f"{job.label}: {job.known_fault}")
            else:
                print(f"wrong output: {job.label}", file=sys.stderr)
                self.correct = False
        return dt


def control_rate() -> float:
    """Operations per second of a fixed arithmetic loop; not gated, it tells
    a drifting machine apart from a changed program."""
    n = 300_000
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFF
    return n / (time.perf_counter() - t0)


def run_slice(workload, seed, first, count):
    """In a worker process: set up, then run and check jobs[first:first +
    count]; print their tally as one JSON line."""
    jobs = setup(workload, seed)[first:first + count]
    for job in jobs:
        job.prepare()
    tally = Tally()
    for job in jobs:
        tally.run(job)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "obs": tally.obs, "correct": tally.correct,
                      "times": tally.times, "known": sorted(tally.known)}))


def run_round_in_workers(workload, seed, n_jobs, tally, between) -> int:
    """One round as WORKERS fresh processes, one after another, each running
    a slice of the jobs; merges their tallies into `tally` and returns the
    largest worker's peak RSS in KiB. `between()` is called after each."""
    size = -(-n_jobs // WORKERS)
    peak_kb = 0
    for first in range(0, n_jobs, size):
        p = subprocess.Popen([sys.executable, __file__, "--workload", workload,
                              "--seed", str(seed), "--slice", f"{first}:{size}"],
                             cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        with p.stdout:
            out = p.stdout.read()
        _, wstatus, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(wstatus)
        if p.returncode != 0:
            raise RuntimeError(f"worker for jobs {first}.. exited with {p.returncode}")
        part = json.loads(out.splitlines()[-1])
        tally.attempted += part["attempted"]
        tally.failed += part["failed"]
        tally.obs += part["obs"]
        tally.correct = tally.correct and part["correct"]
        tally.times += part["times"]
        tally.known.update(part["known"])
        peak_kb = max(peak_kb, usage.ru_maxrss)
        between()
    return peak_kb


def run_untraced(workload, seed, seconds):
    """Whole rounds until `seconds` have passed, not counting the set-ups
    timed between jobs. `cli` runs its jobs here, each a child process;
    `stream` and `verify` run each round in fresh worker processes, since
    one process draws one speed (see README)."""
    controls = [control_rate()]
    clock = SetupClock(workload, seed)
    tally = Tally()
    if workload == "cli":
        jobs = setup(workload, seed)
        for job in jobs:
            job.prepare()
    else:
        n_jobs = len(make_jobs(workload, seed))
    rounds = peak_kb = 0
    start = time.perf_counter()
    clock.tick(0.0)

    def measured():
        return time.perf_counter() - start - clock.spent

    def between():
        clock.tick(measured() / seconds)

    while rounds == 0 or measured() < seconds:
        if workload == "cli":
            for job in jobs:
                tally.run(job)
                between()
            peak_kb = tally.child_kb
        else:
            peak_kb = max(peak_kb, run_round_in_workers(workload, seed, n_jobs, tally,
                                                        between))
        rounds += 1
    setup_s = clock.median()
    controls.append(control_rate())
    times = sorted(tally.times) or [0.0]
    n = len(times)
    print(f"rounds={rounds} jobs={n} observations={tally.obs} "
          f"control_ops_per_s={statistics.median(controls):.0f} (not gated)")
    if n >= 40:  # the highest whole percentile with ten jobs beyond it
        print(f"job_p{100 * (n - 10) // n}_ms={times[n - 11] * 1000:.3f}"
              f" over {n} jobs (not gated)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "obs_per_s": (tally.obs / sum(times) if sum(times) else 0.0, "1/s"),
        "job_p50_ms": (statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# the traced run


def self_times(spans):
    """Per layer: the time of its spans minus the time of their children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    out: dict = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + (s[2] - s[1]) - child[i]
    return out


def function_counts(profilers, names=None):
    """Exact call counts per coindwhile function ("module:line:name"), from
    the profilers of the spans named in `names` (of all spans if None).

    Entries are read per code object: pstats keys by file, line and name,
    so lambdas that share a line would overwrite one another there."""
    counts: dict = {}
    pkg = str(SRC / "coindwhile")
    for name, prof in profilers.items():
        if names is not None and name not in names:
            continue
        for entry in prof.getstats():
            code = entry.code
            if isinstance(code, CodeType) and code.co_filename.startswith(pkg):
                module = Path(code.co_filename).stem
                key = f"{module}:{code.co_firstlineno}:{code.co_name}"
                counts[key] = counts.get(key, 0) + entry.callcount
    return counts


def module_counts(profilers, names=None):
    """Exact call counts per coindwhile module, and the Res.step calls."""
    counts: dict = {}
    res_steps = 0
    for key, nc in function_counts(profilers, names).items():
        module, _, func = key.split(":")
        counts[module] = counts.get(module, 0) + nc
        if key.startswith("resumption:") and func == "step":
            res_steps += nc
    return counts, res_steps


def per_layer(timed, profiled):
    """The per-layer metrics. `timed` and `profiled` are pairs of tracers,
    (this workload's jobs, the probe); a metric comes from the workload's
    own spans when it has any of the kind, else from the probe's."""

    def pick(tracers, pred):
        own, probe = ([s for s in t.spans if pred(s[0])] for t in tracers)
        return (own, tracers[0]) if own else (probe, tracers[1])

    def dur(ss):
        return sum(s[2] - s[1] for s in ss)

    def rate(name, attr):
        ss, _ = pick(timed, lambda n: n == name)
        return sum(s[5][attr] for s in ss) / dur(ss) if dur(ss) else 0.0

    def p50(pred, f=lambda s: s[2] - s[1]):
        ss, _ = pick(timed, pred)
        return statistics.median(f(s) for s in ss) if ss else 0.0

    def calls_per(pred, module, attr):
        ss, tracer = pick(profiled, pred)
        counts, _ = module_counts(tracer.profilers, {s[0] for s in ss})
        base = sum(s[5].get(attr, 0) for s in ss)
        return counts.get(module, 0) / base if base else 0.0

    def queries():
        checks = {"checks.bisim", "checks.responsive"}
        ss, tracer = pick(profiled, lambda n: n in checks)
        counts, res_steps = module_counts(tracer.profilers, checks)
        n = len(ss) or 1
        return res_steps / n, counts.get("checks", 0) / n

    def is_trace(n):
        return n.startswith("trace.")

    def is_res(n):
        return n.startswith("resumption.")

    cli, _ = pick(timed, lambda n: n.startswith("cli."))
    by_cmd: dict = {}
    for s in cli:
        by_cmd.setdefault(s[0], []).append(s)

    def line_rate(cmd):
        ss = by_cmd.get(cmd, [])
        return sum(s[5]["lines"] for s in ss) / dur(ss) if ss else 0.0

    def first_us(s):
        return s[5]["first_s"] * 1e6

    steps_per_query, calls_per_query = queries()
    return {
        "parse.tokens_per_s": (rate("parse", "tokens"), "1/s"),
        "parse.calls_per_token": (calls_per(lambda n: n == "parse", "parse", "tokens"),
                                  "count"),
        "syntax.calls_per_obs": (
            calls_per(lambda n: is_trace(n) or is_res(n), "syntax", "obs"), "count"),
        "trace.big.obs_per_s": (rate("trace.big", "obs"), "1/s"),
        "trace.small.obs_per_s": (rate("trace.small", "obs"), "1/s"),
        "trace.calls_per_obs": (calls_per(is_trace, "trace", "obs"), "count"),
        "trace.first_obs_us": (p50(is_trace, first_us), "us"),
        "resumption.big.events_per_s": (rate("resumption.big", "obs"), "1/s"),
        "resumption.small.events_per_s": (rate("resumption.small", "obs"), "1/s"),
        "resumption.calls_per_event": (calls_per(is_res, "resumption", "obs"), "count"),
        "resumption.first_event_us": (p50(is_res, first_us), "us"),
        "checks.bisim_ms_p50": (p50(lambda n: n == "checks.bisim") * 1000, "ms"),
        "checks.responsive_ms_p50": (
            p50(lambda n: n == "checks.responsive") * 1000, "ms"),
        "checks.res_steps_per_query": (steps_per_query, "count"),
        "checks.calls_per_query": (calls_per_query, "count"),
        "cli.startup_ms": (min((statistics.median(s[2] - s[1] for s in ss)
                                for ss in by_cmd.values()), default=0.0) * 1000, "ms"),
        "cli.lines_per_s": (line_rate("cli.run-states"), "1/s"),
        "cli.json_lines_per_s": (line_rate("cli.run-states-json"), "1/s"),
        "cli.summary_rss_mb": (max((s[5]["rss_mb"] for s in by_cmd.get(
            "cli.summary-pure", [])), default=0.0), "MB"),
    }


def run_in_process(job, tr):
    """A cli job as a call of coindwhile.cli.main, so the profiler sees it."""
    from coindwhile import cli
    with span(tr, f"cli.{job.label}"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(job.argv)


def run_traced(workload, seed, seconds):
    """Rounds in which every job runs twice, untraced and traced, in
    alternating order; then the small jobs of the other workloads as a
    traced probe, so that every layer is measured; then exact call counts
    from profiled small jobs of all workloads."""
    controls = [control_rate()]
    jobs = setup(workload, seed)
    probe = [job for w in WORKLOADS if w != workload
             for job in make_jobs(w, PROFILE_SEED, small=True)]
    for job in jobs + probe:
        job.prepare()
    tally, probe_tally = Tally(), Tally()
    timed = (Tracer(), Tracer())
    plain = traced = 0.0
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, job in enumerate(jobs):
            pair = (None, timed[0]) if (i + rounds) % 2 == 0 else (timed[0], None)
            for tracer in pair:
                spent = tally.run(job, tracer)
                if tracer:
                    traced += spent
                else:
                    plain += spent
        rounds += 1
    for job in probe:
        probe_tally.run(job, timed[1])

    profiled = (Tracer(profile=True), Tracer(profile=True))
    for w in WORKLOADS:
        tracer = profiled[w != workload]
        for job in make_jobs(w, PROFILE_SEED, small=True):
            tracer.job = job.label
            if w == "cli":
                run_in_process(job, tracer)
            else:
                job.run(tracer)
    controls.append(control_rate())

    tally.correct = tally.correct and probe_tally.correct
    metrics = per_layer(timed, profiled)
    counts, _ = module_counts(profiled[0].profilers)
    print("self_s " + " ".join(f"{k}={v:.4f}"
                               for k, v in sorted(self_times(timed[0].spans).items())))
    print(f"tracing_overhead={(traced / plain - 1) * 100:+.2f}% "
          f"(same jobs: traced {traced:.3f} s, untraced {plain:.3f} s)")
    print("calls " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"control_ops_per_s={statistics.median(controls):.0f} (not gated)")
    with open(OUT / f"spans-{workload}-{seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "attrs"],
                   "spans": timed[0].spans, "probe_spans": timed[1].spans,
                   "calls": counts,
                   "calls_by_function": function_counts(profiled[0].profilers)}, fh)
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length; run_seconds of BENCHMARK.json by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (this times set-up)")
    ap.add_argument("--slice", help="FIRST:COUNT; run those jobs as a worker")
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # the cli jobs name files relative to the checkout root
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.slice:
        first, count = map(int, args.slice.split(":"))
        run_slice(args.workload, args.seed, first, count)
        return 0
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runner = run_traced if args.trace else run_untraced
    tally, metrics = runner(args.workload, args.seed, args.seconds)
    for note in sorted(tally.known):
        print(f"known fault, counted as failed: {note}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if not (SRC / "coindwhile" / "__init__.py").is_file() or not PROGRAMS.is_dir():
    sys.exit(f"{ROOT}: no src/coindwhile or programs/ here; run from a checkout")
sys.path.insert(0, str(SRC))
import coindwhile as cw  # noqa: E402
from coindwhile.resumption import drive  # noqa: E402
from coindwhile.syntax import map_variables  # noqa: E402

EMPTY = cw.State.empty()

if __name__ == "__main__":
    sys.exit(main())
