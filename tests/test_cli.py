"""Command-line interface: output formats and the exit-status contract."""

import contextlib
import gc
import io
import json
import os
import queue
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from coindwhile import checks, resumption, trace
from coindwhile.cli import _Render, _render_path, main
from coindwhile.parse import NameTable, parse, pretty
from coindwhile.syntax import Assign, NumLit, Seq, State, is_pure

from gen import gen_stmt

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

COUNTER = str(PROGRAMS / "counter.whl")
ECHO = str(PROGRAMS / "echo.whl")
LOOP = str(PROGRAMS / "loop.whl")
EMIT = str(PROGRAMS / "emit.whl")
EMIT_PADDED = str(PROGRAMS / "emit_padded.whl")


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out.splitlines()


class TestRun:
    def test_counter_states(self, capsys):
        status, lines = run_cli(capsys, "run", COUNTER)
        assert status == 0
        assert lines == [
            "{}", "{x=3}", "{x=3}", "{x=2}", "{x=2}",
            "{x=1}", "{x=1}", "{}", "{}", "ended",
        ]

    def test_small_step_mode_agrees(self, capsys):
        _, big = run_cli(capsys, "run", COUNTER, "--mode", "big")
        _, small = run_cli(capsys, "run", COUNTER, "--mode", "small")
        assert big == small

    def test_echo_events(self, capsys):
        status, lines = run_cli(capsys, "run", ECHO, "--script", "0,5")
        assert status == 0
        assert lines == ["in 0", "delay", "out 0", "in 5", "delay", "ret {x=5}"]

    def test_truncated_exit_status(self, capsys):
        status, lines = run_cli(capsys, "run", LOOP, "--fuel", "3")
        assert status == 2
        assert lines == ["{}", "{}", "{}", "truncated"]

    def test_input_exhausted_exit_status(self, capsys):
        status, lines = run_cli(capsys, "run", ECHO, "--script", "0")
        assert status == 3
        assert lines[-1] == "input-exhausted"

    def test_init_seeds_the_state(self, capsys, tmp_path):
        prog = tmp_path / "down.whl"
        prog.write_text("while 1 <= x do x := x - 1 od\n")
        status, lines = run_cli(capsys, "run", str(prog), "--init", "x=2")
        assert status == 0
        assert lines[0] == "{x=2}" and lines[-1] == "ended"

    def test_json_events(self, capsys):
        status, lines = run_cli(capsys, "run", ECHO, "--script", "0,5", "--json")
        assert status == 0
        objs = [json.loads(line) for line in lines]
        assert [o["tag"] for o in objs] == ["in", "delay", "out", "in", "delay", "ret"]
        assert objs[0]["value"] == 0
        assert objs[-1]["state"] == {"x": 5}

    def test_summary_pure(self, capsys):
        status, lines = run_cli(capsys, "run", COUNTER, "--emit", "summary")
        assert status == 0
        assert lines == ["status=ended steps=9 state={}"]

    def test_summary_io(self, capsys):
        status, lines = run_cli(
            capsys, "run", ECHO, "--script", "0,5", "--emit", "summary"
        )
        assert status == 0
        assert lines == ["status=ret in=2 out=1 delay=2 state={x=5}"]

    @pytest.mark.parametrize("argv, line", [
        ((COUNTER,), '{"status": "ended", "steps": 9, "state": {}}'),
        ((ECHO, "--script", "0,5"),
         '{"status": "ret", "in": 2, "out": 1, "delay": 2, "state": {"x": 5}}'),
        ((EMIT, "--fuel", "4"),
         '{"status": "truncated", "in": 0, "out": 2, "delay": 2}'),
    ], ids=["pure", "io", "truncated"])
    def test_summary_json(self, capsys, argv, line):
        # one JSON object with the fields of the text line, in its order
        status, lines = run_cli(capsys, "run", *argv, "--emit", "summary", "--json")
        assert (status, lines) == (2 if "truncated" in line else 0, [line])
        _, text = run_cli(capsys, "run", *argv, "--emit", "summary")
        assert list(json.loads(line)) == [f.split("=")[0] for f in text[0].split(" ")]

    @pytest.mark.parametrize("src", ["while tt do x := x + 1 od",
                                     "while tt do output 1 od"])
    def test_summary_memory_is_flat_in_fuel(self, capsys, tmp_path, src):
        prog = tmp_path / "grow.whl"
        prog.write_text(src + "\n")
        tracemalloc.start()
        try:
            status = main(["run", str(prog), "--emit", "summary", "--fuel", "50000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 2
        assert capsys.readouterr().out.startswith("status=truncated")
        assert peak < 1_000_000, f"peak {peak} bytes"

    def test_states_emit_rejected_for_io_program(self, capsys):
        status, _ = run_cli(capsys, "run", ECHO, "--emit", "states")
        assert status == 1

    def test_script_and_interactive_conflict(self, capsys):
        status, _ = run_cli(
            capsys, "run", ECHO, "--script", "1", "--interactive"
        )
        assert status == 1

    def test_run_is_deterministic(self, capsys):
        a = run_cli(capsys, "run", ECHO, "--script", "0,0,3")
        b = run_cli(capsys, "run", ECHO, "--script", "0,0,3")
        assert a == b


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["run", str(PROGRAMS / "nope.whl")]) == 1

    @pytest.mark.parametrize("argv, names", [
        (["run", COUNTER, "--fuel", "x"], "argument --fuel"),
        (["run"], "file"),
        (["bisim", EMIT, EMIT, "--delay-budget", "0"], "argument --delay-budget"),
        (["bisim", EMIT, EMIT, "--depth-budget", "0"], "argument --depth-budget"),
        (["responsive", ECHO, "--latency-budget", "0"], "argument --latency-budget"),
        (["responsive", ECHO, "--sample="], "argument --sample"),
        (["compare", COUNTER, "--fuel", "-1"], "argument --fuel"),
        (["bisim", EMIT, EMIT, "--sample", "x"], "argument --sample"),
        (["run", ECHO, "--script", "1,x"], "argument --script"),
    ], ids=["fuel-not-an-int", "no-file", "delay-budget-0", "depth-budget-0",
            "latency-budget-0", "empty-sample", "negative-fuel", "sample-not-ints",
            "script-not-ints"])
    def test_usage_error_is_one_line_exit_1(self, capsys, argv, names):
        # exit 2 means the fuel ran out, so a usage error may not use it
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, captured.err
        assert names in captured.err

    def test_parse_error_reports_position(self, capsys, tmp_path):
        prog = tmp_path / "bad.whl"
        prog.write_text("skip ;\nwhile tt do skip\n")
        status = main(["run", str(prog)])
        assert status == 1
        err = capsys.readouterr().err
        assert "bad.whl:" in err and "od" in err

    @pytest.mark.parametrize("argv", [
        ["run", "{bad}"], ["parse", "{bad}"], ["bisim", EMIT, "{bad}"],
    ], ids=["run", "parse", "bisim-second-file"])
    def test_non_utf8_source_is_one_line_exit_1(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.whl"
        bad.write_bytes(b"x := 1 \xff\n")
        assert main([a.format(bad=bad) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{bad}: not UTF-8 text (byte 0xff at offset 7)\n"

    @pytest.mark.parametrize("init", ["=5", 'a"b=2', "while=3", "1x=0", "x y=1",
                                      "\u00e9=1"])
    def test_init_name_must_be_an_identifier(self, capsys, init):
        # a name no program can use would be shown in every state line
        assert main(["run", COUNTER, "--init", init, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad --init name: ")
        assert len(captured.err.splitlines()) == 1, captured.err

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_any_newline_counts_lines(self, capsys, tmp_path, newline):
        prog = tmp_path / "lines.whl"
        prog.write_bytes(newline.join([b"skip ;", b"# x := $", b"  y := $"]))
        assert main(["parse", str(prog)]) == 1
        assert capsys.readouterr().err == (
            f"{prog}:3:8: expected a token, found '$'\n")


# The output of `run` as it was rendered through a dict per state: the
# oracle for the renderer that is built once per run.


def _old_state_dict(state, names):
    out = {}
    for idx, v in state.items():
        try:
            out[names.name_of(idx)] = v
        except LookupError:
            out[f"_{idx}"] = v
    return dict(sorted(out.items()))


def _old_render_state(state, names):
    pairs = _old_state_dict(state, names).items()
    return "{" + ", ".join(f"{n}={v}" for n, v in pairs) + "}"


def _old_state_line(state, names, as_json):
    if as_json:
        return json.dumps({"tag": "state", "state": _old_state_dict(state, names)})
    return _old_render_state(state, names)


def _old_event_line(ev, names, as_json):
    tag = ev[0]
    if as_json:
        obj = {"tag": tag}
        if tag == "in" or tag == "out":
            obj["value"] = ev[1]
        elif tag == "ret":
            obj["state"] = _old_state_dict(ev[1], names)
        return json.dumps(obj)
    if tag == "in" or tag == "out":
        return f"{tag} {ev[1]}"
    if tag == "ret":
        return f"ret {_old_render_state(ev[1], names)}"
    return tag


def _old_run_output(path, mode, emit, as_json, script, fuel):
    """What `run` printed for this file before the renderer was built once
    per run, from the interpreters themselves."""
    stmt, names = parse(Path(path).read_text())
    interp = resumption.eval_res if mode == "big" else resumption.norm_res
    lines = []
    if emit == "states":
        for s in trace.walk(trace.Trace(interp(stmt, State.empty())), fuel):
            if s is None:
                break
            lines.append(_old_state_line(s, names, as_json))
        status = "truncated" if s is None else "ended"
        lines.append(json.dumps({"tag": status}) if as_json else status)
    else:
        it = iter(script)
        for ev in resumption.drive(interp(stmt, State.empty()),
                                   lambda: next(it, None), fuel):
            lines.append(_old_event_line(ev, names, as_json))
    return "".join(line + "\n" for line in lines)


def _generated_programs(tmp_path):
    """Two random programs, one pure and one with I/O, whose variables are
    numbered in another order than their names sort in. The seeds give
    states of two and three variables that are not 0."""
    paths = []
    for seed, depth, io_ in ((218, 7, False), (181, 6, True)):
        names = NameTable(["zeta", "b", "A", "_c"])
        path = tmp_path / f"gen{seed}.whl"
        path.write_text(pretty(gen_stmt(random.Random(seed), depth, io_), names) + "\n")
        paths.append(str(path))
    return paths


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda n: not re.fullmatch(r"_[0-9]+", n))  # not a fallback name itself


class TestOutput:
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("mode", ["big", "small"])
    def test_run_output_is_byte_identical_to_the_old_rendering(
            self, capsys, tmp_path, mode, as_json):
        script = [0, 0, 7, -1, 2**63 - 1, -2**63, 0, 5]
        for path in sorted(map(str, PROGRAMS.glob("*.whl"))) + _generated_programs(tmp_path):
            stmt, _ = parse(Path(path).read_text())
            for emit in (["states", "events"] if is_pure(stmt) else ["events"]):
                argv = ["run", path, "--mode", mode, "--emit", emit, "--fuel", "300",
                        "--script", ",".join(map(str, script))] + ["--json"] * as_json
                main(argv)
                got = capsys.readouterr().out
                want = _old_run_output(path, mode, emit, as_json, script, 300)
                # as lists of lines: a failing report then names the first line
                # that differs, where a diff of the whole text takes minutes
                assert got.splitlines(True) == want.splitlines(True), argv

    @settings(max_examples=200, deadline=None)
    @given(bindings=st.dictionaries(st.integers(0, 12),
                                    st.integers(-2**63, 2**63 - 1), max_size=8),
           names=st.lists(_NAME, max_size=10, unique=True))
    @example(bindings={}, names=[])
    @example(bindings={5: 1, 0: -1}, names=["b", "a"])
    def test_state_lines_match_the_old_rendering(self, bindings, names):
        table = NameTable(names)
        s = State(bindings)
        text, as_json = _Render(table), _Render(table, True)
        assert text.state(s) == _old_render_state(s, table)
        assert text.event(("ret", s)) == _old_event_line(("ret", s), table, False)
        assert as_json.state(s) == _old_state_line(s, table, True)
        assert as_json.event(("ret", s)) == _old_event_line(("ret", s), table, True)

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_output_is_written_in_chunks(self, monkeypatch, tmp_path, as_json):
        prog = tmp_path / "count.whl"
        prog.write_text("i := 0 ; while tt do i := i + 1 od\n")
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        status = main(["run", str(prog), "--fuel", "20000"] + ["--json"] * as_json)
        assert status == 2
        assert out.getvalue().count("\n") == 20001  # 20,000 states and "truncated"
        assert out.writes <= 30, out.writes

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_a_closed_pipe_is_exit_1_without_a_traceback(self, flags, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        # 200,001 lines are more than a pipe holds, so the run outlives the reader
        with subprocess.Popen(
                [sys.executable, "-m", "coindwhile", "run", LOOP, "--fuel", "200000",
                 *flags], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            status = proc.wait(timeout=60)
        assert first.rstrip(b"\n") in (b"{}", b'{"tag": "state", "state": {}}')
        assert status == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err


# a piece of source: blanks, a comment, or a token (one character if bad)
_PIECE = re.compile(r"\s+|#[^\n]*|:=|<=|\w+|.", re.S)
_SAMPLES = [p.read_text() for p in sorted(PROGRAMS.glob("*.whl"))]
_VOCABULARY = [
    "skip", "if", "then", "else", "fi", "while", "do", "od", "repeat", "until",
    "input", "output", "not", "and", "or", "tt", "ff", "x", "y", ":=", "<=", "=",
    "+", "-", "*", "(", ")", ";", "0", "-1", str(2**64), "9" * 5000, "@", ":",
    "\x00", "\ufeff", "\r", "#", " ", "",
]


@st.composite
def _mutants(draw):
    """A sample program with one token replaced, deleted or inserted."""
    pieces = _PIECE.findall(draw(st.sampled_from(_SAMPLES)))
    i = draw(st.integers(0, len(pieces) - 1))
    word = draw(st.sampled_from(_VOCABULARY))
    pieces[i] = draw(st.sampled_from([word, pieces[i] + " " + word, ""]))
    return "".join(pieces).encode()


class TestNeverRaises:
    COMMANDS = [
        ["run", "{f}", "--fuel", "50"],
        ["run", "{f}", "--mode", "small", "--fuel", "50", "--script", "0,1"],
        ["parse", "{f}"],
        ["compare", "{f}", "--fuel", "50"],
        ["bisim", "{f}", "{f}", "--depth-budget", "8"],
    ]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=st.one_of(st.binary(max_size=64), _mutants()))
    def test_main_returns_a_status_on_any_file(self, tmp_path, source):
        path = tmp_path / "fuzz.whl"
        path.write_bytes(source)
        for argv in self.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main([a.format(f=path) for a in argv])
            assert status in range(6), (argv, source)


class TestDeepInput:
    def test_long_seq_chain(self, capsys, tmp_path):
        prog = tmp_path / "long.whl"
        prog.write_text(" ;\n".join(["x := 1"] * 5000) + "\n")
        status, lines = run_cli(capsys, "parse", str(prog))
        assert status == 0
        assert lines == [" ; ".join(["x := 1"] * 5000)]
        status, lines = run_cli(capsys, "run", str(prog), "--emit", "summary")
        assert (status, lines) == (0, ["status=ended steps=5001 state={x=1}"])

    def test_deep_parentheses_parse_and_run(self, capsys, tmp_path):
        # the expression parser keeps parentheses on a stack, not the call stack
        prog = tmp_path / "parens.whl"
        prog.write_text("x := " + "(" * 2000 + "1" + ")" * 2000 + "\n")
        assert run_cli(capsys, "parse", str(prog)) == (0, ["x := 1"])
        assert run_cli(capsys, "run", str(prog)) == (0, ["{}", "{x=1}", "ended"])

    @pytest.mark.parametrize("source, width", [
        ("while x <= 0 do " * 1000 + "x := x + 1" + " od" * 1000, 19_010),
        ("x := " + "+".join(["1"] * 3000), 12_002),
        ("x := " + "1+(" * 3000 + "1" + ")" * 3000, 18_004),
        ("while " + "(tt and " * 3000 + "tt" + ")" * 3000 + " do skip od", 27_017),
    ], ids=["while-nest", "long-sum", "right-nest", "and-guard"])
    def test_deep_input_prints_and_reparses(self, capsys, tmp_path, source, width):
        # the printer walks an explicit stack, so no nesting recurses
        prog = tmp_path / "deep.whl"
        prog.write_text(source + "\n")
        status, lines = run_cli(capsys, "parse", str(prog))
        assert status == 0 and len(lines) == 1 and len(lines[0]) == width
        assert parse(lines[0])[0] == parse(source)[0]

    @pytest.mark.parametrize("mode", ["big", "small"])
    def test_deep_while_nest_runs(self, capsys, tmp_path, mode):
        prog = tmp_path / "whiles.whl"
        prog.write_text("while x <= 0 do " * 1000 + "x := x + 1" + " od" * 1000 + "\n")
        status, lines = run_cli(capsys, "run", str(prog), "--mode", mode)
        # each guard is a step: 1,000 entering, the assignment, 1,000 leaving
        assert status == 0
        assert lines == ["{}"] * 1001 + ["{x=1}"] * 1001 + ["ended"]

    def test_deep_depth_budget_is_searched(self, capsys):
        # the checkers search on an explicit stack, so depth costs no recursion
        assert run_cli(capsys, "bisim", EMIT, EMIT, "--depth-budget", "5000") == (
            0, ["equivalent up to bounds"])
        assert run_cli(capsys, "responsive", EMIT, "--depth-budget", "5000") == (
            0, ["responsive up to bounds"])

    @pytest.mark.parametrize("argv", [("bisim", EMIT, EMIT), ("responsive", EMIT)])
    def test_a_long_path_prints_as_one_short_line(self, capsys, argv):
        # the path is NODE_BUDGET steps long: its first and last 8 steps are
        # printed around the number of the others
        status, lines = run_cli(capsys, *argv, "--depth-budget", "200000")
        cut = f"... ({checks.NODE_BUDGET - 16} more) ..."
        assert (status, lines) == (5, ["budget exhausted (nodes): " + " ; ".join(
            ["out 5"] * 8 + [cut] + ["out 5"] * 8)])
        assert len(lines[0].encode()) < 1000

    def test_a_path_is_cut_above_16_steps(self):
        _, names = parse("skip")
        assert _render_path((("out", 5),) * 16, names) == " ; ".join(["out 5"] * 16)
        assert _render_path((("out", 5),) * 17, names) == " ; ".join(
            ["out 5"] * 8 + ["... (1 more) ..."] + ["out 5"] * 8)

    @pytest.mark.parametrize("nots, status, last", [(3000, 2, "truncated"), (3001, 0, "ended")])
    def test_long_not_chain_parses_and_runs(self, capsys, tmp_path, nots, status, last):
        # a chain of negations prints with a loop and is folded by parity
        source = "while " + "not " * nots + "tt do skip od"
        prog = tmp_path / "nots.whl"
        prog.write_text(source + "\n")
        assert run_cli(capsys, "parse", str(prog)) == (0, [source])
        for mode in ("big", "small"):
            got, lines = run_cli(capsys, "run", str(prog), "--mode", mode, "--fuel", "4")
            assert (got, lines[-1]) == (status, last)


class TestCompare:
    @pytest.mark.parametrize("path", [COUNTER, LOOP, ECHO])
    def test_interpreters_agree(self, capsys, path):
        status, lines = run_cli(
            capsys, "compare", path, "--fuel", "512", "--script", "0,0,1"
        )
        assert status == 0
        assert lines == ["agree up to fuel 512"]

    @pytest.mark.parametrize("src, script, want", [
        ("x := 1 ; x := 2", "", "diverged at step 1: big=delay {x=1} small=delay {x=7}"),
        ("input x ; output x", "3", "diverged at event 0: big=in 3 small=delay"),
        ("input x ; output x", "", "diverged at event 0: big=input-exhausted small=delay"),
    ])
    def test_a_divergence_names_the_variables(self, capsys, monkeypatch, tmp_path,
                                              src, script, want):
        # a small step that sets x to 7 first, so the two runs part
        norm_res = resumption.norm_res
        wrong = lambda stmt, s: norm_res(Seq(Assign(0, NumLit(7)), stmt), s)
        monkeypatch.setattr(resumption, "norm_res", wrong)
        monkeypatch.setattr(trace, "norm_res", wrong)
        prog = tmp_path / "p.whl"
        prog.write_text(src)
        status, lines = run_cli(capsys, "compare", str(prog), "--script", script)
        assert (status, lines) == (1, [want])

    def test_io_memory_is_flat_in_fuel(self, capsys, tmp_path):
        prog = tmp_path / "count.whl"
        prog.write_text("x := 0 ; while tt do x := x + 1 ; output x od\n")
        tracemalloc.start()
        try:
            status = main(["compare", str(prog), "--fuel", "50000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        assert capsys.readouterr().out == "agree up to fuel 50000\n"
        assert peak < 1_000_000, f"peak {peak} bytes"


class TestBisim:
    def test_padded_emitter_is_equivalent(self, capsys):
        status, lines = run_cli(capsys, "bisim", EMIT, EMIT_PADDED)
        assert status == 0
        assert lines == ["equivalent up to bounds"]

    def test_distinguished(self, capsys, tmp_path):
        other = tmp_path / "emit7.whl"
        other.write_text("while tt do output 7 od\n")
        status, lines = run_cli(capsys, "bisim", EMIT, str(other))
        assert status == 4
        assert lines[0].startswith("distinguished:")

    @pytest.mark.parametrize(
        "src_a, src_b, status",
        [
            ("x := 1 ; y := 2", "y := 2 ; x := 1", 0),
            ("y := 2 ; x := 1", "x := 2 ; y := 1", 4),
        ],
    )
    def test_states_compare_by_name(self, capsys, tmp_path, src_a, src_b, status):
        a, b = tmp_path / "a.whl", tmp_path / "b.whl"
        a.write_text(src_a + "\n")
        b.write_text(src_b + "\n")
        assert run_cli(capsys, "bisim", str(a), str(b))[0] == status

    def test_witness_states_use_variable_names(self, capsys, tmp_path):
        a, b = tmp_path / "a.whl", tmp_path / "b.whl"
        a.write_text("x := 1\n")
        b.write_text("x := 2\n")
        status, lines = run_cli(capsys, "bisim", str(a), str(b))
        assert (status, lines) == (4, ["distinguished: mismatch ret {x=1} vs ret {x=2}"])

    def test_budget_exhausted(self, capsys):
        status, lines = run_cli(
            capsys, "bisim", EMIT, LOOP, "--delay-budget", "4"
        )
        assert status == 5
        assert lines[0].startswith("budget exhausted (delay)")

    @pytest.mark.parametrize("out_b, status", [("x", 0), ("x + 1", 4)])
    def test_a_ten_iteration_loop_at_the_default_budget(self, capsys, tmp_path,
                                                         out_b, status):
        # 22 delays lead the output
        loop = "x := 0 ; while x <= 9 do x := x + 1 od ; output "
        a, b = tmp_path / "a.whl", tmp_path / "b.whl"
        a.write_text(loop + "x\n")
        b.write_text(loop + out_b + "\n")
        assert run_cli(capsys, "bisim", str(a), str(b))[0] == status

    def test_a_repeated_sample_value_is_probed_once(self, capsys):
        for sample in ("0", "0,0,0,0,0,0"):
            status, lines = run_cli(capsys, "bisim", ECHO, ECHO, "--sample", sample)
            assert (status, lines) == (0, ["equivalent up to bounds"]), sample

    def test_an_endless_echo_ends_on_the_node_budget(self, capsys, tmp_path):
        # 3^32 input paths within the depth budget; this used to hang
        prog = tmp_path / "echo_loop.whl"
        prog.write_text("while tt do input x ; output x od\n")
        status, lines = run_cli(capsys, "bisim", str(prog), str(prog))
        assert status == 5
        assert lines[0].startswith("budget exhausted (nodes): in 0 ; out 0 ;")


# The verdicts of `bisim p p` and `responsive p` on each sample program, as
# (bisim status, responsive status) with the first line each prints. None
# may end on the node budget.
SAMPLE_VERDICTS = {
    "counter.whl": ((0, "equivalent up to bounds"), (0, "responsive up to bounds")),
    "echo.whl": ((0, "equivalent up to bounds"), (0, "responsive up to bounds")),
    "emit.whl": ((0, "equivalent up to bounds"), (0, "responsive up to bounds")),
    "emit_padded.whl": ((0, "equivalent up to bounds"), (0, "responsive up to bounds")),
    "loop.whl": ((5, "budget exhausted (delay)"), (4, "latency exceeded")),
}


def test_every_sample_program_has_its_verdicts_listed():
    assert sorted(p.name for p in PROGRAMS.glob("*.whl")) == sorted(SAMPLE_VERDICTS)


@pytest.mark.parametrize("name", sorted(SAMPLE_VERDICTS))
def test_sample_program_verdicts(capsys, name):
    prog = str(PROGRAMS / name)
    (bisim_status, bisim_line), (resp_status, resp_line) = SAMPLE_VERDICTS[name]
    status, lines = run_cli(capsys, "bisim", prog, prog)
    assert (status, lines[0][:len(bisim_line)]) == (bisim_status, bisim_line)
    status, lines = run_cli(capsys, "responsive", prog)
    assert (status, lines[0][:len(resp_line)]) == (resp_status, resp_line)


class TestResponsive:
    def test_an_endless_reader_ends_on_the_node_budget(self, capsys, tmp_path):
        # 3^64 input paths within the depth budget; this used to hang
        prog = tmp_path / "read_loop.whl"
        prog.write_text("while tt do input x od\n")
        status, lines = run_cli(capsys, "responsive", str(prog))
        assert status == 5
        assert lines[0].startswith("budget exhausted (nodes): in 0 ;")

    def test_echo_is_responsive(self, capsys):
        status, lines = run_cli(capsys, "responsive", ECHO)
        assert status == 0
        assert lines == ["responsive up to bounds"]

    def test_silent_divergence_is_not(self, capsys):
        status, lines = run_cli(capsys, "responsive", LOOP)
        assert status == 4
        assert lines[0].startswith("latency exceeded")


class TestParseCommand:
    def test_pretty_prints(self, capsys):
        status, lines = run_cli(capsys, "parse", COUNTER)
        assert status == 0
        text = "\n".join(lines)
        assert "x := 3" in text and "while" in text

    def test_output_reparses(self, capsys, tmp_path):
        _, lines = run_cli(capsys, "parse", ECHO)
        again = tmp_path / "again.whl"
        again.write_text("\n".join(lines) + "\n")
        status, lines2 = run_cli(capsys, "parse", str(again))
        assert status == 0
        assert lines2 == lines


class TestStartUp:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # what a command line imports, it pays for on every run; json is
        # imported by --json output alone
        code = (
            "import sys, coindwhile.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_import_does_not_load_typing(self):
        # -S skips site, which may import typing itself; the package is then
        # found through PYTHONPATH alone
        package = Path(main.__code__.co_filename).resolve().parent.parent
        code = "import coindwhile.cli, sys; assert 'typing' not in sys.modules"
        # -B: this env drops PYTHONDONTWRITEBYTECODE, and the child must not
        # leave bytecode caches in src/, which later commands would read
        proc = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True,
                              text=True, timeout=30, env={"PYTHONPATH": str(package)})
        assert proc.returncode == 0, proc.stderr


class TestExit:
    def test_entry_freezes_the_heap_and_still_flushes(self):
        # entry() freezes the heap before sys.exit, so the final collection
        # skips it; an atexit handler still runs after that, and its output
        # and the command's are both flushed
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['coindwhile', 'run', {COUNTER!r}]\n"
            "from coindwhile.cli import entry\n"
            "entry()\n"
        )
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "{}", "{x=3}", "{x=3}", "{x=2}", "{x=2}",
            "{x=1}", "{x=1}", "{}", "{}", "ended", "frozen True",
        ]
        assert proc.stderr == ""

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        status, _ = run_cli(capsys, "run", COUNTER)
        assert status == 0
        assert gc.get_freeze_count() == before


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        import coindwhile

        for name in coindwhile.__all__:
            assert getattr(coindwhile, name) is not None, name
        # and every public name the package imports, but for its modules, is exported
        public = {name for name, value in vars(coindwhile).items()
                  if not name.startswith("_") and type(value) is not type(coindwhile)}
        assert public == set(coindwhile.__all__)

    def test_the_one_step_wrappers_are_gone(self):
        # the paper's red is tests/paper.py's red_ref; the checkers strip
        # delays with the private checks._strip, on raw observations
        import coindwhile

        for name in ("red", "red_res", "StripResult", "strip_delays"):
            assert name not in coindwhile.__all__
            assert not hasattr(coindwhile, name), name
        assert not hasattr(trace, "red") and not hasattr(resumption, "red_res")
        assert not hasattr(checks, "StripResult") and not hasattr(checks, "strip_delays")

    def test_the_reference_evaluators_are_gone(self):
        # expressions run through syntax.compile_aexp/compile_bexp; aexp,
        # bexp and variables are the tests' references, in tests/paper.py
        import coindwhile
        from coindwhile import syntax

        for name in ("aexp", "bexp", "strip_nots", "variables"):
            assert name not in coindwhile.__all__
            assert not hasattr(coindwhile, name), name
            assert not hasattr(syntax, name), name
        assert callable(syntax.map_variables)


class TestInteractive:
    def test_prompts_on_stderr_reads_stdin(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coindwhile", "run", ECHO, "--interactive"],
            input="0\n7\n",
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "in 0", "delay", "out 0", "in 7", "delay", "ret {x=7}",
        ]
        assert "? " in proc.stderr

    def test_closed_stdin_is_input_exhausted(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coindwhile", "run", ECHO, "--interactive"],
            input="",
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stdout.splitlines()[-1] == "input-exhausted"

    def test_each_line_is_written_before_the_next_input_is_read(self):
        lines = queue.Queue()

        def send(value):
            proc.stdin.write(f"{value}\n")
            proc.stdin.flush()

        def read_lines(n):
            # a line not written before the next input is read never comes
            return [lines.get(timeout=30).rstrip("\n") for _ in range(n)]

        with subprocess.Popen(
                [sys.executable, "-m", "coindwhile", "run", ECHO, "--interactive"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True) as proc:
            reader = threading.Thread(target=lambda: [lines.put(x) for x in proc.stdout])
            reader.start()
            try:
                # the next value is sent only once the lines of the last are out
                send(0)
                assert read_lines(3) == ["in 0", "delay", "out 0"]
                send(7)
                assert read_lines(3) == ["in 7", "delay", "ret {x=7}"]
                proc.stdin.close()
                assert proc.wait(timeout=30) == 0
            finally:
                proc.kill()
                reader.join(timeout=30)
        assert not reader.is_alive()
