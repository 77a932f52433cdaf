"""Command-line driver: run programs under either interpreter, compare the
interpreters, and run the bisimilarity/responsiveness checkers.

Exit statuses: 0 ok/agreement, 1 parse or contract error, 2 truncated,
3 input exhausted, 4 distinguished/latency exceeded, 5 budget exhausted.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import zip_longest

# json is imported only by a --json _Render: a command line pays for every
# import it makes, and most commands do not need it
from . import checks, resumption, trace
from .parse import KEYWORDS, NameTable, ParseError, parse, pretty
from .syntax import State, is_pure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRUNCATED = 2
EXIT_INPUT_EXHAUSTED = 3
EXIT_DISTINGUISHED = 4
EXIT_BUDGET = 5


def _die(msg: str) -> int:
    print(msg, file=sys.stderr)
    return EXIT_ERROR


def _load(path: str, names: NameTable | None = None):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # with the universal newlines that a text-mode read would give
        src = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text"
                       f" (byte 0x{data[exc.start]:02x} at offset {exc.start})") from None
    try:
        return parse(src, names)
    except ParseError as exc:
        raise CliError(f"{path}:{exc}")


class CliError(Exception):
    pass


def _parse_init(text: str, names: NameTable) -> State:
    s = State.empty()
    if not text.strip():
        return s
    for item in text.split(","):
        if "=" not in item:
            raise CliError(f"bad --init entry: {item!r} (want name=value)")
        name, _, value = item.partition("=")
        name = name.strip()
        if not (name.isascii() and name.isidentifier()) or name in KEYWORDS:
            raise CliError(f"bad --init name: {name!r}")
        try:
            v = int(value)
        except ValueError:
            raise CliError(f"bad --init value: {value!r}")
        s = s.upd(names.intern(name), v)
    return s


# the forms of a line, in text and in JSON: a state, a ret event, and an
# event of its tag alone or of a tag and a value
_TEXT = ("{%s}", "ret {%s}", "%s", "%s %s")
_JSON = ('{"tag": "state", "state": {%s}}', '{"tag": "ret", "state": {%s}}',
         '{"tag": "%s"}', '{"tag": "%s", "value": %s}')


class _Render:
    """The lines that show states and events, in text or in JSON.

    Built once per run: each name is quoted here and the variables are put
    in name order once per state length, so that a state costs one walk
    over its value tuple. An index with no name is shown as ``_N``.
    """

    def __init__(self, names: NameTable, as_json: bool = False):
        if as_json:
            import json

            self._key = lambda name: json.dumps(name) + ": "
        else:
            self._key = lambda name: name + "="
        self._state, self._ret, self._tag, self._value = _JSON if as_json else _TEXT
        self._names = list(names.names)
        self._pre = [self._key(name) for name in self._names]
        self._orders: dict = {}  # state length -> its indices in name order

    def _order(self, n: int) -> list:
        while len(self._names) < n:
            self._names.append(f"_{len(self._names)}")
            self._pre.append(self._key(self._names[-1]))
        order = self._orders[n] = sorted(range(n), key=self._names.__getitem__)
        return order

    def state(self, s: State, form: str = "") -> str:
        """A state line, or the state in form, a %-format of its bindings."""
        order = self._orders.get(len(s))
        if order is None:
            order = self._order(len(s))
        pre = self._pre
        return (form or self._state) % ", ".join([pre[i] + str(s[i])
                                                  for i in order if s[i]])

    def event(self, ev: tuple) -> str:
        """An event line of drive; also a step of a checker's path, ("in", v)
        or ("out", v), and a head of its mismatch: ("in",), ("out", v) or
        ("ret", state)."""
        if ev[0] == "ret":
            return self.state(ev[1], self._ret)
        return (self._tag if len(ev) == 1 else self._value) % ev


# run output is written to stdout this many lines at a time
CHUNK_LINES = 1024


def _write(lines: list) -> None:
    """Write the lines to stdout in one write, and empty the list."""
    lines.append("")
    sys.stdout.write("\n".join(lines))
    sys.stdout.flush()
    lines.clear()


_EVENT_EXIT = {
    "ret": EXIT_OK,
    "truncated": EXIT_TRUNCATED,
    "input-exhausted": EXIT_INPUT_EXHAUSTED,
}


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    stmt, names = _load(args.file)
    init = _parse_init(args.init, names)
    pure = is_pure(stmt)
    emit = args.emit or ("states" if pure else "events")
    if emit == "states" and not pure:
        raise CliError("states output requires a program without input/output")

    res = (resumption.eval_res if args.mode == "big" else resumption.norm_res)(stmt, init)
    render = _Render(names, args.json)
    # unless events are asked for, a pure program's resumption is walked as
    # a trace: its states, then None if the fuel ran out; other runs drive
    walking = pure and emit != "events"
    if walking:
        stream, line = trace.walk(trace.Trace(res), args.fuel), render.state
    else:
        stream, line = resumption.drive(res, _input_source(args), args.fuel), render.event
    if emit == "summary":
        return _run_summary(stream, walking, render, args.json)

    lines = []
    # a person typing the inputs must see each line before the next prompt
    chunk = 1 if args.interactive else CHUNK_LINES
    for obs in stream:
        if obs is None:
            break
        lines.append(line(obs))
        if len(lines) == chunk:
            _write(lines)
    if walking:  # a trace's last line says whether it ended
        obs = ("truncated",) if obs is None else ("ended",)
        lines.append(render.event(obs))
    _write(lines)
    return _EVENT_EXIT.get(obs[0], EXIT_OK)


def _input_source(args):
    if getattr(args, "interactive", False):
        def next_input():
            while True:
                print("? ", end="", file=sys.stderr, flush=True)
                line = sys.stdin.readline()
                if not line:
                    return None
                try:
                    return int(line.strip())
                except ValueError:
                    print("please enter an integer", file=sys.stderr, flush=True)
        return next_input
    script = iter(args.script or ())
    return lambda: next(script, None)


def _run_summary(stream, walking: bool, render: _Render, as_json: bool) -> int:
    """Print the run's status, its count of states (a trace) or of each kind
    of event, then its final state if it has one, on one line: as
    name=value pairs, or as one JSON object. The counts are kept as the
    stream runs, so memory stays flat in fuel."""
    if walking:
        steps = 0
        for s in stream:
            steps += s is not None
        status = "truncated" if s is None else "ended"
        fields = {"status": status, "steps": steps}
    else:
        counts = {"in": 0, "out": 0, "delay": 0}
        for last in stream:
            if last[0] in counts:
                counts[last[0]] += 1
        status = last[0]
        s = last[1] if status == "ret" else None
        fields = {"status": status, **counts}
    if s is not None:
        fields["state"] = render.state(s, "{%s}")
    if as_json:
        fields["status"] = f'"{status}"'  # a tag: no character to escape
        print("{%s}" % ", ".join(f'"{k}": {v}' for k, v in fields.items()))
    else:
        print(" ".join(f"{k}={v}" for k, v in fields.items()))
    return _EVENT_EXIT.get(status, EXIT_OK)


# ---------------------------------------------------------------------------
# compare


def _cmd_compare(args) -> int:
    stmt, names = _load(args.file)
    init = _parse_init(args.init, names)
    render = _Render(names)
    if is_pure(stmt):
        verdict = checks.trace_eq(
            trace.eval_trace(stmt, init), trace.norm(stmt, init), args.fuel
        )
        if isinstance(verdict, checks.EquivalentUpToBounds):
            print(f"agree up to fuel {args.fuel}")
            return EXIT_OK
        # each side is ("delay", s) or ("nil", s)
        idx, (tag0, s0), (tag1, s1) = verdict.witness
        print(f"diverged at step {idx}: big={tag0} {render.state(s0)}"
              f" small={tag1} {render.state(s1)}")
        return EXIT_ERROR
    # the two runs stream in lock step, so memory stays flat in fuel
    big, small = (resumption.drive(interp(stmt, init), _input_source(args), args.fuel)
                  for interp in (resumption.eval_res, resumption.norm_res))
    for i, (b, s) in enumerate(zip_longest(big, small)):
        if b != s:
            # both runs end on a terminal event, so neither is None here
            print(f"diverged at event {i}: big={render.event(b)} small={render.event(s)}")
            return EXIT_ERROR
    print(f"agree up to fuel {args.fuel}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bisim / responsive


def _render_path(path, names: NameTable) -> str:
    """The steps of path; one longer than 16 steps is cut to its first and
    last 8, so that a path of any length prints as one short line."""
    event = _Render(names).event

    def render(step):
        if step[0] == "mismatch":
            return f"mismatch {event(step[1])} vs {event(step[2])}"
        return event(step)

    if len(path) <= 16:
        return " ; ".join(map(render, path)) or "(start)"
    cut = f"... ({len(path) - 16} more) ..."
    return " ; ".join([*map(render, path[:8]), cut, *map(render, path[-8:])])


def _report(verdict, names: NameTable, positive: str, negative: str) -> int:
    """Print a checker's verdict on one line and return its exit status:
    positive is the line of a verdict up to bounds and negative the label of
    a refutation. A refutation or a spent budget prints its path."""
    match verdict:
        case checks.EquivalentUpToBounds() | checks.ResponsiveUpToBounds():
            print(positive)
            return EXIT_OK
        case checks.Distinguished(path) | checks.LatencyExceeded(path):
            label, status = negative, EXIT_DISTINGUISHED
        case checks.BudgetExhausted(budget, path):
            label, status = f"budget exhausted ({budget})", EXIT_BUDGET
    print(f"{label}: {_render_path(path, names)}")
    return status


def _cmd_bisim(args) -> int:
    # one name table for both, so that states compare by variable name
    stmt_a, names = _load(args.file_a)
    stmt_b, _ = _load(args.file_b, names)
    cfg = checks.BisimConfig(
        delay_budget=args.delay_budget,
        depth_budget=args.depth_budget,
        input_sample=args.sample,
    )
    r0 = resumption.eval_res(stmt_a, State.empty())
    r1 = resumption.eval_res(stmt_b, State.empty())
    return _report(checks.delay_bisim(r0, r1, cfg), names,
                   "equivalent up to bounds", "distinguished")


def _cmd_responsive(args) -> int:
    stmt, names = _load(args.file)
    verdict = checks.responsive(
        resumption.eval_res(stmt, State.empty()),
        latency_budget=args.latency_budget,
        depth_budget=args.depth_budget,
        input_sample=args.sample,
    )
    return _report(verdict, names, "responsive up to bounds", "latency exceeded")


def _cmd_parse(args) -> int:
    stmt, names = _load(args.file)
    print(pretty(stmt, names))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is exit 1 with one line, not argparse's exit 2
        raise CliError(f"{self.prog}: {message}")


def _at_least(least: int):
    """An argparse type: an integer no smaller than least."""

    def integer(text: str) -> int:
        n = int(text)  # argparse reports a ValueError as an invalid value
        if n < least:
            raise argparse.ArgumentTypeError(f"want an integer >= {least}, got {n}")
        return n

    return integer


def _values(text: str) -> tuple:
    """An argparse type: a comma-separated list of input values."""
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}")


def _sample(text: str) -> tuple:
    """An argparse type: a nonempty list of input values."""
    vals = _values(text)
    if not vals:
        raise argparse.ArgumentTypeError("want at least one input value")
    return vals


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="coind-while",
        description="Total interpreters and checkers for While with I/O.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a program")
    run.add_argument("file")
    run.add_argument("--mode", choices=["big", "small"], default="big")
    run.add_argument("--fuel", type=_at_least(0), default=10000)
    run.add_argument("--script", type=_values, help="comma-separated input values")
    run.add_argument("--interactive", action="store_true",
                     help="read input values from stdin")
    run.add_argument("--emit", choices=["events", "states", "summary"])
    run.add_argument("--init", default="", help="initial state, e.g. x=5,y=7")
    run.add_argument("--json", action="store_true")
    run.set_defaults(func=_cmd_run)

    cmp_ = sub.add_parser("compare", help="diff the big- and small-step runs")
    cmp_.add_argument("file")
    cmp_.add_argument("--fuel", type=_at_least(0), default=10000)
    cmp_.add_argument("--script", type=_values, help="comma-separated input values")
    cmp_.add_argument("--init", default="")
    cmp_.set_defaults(func=_cmd_compare)

    cfg = checks.BisimConfig()  # the checkers' defaults
    bis = sub.add_parser("bisim", help="check two programs for delay-bisimilarity")
    bis.add_argument("file_a")
    bis.add_argument("file_b")
    bis.add_argument("--delay-budget", type=_at_least(1), default=cfg.delay_budget,
                     help="most delays before each head, on each side")
    bis.add_argument("--depth-budget", type=_at_least(1), default=cfg.depth_budget)
    bis.add_argument("--sample", type=_sample, default=cfg.input_sample,
                     help="input values used to probe input branching")
    bis.set_defaults(func=_cmd_bisim)

    rsp = sub.add_parser("responsive", help="check a program for responsiveness")
    rsp.add_argument("file")
    rsp.add_argument("--latency-budget", type=_at_least(1), default=8,
                     help="most delays before each head")
    rsp.add_argument("--depth-budget", type=_at_least(1), default=cfg.depth_budget)
    rsp.add_argument("--sample", type=_sample, default=cfg.input_sample)
    rsp.set_defaults(func=_cmd_responsive)

    par = sub.add_parser("parse", help="parse and pretty-print a program")
    par.add_argument("file")
    par.set_defaults(func=_cmd_parse)

    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except CliError as exc:
        return _die(str(exc))
    if getattr(args, "interactive", False) and getattr(args, "script", None):
        return _die("--interactive and --script are mutually exclusive")
    try:
        return args.func(args)
    except CliError as exc:
        return _die(str(exc))
    except trace.ImpureProgramError as exc:
        return _die(str(exc))
    except RecursionError:
        return _die(f"{args.command}: input nested too deeply"
                    " for the interpreter's recursion limit")
    except MemoryError:
        return _die(f"{args.command}: out of memory")


def entry():
    try:
        status = main()
        sys.stdout.flush()  # here, so that a closed pipe is caught below
    except BrokenPipeError:
        # the reader has gone (as with `| head`); point stdout at /dev/null
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        status = EXIT_ERROR
    # the process is about to end and the OS takes its memory back, so move
    # every object to the permanent generation: the collection at interpreter
    # exit then skips them (several ms for a short command) while atexit
    # handlers, the flush of each stream and the exit status stay as they are.
    # main(), which tests call in-process, leaves the collector alone
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
