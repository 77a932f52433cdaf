"""Total, productive interpreters for the While language and its
interactive-I/O extension: coinductive traces and resumptions, big-step and
small-step semantics, and fuel-bounded equivalence checkers."""

from .parse import NameTable, ParseError, parse, pretty
from .resumption import (
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
from .syntax import State, aexp, bexp, is_pure, wrap
from .trace import (
    ImpureProgramError,
    Trace,
    TracePrefix,
    eval_trace,
    norm,
    take,
)

# the checkers are imported on first use (PEP 562), since only some
# commands need them and a command line pays for every import it makes
_FROM_CHECKS = frozenset({
    "BisimConfig",
    "BudgetExhausted",
    "Distinguished",
    "EquivalentUpToBounds",
    "LatencyExceeded",
    "ResponsiveUpToBounds",
    "delay_bisim",
    "responsive",
    "strip_delays",
    "trace_eq",
})


def __getattr__(name):
    if name in _FROM_CHECKS:
        from . import checks
        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BisimConfig",
    "BudgetExhausted",
    "Distinguished",
    "EquivalentUpToBounds",
    "ImpureProgramError",
    "LatencyExceeded",
    "NameTable",
    "ParseError",
    "Res",
    "ResponsiveUpToBounds",
    "State",
    "Trace",
    "TracePrefix",
    "aexp",
    "bexp",
    "bot",
    "delay_bisim",
    "echo",
    "echo_div",
    "eval_res",
    "eval_trace",
    "is_pure",
    "norm",
    "norm_res",
    "parse",
    "pretty",
    "rep",
    "rep_fast",
    "responsive",
    "run_events",
    "strip_delays",
    "take",
    "trace_eq",
    "wrap",
]
