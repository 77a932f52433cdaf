"""Total, productive interpreters for the While language and its
interactive-I/O extension: coinductive traces and resumptions, big-step and
small-step semantics, and fuel-bounded equivalence checkers."""

from .checks import (
    BisimConfig,
    BudgetExhausted,
    Distinguished,
    EquivalentUpToBounds,
    LatencyExceeded,
    ResponsiveUpToBounds,
    delay_bisim,
    responsive,
    trace_eq,
)
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
from .syntax import State, is_pure, wrap
from .trace import (
    ImpureProgramError,
    Trace,
    TracePrefix,
    eval_trace,
    norm,
    take,
)

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
    "take",
    "trace_eq",
    "wrap",
]
