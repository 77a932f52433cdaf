"""Fuel-bounded checkers: termination-sensitive delay-bisimilarity,
responsiveness, and lock-step trace-prefix equality.

The underlying properties are coinductive and undecidable, so every checker
works within explicit budgets and reports one of three verdicts: confirmed
up to the bounds, refuted with a replayable witness, or budget exhausted.
Refutation (Distinguished / LatencyExceeded) is sound; the positive verdicts
only mean "no counterexample within the bounds".
"""

from __future__ import annotations

from .resumption import Res
from .syntax import Record
from .trace import Trace


class EquivalentUpToBounds(Record):
    __slots__ = ()


class Distinguished(Record):
    # A path of ("in", v) / ("out", v) / ("delay",) steps leading to the
    # disagreement, closed by ("mismatch", left_head, right_head).
    __slots__ = __match_args__ = ("witness",)

    def __init__(self, witness: tuple):
        self.witness = witness


class BudgetExhausted(Record):
    __slots__ = __match_args__ = ("budget", "path")

    def __init__(self, budget: str, path: tuple = ()):
        self.budget = budget  # "delay" or "nodes"
        self.path = path


Verdict = EquivalentUpToBounds | Distinguished | BudgetExhausted


class ResponsiveUpToBounds(Record):
    __slots__ = ()


class LatencyExceeded(Record):
    __slots__ = __match_args__ = ("path",)

    def __init__(self, path: tuple):
        self.path = path


ResponsiveVerdict = ResponsiveUpToBounds | LatencyExceeded | BudgetExhausted


# At most this many search calls per bisim or responsive query, so a program
# that reads forever (len(sample) ** depth paths) ends in BudgetExhausted
# ("nodes"). A depth-6 query under two sample values makes 2^7 - 1 calls.
NODE_BUDGET = 100_000


class BisimConfig(Record):
    __slots__ = __match_args__ = ("delay_budget", "depth_budget", "input_sample")

    def __init__(self, delay_budget: int = 16, depth_budget: int = 64,
                 input_sample: tuple = (0, 1, -1)):
        if delay_budget <= 0 or depth_budget <= 0:
            raise ValueError("budgets must be positive")
        if not input_sample:
            raise ValueError("input sample must be nonempty")
        self.delay_budget = delay_budget
        self.depth_budget = depth_budget
        self.input_sample = input_sample


# ---------------------------------------------------------------------------
# delay stripping


class StripResult(Record):
    """Outcome of peeling leading delays off a resumption.

    head is ("ret", state) | ("in", f) | ("out", v, rest) | ("still", res),
    where "still" means the budget ran out with the resumption still
    delaying (res starts with a delay).
    """

    __slots__ = __match_args__ = ("delays_consumed", "head")

    def __init__(self, delays_consumed: int, head: tuple):
        self.delays_consumed = delays_consumed
        self.head = head


def strip_delays(r: Res, budget: int) -> StripResult:
    """Peel up to budget leading delays and report what is underneath."""
    n = 0
    while True:
        obs = r.step()
        if obs[0] != "delay":
            return StripResult(n, obs)
        if n >= budget:
            return StripResult(n, ("still", r))
        n += 1
        r = obs[1]


# ---------------------------------------------------------------------------
# delay-bisimilarity


def _head_desc(head: tuple):
    if head[0] == "ret":
        return ("ret", head[1])
    if head[0] == "in":
        return ("in",)
    if head[0] == "out":
        return ("out", head[1])
    return ("still",)


def _resolve_pair(r0: Res, r1: Res, delay_budget: int):
    """Strip delays on both sides until both heads resolve.

    When both sides are still delaying after a full strip, one synchronized
    delay pair is consumed and stripping restarts; at most delay_budget such
    synchronized steps are taken before giving up. Returns (head0, head1)
    or None if the delay budget ran out.
    """
    syncs = 0
    while True:
        p0 = strip_delays(r0, delay_budget)
        p1 = strip_delays(r1, delay_budget)
        still0 = p0.head[0] == "still"
        still1 = p1.head[0] == "still"
        if not still0 and not still1:
            return (p0.head, p1.head)
        if still0 != still1 or syncs >= delay_budget:
            return None
        r0 = p0.head[1].step()[1]
        r1 = p1.head[1].step()[1]
        syncs += 1


def delay_bisim(r0: Res, r1: Res, cfg: BisimConfig = BisimConfig()) -> Verdict:
    """Bounded check of termination-sensitive delay-bisimilarity.

    Heads are matched modulo finite delays: equal final states, matching
    input branching (probed pointwise on cfg.input_sample), or equal output
    values; successors are explored to cfg.depth_budget unfoldings, and at
    most NODE_BUDGET pairs are explored in all.
    """
    return _bisim(r0, r1, cfg, cfg.depth_budget, (), [NODE_BUDGET])


def _bisim(r0: Res, r1: Res, cfg: BisimConfig, depth: int, path: tuple,
           nodes: list) -> Verdict:
    # nodes is [calls the query may still make], shared by the whole query
    if nodes[0] <= 0:
        return BudgetExhausted("nodes", path)
    nodes[0] -= 1
    if depth <= 0:
        return EquivalentUpToBounds()
    resolved = _resolve_pair(r0, r1, cfg.delay_budget)
    if resolved is None:
        return BudgetExhausted("delay", path)
    h0, h1 = resolved
    if h0[0] != h1[0]:
        return Distinguished(path + (("mismatch", _head_desc(h0), _head_desc(h1)),))
    if h0[0] == "ret":
        if h0[1] == h1[1]:
            return EquivalentUpToBounds()
        return Distinguished(path + (("mismatch", _head_desc(h0), _head_desc(h1)),))
    if h0[0] == "out":
        if h0[1] != h1[1]:
            return Distinguished(path + (("mismatch", _head_desc(h0), _head_desc(h1)),))
        return _bisim(h0[2], h1[2], cfg, depth - 1, path + (("out", h0[1]),), nodes)
    # both waiting for input: probe the continuations pointwise
    f0, f1 = h0[1], h1[1]
    exhausted = None
    for v in cfg.input_sample:
        verdict = _bisim(f0(v), f1(v), cfg, depth - 1, path + (("in", v),), nodes)
        if isinstance(verdict, Distinguished):
            return verdict
        if isinstance(verdict, BudgetExhausted):
            if verdict.budget == "nodes":
                return verdict
            if exhausted is None:
                exhausted = verdict
    return exhausted if exhausted is not None else EquivalentUpToBounds()


def replay_witness(r0: Res, r1: Res, cfg: BisimConfig, witness: tuple) -> bool:
    """Re-run a Distinguished witness; True iff it reproduces a disagreement."""
    for step in witness[:-1]:
        resolved = _resolve_pair(r0, r1, cfg.delay_budget)
        if resolved is None:
            return False
        h0, h1 = resolved
        if step[0] == "in":
            if h0[0] != "in" or h1[0] != "in":
                return False
            r0, r1 = h0[1](step[1]), h1[1](step[1])
        elif step[0] == "out":
            if h0[0] != "out" or h1[0] != "out" or not (h0[1] == h1[1] == step[1]):
                return False
            r0, r1 = h0[2], h1[2]
        else:
            return False
    resolved = _resolve_pair(r0, r1, cfg.delay_budget)
    if resolved is None:
        return False
    h0, h1 = resolved
    if h0[0] != h1[0]:
        return True
    if h0[0] == "ret":
        return h0[1] != h1[1]
    if h0[0] == "out":
        return h0[1] != h1[1]
    return False


# ---------------------------------------------------------------------------
# responsiveness


def responsive(
    r: Res,
    latency_budget: int,
    depth_budget: int,
    input_sample: tuple = (0, 1, -1),
) -> ResponsiveVerdict:
    """Bounded check that r always performs input or output within
    latency_budget delays unless it terminates, exploring at most
    NODE_BUDGET resumptions."""
    if latency_budget <= 0 or depth_budget <= 0:
        raise ValueError("budgets must be positive")
    if not input_sample:
        raise ValueError("input sample must be nonempty")
    return _responsive(r, latency_budget, depth_budget, tuple(input_sample), (),
                       [NODE_BUDGET])


def _responsive(r, latency, depth, sample, path, nodes) -> ResponsiveVerdict:
    # nodes is as in _bisim
    if nodes[0] <= 0:
        return BudgetExhausted("nodes", path)
    nodes[0] -= 1
    if depth <= 0:
        return ResponsiveUpToBounds()
    p = strip_delays(r, latency)
    head = p.head
    if head[0] == "still":
        return LatencyExceeded(path)
    if head[0] == "ret":
        return ResponsiveUpToBounds()
    if head[0] == "out":
        return _responsive(head[2], latency, depth - 1, sample,
                           path + (("out", head[1]),), nodes)
    f = head[1]
    for v in sample:
        verdict = _responsive(f(v), latency, depth - 1, sample, path + (("in", v),), nodes)
        if not isinstance(verdict, ResponsiveUpToBounds):
            return verdict
    return ResponsiveUpToBounds()


# ---------------------------------------------------------------------------
# trace equality


def trace_eq(t0: Trace, t1: Trace, fuel: int) -> Verdict:
    """Lock-step comparison of two traces up to fuel delay observations.

    A Distinguished witness is (index, left, right) where left/right
    describe the first disagreeing observation as ("nil", s) or
    ("delay", s).
    """

    def describe(obs):
        return ("delay", obs[2]) if obs[0] == "delay" else ("nil", obs[1])

    # step the underlying resumptions, as trace.walk does; a held head
    # would keep every memoized step alive
    r0, r1 = t0._res, t1._res
    del t0, t1
    for i in range(fuel + 1):
        o0 = r0.step()
        o1 = r1.step()
        if o0[0] == "delay":
            if o1[0] == "delay" and o0[2] == o1[2]:
                r0, r1 = o0[1], o1[1]
                continue
        elif o1[0] != "delay" and o0[1] == o1[1]:
            return EquivalentUpToBounds()
        return Distinguished((i, describe(o0), describe(o1)))
    return EquivalentUpToBounds()
