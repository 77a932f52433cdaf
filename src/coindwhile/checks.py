"""Fuel-bounded checkers: termination-sensitive delay-bisimilarity,
responsiveness, and lock-step trace-prefix equality.

The underlying properties are coinductive and undecidable, so every checker
works within explicit budgets and reports one of three verdicts: confirmed
up to the bounds, refuted with a replayable witness, or budget exhausted.
Refutation (Distinguished / LatencyExceeded) is sound; the positive verdicts
only mean "no counterexample within the bounds".

delay_bisim and responsive share one search, _search: a depth-first walk
on an explicit stack that counts one node per visit, so the depth budget
costs no recursion. delay_bisim and replay_witness share one rule for
matching the heads of a pair, _pair_step.
"""

from __future__ import annotations

from functools import partial

from .resumption import Res, _memo, _raw
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


# At most this many nodes are visited per bisim or responsive query, so a
# program that reads forever (len(sample) ** depth paths) ends in
# BudgetExhausted("nodes"). A depth-6 query under two sample values visits
# 2^7 - 1 nodes.
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


def strip_delays(r: Res, budget: int) -> tuple:
    """Peel up to budget leading delays and return the head underneath:
    ("ret", state) | ("in", f) | ("out", v, rest) | ("still", res), where
    "still" means the budget ran out with the resumption still delaying
    (res starts with a delay).

    The delays are stepped raw (see ``resumption._raw``) and none is
    memoized, so memory stays flat however long the stretch. "still" hands
    back the cell at the budget already forced: no observation is computed
    twice.
    """
    fn, arg = _raw, r
    n = 0
    while True:
        obs = fn(arg)
        if obs[0] != "delay":
            return _memo(obs)
        if n >= budget:
            return ("still", Res._of(_memo(obs)))
        n += 1
        fn, arg = obs[1], obs[2]


# ---------------------------------------------------------------------------
# bounded search


def _search(root, expand, depth_budget: int, ok):
    """Explore the tree below root depth-first, to depth_budget levels and
    at most NODE_BUDGET nodes, counting one node per visit.

    expand(node, path) gives the ordered (step, child) successors of a node,
    or the verdict that ends its branch. A BudgetExhausted("delay") verdict
    is kept, and the first one is returned only if the search finds nothing
    else; any other verdict, or a spent node budget, ends the search at once.
    path is one list of steps, cut back to each node's level as it is
    visited, so depth costs neither recursion nor a path copy per node; a
    verdict that keeps it must copy it.
    """
    path = []
    stack = [(0, None, root)]
    nodes = NODE_BUDGET
    exhausted = None
    while stack:
        level, step, node = stack.pop()
        if level:
            del path[level - 1:]
            path.append(step)
        if nodes <= 0:
            return BudgetExhausted("nodes", tuple(path))
        nodes -= 1
        if level >= depth_budget:
            continue
        result = expand(node, path)
        if type(result) is list:
            level += 1
            for s, child in reversed(result):
                stack.append((level, s, child))
        elif type(result) is not BudgetExhausted:
            return result
        elif exhausted is None:
            exhausted = result
    return ok if exhausted is None else exhausted


# ---------------------------------------------------------------------------
# delay-bisimilarity


def _head_desc(head: tuple):
    return ("in",) if head[0] == "in" else head[:2]


def _pair_step(delay_budget: int, sample: tuple, pair: tuple, path: list):
    """Resolve the heads of a pair of resumptions and match them.

    Delays are stripped on both sides. When both sides are still delaying
    after a full strip, one synchronized delay pair is consumed and stripping
    restarts, at most delay_budget times. Returns the ordered (step, pair)
    successors, one per sample value for two inputs, one for equal outputs
    and none for equal final states; otherwise the verdict at path,
    Distinguished or BudgetExhausted("delay").
    """
    r0, r1 = pair
    syncs = 0
    while True:
        h0 = strip_delays(r0, delay_budget)
        h1 = strip_delays(r1, delay_budget)
        if h0[0] != "still" and h1[0] != "still":
            break
        if h0[0] != h1[0] or syncs >= delay_budget:
            return BudgetExhausted("delay", tuple(path))
        r0 = h0[1].step()[1]
        r1 = h1[1].step()[1]
        syncs += 1
    if h0[0] == h1[0] == "in":
        f0, f1 = h0[1], h1[1]
        return [(("in", v), (f0(v), f1(v))) for v in sample]
    if h0[0] != h1[0] or h0[1] != h1[1]:
        return Distinguished((*path, ("mismatch", _head_desc(h0), _head_desc(h1))))
    if h0[0] == "out":
        return [(("out", h0[1]), (h0[2], h1[2]))]
    return []  # equal final states


def delay_bisim(r0: Res, r1: Res, cfg: BisimConfig = BisimConfig()) -> Verdict:
    """Bounded check of termination-sensitive delay-bisimilarity.

    Heads are matched modulo finite delays: equal final states, matching
    input branching (probed pointwise on cfg.input_sample), or equal output
    values; successors are explored to cfg.depth_budget unfoldings, and at
    most NODE_BUDGET pairs are explored in all.
    """
    expand = partial(_pair_step, cfg.delay_budget, cfg.input_sample)
    return _search((r0, r1), expand, cfg.depth_budget, EquivalentUpToBounds())


def replay_witness(r0: Res, r1: Res, cfg: BisimConfig, witness: tuple) -> bool:
    """Re-run a Distinguished witness; True iff it reproduces a disagreement.

    Each step must be the only successor of the pair when its heads are
    probed with that step's value alone, so an input value need not lie in
    cfg.input_sample.
    """
    pair = (r0, r1)
    for step in witness[:-1]:
        succ = _pair_step(cfg.delay_budget, step[1:], pair, [])
        if type(succ) is not list or len(succ) != 1 or succ[0][0] != step:
            return False
        pair = succ[0][1]
    return type(_pair_step(cfg.delay_budget, (), pair, [])) is Distinguished


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
    sample = tuple(input_sample)

    def expand(r, path):
        head = strip_delays(r, latency_budget)
        if head[0] == "still":
            return LatencyExceeded(tuple(path))
        if head[0] == "in":
            return [(("in", v), head[1](v)) for v in sample]
        if head[0] == "out":
            return [(("out", head[1]), head[2])]
        return []  # terminated

    return _search(r, expand, depth_budget, ResponsiveUpToBounds())


# ---------------------------------------------------------------------------
# trace equality


def trace_eq(t0: Trace, t1: Trace, fuel: int) -> Verdict:
    """Lock-step comparison of two traces up to fuel delay observations.

    A Distinguished witness is (index, left, right) where left/right
    describe the first disagreeing observation as ("nil", s) or
    ("delay", s).
    """

    def describe(obs):
        return ("delay", obs[3]) if obs[0] == "delay" else ("nil", obs[1])

    # step raw observations, as trace.walk does: nothing is memoized
    f0, a0, f1, a1 = _raw, t0._res, _raw, t1._res
    del t0, t1
    for i in range(fuel + 1):
        o0 = f0(a0)
        o1 = f1(a1)
        if o0[0] == "delay":
            if o1[0] == "delay" and o0[3] == o1[3]:
                f0, a0, f1, a1 = o0[1], o0[2], o1[1], o1[2]
                continue
        elif o1[0] != "delay" and o0[1] == o1[1]:
            return EquivalentUpToBounds()
        return Distinguished((i, describe(o0), describe(o1)))
    return EquivalentUpToBounds()
