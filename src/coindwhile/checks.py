"""Fuel-bounded checkers: termination-sensitive delay-bisimilarity,
responsiveness, and lock-step trace-prefix equality.

The underlying properties are coinductive and undecidable, so every checker
works within explicit budgets and reports one of three verdicts: confirmed
up to the bounds, refuted with a replayable witness, or budget exhausted.
Refutation (Distinguished / LatencyExceeded) is sound; the positive verdicts
only mean "no counterexample within the bounds".

delay_bisim and responsive share one search, _search: a depth-first walk
on an explicit stack that counts one node per visit, so the depth budget
costs no recursion. Both find a head by _strip, under at most D delays
(the delay or latency budget), so a node costs at most D + 1 observations
per resumption. delay_bisim and replay_witness share one rule for
matching the heads of a pair, _pair_step. They step each resumption as
a raw pair (fn, arg) rooted at (_raw, r) (see ``resumption._raw``), and
make no ``Res``; a node of delay_bisim is a pair of such pairs.
"""

from __future__ import annotations

from functools import partial
from operator import index

from .resumption import Res, _fuel, _raw
from .syntax import Record, wrap
from .trace import Trace, _final


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


def _checked(input_sample, *budgets: int) -> tuple:
    """The sample as a tuple of its values in order, each as the 64-bit
    value an interpreter reads (syntax.wrap; a non-int is a TypeError) and
    each once (a repeated value would only explore the same branch again),
    then the budgets as ints, each of which must be positive."""
    budgets = tuple(map(index, budgets))
    if min(budgets) <= 0:
        raise ValueError("budgets must be positive")
    sample = tuple(dict.fromkeys(map(wrap, input_sample)))
    if not sample:
        raise ValueError("input sample must be nonempty")
    return (sample, *budgets)


class BisimConfig(Record):
    __slots__ = __match_args__ = ("delay_budget", "depth_budget", "input_sample")

    def __init__(self, delay_budget: int = 288, depth_budget: int = 64,
                 input_sample: tuple = (0, 1, -1)):
        self.input_sample, self.delay_budget, self.depth_budget = _checked(
            input_sample, delay_budget, depth_budget)


# ---------------------------------------------------------------------------
# delay stripping


def _strip(fn, arg, budget: int) -> tuple:
    """The first raw observation of the pair (fn, arg) that is not a delay.
    If more than budget delays lead, it is instead the delay after the
    first budget of them, whose (obs[1], obs[2]) is the pair after it.

    Nothing is kept, so memory stays flat however long the stretch, and
    no observation is computed twice.
    """
    for _ in range(budget):
        obs = fn(arg)
        if obs[0] != "delay":
            return obs
        fn, arg = obs[1], obs[2]
    return fn(arg)


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

    Each side is stripped once of up to D = delay_budget delays, so a head
    is reached iff at most D delays lead it, as in responsive, and a node
    costs at most 2(D + 1) observations. Returns the ordered (step, pair)
    successors, one per sample value for two inputs, one for equal
    outputs and none for equal final states; otherwise the verdict at
    path, Distinguished or, when either side is still delaying,
    BudgetExhausted("delay").
    """
    h0 = _strip(*pair[0], delay_budget)
    h1 = _strip(*pair[1], delay_budget)
    if h0[0] == "delay" or h1[0] == "delay":
        return BudgetExhausted("delay", tuple(path))
    if h0[0] == h1[0] == "in":
        return [(("in", v), ((h0[1], (h0[2], v)), (h1[1], (h1[2], v)))) for v in sample]
    if h0[0] != h1[0] or h0[1] != h1[1]:
        return Distinguished((*path, ("mismatch", _head_desc(h0), _head_desc(h1))))
    if h0[0] == "out":
        return [(("out", h0[1]), ((h0[2], h0[3]), (h1[2], h1[3])))]
    return []  # equal final states


def delay_bisim(r0: Res, r1: Res, cfg: BisimConfig = BisimConfig()) -> Verdict:
    """Bounded check of termination-sensitive delay-bisimilarity.

    Heads are matched modulo at most cfg.delay_budget delays before each
    head, on each side: equal final states, matching input branching
    (probed pointwise on cfg.input_sample), or equal output values;
    successors are explored to cfg.depth_budget unfoldings, and at
    most NODE_BUDGET pairs are explored in all.
    """
    expand = partial(_pair_step, cfg.delay_budget, cfg.input_sample)
    return _search(((_raw, r0), (_raw, r1)), expand, cfg.depth_budget,
                   EquivalentUpToBounds())


def replay_witness(r0: Res, r1: Res, cfg: BisimConfig, witness: tuple) -> bool:
    """Re-run a Distinguished witness; True iff it reproduces a disagreement.

    Each step must be the only successor of the pair when its heads are
    probed with that step's value alone, so an input value need not lie in
    cfg.input_sample; it is read wrapped to 64 bits, as drive reads it.
    """
    pair = ((_raw, r0), (_raw, r1))
    for step in witness[:-1]:
        step = ("in", wrap(step[1])) if step[0] == "in" else step
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
    sample, latency_budget, depth_budget = _checked(
        input_sample, latency_budget, depth_budget)

    def expand(node, path):
        head = _strip(*node, latency_budget)
        if head[0] == "delay":
            return LatencyExceeded(tuple(path))
        if head[0] == "in":
            return [(("in", v), (head[1], (head[2], v))) for v in sample]
        if head[0] == "out":
            return [(("out", head[1]), (head[2], head[3]))]
        return []  # terminated

    return _search((_raw, r), expand, depth_budget, ResponsiveUpToBounds())


# ---------------------------------------------------------------------------
# trace equality


def trace_eq(t0: Trace, t1: Trace, fuel: int) -> Verdict:
    """Lock-step comparison of two traces on what ``take`` shows of them:
    EquivalentUpToBounds iff ``take(t0, fuel) == take(t1, fuel)``. fuel is
    an int of at least 0. Of the fuel + 1 observations compared, the last
    shows no state if it is a delay, so any two delays agree there.

    A Distinguished witness is (index, left, right) where left/right
    describe the first disagreeing observation as ("nil", s) or
    ("delay", s).
    """

    def describe(obs):
        return ("delay", obs[3]) if obs[0] == "delay" else ("nil", _final(obs))

    # step raw observations, as trace.walk does: no Res is made
    f0, a0, f1, a1 = _raw, t0._res, _raw, t1._res
    last = _fuel(fuel)
    for i in range(last + 1):
        o0 = f0(a0)
        o1 = f1(a1)
        if o0[0] == "delay":
            if o1[0] == "delay" and (o0[3] == o1[3] or i == last):
                f0, a0, f1, a1 = o0[1], o0[2], o1[1], o1[2]
                continue
        elif o1[0] != "delay" and _final(o0) == _final(o1):
            return EquivalentUpToBounds()
        return Distinguished((i, describe(o0), describe(o1)))
    return EquivalentUpToBounds()
