"""Abstract syntax, states, and expression evaluation for the While language
(with input/output statements), and the slotted record base classes that
the syntax nodes, configurations and verdicts share."""

from __future__ import annotations

from collections.abc import Callable

# Variables are interned non-negative indices (the parser owns the
# name <-> index table); values are signed 64-bit integers.
Var = int
Val = int

_MOD = 1 << 64
_HALF = 1 << 63


def wrap(n: int) -> Val:
    """Reduce n to a signed 64-bit value, two's-complement wrap-around."""
    return (n + _HALF) % _MOD - _HALF


def _index(x) -> Var:
    """x, if it is a variable index: a non-negative int."""
    if type(x) is not int or x < 0:
        raise TypeError(f"a variable is a non-negative int index, not {x!r}")
    return x


# ---------------------------------------------------------------------------
# records and syntax nodes


class Record:
    """An immutable record: its fields are named by ``__match_args__`` and
    stored in ``__slots__``. Equality is structural, the repr lists the
    fields by keyword, and ``match`` patterns work positionally.

    Fields are set once, in ``__init__``, by plain slot assignment; nothing
    assigns them later. That is a contract, not a guard: a ``__setattr__``
    that refused assignment would slow every construction down.
    """

    __slots__ = ()
    __match_args__: tuple = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # an explicit stack of field pairs, so deep trees compare without
        # recursion; syntax nodes compare their cached hashes first
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if not isinstance(a, Record):
                if a != b:
                    return False
            elif type(a) is not type(b) or (isinstance(a, Node) and a._hash != b._hash):
                return False
            else:
                todo.extend((getattr(a, f), getattr(b, f)) for f in a.__match_args__)
        return True

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self):
        # an explicit stack of records still to print and of text already
        # made, so deep trees print without recursion
        out = []
        todo = [self]
        while todo:
            r = todo.pop()
            if type(r) is str:
                out.append(r)
                continue
            parts = [f"{type(r).__qualname__}("]
            for i, f in enumerate(r.__match_args__):
                v = getattr(r, f)
                parts.append(f"{', ' if i else ''}{f}=")
                parts.append(v if isinstance(v, Record) else repr(v))
            parts.append(")")
            todo.extend(reversed(parts))
        return "".join(out)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, so that a node's cached
        # hash is that of the process it lands in
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


class Node(Record):
    """A syntax node. Its hash is computed once, in ``__init__``, from its
    children's cached hashes (``var`` and ``value`` fields are hashed as
    the ints they are), so hashing a node is O(1) however deep it is.

    ``_pure`` says that no ``input`` or ``output`` occurs in the node. Like
    the hash it is set at construction, from the children's flags, by the
    compound statements; every other node has it as a class attribute.

    An expression node caches its closure, once compiled, in a slot named
    for its sort (``_arith`` or ``_bool``), so that a node of one sort is
    refused in a place of the other. A statement other than ``Seq`` and
    ``Skip`` caches its one-step reducer for the small-step interpreter,
    once built, in the slot ``_step`` (see ``resumption._resume``). Equality,
    hash, repr and pickling ignore these slots."""

    __slots__ = ("_hash",)
    _pure = True

    def __init__(self):
        self._hash = hash(type(self))

    def __hash__(self):
        return self._hash


class _Binary(Node):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash((type(self), left._hash, right._hash))


# ---------------------------------------------------------------------------
# arithmetic expressions


class NumLit(Node):
    __match_args__ = ("value",)
    __slots__ = __match_args__ + ("_arith",)

    def __init__(self, value: Val):
        self.value = value
        self._hash = hash((NumLit, value))


class VarRef(Node):
    __match_args__ = ("var",)
    __slots__ = __match_args__ + ("_arith",)

    def __init__(self, var: Var):
        self.var = _index(var)
        self._hash = hash((VarRef, var))


class Add(_Binary):
    __slots__ = ("_arith",)


class Sub(_Binary):
    __slots__ = ("_arith",)


class Mul(_Binary):
    __slots__ = ("_arith",)


AExp = NumLit | VarRef | Add | Sub | Mul


# ---------------------------------------------------------------------------
# boolean expressions


class TrueLit(Node):
    __slots__ = ("_bool",)


class FalseLit(Node):
    __slots__ = ("_bool",)


class Eq(_Binary):
    __slots__ = ("_bool",)


class Le(_Binary):
    __slots__ = ("_bool",)


class Not(Node):
    __match_args__ = ("operand",)
    __slots__ = __match_args__ + ("_bool",)

    def __init__(self, operand: "BExp"):
        self.operand = operand
        self._hash = hash((Not, operand._hash))


class And(_Binary):
    __slots__ = ("_bool",)


class Or(_Binary):
    __slots__ = ("_bool",)


BExp = TrueLit | FalseLit | Eq | Le | Not | And | Or

TT = TrueLit()
FF = FalseLit()


# ---------------------------------------------------------------------------
# statements


class Skip(Node):
    __slots__ = ()


class Seq(Node):
    __match_args__ = ("first", "second")
    __slots__ = __match_args__ + ("_pure",)

    def __init__(self, first: "Stmt", second: "Stmt"):
        self.first = first
        self.second = second
        self._hash = hash((Seq, first._hash, second._hash))
        self._pure = first._pure and second._pure


class Assign(Node):
    __match_args__ = ("var", "expr")
    __slots__ = __match_args__ + ("_step",)

    def __init__(self, var: Var, expr: AExp):
        self.var = _index(var)
        self.expr = expr
        self._hash = hash((Assign, var, expr._hash))


class If(Node):
    __match_args__ = ("cond", "then", "orelse")
    __slots__ = __match_args__ + ("_pure", "_step")

    def __init__(self, cond: BExp, then: "Stmt", orelse: "Stmt"):
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self._hash = hash((If, cond._hash, then._hash, orelse._hash))
        self._pure = then._pure and orelse._pure


class While(Node):
    __match_args__ = ("cond", "body")
    __slots__ = __match_args__ + ("_pure", "_step")

    def __init__(self, cond: BExp, body: "Stmt"):
        self.cond = cond
        self.body = body
        self._hash = hash((While, cond._hash, body._hash))
        self._pure = body._pure


class Input(Node):
    __match_args__ = ("var",)
    __slots__ = __match_args__ + ("_step",)
    _pure = False

    def __init__(self, var: Var):
        self.var = _index(var)
        self._hash = hash((Input, var))


class Output(Node):
    __match_args__ = ("expr",)
    __slots__ = __match_args__ + ("_step",)
    _pure = False

    def __init__(self, expr: AExp):
        self.expr = expr
        self._hash = hash((Output, expr._hash))


Stmt = Skip | Seq | Assign | If | While | Input | Output

SKIP = Skip()


# ---------------------------------------------------------------------------
# states


_new = object.__new__  # a State without __init__, for upd's hot path


class State:
    """Total map from variables to values with default 0.

    Stored as ``_vals``, the tuple of the values of variables 0, 1, 2, ...
    up to the last one that is not 0. That form is canonical, so two states
    are equal iff they denote the same total function, and ``==`` and
    ``hash`` are the tuple's. Immutable; upd returns a fresh state.
    """

    __slots__ = ("_vals",)

    def __init__(self, bindings=None):
        vals = []
        if bindings:
            for x, v in dict(bindings).items():
                if _index(x) >= len(vals):
                    vals.extend([0] * (x + 1 - len(vals)))
                vals[x] = wrap(v)
        while vals and not vals[-1]:
            vals.pop()
        self._vals = tuple(vals)

    @classmethod
    def empty(cls) -> "State":
        s = _new(cls)
        s._vals = ()
        return s

    def lkp(self, x: Var) -> Val:
        vals = self._vals
        return vals[x] if _index(x) < len(vals) else 0

    def upd(self, x: Var, v: Val) -> "State":
        if type(x) is not int or x < 0:
            _index(x)  # raises
        return self._set(x, (v + _HALF) % _MOD - _HALF)

    def _set(self, x: Var, v: Val) -> "State":
        """upd for a variable index x and a value v already wrapped, as in
        compiled assignments: the Assign node checked x, and the expression
        closure wrapped v."""
        vals = self._vals
        if x < len(vals):
            # a copy through a list: cheaper than slicing around x
            b = [*vals]
            b[x] = v
            if not v:  # writing 0 at the end trims it
                while b and not b[-1]:
                    b.pop()
            vals = tuple(b)
        elif v:
            vals = vals + (0,) * (x - len(vals)) + (v,)
        else:
            return self  # 0 past the end is already there
        s = _new(State)
        s._vals = vals
        return s

    @property
    def values(self) -> tuple:
        """The values of variables 0, 1, 2, ... up to the last one not 0."""
        return self._vals

    def items(self):
        """The bindings to values other than 0, as (variable, value) pairs
        in index order."""
        return tuple((x, v) for x, v in enumerate(self._vals) if v)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return self._vals == other._vals

    def __hash__(self):
        return hash(self._vals)

    def __repr__(self):
        inner = ", ".join(f"{x}={v}" for x, v in self.items())
        return f"State({{{inner}}})"


# ---------------------------------------------------------------------------
# expression evaluation (total; arithmetic wraps at 64 bits)


def aexp(a: AExp, s: State) -> Val:
    t = type(a)
    if t is VarRef:
        x, vals = a.var, s._vals
        return vals[x] if x < len(vals) else 0
    if t is NumLit:
        return (a.value + _HALF) % _MOD - _HALF
    if t is Add:
        return (aexp(a.left, s) + aexp(a.right, s) + _HALF) % _MOD - _HALF
    if t is Sub:
        return (aexp(a.left, s) - aexp(a.right, s) + _HALF) % _MOD - _HALF
    if t is Mul:
        return (aexp(a.left, s) * aexp(a.right, s) + _HALF) % _MOD - _HALF
    raise TypeError(f"not an arithmetic expression: {a!r}")


def strip_nots(b: BExp) -> tuple[int, BExp]:
    """The number of Not nodes that b starts with, and the expression under
    them. A loop, so that a long chain of negations costs no recursion in
    bexp, compile_bexp or the printer."""
    n = 0
    while type(b) is Not:
        n += 1
        b = b.operand
    return n, b


def bexp(b: BExp, s: State) -> bool:
    t = type(b)
    if t is Le:
        return aexp(b.left, s) <= aexp(b.right, s)
    if t is Eq:
        return aexp(b.left, s) == aexp(b.right, s)
    if t is TrueLit:
        return True
    if t is FalseLit:
        return False
    if t is Not:
        n, b = strip_nots(b)
        return bexp(b, s) if n % 2 == 0 else not bexp(b, s)
    if t is And:
        return bexp(b.left, s) and bexp(b.right, s)
    if t is Or:
        return bexp(b.left, s) or bexp(b.right, s)
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# compilation to closures
#
# Each expression node is compiled once into a closure State -> value, kept
# on the node, so that evaluating it does no dispatch on syntax; the results
# equal aexp/bexp. Both interpreters evaluate through these closures. A
# binary node reads a leaf operand inline, so it costs one call whatever
# its operands.


def _leaf(a):
    """The pair (x, c) that a binary node reads its operand a as, inline,
    ``vals[x] if x < len(vals) else c``, if a is a leaf: a variable x has
    c = 0, and a literal is its wrapped value c at an index past the end of
    any state. None if a is not a leaf."""
    t = type(a)
    if t is VarRef:
        return a.var, 0
    if t is NumLit:
        return _MOD, wrap(a.value)
    return None


def _binary(t: type, l, r) -> Callable[[State], Val | bool]:
    """The closure of a binary node of type t (Add, Sub, Mul, Eq or Le)
    whose operands are l and r: each a pair from _leaf, or a closure."""
    if type(l) is tuple and type(r) is tuple:
        (x, c), (y, d) = l, r
        if t is Add:
            return lambda s: ((v[x] if x < (n := len(v := s._vals)) else c)
                              + (v[y] if y < n else d) + _HALF) % _MOD - _HALF
        if t is Sub:
            return lambda s: ((v[x] if x < (n := len(v := s._vals)) else c)
                              - (v[y] if y < n else d) + _HALF) % _MOD - _HALF
        if t is Mul:
            return lambda s: ((v[x] if x < (n := len(v := s._vals)) else c)
                              * (v[y] if y < n else d) + _HALF) % _MOD - _HALF
        if t is Eq:
            return lambda s: ((v[x] if x < (n := len(v := s._vals)) else c)
                              == (v[y] if y < n else d))
        return lambda s: ((v[x] if x < (n := len(v := s._vals)) else c)
                          <= (v[y] if y < n else d))
    if type(l) is tuple:
        x, c = l
        if t is Add:
            return lambda s: ((v[x] if x < len(v := s._vals) else c)
                              + r(s) + _HALF) % _MOD - _HALF
        if t is Sub:
            return lambda s: ((v[x] if x < len(v := s._vals) else c)
                              - r(s) + _HALF) % _MOD - _HALF
        if t is Mul:
            return lambda s: ((v[x] if x < len(v := s._vals) else c)
                              * r(s) + _HALF) % _MOD - _HALF
        if t is Eq:
            return lambda s: (v[x] if x < len(v := s._vals) else c) == r(s)
        return lambda s: (v[x] if x < len(v := s._vals) else c) <= r(s)
    if type(r) is tuple:
        y, d = r
        if t is Add:
            return lambda s: (l(s) + (v[y] if y < len(v := s._vals) else d)
                              + _HALF) % _MOD - _HALF
        if t is Sub:
            return lambda s: (l(s) - (v[y] if y < len(v := s._vals) else d)
                              + _HALF) % _MOD - _HALF
        if t is Mul:
            return lambda s: (l(s) * (v[y] if y < len(v := s._vals) else d)
                              + _HALF) % _MOD - _HALF
        if t is Eq:
            return lambda s: l(s) == (v[y] if y < len(v := s._vals) else d)
        return lambda s: l(s) <= (v[y] if y < len(v := s._vals) else d)
    if t is Add:
        return lambda s: (l(s) + r(s) + _HALF) % _MOD - _HALF
    if t is Sub:
        return lambda s: (l(s) - r(s) + _HALF) % _MOD - _HALF
    if t is Mul:
        return lambda s: (l(s) * r(s) + _HALF) % _MOD - _HALF
    if t is Eq:
        return lambda s: l(s) == r(s)
    return lambda s: l(s) <= r(s)


def compile_aexp(a: AExp) -> Callable[[State], Val]:
    try:
        return a._arith
    except AttributeError:  # not compiled yet, or not an arithmetic node
        pass
    t = type(a)
    if t is VarRef:
        x = a.var

        def f(s):
            vals = s._vals
            return vals[x] if x < len(vals) else 0

    elif t is NumLit:
        v = wrap(a.value)
        f = lambda s: v
    elif t is Add or t is Sub or t is Mul:
        # _leaf before compile_aexp, so that a deep tree costs one frame a level
        l, r = a.left, a.right
        f = _binary(t, _leaf(l) or compile_aexp(l), _leaf(r) or compile_aexp(r))
    else:
        raise TypeError(f"not an arithmetic expression: {a!r}")
    a._arith = f
    return f


def compile_bexp(b: BExp) -> Callable[[State], bool]:
    try:
        return b._bool
    except AttributeError:  # not compiled yet, or not a boolean node
        pass
    t = type(b)
    if t is TrueLit:
        f = lambda s: True
    elif t is FalseLit:
        f = lambda s: False
    elif t is Eq or t is Le:
        l, r = b.left, b.right
        f = _binary(t, _leaf(l) or compile_aexp(l), _leaf(r) or compile_aexp(r))
    elif t is Not:
        n, x = strip_nots(b)
        x = compile_bexp(x)
        f = x if n % 2 == 0 else lambda s: not x(s)
    elif t is And or t is Or:
        l, r = compile_bexp(b.left), compile_bexp(b.right)
        f = (lambda s: l(s) and r(s)) if t is And else (lambda s: l(s) or r(s))
    else:
        raise TypeError(f"not a boolean expression: {b!r}")
    b._bool = f
    return f


# ---------------------------------------------------------------------------
# statement utilities


def is_pure(stmt: Stmt) -> bool:
    """True iff stmt contains no input/output statement (read from the flag
    its constructor set, so it costs O(1))."""
    return stmt._pure


# the node types with two child nodes, as (left, right) or (first,
# second); the other inner nodes, whose fields are all child nodes; and
# the nodes with no field that holds a node or a variable
_BINARY = frozenset((Add, Sub, Mul, Eq, Le, And, Or))
_INNER = frozenset((Not, If, While, Output))
_LEAVES = frozenset((NumLit, TrueLit, FalseLit, Skip))


def map_variables(stmt: Stmt, f: Callable[[Var], Var]) -> Stmt:
    """Rebuild stmt with every variable index replaced by f(index), calling f
    in source order. A node under which no index changes is returned as it
    is. The walk is post-order on an explicit stack, so a deep tree does not
    recurse."""
    done = []  # mapped nodes whose parent is not built yet, left to right
    todo = [stmt]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is VarRef:
            x = f(n.var)
            done.append(n if x == n.var else VarRef(x))
        elif t in _LEAVES:
            done.append(n)
        elif t is tuple:  # a node whose children are on done
            if len(n) == 3:  # (node, child, child) of a node with two
                n, a, b = n
                r = done.pop()
                l = done.pop()
                done.append(n if l is a and r is b else type(n)(l, r))
            elif n[1] is None:  # (node, None) of another inner node
                n = n[0]
                fields = n.__match_args__
                kids = done[-len(fields):]
                del done[-len(fields):]
                for kid, field in zip(kids, fields):
                    if kid is not getattr(n, field):
                        n = type(n)(*kids)
                        break
                done.append(n)
            else:  # (assignment, new var)
                n, x = n
                e = done.pop()
                done.append(n if x == n.var and e is n.expr else Assign(x, e))
        elif t in _BINARY:
            a, b = n.left, n.right
            todo += ((n, a, b), b, a)
        elif t is Seq:
            a, b = n.first, n.second
            todo += ((n, a, b), b, a)
        elif t is Assign:
            todo += ((n, f(n.var)), n.expr)
        elif t is Input:
            x = f(n.var)
            done.append(n if x == n.var else Input(x))
        elif t in _INNER:
            todo.append((n, None))
            todo.extend([getattr(n, field) for field in reversed(n.__match_args__)])
        else:
            raise TypeError(repr(n))
    return done[0]


def variables(stmt: Stmt) -> set[Var]:
    """All variable indices occurring in stmt."""
    seen: set[Var] = set()
    map_variables(stmt, lambda x: (seen.add(x), x)[1])
    return seen
