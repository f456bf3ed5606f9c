"""Scalar expression DSL: parsing, symbolic differentiation, evaluation.

Expressions are immutable ASTs over a fixed set of chart coordinates.
Differentiation is symbolic; the only rewriting ever applied is constant
folding of literal-only subtrees, so results evaluate exactly as built.

Every node is hash-consed: the smart constructors look a node up in the
current table before building it, so structurally equal nodes are one
object.  A compound node is keyed on its op (or function name) and the
``id`` of each child; the table holds the node, and the node its children,
so no ``id`` in a live key can be reused.  ``Const`` is keyed on its value
and sign bit (``-0.0`` stays distinct) and NaN is never interned; ``Coord``
is keyed on index and name.  The same table caches ``differentiate`` per
node and coordinate.

The table lasts as long as the innermost :func:`fresh_table` block, so a
long process does not accumulate nodes; outside every block a module-level
table is used.  A scenario is parsed, and the partials of its fields are
built, in a block of its own, so a run of the suites builds no node.
Evaluation is vectorised over batches of points and memoised per call on
node identity, which after interning means each distinct subexpression is
evaluated once.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager

import numpy as np

from .errors import DomainError, ParseError

__all__ = [
    "Expr",
    "Const",
    "Coord",
    "Neg",
    "Bin",
    "Func",
    "const",
    "coord",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "func",
    "parse",
    "differentiate",
    "eval_batch",
    "FUNCTION_NAMES",
    "fresh_table",
]

_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
}

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}

FUNCTION_NAMES = tuple(sorted(_UNARY_FUNCS))


class Expr:
    """Base class for AST nodes.

    Instances are immutable and hash by identity.  Build them with the smart
    constructors, never the classes: those intern every node in the current
    table (see :func:`fresh_table`), so within one table structural
    equality is identity.
    """

    __slots__ = ()

    def children(self):
        return ()

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))


class Coord(Expr):
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "name", name)


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        object.__setattr__(self, "child", child)

    def children(self):
        return (self.child,)


class Bin(Expr):
    """Binary operation; op is one of '+', '-', '*', '/', '^'."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self):
        return (self.left, self.right)


class Func(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)

    def children(self):
        return (self.arg,)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return const(value)


# The interning table: node key -> node, and ("d", id(node), i) ->
# (node, derivative).  Rebound, never mutated in place, by fresh_table.
_table: dict = {}


@contextmanager
def fresh_table():
    """Intern into a new, empty table for the block; restore the previous one on exit."""
    global _table
    previous, _table = _table, {}
    try:
        yield
    finally:
        _table = previous


def _interned(key, cls, *fields) -> Expr:
    node = _table.get(key)
    if node is None:
        node = _table[key] = cls(*fields)
    return node


# Smart constructors.  The only rewriting is folding of literal-only nodes;
# folds that would produce a non-finite value are left unevaluated so the
# error surfaces at evaluation time with a witness point.


def const(value) -> Expr:
    value = float(value)
    if value != value:  # NaN equals nothing, so it is never interned
        return Const(value)
    return _interned(("const", value, math.copysign(1.0, value)), Const, value)


def coord(index: int, name: str | None = None) -> Expr:
    index = int(index)
    name = name if name is not None else f"x{index + 1}"
    return _interned(("coord", index, name), Coord, index, name)


def _fold(value: float) -> Expr | None:
    if math.isfinite(value):
        return const(value)
    return None


def _bin(op: str, a: Expr, b: Expr) -> Expr:
    return _interned((op, id(a), id(b)), Bin, op, a, b)


def add(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(a.value + b.value)
        if folded is not None:
            return folded
    return _bin("+", a, b)


def sub(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(a.value - b.value)
        if folded is not None:
            return folded
    return _bin("-", a, b)


def mul(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold(a.value * b.value)
        if folded is not None:
            return folded
    return _bin("*", a, b)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        folded = _fold(a.value / b.value)
        if folded is not None:
            return folded
    return _bin("/", a, b)


def pow_(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            value = a.value**b.value
        except (ValueError, OverflowError, ZeroDivisionError):
            value = math.nan
        if isinstance(value, float):
            folded = _fold(value)
            if folded is not None:
                return folded
    return _bin("^", a, b)


def neg(a) -> Expr:
    a = _coerce(a)
    if isinstance(a, Const):
        return const(-a.value)
    return _interned(("neg", id(a)), Neg, a)


def func(name: str, arg) -> Expr:
    if name not in _UNARY_FUNCS:
        raise ValueError(f"unknown function {name!r}")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        try:
            value = _MATH_FUNCS[name](arg.value)
        except (ValueError, OverflowError):
            value = math.nan
        folded = _fold(value)
        if folded is not None:
            return folded
    return _interned((name, id(arg)), Func, name, arg)


# ------------------------------------------------------------------
# Parsing
# ------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.tokens = []
        self._scan()
        self.cursor = 0

    def _scan(self):
        src = self.source
        i = 0
        while i < len(src):
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            m = _NUMBER_RE.match(src, i)
            if m:
                self.tokens.append(("num", float(m.group(0)), i))
                i = m.end()
                continue
            m = _IDENT_RE.match(src, i)
            if m:
                self.tokens.append(("ident", m.group(0), i))
                i = m.end()
                continue
            raise ParseError(i, f"unexpected character {ch!r}")
        self.tokens.append(("end", None, len(src)))

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        tok = self.tokens[self.cursor]
        if tok[0] != "end":
            self.cursor += 1
        return tok

    def expect(self, kind: str, expected: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"unexpected token {_describe(tok)}", expected)
        return self.advance()


def _describe(tok):
    kind, value, _ = tok
    if kind == "end":
        return "end of input"
    return repr(str(value))


class _Parser:
    """Recursive descent over:

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-' factor | power
        power  := primary ('^' factor)?
        primary := number | coord | func '(' expr ')' | '(' expr ')'

    '^' is right-associative; unary minus binds looser than '^' applied to
    its base, so -x^2 means -(x^2) while (-x)^2 needs parentheses.
    """

    def __init__(self, source: str, coords):
        self.toks = _Tokenizer(source)
        self.coords = {name: i for i, name in enumerate(coords)}
        self.coord_names = list(coords)

    def parse(self) -> Expr:
        tok = self.toks.peek()
        if tok[0] == "end":
            raise ParseError(0, "empty input", "an expression")
        result = self.expr()
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"trailing input {_describe(tok)}", "end of input")
        return result

    def expr(self) -> Expr:
        node = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.advance()[0]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.advance()[0]
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self) -> Expr:
        if self.toks.peek()[0] == "-":
            self.toks.advance()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.toks.peek()[0] == "^":
            self.toks.advance()
            exponent = self.factor()
            return pow_(base, exponent)
        return base

    def primary(self) -> Expr:
        kind, value, pos = self.toks.peek()
        if kind == "num":
            self.toks.advance()
            return const(value)
        if kind == "(":
            self.toks.advance()
            node = self.expr()
            self.toks.expect(")", "')'")
            return node
        if kind == "ident":
            self.toks.advance()
            if value in self.coords:
                return coord(self.coords[value], value)
            if value in _UNARY_FUNCS:
                self.toks.expect("(", f"'(' after function {value!r}")
                node = self.expr()
                self.toks.expect(")", "')'")
                return func(value, node)
            raise ParseError(
                pos,
                f"unknown identifier {value!r}",
                "a coordinate name or one of " + ", ".join(FUNCTION_NAMES),
            )
        raise ParseError(pos, f"unexpected token {_describe((kind, value, pos))}",
                         "a number, coordinate, function call or '('")


def parse(source: str, coords) -> Expr:
    """Parse ``source`` over the given coordinate names into an Expr."""
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    return _Parser(source, coords).parse()


# ------------------------------------------------------------------
# Differentiation
# ------------------------------------------------------------------


def differentiate(e: Expr, i: int) -> Expr:
    """Symbolic partial derivative of ``e`` with respect to coordinate ``i``.

    The result is unsimplified apart from constant folding, but shares
    subtrees with ``e`` wherever possible.  Derivatives are cached in the
    interning table, keyed on node and coordinate; each entry holds its
    node, so the ``id`` in the key stays valid.
    """
    return _derivative(e, i, _table)


def _derivative(node: Expr, i: int, table: dict) -> Expr:
    # a module-level function, not a closure: a recursive closure refers to
    # itself through its cell, and that cycle would keep ``table`` alive
    key = ("d", id(node), i)
    cached = table.get(key)
    if cached is not None:
        return cached[1]
    if isinstance(node, Const):
        out = const(0.0)
    elif isinstance(node, Coord):
        out = const(1.0 if node.index == i else 0.0)
    elif isinstance(node, Neg):
        out = neg(_derivative(node.child, i, table))
    elif isinstance(node, Bin):
        l, r = node.left, node.right
        dl, dr = _derivative(l, i, table), _derivative(r, i, table)
        if node.op == "+":
            out = add(dl, dr)
        elif node.op == "-":
            out = sub(dl, dr)
        elif node.op == "*":
            out = add(mul(dl, r), mul(l, dr))
        elif node.op == "/":
            out = div(sub(mul(dl, r), mul(l, dr)), mul(r, r))
        else:  # '^'
            if isinstance(r, Const):
                out = mul(mul(r, pow_(l, const(r.value - 1.0))), dl)
            else:
                # b^e * (e' ln b + e b'/b); only valid for positive base,
                # like the evaluation of b^e itself.
                out = mul(
                    pow_(l, r),
                    add(mul(dr, func("ln", l)), mul(r, div(dl, l))),
                )
    elif isinstance(node, Func):
        u, du = node.arg, _derivative(node.arg, i, table)
        name = node.name
        if name == "sin":
            out = mul(func("cos", u), du)
        elif name == "cos":
            out = neg(mul(func("sin", u), du))
        elif name == "tan":
            out = div(du, mul(func("cos", u), func("cos", u)))
        elif name == "sinh":
            out = mul(func("cosh", u), du)
        elif name == "cosh":
            out = mul(func("sinh", u), du)
        elif name == "tanh":
            out = div(du, mul(func("cosh", u), func("cosh", u)))
        elif name == "exp":
            out = mul(func("exp", u), du)
        elif name == "ln":
            out = div(du, u)
        else:  # sqrt
            out = div(du, mul(const(2.0), func("sqrt", u)))
    else:  # pragma: no cover - closed node set
        raise TypeError(f"cannot differentiate {type(node).__name__}")
    table[key] = (node, out)
    return out


# ------------------------------------------------------------------
# Evaluation
# ------------------------------------------------------------------

_BIN_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}


def eval_batch(e: Expr, points: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Evaluate ``e`` at every row of ``points`` (shape (m, n)) -> shape (m,).

    Non-finite entries are returned as-is; callers decide whether to raise.
    ``memo`` may be shared across calls on the same batch to reuse work
    between expressions with common subtrees.  Entries store the node along
    with its value: the memo is keyed by ``id`` and must keep every cached
    node alive, or a recycled address would alias a stale result.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array (m, n)")
    if memo is None:
        memo = {}
    stack = [e]
    with np.errstate(all="ignore"):
        while stack:
            node = stack[-1]
            key = id(node)
            if key in memo:
                stack.pop()
                continue
            kids = node.children()
            pending = [k for k in kids if id(k) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if isinstance(node, Const):
                value = node.value
            elif isinstance(node, Coord):
                if node.index >= points.shape[1]:
                    raise DomainError(
                        f"coordinate index {node.index} out of range for "
                        f"{points.shape[1]}-dimensional points"
                    )
                value = points[:, node.index]
            elif isinstance(node, Neg):
                value = np.negative(memo[id(node.child)][1])
            elif isinstance(node, Bin):
                value = _BIN_OPS[node.op](
                    memo[id(node.left)][1], memo[id(node.right)][1]
                )
            else:
                value = _UNARY_FUNCS[node.name](memo[id(node.arg)][1])
            memo[key] = (node, value)
    out = memo[id(e)][1]
    if np.ndim(out) == 0:
        return np.full(points.shape[0], float(out))
    return np.asarray(out, dtype=float)
