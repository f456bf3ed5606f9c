"""Scalar expression DSL: parsing, evaluation, and partials by forward-mode jets.

Expressions are immutable ASTs over a fixed set of chart coordinates.  The
only rewriting ever applied is constant folding of literal-only subtrees, so
expressions evaluate exactly as written.  :func:`parse` keeps structurally
equal subexpressions as one node, and evaluation is vectorised over batches
of points and memoised per call on node identity, so each is evaluated once.

The partials of an expression are not expressions.  :func:`eval_batch` and
:func:`differentiate` are one walk of the parsed DAG, the first over the
columns of the points, the second over jets seeded on them (for second order
jets of jets): forward-mode Taylor arithmetic in the sense of Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13.  A run builds no node.
"""

from __future__ import annotations

import math
import operator
import re

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
    constructors, which fold literal-only subtrees, rather than the classes.
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


# Smart constructors.  The only rewriting is folding of literal-only nodes;
# folds that would produce a non-finite value are left unevaluated so the
# error surfaces at evaluation time with a witness point.


def const(value) -> Expr:
    return Const(value)


def coord(index: int, name: str | None = None) -> Expr:
    return Coord(index, name if name is not None else f"x{int(index) + 1}")


_PYTHON_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def _binary(op: str, a, b) -> Expr:
    """``a op b``; two literals fold to Python's result when it is a finite
    float, so neither a division by 0 nor a complex or overflowing power folds."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            value = _PYTHON_OPS[op](a.value, b.value)
        except (ArithmeticError, ValueError):
            value = None
        if isinstance(value, float) and math.isfinite(value):
            return const(value)
    return Bin(op, a, b)


def add(a, b) -> Expr:
    return _binary("+", a, b)


def sub(a, b) -> Expr:
    return _binary("-", a, b)


def mul(a, b) -> Expr:
    return _binary("*", a, b)


def div(a, b) -> Expr:
    return _binary("/", a, b)


def pow_(a, b) -> Expr:
    return _binary("^", a, b)


def neg(a) -> Expr:
    a = _coerce(a)
    if isinstance(a, Const):
        return const(-a.value)
    return Neg(a)


def func(name: str, arg) -> Expr:
    if name not in _UNARY_FUNCS:
        raise ValueError(f"unknown function {name!r}")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        value = _folded_call(name, arg.value)
        if value is not None:
            return const(value)
    return Func(name, arg)


def _folded_call(name: str, value: float) -> float | None:
    """``math``'s value of the function at a constant, or None where it is not finite."""
    try:
        value = _MATH_FUNCS[name](value)
    except (ValueError, OverflowError):
        return None
    return value if math.isfinite(value) else None


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


_FIELDS = {cls: operator.attrgetter(*cls.__slots__) for cls in (Coord, Neg, Bin, Func)}


class _Parser:
    """Recursive descent over:

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := '-' factor | power
        power  := primary ('^' factor)?
        primary := number | coord | func '(' expr ')' | '(' expr ')'

    '^' is right-associative; unary minus binds looser than '^' applied to
    its base, so -x^2 means -(x^2) while (-x)^2 needs parentheses.  Each level
    of nesting enters ``factor``: past MAX_NESTING, before the stack runs out,
    the input is refused.
    """

    MAX_NESTING = 128

    def __init__(self, source: str, coords, shared: dict):
        self.toks = _Tokenizer(source)
        self.coords = {name: i for i, name in enumerate(coords)}
        self.shared = shared
        self.depth = 0

    def one(self, node: Expr) -> Expr:
        """The node of the same structure parsed before into ``shared``, else ``node``."""
        if isinstance(node, Const):  # 0.0 == -0.0, yet they are two constants
            key = (Const, node.value, math.copysign(1.0, node.value))
        else:  # the children are shared already, so they compare by identity
            key = (type(node), _FIELDS[type(node)](node))
        return self.shared.setdefault(key, node)

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
            node = self.one(add(node, rhs) if op == "+" else sub(node, rhs))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.advance()[0]
            rhs = self.factor()
            node = self.one(mul(node, rhs) if op == "*" else div(node, rhs))
        return node

    def factor(self) -> Expr:
        tok = self.toks.peek()
        if self.depth > self.MAX_NESTING:
            raise ParseError(tok[2], f"nesting deeper than {self.MAX_NESTING} levels")
        self.depth += 1
        if tok[0] == "-":
            self.toks.advance()
        node = self.one(neg(self.factor())) if tok[0] == "-" else self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        base = self.primary()
        if self.toks.peek()[0] == "^":
            self.toks.advance()
            exponent = self.factor()
            return self.one(pow_(base, exponent))
        return base

    def primary(self) -> Expr:
        kind, value, pos = self.toks.peek()
        if kind == "num":
            self.toks.advance()
            return self.one(const(value))
        if kind == "(":
            self.toks.advance()
            node = self.expr()
            self.toks.expect(")", "')'")
            return node
        if kind == "ident":
            self.toks.advance()
            if value in self.coords:
                return self.one(coord(self.coords[value], value))
            if value in _UNARY_FUNCS:
                self.toks.expect("(", f"'(' after function {value!r}")
                node = self.expr()
                self.toks.expect(")", "')'")
                return self.one(func(value, node))
            raise ParseError(
                pos,
                f"unknown identifier {value!r}",
                "a coordinate name or one of " + ", ".join(FUNCTION_NAMES),
            )
        raise ParseError(pos, f"unexpected token {_describe((kind, value, pos))}",
                         "a number, coordinate, function call or '('")


def parse(source: str, coords, shared: dict | None = None) -> Expr:
    """Parse ``source`` over the given coordinate names into an Expr.

    Structurally equal subexpressions are one node, evaluated once per memo:
    within the source, and across every source parsed with one ``shared``
    dict, as the entries of a scenario's fields are.
    """
    coords = list(coords)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    return _Parser(source, coords, {} if shared is None else shared).parse()


# ------------------------------------------------------------------
# Evaluation and partials: one walk over values or jets
# ------------------------------------------------------------------

_BIN_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

# The first-order rules, written once: the partials of a node from its value
# v and the values and partials of its operands.  _binop applies them to
# jets, whose values may be jets again, which differentiates the rules
# themselves.  Every term is kept, a zero partial times a value included, so
# a non-finite value makes the partial non-finite wherever it enters.
_BIN_PARTIALS = {
    "+": lambda v, l, r, dl, dr: dl + dr,
    "-": lambda v, l, r, dl, dr: dl - dr,
    "*": lambda v, l, r, dl, dr: dl * r + l * dr,
    "/": lambda v, l, r, dl, dr: (dl * r - l * dr) / (r * r),
    # b^e (e' ln b + e b'/b): valid for a positive base, like b^e itself
    "^": lambda v, l, r, dl, dr: v * (dr * _call("ln", l) + r * (dl / l)),
    "^ constant": lambda v, l, r, dl, dr: r * l ** (r - 1.0) * dl,
}
_FUNC_PARTIALS = {
    "sin": lambda v, u, du: _call("cos", u) * du,
    "cos": lambda v, u, du: -(_call("sin", u) * du),
    "tan": lambda v, u, du: du / (_call("cos", u) * _call("cos", u)),
    "sinh": lambda v, u, du: _call("cosh", u) * du,
    "cosh": lambda v, u, du: _call("sinh", u) * du,
    "tanh": lambda v, u, du: du / (_call("cosh", u) * _call("cosh", u)),
    "exp": lambda v, u, du: v * du,
    "ln": lambda v, u, du: du / u,
    "sqrt": lambda v, u, du: du / (2.0 * v),
}


def _apply(name: str, x):
    """A function node's value, or jet, at its argument's: numpy's, never folded."""
    if not isinstance(x, _Jet):
        return _UNARY_FUNCS[name](x)
    value = _apply(name, x.v)
    return _Jet(value, _FUNC_PARTIALS[name](value, x.v, x.d))


def _call(name: str, x):
    """``name`` in a rule: a constant folds through ``math`` as :func:`func` folds it."""
    folded = None if isinstance(x, _Jet) or np.ndim(x) else _folded_call(name, x)
    return _apply(name, x) if folded is None else folded


def _binop(op: str, l, r):
    """``l op r`` on values or jets.  An operand that is not a jet is a
    constant of the expression being differentiated: its partials are 0.0."""
    ljet, rjet = isinstance(l, _Jet), isinstance(r, _Jet)
    if not (ljet or rjet):
        return _BIN_OPS[op](l, r)
    lv, dl = (l.v, l.d) if ljet else (l, 0.0)
    rv, dr = (r.v, r.d) if rjet else (r, 0.0)
    v = _binop(op, lv, rv)
    return _Jet(v, _BIN_PARTIALS["^ constant" if op == "^" and not rjet else op](v, lv, rv, dl, dr))


class _Jet:
    """A value v, itself a value or a jet, and its partials d along the last
    axis, with the arithmetic of :func:`_binop`."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # numpy operators defer to the reflected ones

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __neg__(self):
        return _Jet(-self.v, -self.d)


for _symbol, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv"), ("^", "pow")):
    setattr(_Jet, f"__{_name}__", lambda self, other, op=_symbol: _binop(op, self, other))
    setattr(_Jet, f"__r{_name}__", lambda self, other, op=_symbol: _binop(op, other, self))
del _symbol, _name


def _lifted(node: Expr, value, args: list, seed: _Jet) -> _Jet:
    """A node of constants alone, such as 1/0, as a jet with as many levels
    as ``seed``: at each its rule applied to the constants' partials 0.0."""
    if isinstance(node, Func):
        rule = _FUNC_PARTIALS[node.name]
    elif isinstance(node, Neg):  # built as a class: neg() folds a constant
        rule = lambda v, u, du: -du
    else:  # both operands are constants
        rule = _BIN_PARTIALS["^ constant" if node.op == "^" else node.op]
    while isinstance(seed, _Jet):
        value, seed = _Jet(value, rule(value, *args, *[0.0] * len(args))), seed.v
    return value


def _walk(e: Expr, coords, memo: dict):
    """The value of ``e`` where coordinate i takes the value ``coords[i]``:
    ``coords`` is the columns of the points, an array, or a list of jets
    seeded on them.  ``memo`` maps the id of each node walked to the pair
    (node, value), children before parents."""
    jets = not isinstance(coords, np.ndarray)
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
                # a numpy scalar, so arithmetic on two constants follows numpy
                value = np.float64(node.value)
            elif isinstance(node, Coord):
                if node.index >= len(coords):
                    raise DomainError(
                        f"coordinate index {node.index} out of range for "
                        f"{len(coords)}-dimensional points"
                    )
                value = coords[node.index]
            elif isinstance(node, Bin):
                value = _binop(node.op, memo[id(node.left)][1], memo[id(node.right)][1])
            elif isinstance(node, Neg):
                value = -memo[id(node.child)][1]
            else:
                value = _apply(node.name, memo[id(node.arg)][1])
            if jets and kids and not any(isinstance(memo[id(k)][1], _Jet) for k in kids):
                value = _lifted(node, value, [memo[id(k)][1] for k in kids], coords[0])
            memo[key] = (node, value)
    return memo[id(e)][1]


def eval_batch(e: Expr, points: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Evaluate ``e`` at every row of ``points`` (shape (m, n)) -> shape (m,).

    Non-finite entries are returned as-is; callers decide whether to raise.
    ``memo`` may be shared across calls on the same batch to reuse work
    between expressions with common subtrees.  It maps the id of each node
    evaluated to the pair (node, value), children before parents.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array (m, n)")
    out = _walk(e, points.T, {} if memo is None else memo)
    if np.ndim(out) == 0:
        return np.full(points.shape[0], float(out))
    return np.asarray(out, dtype=float)


def differentiate(comps: np.ndarray, points: np.ndarray, order: int = 1) -> np.ndarray:
    """The partials of an object array of Exprs at every row of ``points`` (m, n).

    Order 1 gives d_k [m, k, *comps.shape]; order 2 gives d_k d_l
    [m, k, l, *comps.shape], the partial d_k of d_l.  The walk of
    :func:`eval_batch` runs once over the entries' DAG with coordinate i the
    jet (x_i, e_i), for order 2 the jet of jets ((x_i, e_i), e_i) along a
    second axis, so the first-order rules differentiate themselves and
    second-order rules are never written out.  Non-finite entries are
    returned as-is.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    comps = np.asarray(comps, dtype=object)
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    # a constant's partials are 0.0, and with no other entry no jet is seeded
    entries = [(idx, e) for idx, e in enumerate(comps.flat) if not isinstance(e, Const)]
    partials = []
    if entries:
        unit = np.eye(n)
        # each value broadcasts against the partials' axes
        columns = points.reshape((m, n) + (1,) * order)
        coords = [_Jet(columns[:, i], unit[i]) for i in range(n)]
        if order == 2:
            coords = [_Jet(x, unit[i][:, None]) for i, x in enumerate(coords)]
        memo: dict = {}
        partials = [(idx, _walk(e, coords, memo).d) for idx, e in entries]
    # made after the walk, so that out and the walk's temporaries never coexist
    out = np.zeros((m,) + (n,) * order + comps.shape)
    flat = out.reshape((m,) + (n,) * order + (-1,))
    for idx, d in partials:
        if order == 2:  # d_l of the jet along k is [..., l, k]; a d_l that is no jet has d_k 0.0
            d = np.swapaxes(np.atleast_2d(d.d), -1, -2) if isinstance(d, _Jet) else 0.0
        flat[..., idx] = d
    return out
