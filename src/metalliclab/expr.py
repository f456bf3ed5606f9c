"""Scalar expression DSL: parsing, evaluation, and partials by forward-mode jets.

Expressions are immutable ASTs over a fixed set of chart coordinates.  The
only rewriting ever applied is constant folding of literal-only subtrees, so
expressions evaluate exactly as written.  :func:`parse` keeps structurally
equal subexpressions as one node, and evaluation is vectorised over batches
of points and memoised per call on node identity, so each is evaluated once.

The partials of an expression are not expressions: :func:`differentiate`
walks the parsed DAG once per batch and carries at each node its value
(from :func:`eval_batch`) and its gradient, or for second order a jet of
jets, forward-mode Taylor arithmetic in the sense of Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13.  A run therefore builds no node.
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
# Partials by forward-mode jets
# ------------------------------------------------------------------

# The first-order rules, written once: the partials of a node from its value
# v and the values and partials of its operands.  The node walk of
# differentiate() applies them to values and gradients, and _Jet to jets,
# which differentiates the rules themselves.  Every term is kept, a zero
# partial times a value included, so a non-finite value makes the partial
# non-finite wherever it enters.
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


def _call(name: str, x):
    """``name`` at a value or a jet; a constant folds through ``math`` as :func:`func` folds it."""
    if isinstance(x, _Jet):
        value = _UNARY_FUNCS[name](x.v)
        return _Jet(value, _FUNC_PARTIALS[name](value, x.v, x.d))
    folded = _folded_call(name, x) if np.ndim(x) == 0 else None
    return _UNARY_FUNCS[name](x) if folded is None else folded


class _Jet:
    """A value v and its partials d along the last axis, with the arithmetic
    of ``_BIN_PARTIALS``.  An operand that is not a jet is a constant of the
    expression being differentiated: its partials are 0.0."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # numpy operators defer to the reflected ones

    def __init__(self, v, d):
        self.v, self.d = v, d

    def _op(self, op: str, other, reflected: bool = False) -> _Jet:
        a, b = (other, self) if reflected else (self, other)
        (l, dl), (r, dr) = [(x.v, x.d) if isinstance(x, _Jet) else (x, 0.0) for x in (a, b)]
        v = _BIN_OPS[op](l, r)
        rule = "^ constant" if op == "^" and not isinstance(b, _Jet) else op
        return _Jet(v, _BIN_PARTIALS[rule](v, l, r, dl, dr))

    def __neg__(self):
        return _Jet(-self.v, -self.d)


for _symbol, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv"), ("^", "pow")):
    setattr(_Jet, f"__{_name}__", lambda self, other, op=_symbol: self._op(op, other))
    setattr(_Jet, f"__r{_name}__", lambda self, other, op=_symbol: self._op(op, other, True))
del _symbol, _name


def _partials(nodes: list, values: dict, unit) -> dict:
    """The partials of every node, children before parents, by id: ``values``
    holds the nodes' values by id and ``unit[i]`` the partials of coordinate i."""
    out = {}
    for node in nodes:
        if isinstance(node, Const):
            d = 0.0
        elif isinstance(node, Coord):
            d = unit[node.index]
        else:
            kids = node.children()
            args = [values[id(node)]] + [values[id(k)] for k in kids] + [out[id(k)] for k in kids]
            if isinstance(node, Neg):
                d = -args[2]
            elif isinstance(node, Func):
                d = _FUNC_PARTIALS[node.name](*args)
            else:
                constant = node.op == "^" and isinstance(node.right, Const)
                d = _BIN_PARTIALS["^ constant" if constant else node.op](*args)
        out[id(node)] = d
    return out


def differentiate(comps: np.ndarray, points: np.ndarray, order: int = 1) -> np.ndarray:
    """The partials of an object array of Exprs at every row of ``points`` (m, n).

    Order 1 gives d_k [m, k, *comps.shape]; order 2 gives d_k d_l
    [m, k, l, *comps.shape], the partial d_k of d_l.  One walk of the
    entries' DAG takes each node's value from one ``eval_batch`` memo and
    carries its gradient, for order 2 a jet of its value and gradient along
    the second axis: the first-order rules applied to jets differentiate
    the first-order rules, so second-order rules are never written out.  A
    ``Const`` carries 0.0, no array.  Non-finite entries are returned as-is.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    comps = np.asarray(comps, dtype=object)
    points = np.asarray(points, dtype=float)
    m, n = points.shape
    memo: dict = {}
    for e in comps.flat:
        if not isinstance(e, Const):
            eval_batch(e, points, memo)
    nodes = [node for node, _ in memo.values()]  # children were stored before their parents
    # values broadcast against the partials' axes; a constant is a numpy
    # scalar, so arithmetic on two constants follows numpy, as evaluation does
    column = (m,) + (1,) * order
    values = {}
    for node, v in memo.values():
        if isinstance(node, Const):
            v = np.float64(v)
        elif np.ndim(v):  # a node of constants alone may hold a scalar
            v = np.reshape(v, column)
        values[id(node)] = v
    unit = np.eye(n)
    with np.errstate(all="ignore"):
        partials = _partials(nodes, values, unit)
        if order == 2:
            for node in nodes:
                if not isinstance(node, Const):
                    values[id(node)] = _Jet(values[id(node)], partials[id(node)])
            partials = _partials(nodes, values, unit[:, :, None])
    out = np.zeros((m,) + (n,) * order + comps.shape)
    flat = out.reshape((m,) + (n,) * order + (-1,))
    for idx, e in enumerate(comps.flat):
        d = None if isinstance(e, Const) else partials[id(e)]  # a constant is not evaluated
        if order == 2:
            # d_l of the jet along k is [..., l, k]; a constant d_l has d_k 0.0
            d = np.swapaxes(np.atleast_2d(d.d), -1, -2) if isinstance(d, _Jet) else None
        if d is not None:  # a partial 0.0 is one of out's zeros already
            flat[..., idx] = d
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
    between expressions with common subtrees.  It maps the id of each node
    evaluated to the pair (node, value), children before parents.
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
