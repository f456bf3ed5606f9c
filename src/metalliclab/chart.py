"""Tensor calculus on a single coordinate chart.

Conventions used throughout the package:

* connection coefficients ``Gamma[k, i, j]`` mean Gamma^k_{ij} with the
  direction index first among the lower ones: nabla_{d_i} d_j = Gamma^k_{ij} d_k;
* curvature ``R[l, i, j, k]`` means
  R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
              + Gamma^l_{is} Gamma^s_{jk} - Gamma^l_{js} Gamma^s_{ik},
  antisymmetric in (i, j), with k the argument slot: R(d_i, d_j) d_k = R^l_{ijk} d_l;
* endomorphisms ``J[i, j]`` mean J^i_j (output index first), metrics ``g[i, j]``
  mean g_{ij}.

The leaf fields (metric, endomorphism, 1-form, connection) hold ``numpy``
object arrays of :class:`~metalliclab.expr.Expr`, as do their symbolic
partials, the adjugate inverse of g and the Levi-Civita coefficients; those
are evaluated in batches over sample points.  :func:`riemann` and
:func:`nijenhuis` work on the evaluated values and first partials, arrays
with a leading sample axis m.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DimensionMismatch, DomainError, SingularMetric

__all__ = [
    "Chart",
    "MetricField",
    "EndoField",
    "ConnectionField",
    "OneFormField",
    "eval_exprs",
    "partials",
    "constant_matrix",
    "identity_endo",
    "inverse_metric",
    "christoffel",
    "riemann",
    "covariant_derivative_endo",
    "covariant_derivative_metric",
    "covariant_derivative_oneform",
    "lie_bracket",
    "torsion",
    "nijenhuis",
    "mat_mul",
]

_DET_GUARD = 1e-12

# Halton bases: the first prime per coordinate, up to the 12 a chart may have
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_IDENT_RE_MSG = "coordinate names must be identifiers (ASCII letter then letters/digits/_)"

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name))


@dataclass(frozen=True)
class Chart:
    """A coordinate box with named coordinates and a deterministic sampler."""

    names: tuple
    box: tuple
    seed: int = 0

    def __post_init__(self):
        names = tuple(self.names)
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "box", box)
        n = len(names)
        if not 2 <= n <= 12:
            raise DimensionMismatch(f"chart dimension {n} outside supported range 2..12")
        if len(set(names)) != n:
            raise ValueError("coordinate names must be distinct")
        for name in names:
            if not _is_identifier(name):
                raise ValueError(_IDENT_RE_MSG)
        if len(box) != n:
            raise DimensionMismatch("domain box must have one interval per coordinate")
        for lo, hi in box:
            if not hi > lo:
                raise ValueError("domain box must have positive volume")

    @property
    def dim(self) -> int:
        return len(self.names)

    def coord(self, i: int) -> ex.Expr:
        return ex.coord(i, self.names[i])

    def coords(self):
        return [self.coord(i) for i in range(self.dim)]

    def parse(self, source: str) -> ex.Expr:
        return ex.parse(source, self.names)

    def sample_points(self, count: int = 32, seed: int | None = None) -> np.ndarray:
        """Low-discrepancy (Halton) samples over the box, deterministic in seed."""
        if seed is None:
            seed = self.seed
        unit = _scrambled_halton(self.dim, count, seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return unit * (hi - lo) + lo


def _scrambled_halton(d: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a d-dimensional Owen-scrambled Halton set.

    Algorithm 1 of A. B. Owen, "A randomized Halton algorithm in R"
    (arXiv:1706.02808): in base b the k-th digit of the index goes through
    its own random permutation of range(b), for every k with b^-k > 2^-54.
    The permutations are drawn base after base from one generator, so the
    points equal those of ``scipy.stats.qmc.Halton(d, scramble=True,
    seed=seed)`` bit for bit.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    unit = np.empty((count, d))
    for axis, base in enumerate(_PRIMES[:d]):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        digits, weight, value = index.copy(), 1.0 / base, np.zeros(count)
        for perm in perms:
            digits, digit = np.divmod(digits, base)
            value += perm[digit] * weight
            weight /= base
        unit[:, axis] = value
    return unit


def eval_exprs(comps: np.ndarray, points: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Evaluate an object array of Exprs at points; returns (m, *comps.shape).

    Raises DomainError with a witness point if any value is non-finite.
    The memo, when supplied, must belong to the same ``points`` batch.
    """
    comps = np.asarray(comps, dtype=object)
    points = np.asarray(points, dtype=float)
    if memo is None:
        memo = {}
    m = points.shape[0]
    out = np.empty((m,) + comps.shape, dtype=float)
    flat_out = out.reshape(m, -1)
    for idx, e in enumerate(comps.reshape(-1)):
        flat_out[:, idx] = ex.eval_batch(e, points, memo)
    bad = ~np.isfinite(flat_out).all(axis=1)
    if bad.any():
        witness = points[int(np.argmax(bad))]
        raise DomainError("field evaluation is not finite", witness)
    return out


def partials(comps: np.ndarray, n: int) -> np.ndarray:
    """Expr array of d_k comps for k < n, indexed [k, *comps.shape]."""
    out = np.empty((n,) + comps.shape, dtype=object)
    for k in range(n):
        for idx in np.ndindex(comps.shape):
            out[(k,) + idx] = ex.differentiate(comps[idx], k)
    return out


def constant_matrix(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(values.shape):
        out[idx] = ex.const(values[idx])
    return out


def identity_endo(n: int) -> np.ndarray:
    return constant_matrix(np.eye(n))


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of object arrays of Exprs."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = ex.balanced_sum(a[i, s] * b[s, j] for s in range(a.shape[1]))
    return out


def _as_expr_matrix(chart: Chart, rows, shape) -> np.ndarray:
    comps = np.empty(shape, dtype=object)
    arr = np.asarray(rows, dtype=object)
    if arr.shape != shape:
        raise DimensionMismatch(f"expected components of shape {shape}, got {arr.shape}")
    for idx in np.ndindex(shape):
        entry = arr[idx]
        comps[idx] = entry if isinstance(entry, ex.Expr) else ex.const(entry)
    return comps


@dataclass(frozen=True)
class MetricField:
    """Symmetric (0,2) field; only the upper triangle is independent storage."""

    chart: Chart
    comps: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.chart.dim
        comps = _as_expr_matrix(self.chart, self.comps, (n, n))
        # mirror the upper triangle so evaluation is exactly symmetric
        for i in range(n):
            for j in range(i + 1, n):
                comps[j, i] = comps[i, j]
        object.__setattr__(self, "comps", comps)

    def eval(self, points, memo=None) -> np.ndarray:
        return eval_exprs(self.comps, points, memo)

    def check_positive_definite(self, points, threshold: float = 1e-10):
        values = self.eval(points)
        eigmin = np.linalg.eigvalsh(values).min(axis=1)
        if (eigmin <= threshold).any():
            witness = np.asarray(points)[int(np.argmin(eigmin))]
            raise SingularMetric(
                f"metric not positive definite (min eigenvalue {eigmin.min():.3e}) "
                f"at {tuple(witness)}"
            )


@dataclass(frozen=True)
class EndoField:
    """(1,1) tensor field, components J^i_j."""

    chart: Chart
    comps: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.chart.dim
        object.__setattr__(self, "comps", _as_expr_matrix(self.chart, self.comps, (n, n)))

    def eval(self, points, memo=None) -> np.ndarray:
        return eval_exprs(self.comps, points, memo)


@dataclass(frozen=True)
class OneFormField:
    chart: Chart
    comps: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.chart.dim
        object.__setattr__(self, "comps", _as_expr_matrix(self.chart, self.comps, (n,)))

    def eval(self, points, memo=None) -> np.ndarray:
        return eval_exprs(self.comps, points, memo)


@dataclass(frozen=True)
class ConnectionField:
    """Connection coefficients Gamma^k_{ij}, array indexed [k, i, j]."""

    chart: Chart
    comps: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.chart.dim
        object.__setattr__(
            self, "comps", _as_expr_matrix(self.chart, self.comps, (n, n, n))
        )

    def eval(self, points, memo=None) -> np.ndarray:
        return eval_exprs(self.comps, points, memo)


# ------------------------------------------------------------------
# Symbolic determinant / inverse (adjugate with memoised minors)
# ------------------------------------------------------------------


def _minor_det(comps, rows, cols, memo):
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(rows) == 1:
        out = comps[rows[0], cols[0]]
    else:
        r0 = rows[0]
        rest = rows[1:]
        terms = []
        for pos, c in enumerate(cols):
            sub_cols = cols[:pos] + cols[pos + 1 :]
            term = comps[r0, c] * _minor_det(comps, rest, sub_cols, memo)
            terms.append(term if pos % 2 == 0 else -term)
        out = ex.balanced_sum(terms)
    memo[key] = out
    return out


def determinant(comps: np.ndarray) -> ex.Expr:
    n = comps.shape[0]
    idx = tuple(range(n))
    return _minor_det(comps, idx, idx, {})


def inverse_metric(g: MetricField) -> np.ndarray:
    """Symbolic inverse g^{ij} via adjugate over determinant.

    Minors are memoised so the resulting expressions form a compact DAG;
    entries are mirrored so the inverse is exactly symmetric.
    """
    n = g.chart.dim
    comps = g.comps
    memo: dict = {}
    idx = tuple(range(n))
    det = _minor_det(comps, idx, idx, memo)
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            # inverse[i, j] = cofactor[j, i] / det; cofactor matrix of a
            # symmetric g is symmetric so we fill the upper triangle only.
            rows = tuple(r for r in idx if r != j)
            cols = tuple(c for c in idx if c != i)
            minor = _minor_det(comps, rows, cols, memo)
            inv[i, j] = minor if (i + j) % 2 == 0 else -minor
            inv[i, j] = inv[i, j] / det
            inv[j, i] = inv[i, j]
    return inv


def check_metric_invertible(g: MetricField, points) -> None:
    det_value = ex.eval_batch(determinant(g.comps), np.asarray(points, dtype=float))
    small = np.abs(det_value) < _DET_GUARD
    if small.any():
        witness = np.asarray(points)[int(np.argmax(small))]
        raise SingularMetric(
            f"|det g| < {_DET_GUARD:g} at {tuple(float(v) for v in witness)}"
        )


# ------------------------------------------------------------------
# Connection, curvature, derivatives
# ------------------------------------------------------------------


def christoffel(g: MetricField, probe_points=None) -> ConnectionField:
    """Levi-Civita coefficients from the Koszul formula, fully symbolic."""
    chart = g.chart
    n = chart.dim
    if probe_points is not None:
        check_metric_invertible(g, probe_points)
    ginv = inverse_metric(g)
    dg = np.empty((n, n, n), dtype=object)  # dg[k, i, j] = d_k g_ij
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                dg[k, i, j] = ex.differentiate(g.comps[i, j], k)
                dg[k, j, i] = dg[k, i, j]
    gamma = np.empty((n, n, n), dtype=object)
    half = ex.const(0.5)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = [
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(n)
                ]
                gamma[k, i, j] = half * ex.balanced_sum(terms)
                gamma[k, j, i] = gamma[k, i, j]
    return ConnectionField(chart, gamma)


def covariant_derivative_endo(conn: ConnectionField, J: EndoField) -> np.ndarray:
    """(nabla_k J)^i_j, indexed [k, i, j]."""
    n = conn.chart.dim
    gamma = conn.comps
    out = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                terms = [ex.differentiate(J.comps[i, j], k)]
                terms += [gamma[i, k, s] * J.comps[s, j] for s in range(n)]
                terms += [-(gamma[s, k, j] * J.comps[i, s]) for s in range(n)]
                out[k, i, j] = ex.balanced_sum(terms)
    return out


def covariant_derivative_metric(conn: ConnectionField, g: MetricField) -> np.ndarray:
    """(nabla_k g)_{ij}, indexed [k, i, j]."""
    n = conn.chart.dim
    gamma = conn.comps
    out = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                terms = [ex.differentiate(g.comps[i, j], k)]
                terms += [-(gamma[s, k, i] * g.comps[s, j]) for s in range(n)]
                terms += [-(gamma[s, k, j] * g.comps[i, s]) for s in range(n)]
                out[k, i, j] = ex.balanced_sum(terms)
                out[k, j, i] = out[k, i, j]
    return out


def covariant_derivative_oneform(conn: ConnectionField, a: OneFormField) -> np.ndarray:
    """(nabla_k alpha)_i, indexed [k, i]."""
    n = conn.chart.dim
    gamma = conn.comps
    out = np.empty((n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            terms = [ex.differentiate(a.comps[i], k)]
            terms += [-(gamma[s, k, i] * a.comps[s]) for s in range(n)]
            out[k, i] = ex.balanced_sum(terms)
    return out


def lie_bracket(chart: Chart, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y]^i = X^k d_k Y^i - Y^k d_k X^i on object arrays of Exprs."""
    n = chart.dim
    X = np.asarray(X, dtype=object)
    Y = np.asarray(Y, dtype=object)
    out = np.empty(n, dtype=object)
    for i in range(n):
        terms = [X[k] * ex.differentiate(Y[i], k) for k in range(n)]
        terms += [-(Y[k] * ex.differentiate(X[i], k)) for k in range(n)]
        out[i] = ex.balanced_sum(terms)
    return out


def torsion(conn: ConnectionField) -> np.ndarray:
    """T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}, indexed [k, i, j]."""
    n = conn.chart.dim
    gamma = conn.comps
    out = np.empty((n, n, n), dtype=object)
    zero = ex.const(0.0)
    for k in range(n):
        for i in range(n):
            out[k, i, i] = zero
            for j in range(i + 1, n):
                out[k, i, j] = gamma[k, i, j] - gamma[k, j, i]
                out[k, j, i] = -(gamma[k, i, j] - gamma[k, j, i])
    return out


# ------------------------------------------------------------------
# Curvature and the Nijenhuis tensor on values at the samples
# ------------------------------------------------------------------


def riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R^l_{ijk} from Gamma[m, l, j, k] and dgamma[m, a, l, j, k] = d_a Gamma^l_{jk}.

    Returns [m, l, i, j, k], exactly antisymmetric in (i, j): the half
    B^l_{ijk} = d_i Gamma^l_{jk} + Gamma^l_{is} Gamma^s_{jk} is built once and
    R = B - B with i and j swapped.
    """
    m, n = gamma.shape[:2]
    # Gamma^l_{is} Gamma^s_{jk} as one matrix product per sample: rows (l, i), columns (j, k)
    quad = gamma.reshape(m, n * n, n) @ gamma.reshape(m, n, n * n)
    half = dgamma.transpose(0, 2, 1, 3, 4) + quad.reshape(m, n, n, n, n)
    return half - half.transpose(0, 1, 3, 2, 4)


def nijenhuis(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """N^k_{ij} of an endomorphism field from J[m, k, i] and dJ[m, s, k, i] = d_s J^k_i.

    N^k_{ij} = J^s_i d_s J^k_j - J^s_j d_s J^k_i - J^k_s (d_i J^s_j - d_j J^s_i),
    the bracket N(d_i, d_j) = [Jd_i, Jd_j] - J[Jd_i, d_j] - J[d_i, Jd_j] on the
    coordinate fields.  Returns [m, k, i, j], exactly antisymmetric in (i, j).
    """
    m, n = J.shape[:2]
    # both terms indexed [m, i, k, j]: J^s_i d_s J^k_j is J^T times d J with
    # columns (k, j), and J^k_s d_i J^s_j is J times d_i J for each i
    first = (np.swapaxes(J, -1, -2) @ dJ.reshape(m, n, n * n)).reshape(m, n, n, n)
    half = (first - J[:, None] @ dJ).transpose(0, 2, 1, 3)
    return half - np.swapaxes(half, -1, -2)
