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
object arrays of :class:`~metalliclab.expr.Expr`; their entries and the
entries' partials are the only expressions that are differentiated, and
they are evaluated in batches over sample points.  :func:`christoffel`,
:func:`riemann` and :func:`nijenhuis` work on the evaluated values and
partials, arrays with a leading sample axis m.
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
    "christoffel",
    "riemann",
    "nijenhuis",
]

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
# Connection, curvature and the Nijenhuis tensor on values at the samples
# ------------------------------------------------------------------


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita Gamma^k_{ij} = 1/2 g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}).

    ``ginv`` is g^-1 [..., k, l] and ``dg`` [..., a, i, j] = d_a g_{ij};
    returns [..., k, i, j].  The formula is bilinear in (g^-1, dg), so the
    partials follow by the product rule from two calls: d_b Gamma is
    christoffel(ginv, d_b dg) + christoffel(d_b ginv, dg).
    """
    n = dg.shape[-1]
    # first[..., l, i, j] = d_i g_{jl}; the second term is its (i, j) transpose
    first = np.moveaxis(dg, -1, -3)
    lowered = 0.5 * (first + np.swapaxes(first, -1, -2) - dg)
    raised = ginv @ lowered.reshape(lowered.shape[:-2] + (n * n,))
    return raised.reshape(raised.shape[:-1] + (n, n))


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
