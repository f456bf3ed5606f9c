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

The leaf fields (metric, endomorphism, 1-form, connection) are ``numpy``
object arrays of :class:`~metalliclab.expr.Expr`, shaped (n, n), (n, n),
(n,) and (n, n, n); they are the only expressions, and :func:`eval_exprs`
evaluates them and their partials in batches over sample points.
:func:`christoffel`, :func:`riemann` and :func:`nijenhuis` work on the
evaluated values and partials, arrays with a leading sample axis m.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import draws
from . import expr as ex
from .errors import DimensionMismatch, DomainError

__all__ = [
    "Chart",
    "eval_exprs",
    "constant_matrix",
    "christoffel",
    "riemann",
    "nijenhuis",
]

# Halton bases: the first prime per coordinate, up to the 6 a chart may have
_PRIMES = (2, 3, 5, 7, 11, 13)

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
        if not 2 <= n <= len(_PRIMES):
            raise DimensionMismatch(f"chart dimension {n} outside supported range 2..6")
        if len(set(names)) != n:
            raise ValueError("coordinate names must be distinct")
        for name in names:
            if not _is_identifier(name):
                raise ValueError(_IDENT_RE_MSG)
            if name in ex.FUNCTION_NAMES:
                raise ValueError(f"coordinate {name!r} is the name of a function")
        if len(box) != n:
            raise DimensionMismatch("domain box must have one interval per coordinate")
        for lo, hi in box:
            if not 0 < hi - lo < math.inf:  # a width that overflows is inf
                raise ValueError(f"domain interval [{lo!r}, {hi!r}] needs a positive, finite width")

    @property
    def dim(self) -> int:
        return len(self.names)

    def sample_points(self, count: int = 32, seed: int | None = None, first: int = 0) -> np.ndarray:
        """The (Halton) points of indices first .. first + count - 1 over the
        box, deterministic in seed: a range of the points of any longer run."""
        if seed is None:
            seed = self.seed
        unit = _scrambled_halton(_digit_permutations(self.dim, seed), count, first)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return unit * (hi - lo) + lo


@functools.cache
def _digit_permutations(d: int, seed: int) -> tuple:
    """For each of the d bases b, the random permutation of range(b) of each
    digit position, drawn base after base by one ``draws.shuffler(seed)``
    (numpy's ``default_rng(seed).shuffle``), as its table of terms: row k
    holds the permuted digits times the weight b^-(k+1), and the row's digit-0
    terms are kept apart as floats.  Drawn once per (d, seed) in a process and
    shared by every chart and range of points, so read-only."""
    shuffle, out = draws.shuffler(seed), []
    for base in _PRIMES[:d]:
        perms = np.array([shuffle(base) for _ in range(math.ceil(54 / math.log2(base)) - 1)])
        weights = [1.0 / base]
        for _ in perms[1:]:
            weights.append(weights[-1] / base)
        terms = perms * np.array(weights)[:, None]
        terms.flags.writeable = False
        out.append((terms, tuple(terms[:, 0].tolist())))
    return tuple(out)


def _scrambled_halton(tables: tuple, count: int, first: int = 0) -> np.ndarray:
    """The points of indices first .. first + count - 1 of an Owen-scrambled
    Halton set, one coordinate per base of ``_digit_permutations(d, seed)``.

    Algorithm 1 of A. B. Owen, "A randomized Halton algorithm in R"
    (arXiv:1706.02808): in base b the k-th digit of the index goes through
    its own random permutation of range(b), for every k with b^-k > 2^-54.
    A point is a function of its index, and the points equal those of
    ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)`` bit for bit:
    the terms are added in the same order, the exhausted digits' one by one.
    """
    index = np.arange(first, first + count)
    unit = np.empty((count, len(tables)))
    top = first + count - 1  # the largest index, whose digits run out last
    for axis, (base, (terms, zeros)) in enumerate(zip(_PRIMES, tables)):
        digits, value, rest = index, np.zeros(count), top
        for k, row in enumerate(terms):
            if rest == 0:  # every remaining digit is 0 at every point
                for term in zeros[k:]:
                    value += term
                break
            digits, digit = np.divmod(digits, base)
            value += row[digit]
            rest //= base
        unit[:, axis] = value
    return unit


def eval_exprs(comps: np.ndarray, points: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate an object array of Exprs at points: (m, *comps.shape), or
    with ``order`` 1 or 2 its partials d_k (m, k, ...) or d_k d_l (m, k, l, ...).

    One memo serves every entry.  Raises DomainError with a witness point if
    any value is non-finite.
    """
    comps = np.asarray(comps, dtype=object)
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if order:
        out = ex.differentiate(comps, points, order)
        flat_out = out.reshape(m, -1)
    else:
        memo: dict = {}
        out = np.empty((m,) + comps.shape, dtype=float)
        flat_out = out.reshape(m, -1)
        entries = comps.reshape(-1)
        # the constants need no evaluation: all of them are one row, written once
        constant = [idx for idx, e in enumerate(entries) if isinstance(e, ex.Const)]
        flat_out[:, constant] = [entries[idx].value for idx in constant]
        for idx, e in enumerate(entries):
            if not isinstance(e, ex.Const):
                flat_out[:, idx] = ex.eval_batch(e, points, memo)
    if not np.isfinite(flat_out).all():
        bad = ~np.isfinite(flat_out).all(axis=1)
        raise DomainError("field evaluation is not finite", points[int(np.argmax(bad))])
    return out


def constant_matrix(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape, dtype=object)
    for idx in np.ndindex(values.shape):
        out[idx] = ex.const(values[idx])
    return out


# ------------------------------------------------------------------
# Connection, curvature and the Nijenhuis tensor on values at the samples
# ------------------------------------------------------------------


def christoffel(ginv: np.ndarray, dg: np.ndarray, shift=0.0) -> np.ndarray:
    """Levi-Civita Gamma^k_{ij} = g^{kl} L_{lij}, with the lowered Koszul form
    L_{lij} = 1/2 (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) less ``shift`` [..., l, i*j].

    ``ginv`` is g^-1 [..., k, l] and ``dg`` [..., a, i, j] = d_a g_{ij};
    returns [..., k, i, j].  Differentiating g Gamma = L(dg) gives the
    partials with one raise and no d g^-1: d_b Gamma = g^-1 (L(d_b dg) -
    d_b g Gamma), which is christoffel(ginv, d_b dg, shift=d_b g Gamma).
    """
    n = dg.shape[-1]
    # first[..., l, i, j] = d_i g_{jl}; the second term is its (i, j) transpose
    first = np.moveaxis(dg, -1, -3)
    # C-contiguous, then in place: for the partials each step is n^4 per sample
    lowered = np.add(first, np.swapaxes(first, -1, -2), order="C")
    lowered -= dg
    lowered *= 0.5
    lowered = lowered.reshape(lowered.shape[:-2] + (n * n,))
    lowered -= shift
    raised = ginv @ lowered
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
    coordinate fields.  Returns [m, k, i, j], exactly antisymmetric in (i, j);
    J and dJ may have more leading axes, as the lifts' [m, F, ...] have.
    """
    n = J.shape[-1]
    # both terms indexed [m, i, k, j]: J^s_i d_s J^k_j is J^T times d J with
    # columns (k, j), and J^k_s d_i J^s_j is J times d_i J for each i
    first = (np.swapaxes(J, -1, -2) @ dJ.reshape(dJ.shape[:-2] + (n * n,))).reshape(dJ.shape)
    half = np.swapaxes(first - J[..., None, :, :] @ dJ, -3, -2)
    return half - np.swapaxes(half, -1, -2)
