"""Algebra on TM + T*M at the samples: block structures, pairings, checks.

Every function here except the musical maps, ``GenVector``,
``natural_pairing`` and ``signature_by_congruence`` takes arrays with a
leading sample axis, shape (..., n, n) or (..., 2n, 2n), and treats each
sample on its own; a single matrix is a batch of shape ().  A check's residual
is the worst sample's value, and an error is the one the first failing sample
in sample order would raise on its own.  Field-level statements are obtained
by sampling.  Blocks of a 2n x 2n operator are laid out as

    [ A  B ]   A: TM -> TM,    B: T*M -> TM,
    [ C  D ]   C: TM -> T*M,   D: T*M -> T*M,

and the dual map J* is realised as the transpose of J in the coordinate
dual basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDiscriminant,
    DegenerateForm,
    DimensionMismatch,
    IncompatiblePair,
    SingularJacobian,
    SingularMetric,
)
from .metallic import MetallicParams
from .report import CheckResult

__all__ = [
    "GenVector",
    "musical_flat",
    "musical_sharp",
    "ghat_matrix",
    "metric_inverse",
    "blocks",
    "sharp_block",
    "pairing_matrix",
    "natural_pairing",
    "build_jm",
    "build_jp",
    "build_jc",
    "DerivedFamily",
    "derived_family",
    "pairing_eigenvalues",
    "neutral_signature",
    "neutral_metric_G",
    "signature_by_congruence",
    "check_anti_pseudo_calibrated",
    "EndoBlocks",
    "endo_blocks",
    "check_calibrated",
    "fhat_matrix",
    "fhat_conjugation",
]

_COMPAT_TOL = 1e-8
_DET_GUARD = 1e-12  # |det g| below this is a singular metric


@dataclass(frozen=True)
class EndoBlocks:
    """Named blocks of a 2n x 2n operator on TM + T*M."""

    A: np.ndarray  # TM -> TM
    B: np.ndarray  # T*M -> TM
    C: np.ndarray  # TM -> T*M
    D: np.ndarray  # T*M -> T*M


def endo_blocks(mat: np.ndarray) -> EndoBlocks:
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1] or mat.shape[-1] % 2:
        raise DimensionMismatch("generalized operators are 2n x 2n")
    n = mat.shape[-1] // 2
    return EndoBlocks(
        mat[..., :n, :n], mat[..., :n, n:], mat[..., n:, :n], mat[..., n:, n:]
    )


@dataclass(frozen=True)
class GenVector:
    """Element X + alpha of the generalized tangent space at a point."""

    X: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if X.shape != alpha.shape or X.ndim != 1:
            raise DimensionMismatch("vector and covector parts must be n-vectors")
        if not (np.isfinite(X).all() and np.isfinite(alpha).all()):
            raise ValueError("GenVector entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "alpha", alpha)

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.X, self.alpha])


def _singular(g: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.det(g)) < _DET_GUARD


def _check_metric(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if _singular(g).any():
        raise SingularMetric("metric is singular at this point")
    return g


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix of a batch."""
    return np.abs(a).max(axis=(-2, -1))


def blocks(A, B, C, D) -> np.ndarray:
    """[[A, B], [C, D]] from stacks of n x n blocks; a block may be 0.0.

    The one assembler of the generalized structures:

    Jm    [[J, 0], [0, J*]]
    Jp    [[J, sharp_block(1, J^2, g^-1)], [g, -J*]]
    Jc    [[J, sharp_block(-1, J^2, g^-1)], [g, -J*]]
    ghat  [[g, 0], [0, g^-1]]

    Every block enters linearly, so the partials d_k of the blocks, with a
    direction axis before the matrix axes, give the partials of the structure.
    """
    shape = np.broadcast_shapes(*(np.shape(block) for block in (A, B, C, D)))
    n = shape[-1]
    out = np.zeros(shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = A
    out[..., :n, n:] = B
    out[..., n:, :n] = C
    out[..., n:, n:] = D
    return out


def _worst(check_id, anchor, per_sample, tolerance, points, details=None) -> CheckResult:
    """Result of a batch: the worst sample's value, with its point as witness.

    NaN counts as the worst value; an empty batch has residual 0.0.
    """
    flat = np.ravel(per_sample)
    if flat.size == 0:
        return CheckResult(check_id, anchor, 0.0, tolerance, details=details or {})
    worst = int(np.argmax(flat))
    witness = None
    if points is not None:
        witness = tuple(float(v) for v in np.reshape(points, (flat.size, -1))[worst])
    return CheckResult(
        check_id, anchor, float(flat[worst]), tolerance, witness, details=details or {}
    )


def musical_flat(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(flat X)_i = g_{ij} X^j."""
    return _check_metric(g) @ np.asarray(X, dtype=float)


def musical_sharp(g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """(sharp alpha)^i = g^{ij} alpha_j."""
    return np.linalg.solve(_check_metric(g), np.asarray(alpha, dtype=float))


def ghat_matrix(g: np.ndarray) -> np.ndarray:
    """Block-diagonal (g, g^{-1}) metric on TM + T*M."""
    g = np.asarray(g, dtype=float)
    return blocks(g, 0.0, 0.0, metric_inverse(g))


def metric_inverse(g: np.ndarray, points: np.ndarray | None = None) -> np.ndarray:
    """g^-1 of a batch of metrics.

    Raises SingularMetric if |det g| < 1e-12 at a sample, naming the first
    such sample's point when the batch's ``points`` are given.
    """
    g = np.asarray(g, dtype=float)
    singular = np.ravel(_singular(g))
    if singular.any():
        where = "at this point"
        if points is not None:
            point = np.reshape(points, (singular.size, -1))[int(np.argmax(singular))]
            where = f"at {tuple(float(v) for v in point)}"
        raise SingularMetric(f"|det g| < {_DET_GUARD:g} {where}")
    return np.linalg.inv(g)


def sharp_block(sign: float, K: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """(sign I - K) g^-1 for K = J^2: the upper-right block of Jp (sign 1) or Jc (sign -1)."""
    return (sign * np.eye(K.shape[-1]) - K) @ ginv


def pairing_matrix(n: int) -> np.ndarray:
    """Matrix of the natural symplectic pairing -(alpha(Y) - beta(X))/2."""
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = 0.5 * np.eye(n)
    out[n:, :n] = -0.5 * np.eye(n)
    return out


def natural_pairing(sigma: GenVector, tau: GenVector) -> float:
    return -0.5 * (float(sigma.alpha @ tau.X) - float(tau.alpha @ sigma.X))


def _require_compatible(g: np.ndarray, J: np.ndarray, tolerance: float):
    """Float copies of (g, J), or the error of the first sample that fails.

    At one sample a singular metric is reported before an asymmetric gJ.
    """
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    singular = np.ravel(_singular(g))
    gj = g @ J
    gap = np.ravel(_max_abs(gj - np.swapaxes(gj, -1, -2)))
    failing = singular | (gap > tolerance)
    if failing.any():
        k = int(np.argmax(failing))
        if singular[k]:
            raise SingularMetric("metric is singular at this point")
        raise IncompatiblePair(f"gJ asymmetry {gap[k]:.3e} exceeds {tolerance:g}")
    return g, J


def build_jm(J: np.ndarray, g: np.ndarray, tolerance: float = _COMPAT_TOL) -> np.ndarray:
    """Generalized metallic structure blockdiag(J, J*)."""
    g, J = _require_compatible(g, J, tolerance)
    return blocks(J, 0.0, 0.0, np.swapaxes(J, -1, -2))


def _build_musical(sign: float, J, g, tolerance: float) -> np.ndarray:
    g, J = _require_compatible(g, J, tolerance)
    return blocks(J, sharp_block(sign, J @ J, metric_inverse(g)), g, -np.swapaxes(J, -1, -2))


def build_jp(J: np.ndarray, g: np.ndarray, tolerance: float = _COMPAT_TOL) -> np.ndarray:
    """Generalized product structure [[J, (I - J^2) sharp], [flat, -J*]]."""
    return _build_musical(1.0, J, g, tolerance)


def build_jc(J: np.ndarray, g: np.ndarray, tolerance: float = _COMPAT_TOL) -> np.ndarray:
    """Generalized complex structure [[J, -(I + J^2) sharp], [flat, -J*]]."""
    return _build_musical(-1.0, J, g, tolerance)


@dataclass(frozen=True)
class DerivedFamily:
    """Structures generated from one metallic pair via product conversions.

    F^+, Jp and, once read, Fhat^+ are stored.  Every other member is built
    each time it is read, so a caller that reduces one member at a time holds
    one at a time.  F^- = -F^+ and negation is exact, so J^+(Fhat^-) and
    J^-(Fhat^-) are J^-(Fhat^+) and J^+(Fhat^+) bit for bit and are read as
    those.
    """

    f_plus: np.ndarray  # (2J - pI) / (2s - p)
    jp: np.ndarray
    params: MetallicParams

    @property
    def f_minus(self) -> np.ndarray:
        return -self.f_plus

    @cached_property
    def fhat_plus(self) -> np.ndarray:
        return blocks(self.f_plus, 0.0, 0.0, np.swapaxes(self.f_plus, -1, -2))

    @property
    def fhat_minus(self) -> np.ndarray:
        return -self.fhat_plus

    def _converted(self, sign: float, product: np.ndarray) -> np.ndarray:
        """sign (2s-p)/2 product + p/2 I."""
        gap = 2.0 * self.params.sigma - self.params.p
        shift = self.params.p / 2.0 * np.eye(product.shape[-1])
        return sign * (gap / 2.0) * product + shift

    @property
    def j_plus_of_fplus(self) -> np.ndarray:
        return self._converted(1.0, self.fhat_plus)

    @property
    def j_minus_of_fplus(self) -> np.ndarray:
        return self._converted(-1.0, self.fhat_plus)

    @property
    def j_plus_of_fminus(self) -> np.ndarray:
        return self.j_minus_of_fplus

    @property
    def j_minus_of_fminus(self) -> np.ndarray:
        return self.j_plus_of_fplus

    @property
    def jm_plus(self) -> np.ndarray:
        return self._converted(1.0, self.jp)

    @property
    def jm_minus(self) -> np.ndarray:
        return self._converted(-1.0, self.jp)


def derived_family(
    J: np.ndarray,
    g: np.ndarray,
    jp: np.ndarray,
    params: MetallicParams,
    tolerance: float = _COMPAT_TOL,
) -> DerivedFamily:
    """The family of the pair (J, g) whose product structure ``jp`` the caller built."""
    if params.discriminant <= 0:
        raise DegenerateDiscriminant(
            f"family needs p^2 + 4q > 0, got {params.discriminant}"
        )
    g, J = _require_compatible(g, J, tolerance)
    gap = 2.0 * params.sigma - params.p
    f_plus = (2.0 * J - params.p * np.eye(J.shape[-1])) / gap
    return DerivedFamily(f_plus, np.asarray(jp, dtype=float), params)


def _pairing_form(op: np.ndarray) -> np.ndarray:
    """The symmetric form (s, op t) of the natural pairing."""
    form = pairing_matrix(op.shape[-1] // 2) @ np.asarray(op, dtype=float)
    return 0.5 * (form + np.swapaxes(form, -1, -2))


def pairing_eigenvalues(op: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the form (s, op t), shape (..., 2n); NaN at a
    sample where op is not finite, which LAPACK would refuse for the batch.

    For op = Jp this is the one eigensolve that both the signature of G and
    the non-degeneracy in :func:`check_anti_pseudo_calibrated` read.
    """
    form = _pairing_form(op)
    finite = np.isfinite(form).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(form)
    out = np.full(form.shape[:-1], np.nan)
    out[finite] = np.linalg.eigvalsh(form[finite])
    return out


def neutral_signature(eigenvalues: np.ndarray, threshold: float = 1e-10):
    """Signature (n_plus, n_minus) of forms given by their eigenvalues.

    The two counts have the batch shape.  A sample with an eigenvalue below
    ``threshold`` raises DegenerateForm; the first such sample is reported.
    """
    smallest = np.ravel(np.abs(eigenvalues).min(axis=-1))
    degenerate = smallest < threshold
    if degenerate.any():
        raise DegenerateForm(
            f"eigenvalue {smallest[np.argmax(degenerate)]:.3e} below threshold {threshold:g}"
        )
    n_plus = (eigenvalues > threshold).sum(axis=-1)
    n_minus = (eigenvalues < -threshold).sum(axis=-1)
    return n_plus, n_minus


def neutral_metric_G(jp: np.ndarray, threshold: float = 1e-10):
    """Symmetric form G(s, t) = (s, Jp t) and its :func:`neutral_signature`."""
    return _pairing_form(jp), neutral_signature(pairing_eigenvalues(jp), threshold)


def signature_by_congruence(G: np.ndarray, threshold: float = 1e-10):
    """Signature via symmetric Gaussian reduction (congruence diagonalisation).

    Redundant cross-check for the eigensolve path; not used in production.
    """
    A = np.array(G, dtype=float)
    m = A.shape[0]
    order = []
    active = list(range(m))
    while active:
        k = max(active, key=lambda i: abs(A[i, i]))
        if abs(A[k, k]) < threshold:
            # try to create a non-zero diagonal entry from an off-diagonal one
            found = False
            for i in active:
                for j in active:
                    if i < j and abs(A[i, j]) >= threshold:
                        A[i, :] += A[j, :]
                        A[:, i] += A[:, j]
                        found = True
                        break
                if found:
                    break
            if not found:
                raise DegenerateForm("form is degenerate under congruence reduction")
            continue
        order.append(A[k, k])
        for i in active:
            if i == k:
                continue
            factor = A[i, k] / A[k, k]
            if factor != 0.0:
                A[i, :] -= factor * A[k, :]
                A[:, i] -= factor * A[:, k]
        active.remove(k)
    n_plus = sum(1 for d in order if d > 0)
    n_minus = sum(1 for d in order if d < 0)
    return n_plus, n_minus


def check_anti_pseudo_calibrated(
    jp: np.ndarray,
    eigenvalues: np.ndarray,
    tolerance: float = 1e-10,
    points: np.ndarray | None = None,
) -> CheckResult:
    """(Jp s, Jp t) = -(s, t) and non-degeneracy of (., Jp .).

    ``eigenvalues`` are those of (., Jp .), from :func:`pairing_eigenvalues`;
    ``points`` are the sample points of the batch, for the witness.
    """
    jp = np.asarray(jp, dtype=float)
    M = pairing_matrix(jp.shape[-1] // 2)
    anti = _max_abs(np.swapaxes(jp, -1, -2) @ M @ jp + M)
    min_eig = np.abs(eigenvalues).min(axis=-1)
    degenerate = np.where(min_eig > tolerance, 0.0, tolerance * 2.0)
    return _worst(
        "anti-pseudo-calibrated",
        "(Jp s, Jp t) = -(s, t); (., Jp .) non-degenerate",
        np.maximum(anti, degenerate),
        tolerance,
        points,
        details={"anti_invariance": float(anti.max()), "min_abs_eigenvalue": float(min_eig.min())},
    )


def check_calibrated(
    jc: np.ndarray, tolerance: float = 1e-10, points: np.ndarray | None = None
) -> CheckResult:
    """(Jc s, Jc t) = (s, t) and positive-definiteness of (., Jc .).

    ``points`` are the sample points of the batch, for the witness.
    """
    jc = np.asarray(jc, dtype=float)
    M = pairing_matrix(jc.shape[-1] // 2)
    invariance = _max_abs(np.swapaxes(jc, -1, -2) @ M @ jc - M)
    min_eig = pairing_eigenvalues(jc).min(axis=-1)
    not_pd = np.where(min_eig > tolerance, 0.0, tolerance * 2.0)
    return _worst(
        "calibrated",
        "(Jc s, Jc t) = (s, t); (., Jc .) positive definite",
        np.maximum(invariance, not_pd),
        tolerance,
        points,
        details={"invariance": float(invariance.max()), "min_eigenvalue": float(min_eig.min())},
    )


def fhat_matrix(df: np.ndarray) -> np.ndarray:
    """blockdiag(Df, (Df^T)^{-1}), the generalized push-forward of a map."""
    df = np.asarray(df, dtype=float)
    if df.ndim < 2 or df.shape[-2] != df.shape[-1]:
        raise DimensionMismatch("Df must be square for the generalized push-forward")
    if (np.abs(np.linalg.det(df)) < 1e-12).any():
        raise SingularJacobian("Df is not invertible")
    return blocks(df, 0.0, 0.0, np.linalg.inv(np.swapaxes(df, -1, -2)))


def fhat_conjugation(
    df: np.ndarray,
    jm1: np.ndarray,
    jm2: np.ndarray,
    tolerance: float = 1e-10,
    points: np.ndarray | None = None,
) -> CheckResult:
    """Residual of fhat Jm1 = Jm2 fhat for fhat = blockdiag(Df, (Df^T)^{-1}).

    ``points`` are the sample points of the batch, for the witness; an
    empty batch has residual 0.0.
    """
    fh = fhat_matrix(df)
    res = _max_abs(fh @ np.asarray(jm1) - np.asarray(jm2) @ fh)
    return _worst("fhat-conjugation", "fhat Jm1 = Jm2 fhat", res, tolerance, points)
