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
    return np.abs(np.linalg.det(g)) < 1e-12


def _check_metric(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if _singular(g).any():
        raise SingularMetric("metric is singular at this point")
    return g


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix of a batch."""
    return np.abs(a).max(axis=(-2, -1))


def _blockdiag(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    n = upper.shape[-1]
    out = np.zeros(upper.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = upper
    out[..., n:, n:] = lower
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
    g = _check_metric(g)
    return _blockdiag(g, np.linalg.inv(g))


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
    return _blockdiag(J, np.swapaxes(J, -1, -2))


def _with_musical_blocks(J: np.ndarray, g: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """[[J, upper sharp], [flat, -J*]]."""
    n = J.shape[-1]
    out = np.zeros(J.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = J
    out[..., :n, n:] = upper @ np.linalg.inv(g)
    out[..., n:, :n] = g
    out[..., n:, n:] = -np.swapaxes(J, -1, -2)
    return out


def build_jp(J: np.ndarray, g: np.ndarray, tolerance: float = _COMPAT_TOL) -> np.ndarray:
    """Generalized product structure [[J, (I - J^2) sharp], [flat, -J*]]."""
    g, J = _require_compatible(g, J, tolerance)
    return _with_musical_blocks(J, g, np.eye(J.shape[-1]) - J @ J)


def build_jc(J: np.ndarray, g: np.ndarray, tolerance: float = _COMPAT_TOL) -> np.ndarray:
    """Generalized complex structure [[J, -(I + J^2) sharp], [flat, -J*]]."""
    g, J = _require_compatible(g, J, tolerance)
    return _with_musical_blocks(J, g, -(np.eye(J.shape[-1]) + J @ J))


@dataclass(frozen=True)
class DerivedFamily:
    """Structures generated from one metallic pair via product conversions.

    Only F^+ and Jp are stored.  Every other member is built each time it is
    read, so a caller that reduces one member at a time holds one at a time.
    """

    f_plus: np.ndarray  # (2J - pI) / (2s - p)
    jp: np.ndarray
    params: MetallicParams

    @property
    def f_minus(self) -> np.ndarray:
        return -self.f_plus

    @property
    def fhat_plus(self) -> np.ndarray:
        return _blockdiag(self.f_plus, np.swapaxes(self.f_plus, -1, -2))

    @property
    def fhat_minus(self) -> np.ndarray:
        f_minus = self.f_minus
        return _blockdiag(f_minus, np.swapaxes(f_minus, -1, -2))

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
        return self._converted(1.0, self.fhat_minus)

    @property
    def j_minus_of_fminus(self) -> np.ndarray:
        return self._converted(-1.0, self.fhat_minus)

    @property
    def jm_plus(self) -> np.ndarray:
        return self._converted(1.0, self.jp)

    @property
    def jm_minus(self) -> np.ndarray:
        return self._converted(-1.0, self.jp)


def derived_family(
    J: np.ndarray, g: np.ndarray, params: MetallicParams, tolerance: float = _COMPAT_TOL
) -> DerivedFamily:
    if params.discriminant <= 0:
        raise DegenerateDiscriminant(
            f"family needs p^2 + 4q > 0, got {params.discriminant}"
        )
    J = np.asarray(J, dtype=float)
    gap = 2.0 * params.sigma - params.p
    f_plus = (2.0 * J - params.p * np.eye(J.shape[-1])) / gap
    return DerivedFamily(f_plus, build_jp(J, g, tolerance), params)


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
    return _blockdiag(df, np.linalg.inv(np.swapaxes(df, -1, -2)))


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
