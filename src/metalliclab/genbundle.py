"""Algebra on TM + T*M at the samples: block structures, pairings, checks.

Every function here takes arrays with a leading sample axis, shape
(..., n, n) or (..., 2n, 2n), and treats each sample on its own; a single
matrix is a batch of shape ().  The generalized structures themselves are
assembled by :func:`blocks` from the values at the samples, in
``ScenarioContext.gen_at``.  A check's residual
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
from .report import CheckResult, largest_entry, worst_of

__all__ = [
    "metric_inverse",
    "blocks",
    "sharp_block",
    "pairing_matrix",
    "DerivedFamily",
    "derived_family",
    "pairing_eigenvalues",
    "pairing_positive_definite",
    "neutral_signature",
    "check_anti_pseudo_calibrated",
    "check_calibrated",
    "fhat_matrix",
    "fhat_conjugation",
]

_COMPAT_TOL = 1e-8
_DET_GUARD = 1e-12  # |det g| below this is a singular metric


def _singular(g: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.det(g)) < _DET_GUARD


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix of a batch."""
    return np.abs(a).max(axis=(-2, -1))


def _batch(op) -> np.ndarray:
    """A batch of matrices (shape (..., k, k)) as one stack (shape (-1, k, k))."""
    op = np.asarray(op, dtype=float)
    return op.reshape((-1,) + op.shape[-2:])


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


def _worst(check_id, anchor, entries, tolerance, points, details=None) -> CheckResult:
    """Result of a batch from the largest entry of each of its residual
    arrays (``report.largest_entry``): the largest, with the point of its
    sample as witness.  NaN counts as infinite; an empty batch has residual 0.0.
    """
    if points is not None:
        points = np.reshape(points, (-1, np.shape(points)[-1]))
    residual, witness = worst_of(entries, points)
    return CheckResult(check_id, anchor, residual, tolerance, witness, details=details or {})


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


def _require_compatible(g: np.ndarray, J: np.ndarray, tolerance: float, invertible=False):
    """Float copies of (g, J), or the error of the first sample that fails.

    At one sample a singular metric is reported before an asymmetric gJ;
    ``invertible`` says the caller has already found no g singular.
    """
    g = np.asarray(g, dtype=float)
    J = np.asarray(J, dtype=float)
    gj = g @ J
    gap = np.ravel(_max_abs(gj - np.swapaxes(gj, -1, -2)))
    singular = np.zeros(gap.shape, bool) if invertible else np.ravel(_singular(g))
    failing = singular | (gap > tolerance)
    if failing.any():
        k = int(np.argmax(failing))
        if singular[k]:
            raise SingularMetric("metric is singular at this point")
        raise IncompatiblePair(f"gJ asymmetry {gap[k]:.3e} exceeds {tolerance:g}")
    return g, J


@dataclass(frozen=True)
class DerivedFamily:
    """Structures generated from one metallic pair via product conversions.

    F^+, Jp and, once read, Fhat^+ are stored.  Every other member is built
    each time it is read, so a caller that reduces one member at a time holds
    one at a time.  F^- = -F^+ and negation is exact, so J^+(Fhat^-) and
    J^-(Fhat^-) are J^-(Fhat^+) and J^+(Fhat^+) bit for bit: the F^- members
    are not built.
    """

    f_plus: np.ndarray  # (2J - pI) / (2s - p)
    jp: np.ndarray
    params: MetallicParams

    @cached_property
    def fhat_plus(self) -> np.ndarray:
        return blocks(self.f_plus, 0.0, 0.0, np.swapaxes(self.f_plus, -1, -2))

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
    invertible: bool = False,
) -> DerivedFamily:
    """The family of the pair (J, g) whose product structure ``jp`` the caller
    built; ``invertible`` says the caller has already inverted every g."""
    if params.discriminant <= 0:
        raise DegenerateDiscriminant(
            f"family needs p^2 + 4q > 0, got {params.discriminant}"
        )
    g, J = _require_compatible(g, J, tolerance, invertible)
    gap = 2.0 * params.sigma - params.p
    f_plus = (2.0 * J - params.p * np.eye(J.shape[-1])) / gap
    return DerivedFamily(f_plus, np.asarray(jp, dtype=float), params)


def _pairing_form(op: np.ndarray) -> np.ndarray:
    """The symmetric form (s, op t) of the natural pairing."""
    form = pairing_matrix(op.shape[-1] // 2) @ np.asarray(op, dtype=float)
    return 0.5 * (form + np.swapaxes(form, -1, -2))


def _eigenvalues(form: np.ndarray) -> np.ndarray:
    if np.isfinite(form).all():
        return np.linalg.eigvalsh(form)
    finite = np.isfinite(form).all(axis=(-2, -1))
    out = np.full(form.shape[:-1], np.nan)
    out[finite] = np.linalg.eigvalsh(form[finite])
    return out


def pairing_eigenvalues(op: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the form (s, op t), shape (..., 2n); NaN at a
    sample where op is not finite, which LAPACK would refuse for the batch.

    For op = Jp this is the one eigensolve that both the signature of G and
    the non-degeneracy in :func:`check_anti_pseudo_calibrated` read.
    """
    return _eigenvalues(_pairing_form(op))


def pairing_positive_definite(op: np.ndarray, tolerance: float = 1e-10) -> np.ndarray:
    """Whether every eigenvalue of the form (s, op t) exceeds ``tolerance``,
    per sample; False where op is not finite.

    One batched Cholesky factorisation of form - tolerance I decides when
    every sample is finite and it succeeds at each; otherwise the eigenvalues
    of :func:`pairing_eigenvalues` decide.  LAPACK may not reject a NaN, so a
    non-finite batch never reaches the factorisation.
    """
    form = _pairing_form(op)
    if np.isfinite(form).all():
        try:
            np.linalg.cholesky(form - tolerance * np.eye(form.shape[-1]))
            return np.ones(form.shape[:-2], dtype=bool)
        except np.linalg.LinAlgError:
            pass
    return _eigenvalues(form).min(axis=-1) > tolerance


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
    jp = _batch(jp)
    M = pairing_matrix(jp.shape[-1] // 2)
    anti = largest_entry(np.swapaxes(jp, -1, -2) @ M @ jp + M)
    min_eig = np.abs(np.reshape(eigenvalues, (len(jp), -1))).min(axis=-1)
    degenerate = largest_entry(np.where(min_eig > tolerance, 0.0, tolerance * 2.0))
    return _worst(
        "anti-pseudo-calibrated",
        "(Jp s, Jp t) = -(s, t); (., Jp .) non-degenerate",
        [anti, degenerate],
        tolerance,
        points,
        details={"anti_invariance": anti[0], "min_abs_eigenvalue": float(min_eig.min())},
    )


def check_calibrated(
    jc: np.ndarray, tolerance: float = 1e-10, points: np.ndarray | None = None
) -> CheckResult:
    """(Jc s, Jc t) = (s, t) and positive-definiteness of (., Jc .).

    ``points`` are the sample points of the batch, for the witness.
    """
    jc = _batch(jc)
    M = pairing_matrix(jc.shape[-1] // 2)
    invariance = largest_entry(np.swapaxes(jc, -1, -2) @ M @ jc - M)
    not_pd = np.where(pairing_positive_definite(jc, tolerance), 0.0, tolerance * 2.0)
    return _worst(
        "calibrated",
        "(Jc s, Jc t) = (s, t); (., Jc .) positive definite",
        [invariance, largest_entry(not_pd)],
        tolerance,
        points,
        details={"invariance": invariance[0]},
    )


def fhat_matrix(df: np.ndarray, invertible: bool = False) -> np.ndarray:
    """blockdiag(Df, (Df^T)^{-1}), the generalized push-forward of a map;
    ``invertible`` says the caller has already found |det Df| >= 1e-12."""
    df = np.asarray(df, dtype=float)
    if df.ndim < 2 or df.shape[-2] != df.shape[-1]:
        raise DimensionMismatch("Df must be square for the generalized push-forward")
    if not invertible and (np.abs(np.linalg.det(df)) < 1e-12).any():
        raise SingularJacobian("Df is not invertible")
    return blocks(df, 0.0, 0.0, np.linalg.inv(np.swapaxes(df, -1, -2)))


def fhat_conjugation(
    df: np.ndarray,
    jm1: np.ndarray,
    jm2: np.ndarray,
    tolerance: float = 1e-10,
    points: np.ndarray | None = None,
    invertible: bool = False,
) -> CheckResult:
    """Residual of fhat Jm1 = Jm2 fhat for fhat = blockdiag(Df, (Df^T)^{-1}).

    ``points`` are the sample points of the batch, for the witness; an
    empty batch has residual 0.0.  ``invertible`` is fhat_matrix's.
    """
    fh = fhat_matrix(df, invertible)
    res = largest_entry(_batch(fh @ np.asarray(jm1) - np.asarray(jm2) @ fh))
    return _worst("fhat-conjugation", "fhat Jm1 = Jm2 fhat", [res], tolerance, points)
