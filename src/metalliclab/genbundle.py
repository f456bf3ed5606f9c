"""Algebra on TM + T*M at the samples: g^-1, block structures, pairings.

Every function here takes arrays with a leading sample axis, shape
(..., n, n) or (..., 2n, 2n), and treats each sample on its own; a single
matrix is a batch of shape ().  The generalized structures themselves are
assembled by :func:`blocks` from the values at the samples, as the
``gen[...]`` arrays of ``suites.ARRAYS``; the checks that read them are
declared in ``suites.CHECKS``.  An error is the one the first failing sample
in sample order would raise on its own.  Blocks of a 2n x 2n operator are
laid out as

    [ A  B ]   A: TM -> TM,    B: T*M -> TM,
    [ C  D ]   C: TM -> T*M,   D: T*M -> T*M,

and the dual map J* is realised as the transpose of J in the coordinate
dual basis.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateForm, SingularMetric

__all__ = [
    "metric_inverse",
    "blocks",
    "sharp_block",
    "pairing_matrix",
    "pairing_eigenvalues",
    "pairing_positive_definite",
    "neutral_signature",
    "fhat_matrix",
]

_DET_GUARD = 1e-12  # |det g| below this is a singular metric
_FORM_GUARD = 1e-10  # an |eigenvalue| below this is a degenerate form


def blocks(A, B, C, D) -> np.ndarray:
    """[[A, B], [C, D]] from stacks of n x n blocks; a block may be 0.0.

    The one assembler of 2n x 2n operators: the lifts and the connection
    blocks of Dhat, and the generalized structures:

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


def metric_inverse(g: np.ndarray, points: np.ndarray) -> np.ndarray:
    """g^-1 of a batch of metrics at a batch of ``points``.

    Raises SingularMetric if |det g| < 1e-12 at a sample, naming the first
    such sample's point.
    """
    g = np.asarray(g, dtype=float)
    singular = np.ravel(np.abs(np.linalg.det(g)) < _DET_GUARD)
    if singular.any():
        point = np.reshape(points, (singular.size, -1))[int(np.argmax(singular))]
        raise SingularMetric(f"|det g| < {_DET_GUARD:g}", point)
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
    the non-degeneracy half of ``genbundle/calibration`` read.
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


def neutral_signature(eigenvalues: np.ndarray, points: np.ndarray | None = None):
    """Signature (n_plus, n_minus) of forms given by their eigenvalues [m, 2n].

    The two counts have the batch shape.  A sample with an |eigenvalue| below
    1e-10 raises DegenerateForm; the first such sample is reported, and its
    point if the forms' ``points`` [m, n] are given.
    """
    smallest = np.ravel(np.abs(eigenvalues).min(axis=-1))
    degenerate = smallest < _FORM_GUARD
    if degenerate.any():
        first = int(np.argmax(degenerate))
        message = f"eigenvalue {smallest[first]:.3e} below threshold {_FORM_GUARD:g}"
        raise DegenerateForm(message, None if points is None else points[first])
    n_plus = (eigenvalues > _FORM_GUARD).sum(axis=-1)
    n_minus = (eigenvalues < -_FORM_GUARD).sum(axis=-1)
    return n_plus, n_minus


def fhat_matrix(df: np.ndarray) -> np.ndarray:
    """blockdiag(Df, (Df^T)^{-1}), the generalized push-forward of a map
    whose differentials ``df`` are invertible."""
    return blocks(df, 0.0, 0.0, np.linalg.inv(np.swapaxes(df, -1, -2)))
