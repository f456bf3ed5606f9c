"""Lifted metallic structures on tangent and cotangent bundle charts.

The bundle chart doubles the base chart with fibre coordinates y^1..y^n
(tangent) or y_1..y_n (cotangent).  The lifted structure conjugates
Jm = blockdiag(J, J^T) with the horizontal-lift morphism, Psi (tangent) or
Phi (cotangent), and the lifted metric pulls blockdiag(g, g^-1) back by its
inverse.  Both morphisms are affine in the fibre coordinates, so the lift,
its metric and the partials of the lift in all 2n coordinates have closed
forms in the values of g, g^-1, J, Gamma and their first partials at the
base points (Yano & Ishihara, *Tangent and Cotangent Bundles*, 1973).
Everything here works on arrays with a leading sample axis m; the lifted
Nijenhuis tensor and the displayed frame formulas it is checked against
are array algebra on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import chart as ch
from .errors import DimensionMismatch
from .metallic import MetallicParams

__all__ = [
    "TANGENT",
    "COTANGENT",
    "LiftedChart",
    "Lift",
    "lift",
    "frame_endo_residuals",
    "coordinate_endo_residuals",
    "frame_metric_residuals",
    "coordinate_metric_residuals",
    "nijenhuis_values",
    "mixed_display_residual",
    "horizontal_display_match",
    "CONVENTION_CANDIDATES",
    "commutation_residual",
]

TANGENT = "tangent"
COTANGENT = "cotangent"


@dataclass(frozen=True)
class LiftedChart:
    base: ch.Chart
    flavor: str
    fibre_box: tuple = ()

    def __post_init__(self):
        if self.flavor not in (TANGENT, COTANGENT):
            raise ValueError(f"flavor must be {TANGENT!r} or {COTANGENT!r}")
        n = self.base.dim
        fibre_box = tuple(self.fibre_box) or tuple((-1.0, 1.0) for _ in range(n))
        if len(fibre_box) != n:
            raise DimensionMismatch("fibre box must have one interval per coordinate")
        object.__setattr__(self, "fibre_box", fibre_box)

    def sample_points(
        self, base_count: int = 32, fibre_per_base: int = 4, seed: int | None = None
    ) -> np.ndarray:
        """Base Halton samples, each paired with several uniform fibre draws."""
        if seed is None:
            seed = self.base.seed
        base_points = self.base.sample_points(base_count, seed=seed)
        fibre = self.fibre_points(base_count * fibre_per_base, seed)
        repeated = np.repeat(base_points, fibre_per_base, axis=0)
        return np.hstack([repeated, fibre])

    def fibre_points(self, count: int, seed: int) -> np.ndarray:
        """The fibre coordinates of :meth:`sample_points`: uniform over the fibre box."""
        rng = np.random.default_rng(seed + 1)
        lo = np.array([b[0] for b in self.fibre_box])
        hi = np.array([b[1] for b in self.fibre_box])
        return rng.uniform(lo, hi, size=(count, self.base.dim))


def _lower_blocks(upper: np.ndarray, lower_left, lower_right) -> np.ndarray:
    """[[upper, 0], [lower_left, lower_right]] from stacks of n x n blocks."""
    n = upper.shape[-1]
    out = np.zeros(upper.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = upper
    out[..., n:, :n] = lower_left
    out[..., n:, n:] = lower_right
    return out


class Lift:
    """The lift of (J, g) at the bundle points (x, y), from values at x.

    ``y`` holds the fibre coordinates [m, k]; the other arrays are the base
    values at x: g, g^-1 and J [m, i, j], Gamma [m, k, i, j], and the partials
    dg, dJ, dginv [m, a, i, j] and dgamma[m, a, l, i, j] = d_a Gamma^l_{ij}.

    The morphism is forward = [[I, 0], [L, V]] with the frame
    X_i^H = d_i + L^l_i d/dy^l:
    tangent    L^l_i = -y^k Gamma^l_{ik},  V = g^-1  (dx^j -> g^{jk} d/dy^k);
    cotangent  L^l_i = y_k Gamma^k_{il},   V = I.
    With W = V^-1 its inverse is backward = [[I, 0], [-W L, W]], and
    conjugating blockdiag(J, J^T) gives jbar = [[J, 0], [L J - D L, D]] with
    D = V J^T W; gbar = backward^T blockdiag(g, g^-1) backward.

    Everything but ``jbar`` is computed on first use: the commutation check
    reads ``forward`` of the tangent lift and ``backward`` of the cotangent
    one, and neither ``gbar`` nor ``djbar[m, c, A, B]`` = d_c jbar^A_B over
    all 2n coordinates.
    """

    def __init__(self, flavor, y, g, ginv, J, gamma, dg, dJ, dgamma, dginv):
        n = J.shape[-1]
        eye = np.broadcast_to(np.eye(n), J.shape)
        Jt = np.swapaxes(J, -1, -2)
        # C[m, k, l, i] = d L^l_i / d y_k
        if flavor == TANGENT:
            C = -gamma.transpose(0, 3, 1, 2)
            V, W = ginv, g
            D = ginv @ Jt @ g
        else:
            C = gamma.transpose(0, 1, 3, 2)
            V = W = eye
            D = Jt
        L = np.einsum("mk,mkli->mli", y, C)
        self.jbar = _lower_blocks(J, L @ J - D @ L, D)
        self._flavor, self._y, self._C, self._L, self._D = flavor, y, C, L, D
        self._eye, self._V, self._W = eye, V, W
        self._base = (g, ginv, J, dg, dJ, dgamma, dginv)

    @cached_property
    def forward(self) -> np.ndarray:
        return _lower_blocks(self._eye, self._L, self._V)

    @cached_property
    def backward(self) -> np.ndarray:
        return _lower_blocks(self._eye, -(self._W @ self._L), self._W)

    @cached_property
    def gbar(self) -> np.ndarray:
        """backward^T blockdiag(g, g^-1) backward."""
        g, ginv = self._base[:2]
        ghat = _lower_blocks(g, 0.0, ginv)
        return np.swapaxes(self.backward, -1, -2) @ ghat @ self.backward

    @cached_property
    def djbar(self) -> np.ndarray:
        """L is linear in y and D does not depend on it, so d/dy_k jbar has the
        one block (d L/dy_k) J - D (d L/dy_k); the base partials follow from
        those of J, L, V = g^-1 and W."""
        g, ginv, J, dg, dJ, dgamma, dginv = self._base
        C, L, D = self._C, self._L[:, None], self._D[:, None]
        m, n = J.shape[0], J.shape[-1]
        dJt = np.swapaxes(dJ, -1, -2)
        if self._flavor == TANGENT:
            dC = -dgamma.transpose(0, 1, 4, 2, 3)
            Jt = np.swapaxes(J, -1, -2)
            dD = dginv @ (Jt @ g)[:, None] + ginv[:, None] @ dJt @ g[:, None]
            dD += (ginv @ Jt)[:, None] @ dg
        else:
            dC = dgamma.transpose(0, 1, 2, 4, 3)
            dD = dJt
        dL = np.einsum("mk,makli->mali", self._y, dC)
        out = np.zeros((m, 2 * n, 2 * n, 2 * n))
        out[:, :n] = _lower_blocks(dJ, dL @ J[:, None] + L @ dJ - dD @ L - D @ dL, dD)
        out[:, n:, n:, :n] = C @ J[:, None] - D @ C
        return out


def lift(flavor, y, g, ginv, J, gamma, dg, dJ, dgamma, dginv) -> Lift:
    """The :class:`Lift` of the flavour at the fibre points y over the base values."""
    return Lift(flavor, y, g, ginv, J, gamma, dg, dJ, dgamma, dginv)


# ------------------------------------------------------------------
# Display cross-checks (all numeric, at evaluated lifted samples)
# ------------------------------------------------------------------


def frame_endo_residuals(
    jbar_v: np.ndarray, frame_v: np.ndarray, J_v: np.ndarray, flavor: str
) -> np.ndarray:
    """Jbar(X_i^H) = J^k_i X_k^H and the vertical-frame displays."""
    n = J_v.shape[-1]
    horiz = np.einsum("mab,mbi->mai", jbar_v, frame_v) - np.einsum(
        "mki,mak->mai", J_v, frame_v
    )
    vert_actual = jbar_v[:, :, n:]
    expected = np.zeros_like(vert_actual)
    if flavor == TANGENT:
        expected[:, n:, :] = J_v  # Jbar(d/dy^j) = J^k_j d/dy^k
    else:
        expected[:, n:, :] = np.swapaxes(J_v, -1, -2)  # Jtilde(d/dy_j) = J^j_k d/dy_k
    return np.concatenate(
        [horiz.reshape(horiz.shape[0], -1), (vert_actual - expected).reshape(horiz.shape[0], -1)],
        axis=1,
    )


def coordinate_endo_residuals(
    jbar_v: np.ndarray,
    J_v: np.ndarray,
    gamma_v: np.ndarray,
    y: np.ndarray,
    flavor: str,
) -> np.ndarray:
    """The displayed action on the coordinate fields X_i (non-frame columns)."""
    n = J_v.shape[-1]
    actual = jbar_v[:, :, :n]
    expected = np.zeros_like(actual)
    expected[:, :n, :] = J_v
    if flavor == TANGENT:
        # -y^l (J^k_i G^s_{kl} - J^s_r G^r_{il})
        expected[:, n:, :] = -np.einsum(
            "ml,mki,mskl->msi", y, J_v, gamma_v
        ) + np.einsum("ml,msr,mril->msi", y, J_v, gamma_v)
    else:
        # +y_l (J^k_i G^l_{kr} - J^s_r G^l_{is})
        expected[:, n:, :] = np.einsum(
            "ml,mki,mlkr->mri", y, J_v, gamma_v
        ) - np.einsum("ml,msr,mlis->mri", y, J_v, gamma_v)
    return actual - expected


def frame_metric_residuals(
    gbar_v: np.ndarray, frame_v: np.ndarray, g_v: np.ndarray, ginv_v: np.ndarray, flavor: str
) -> np.ndarray:
    """gbar on the horizontal/vertical frame against the displayed components."""
    n = g_v.shape[-1]
    hh = np.einsum("mai,mab,mbj->mij", frame_v, gbar_v, frame_v) - g_v
    hv = np.einsum("mai,mab->mib", frame_v, gbar_v)[:, :, n:]
    vv = gbar_v[:, n:, n:] - (g_v if flavor == TANGENT else ginv_v)
    m = gbar_v.shape[0]
    return np.concatenate(
        [hh.reshape(m, -1), hv.reshape(m, -1), vv.reshape(m, -1)], axis=1
    )


def coordinate_metric_residuals(
    gbar_v: np.ndarray,
    g_v: np.ndarray,
    ginv_v: np.ndarray,
    gamma_v: np.ndarray,
    y: np.ndarray,
    flavor: str,
) -> np.ndarray:
    """Corrected readings of the displayed gbar(X_i, X_j) and mixed components."""
    n = g_v.shape[-1]
    m = gbar_v.shape[0]
    if flavor == TANGENT:
        xx = gbar_v[:, :n, :n] - (
            g_v
            + np.einsum("mk,mh,mlik,msjh,mls->mij", y, y, gamma_v, gamma_v, g_v)
        )
        xv = gbar_v[:, :n, n:] - np.einsum("mk,mlik,mlj->mij", y, gamma_v, g_v)
    else:
        xx = gbar_v[:, :n, :n] - (
            g_v
            + np.einsum("mk,mh,mkil,mhjr,mlr->mij", y, y, gamma_v, gamma_v, ginv_v)
        )
        xv = gbar_v[:, :n, n:] + np.einsum("mk,mkil,mlj->mij", y, gamma_v, ginv_v)
    return np.concatenate([xx.reshape(m, -1), xv.reshape(m, -1)], axis=1)


def nijenhuis_values(lifted: Lift) -> np.ndarray:
    """Nijenhuis tensor of the lifted endomorphism, [m, A, B, C]."""
    return ch.nijenhuis(lifted.jbar, lifted.djbar)


def mixed_display_residual(
    N_v: np.ndarray,
    frame_v: np.ndarray,
    J_v: np.ndarray,
    DJ_v: np.ndarray,
    flavor: str,
    literal: bool = False,
) -> np.ndarray:
    """N on horizontal/vertical pairs against the displayed formula.

    Tangent: N(H_i, d/dy^j)^{vert k} = ((nabla_{JX_i}J) - J(nabla_{X_i}J))^k_j.
    Cotangent: the fibre transforms dually, which flips the composition in the
    second term to (nabla_{X_i}J) J; the printed form keeps J(nabla J) (the
    tangent-case order) and is only evaluated when ``literal`` is set.
    """
    n = J_v.shape[-1]
    actual = np.einsum("mabc,mbi->maic", N_v, frame_v)[:, :, :, n:]
    expected = np.zeros_like(actual)
    if flavor == TANGENT or literal:
        # M[m, r, i, k] = (nabla_{J d_i} J)^r_k - (J (nabla_i J))^r_k
        M = np.einsum("mai,mark->mrik", J_v, DJ_v) - np.einsum(
            "mrs,misk->mrik", J_v, DJ_v
        )
    else:
        # M[m, r, i, k] = (nabla_{J d_i} J)^r_k - ((nabla_i J) J)^r_k
        M = np.einsum("mai,mark->mrik", J_v, DJ_v) - np.einsum(
            "mirs,msk->mrik", DJ_v, J_v
        )
    if flavor == TANGENT:
        # N(H_i, d/dy^j)^{vert k} = M[m, k, i, j]
        expected[:, n:, :, :] = M
    else:
        # N(H_i, d/dy_j)^{vert k} = M[m, j, i, k]
        expected[:, n:, :, :] = np.einsum("mjik->mkij", M)
    return actual - expected


CONVENTION_CANDIDATES = tuple(
    (perm, sign)
    for perm in itertools.permutations("abc")
    for sign in (1.0, -1.0)
)


def _candidate_curvature(R_v: np.ndarray, perm) -> np.ndarray:
    """Candidate reading: displayed R^l_{abc} = house R^l_{perm(abc)}."""
    return np.einsum(f"ml{''.join(perm)}->mlabc", R_v)


def candidate_label(perm, sign: float) -> str:
    s = "+" if sign > 0 else "-"
    return f"R^l_(a b c) = {s}R_house^l_({' '.join(perm)})"


def _displayed_curvature_term(
    Rc: np.ndarray, J_v: np.ndarray, y: np.ndarray, params: MetallicParams, flavor: str
) -> np.ndarray:
    """Vertical part of the displayed N(X_i^H, X_j^H) for the curvature Rc, [m, r, i, j].

    The fibre coordinate is contracted first, into X[m, r, a, b]: y^s Rc^r_{abs}
    (tangent) or y_l Rc^l_{abr} (cotangent).  With JX the contraction of J^r_l
    (tangent) or J^l_r (cotangent) into the first index of X, the display is
    -/+ (J^T X J - J^T JX - JX J + p JX + q X) per first index, J^T and J acting
    on a and b; each product contracts J with one operand at a time.
    """
    if flavor == TANGENT:
        X = np.einsum("mrabs,ms->mrab", Rc, y)
        JX = np.einsum("mrl,mlab->mrab", J_v, X)
        sign = -1.0
    else:
        X = np.einsum("ml,mlabr->mrab", y, Rc)
        JX = np.einsum("mlr,mlab->mrab", J_v, X)
        sign = 1.0
    Jt = np.swapaxes(J_v, -1, -2)[:, None]
    Jb = J_v[:, None]
    inner = Jt @ (X @ Jb) - Jt @ JX - JX @ Jb + params.p * JX + params.q * X
    return sign * inner


def horizontal_display_match(
    N_v: np.ndarray,
    frame_v: np.ndarray,
    J_v: np.ndarray,
    NJ_v: np.ndarray,
    R_v: np.ndarray,
    y: np.ndarray,
    params: MetallicParams,
    flavor: str,
) -> dict:
    """Match N(X_i^H, X_j^H) against the displayed formula for every candidate
    index/sign placement of the curvature tensor.

    The display is linear in the curvature, so each index permutation is
    evaluated once and its opposite sign is the exact negation.  Returns the
    per-candidate residuals, the matching equivalence classes and the
    horizontal-part residual (shared by all candidates).
    """
    n = J_v.shape[-1]
    actual = np.einsum("mabj,mbi->maij", N_v @ frame_v[:, None], frame_v)
    base_expected = np.einsum("mkij,mak->maij", NJ_v, frame_v)
    horiz_gap = actual[:, :n] - base_expected[:, :n]
    vert_gap_common = actual[:, n:] - base_expected[:, n:]
    by_perm = {}
    for perm in itertools.permutations("abc"):
        by_perm[perm] = _displayed_curvature_term(
            _candidate_curvature(R_v, perm), J_v, y, params, flavor
        )
    results = []
    for perm, sign in CONVENTION_CANDIDATES:
        vert_expected = by_perm[perm] if sign > 0 else -by_perm[perm]
        gap = vert_gap_common - vert_expected
        results.append(
            {
                "label": candidate_label(perm, sign),
                "perm": perm,
                "sign": sign,
                "argument_slot": perm.index("c") + 1,
                "residual": float(np.abs(gap).max()),
                "expected": vert_expected,
            }
        )
    return {
        "horizontal_residual": float(np.abs(horiz_gap).max()),
        "candidates": results,
    }


def commutation_residual(
    psi_v: np.ndarray,
    phi_inverse_v: np.ndarray,
    jbar_v: np.ndarray,
    jtilde_v: np.ndarray,
) -> np.ndarray:
    """Residual of Jbar (Psi Phi^{-1}) = (Psi Phi^{-1}) Jtilde at matched samples.

    ``phi_inverse_v`` is Phi^{-1}, the cotangent lift's closed-form ``backward``.
    """
    K = psi_v @ phi_inverse_v
    return jbar_v @ K - K @ jtilde_v
