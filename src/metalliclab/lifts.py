"""Lifted metallic structures on tangent and cotangent bundle charts.

The bundle chart doubles the base chart with fibre coordinates y^1..y^n
(tangent) or y_1..y_n (cotangent).  The lifted structure conjugates
Jm = blockdiag(J, J^T) with the horizontal-lift morphism, Psi (tangent) or
Phi (cotangent), and the lifted metric pulls blockdiag(g, g^-1) back by its
inverse.  Both morphisms are affine in the fibre coordinates, so the lift,
its metric and the partials of the lift in all 2n coordinates have closed
forms in the values of g, g^-1, J, Gamma and their first partials at the
base points (Yano & Ishihara, *Tangent and Cotangent Bundles*, 1973).
The base values are arrays [m, ...] over m base samples and the fibre
coordinates y [m, F, n] hold F fibre points over each, so the lifted arrays
are [m, F, ...]: every product broadcasts the base values over the F axis,
and what depends on the base point alone is computed once per base sample.
The lifted Nijenhuis tensor and the displayed frame formulas are matrix
products per lifted sample, with the fibre coordinates contracted first.
"""

from __future__ import annotations

import numpy as np

from . import chart as ch
from . import draws as dr
from . import genbundle as gb
from .genconn import _first
from .metallic import MetallicParams

__all__ = [
    "TANGENT",
    "COTANGENT",
    "fibre_points",
    "horizontal",
    "frame",
    "jbar",
    "forward",
    "backward",
    "gbar",
    "djbar",
    "frame_endo_residuals",
    "coordinate_endo_residuals",
    "frame_metric_residuals",
    "coordinate_metric_residuals",
    "nijenhuis_values",
    "mixed_display_residual",
    "horizontal_display_match",
    "commutation_residual",
]

TANGENT = "tangent"
COTANGENT = "cotangent"


def fibre_points(dim: int, count: int, seed: int, first: int = 0, stream: int = 0) -> np.ndarray:
    """Fibre coordinates of the lifted samples first .. first + count - 1:
    uniform in [-1, 1)^dim.  Sample k's coordinates are the draws k dim ..
    (k + 1) dim - 1 of ``stream`` of the seed's counter stream (``draws.uniform``),
    addressed by index, so a range of samples draws nothing for the others."""
    return dr.uniform(count * dim, seed, stream, first * dim).reshape(count, dim)


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _along_fibre(y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_k y_k C[..., k, l, i], the fibre coordinates ``y`` (broadcasting
    against C's leading axes) contracted as one (1, n) @ (n, n*n) product
    per lifted sample."""
    n = C.shape[-1]
    out = y[..., None, :] @ C.reshape(C.shape[:-3] + (n, n * n))
    return out.reshape(out.shape[:-2] + (n, n))


# The lift at the bundle points (x, y), from the base values g, g^-1, J
# [m, i, j] and Gamma [m, k, i, j] at x.  The morphism is
# forward = [[I, 0], [L, V]] with the frame X_i^H = d_i + L^l_i d/dy^l:
# tangent    L^l_i = -y^k Gamma^l_{ik},  V = g^-1  (dx^j -> g^{jk} d/dy^k);
# cotangent  L^l_i = y_k Gamma^k_{il},   V = I.
# With W = V^-1 its inverse is backward = [[I, 0], [-W L, W]], and
# conjugating blockdiag(J, J^T) gives jbar = [[J, 0], [L J - D L, D]] with
# D = V J^T W; gbar = backward^T blockdiag(g, g^-1) backward.  Only L varies
# along the fibre; D and the layout C = dL/dy of Gamma are per base sample.


def _layout(flavor: str, gamma: np.ndarray) -> np.ndarray:
    """C[..., k, l, i] = d L^l_i / d y_k from Gamma [..., l, i, j], or its partials."""
    return -np.moveaxis(gamma, -1, -3) if flavor == TANGENT else _swap(gamma)


def _fibre_block(flavor: str, J: np.ndarray, g, ginv) -> np.ndarray:
    """D = V J^T W [m, i, j]."""
    return ginv @ _swap(J) @ g if flavor == TANGENT else _swap(J)


def horizontal(flavor: str, y: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """L [m, F, l, i], the fibre components of the horizontal frame."""
    return _along_fibre(y, _layout(flavor, gamma)[:, None])


def frame(L: np.ndarray) -> np.ndarray:
    """X_i^H [m, F, 2n, n]: [[I], [L]], the first n columns of ``forward``."""
    return np.concatenate([np.broadcast_to(np.eye(L.shape[-1]), L.shape), L], axis=-2)


def jbar(flavor: str, L: np.ndarray, J: np.ndarray, g=None, ginv=None) -> np.ndarray:
    """The lifted endomorphism; only the tangent lift reads g and g^-1."""
    J1, D1 = J[:, None], _fibre_block(flavor, J, g, ginv)[:, None]
    return gb.blocks(J1, 0.0, L @ J1 - D1 @ L, D1)


def forward(flavor: str, L: np.ndarray, ginv=None) -> np.ndarray:
    """Psi (tangent) or Phi (cotangent)."""
    eye = np.eye(L.shape[-1])
    return gb.blocks(eye, 0.0, L, ginv[:, None] if flavor == TANGENT else eye)


def backward(flavor: str, L: np.ndarray, g=None) -> np.ndarray:
    """The closed-form inverse of ``forward``."""
    eye = np.eye(L.shape[-1])
    W = g[:, None] if flavor == TANGENT else eye
    return gb.blocks(eye, 0.0, -(W @ L), W)


def gbar(flavor: str, L: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """The lifted metric, backward^T blockdiag(g, g^-1) backward."""
    B = backward(flavor, L, g)
    return _swap(B) @ gb.blocks(g, 0.0, 0.0, ginv)[:, None] @ B


def djbar(flavor, y, L, gamma, J, dJ, dgamma, g=None, ginv=None, dg=None, dginv=None):
    """d_c jbar^A_B over all 2n coordinates, [m, F, c, A, B], from the base
    partials dJ, dg, dginv [m, a, i, j] and dgamma[m, a, l, i, j] =
    d_a Gamma^l_{ij}; only the tangent lift reads g, g^-1 and their partials.

    L is linear in y and D does not depend on it, so d/dy_k jbar has the
    one block (d L/dy_k) J - D (d L/dy_k), the same at every fibre point;
    the base partials follow from those of J, L, V = g^-1 and W."""
    (m, F), n = y.shape[:2], J.shape[-1]
    C, dC = _layout(flavor, gamma), _layout(flavor, dgamma)
    D, dD = _fibre_block(flavor, J, g, ginv), _swap(dJ)
    if flavor == TANGENT:
        Jt = _swap(J)
        dD = dginv @ (Jt @ g)[:, None] + ginv[:, None] @ dD @ g[:, None]
        dD += (ginv @ Jt)[:, None] @ dg
    # the base directions a on an axis after F: [m, F, a, ...]
    L, dL = L[:, :, None], _along_fibre(y[:, :, None], dC[:, None])
    J2, D2, dJ1, dD1 = J[:, None, None], D[:, None, None], dJ[:, None], dD[:, None]
    out = np.zeros((m, F, 2 * n, 2 * n, 2 * n))
    out[:, :, :n] = gb.blocks(dJ1, 0.0, dL @ J2 + L @ dJ1 - dD1 @ L - D2 @ dL, dD1)
    out[:, :, n:, n:, :n] = (C @ J[:, None] - D[:, None] @ C)[:, None]
    return out


# ------------------------------------------------------------------
# Display cross-checks (all numeric, at evaluated lifted samples): the
# lifted arrays and y are [m, F, ...], the base values [m, ...]
# ------------------------------------------------------------------


def frame_endo_residuals(
    jbar_v: np.ndarray, frame_v: np.ndarray, J_v: np.ndarray, flavor: str
) -> list:
    """Jbar(X_i^H) = J^k_i X_k^H and the vertical-frame displays."""
    n = J_v.shape[-1]
    J1 = J_v[:, None]
    horiz = jbar_v @ frame_v - frame_v @ J1
    vert_actual = jbar_v[..., n:]
    expected = np.zeros_like(vert_actual)
    if flavor == TANGENT:
        expected[..., n:, :] = J1  # Jbar(d/dy^j) = J^k_j d/dy^k
    else:
        expected[..., n:, :] = _swap(J1)  # Jtilde(d/dy_j) = J^j_k d/dy_k
    return [horiz, vert_actual - expected]


def coordinate_endo_residuals(
    jbar_v: np.ndarray,
    J_v: np.ndarray,
    gamma_v: np.ndarray,
    y: np.ndarray,
    flavor: str,
) -> np.ndarray:
    """The displayed action on the coordinate fields X_i (non-frame columns)."""
    n = J_v.shape[-1]
    J1 = J_v[:, None]
    actual = jbar_v[..., :n]
    expected = np.zeros_like(actual)
    expected[..., :n, :] = J1
    if flavor == TANGENT:
        # -y^l (J^k_i G^s_{kl} - J^s_r G^r_{il}) with Gy[s, k] = G^s_{kl} y^l
        Gy = (gamma_v[:, None] @ y[:, :, None, :, None])[..., 0]
        expected[..., n:, :] = -(Gy @ J1) + J1 @ Gy
    else:
        # +y_l (J^k_i G^l_{kr} - J^s_r G^l_{is}) with yG[k, r] = y_l G^l_{kr}
        yG = _along_fibre(y, gamma_v[:, None])
        expected[..., n:, :] = _swap(yG) @ J1 - _swap(yG @ J1)
    return actual - expected


def frame_metric_residuals(
    gbar_v: np.ndarray, frame_v: np.ndarray, g_v: np.ndarray, fibre_g: np.ndarray
) -> list:
    """gbar on the horizontal/vertical frame against the displayed components;
    ``fibre_g`` is the displayed vertical block, g (tangent) or g^-1 (cotangent)."""
    n = g_v.shape[-1]
    frame_gbar = _swap(frame_v) @ gbar_v
    hh = frame_gbar @ frame_v - g_v[:, None]
    hv = frame_gbar[..., n:]
    vv = gbar_v[..., n:, n:] - fibre_g[:, None]
    return [hh, hv, vv]


def coordinate_metric_residuals(
    gbar_v: np.ndarray,
    g_v: np.ndarray,
    fibre_g: np.ndarray,
    gamma_v: np.ndarray,
    y: np.ndarray,
    flavor: str,
) -> list:
    """Corrected readings of the displayed gbar(X_i, X_j) and mixed components.

    With A[i, l] = y^k G^l_{ik} and V = ``fibre_g`` = g (tangent), or
    A[i, l] = y_k G^k_{il} and V = g^-1 (cotangent), the displays read
    gbar(X_i, X_j) = g + A V A^T and gbar(X_i, d/dy^j) = A V (tangent) or
    -A V (cotangent).
    """
    n = g_v.shape[-1]
    if flavor == TANGENT:
        A, mixed_sign = _swap((gamma_v[:, None] @ y[:, :, None, :, None])[..., 0]), 1.0
    else:
        A, mixed_sign = _along_fibre(y, gamma_v[:, None]), -1.0
    AV = A @ fibre_g[:, None]
    xx = gbar_v[..., :n, :n] - (g_v[:, None] + AV @ _swap(A))
    xv = gbar_v[..., :n, n:] - mixed_sign * AV
    return [xx, xv]


def nijenhuis_values(jbar_v: np.ndarray, djbar_v: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor of the lifted endomorphism, [m, F, A, B, C], from it
    and its partials (:func:`djbar`)."""
    return ch.nijenhuis(jbar_v, djbar_v)


def mixed_display_residual(
    N_v: np.ndarray,
    frame_v: np.ndarray,
    J_v: np.ndarray,
    DJ_v: np.ndarray,
    flavor: str,
) -> tuple:
    """N on horizontal/vertical pairs against the displayed formula: the
    residual of the corrected reading and that of the printed form.

    Tangent: N(H_i, d/dy^j)^{vert k} = ((nabla_{JX_i}J) - J(nabla_{X_i}J))^k_j,
    as printed: the two residuals are one array.
    Cotangent: the fibre transforms dually, which flips the composition in the
    second term to (nabla_{X_i}J) J; the printed form keeps J(nabla J) (the
    tangent-case order).  Both readings share N's frame components and
    nabla_{J d_i} J.  The display depends on the base point alone: it is
    built once per base sample.
    """
    n = J_v.shape[-1]
    actual = _swap(frame_v)[:, :, None] @ N_v[..., n:]
    along_J = _first(_swap(J_v), DJ_v)  # [m, i, r, k] = (nabla_{J d_i} J)^r_k
    # M[m, i, r, k] = (nabla_{J d_i} J)^r_k - (J (nabla_i J))^r_k
    printed = along_J - J_v[:, None] @ DJ_v
    if flavor == TANGENT:
        # N(H_i, d/dy^j)^{vert k} = M[m, i, k, j]
        residual = _against(actual, printed.transpose(0, 2, 1, 3))
        return residual, residual
    # M[m, i, r, k] = (nabla_{J d_i} J)^r_k - ((nabla_i J) J)^r_k, and
    # N(H_i, d/dy_j)^{vert k} = M[m, i, j, k]
    corrected = along_J - DJ_v @ J_v[:, None]
    return (
        _against(actual, corrected.transpose(0, 3, 1, 2)),
        _against(actual, printed.transpose(0, 3, 1, 2)),
    )


def _against(actual: np.ndarray, vertical: np.ndarray) -> np.ndarray:
    """``actual`` [m, F, 2n, ...] less a display that is 0 on its first n rows
    and ``vertical`` [m, n, ...] at every fibre point on the last n."""
    n = vertical.shape[1]
    out = actual.copy()
    out[..., n:, :, :] -= vertical[:, None]
    return out


def _displayed_curvature_term(
    R_v: np.ndarray, J_v: np.ndarray, y: np.ndarray, params: MetallicParams, flavor: str
) -> np.ndarray:
    """Vertical part of the displayed N(X_i^H, X_j^H) for the curvature
    R_v[m, l, a, b, c] = R^l_{abc}, [m, F, r, i, j].

    The fibre coordinate is contracted first, into X[m, F, r, a, b]: y^s R^r_{abs}
    (tangent) or y_l R^l_{abr} (cotangent).  With JX the contraction of J^r_l
    (tangent) or J^l_r (cotangent) into the first index of X, the display is
    -/+ (J^T X J - J^T JX - JX J + p JX + q X) per first index, J^T and J acting
    on a and b; each product contracts J with one operand at a time.
    """
    m, F, n = y.shape
    if flavor == TANGENT:
        X = (R_v[:, None] @ y[:, :, None, None, :, None])[..., 0]
        first, sign = J_v, -1.0
    else:
        X = y[:, :, None, :] @ R_v.reshape(m, 1, n, -1)
        X = X.reshape(m, F, n, n, n).transpose(0, 1, 4, 2, 3)
        first, sign = _swap(J_v), 1.0
    JX = (first[:, None] @ X.reshape(m, F, n, n * n)).reshape(X.shape)
    Jt = _swap(J_v)[:, None, None]
    Jb = J_v[:, None, None]
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
) -> np.ndarray:
    """N(X_i^H, X_j^H) minus the displayed formula, [m, F, A, i, j].

    The display is the frame image of N_J(d_i, d_j), and in the vertical
    part the curvature term of :func:`_displayed_curvature_term`, whose
    R^l_{abc} is read as the house R^l_{abc} of ``chart.riemann``.
    """
    m, n = NJ_v.shape[:2]
    frame_NJ = (frame_v @ NJ_v.reshape(m, 1, n, n * n)).reshape(frame_v.shape + (n,))
    gap = _swap(frame_v)[:, :, None] @ N_v @ frame_v[:, :, None] - frame_NJ
    gap[:, :, n:] -= _displayed_curvature_term(R_v, J_v, y, params, flavor)
    return gap


def commutation_residual(
    psi_v: np.ndarray,
    phi_inverse_v: np.ndarray,
    jbar_v: np.ndarray,
    jtilde_v: np.ndarray,
) -> np.ndarray:
    """Residual of Jbar (Psi Phi^{-1}) = (Psi Phi^{-1}) Jtilde at matched samples.

    ``phi_inverse_v`` is Phi^{-1}, the cotangent lift's closed-form :func:`backward`.
    """
    K = psi_v @ phi_inverse_v
    return jbar_v @ K - K @ jtilde_v
