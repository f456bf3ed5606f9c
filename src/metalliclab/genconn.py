"""Connection-level machinery on the generalized tangent bundle.

Covers the bracket [X+a, Y+b] = [X,Y] + nabla_X b - nabla_Y a, the
generalized Nijenhuis tensor built from it, the torsion correction
Phi(T), the semi-symmetric metric connection D = nabla^g + F built from a
1-form, the induced derivative Dhat on TM + T*M, and numeric evaluators
for the integrability-condition lists of the product/complex structures.

Everything here works on values at the samples, arrays with a leading
sample axis m.  A connection is given by ``gamma[m, k, i, j]`` =
Gamma^k_{ij}, a field by its values and its first partials
``d[m, k, ...]`` = d_k of the field; the generalized structures come with
theirs from :func:`metalliclab.genbundle.blocks`.  None of these
tensors needs a derivative of the connection, so no function here
differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroQ
from .metallic import MetallicParams

__all__ = [
    "torsion",
    "nabla_endo",
    "nabla_metric",
    "nabla_bracket",
    "gen_nijenhuis",
    "karaman_connection",
    "torsion_formula_D",
    "torsion_closed_form_values",
    "phi_of_torsion",
    "covariant_nijenhuis_rhs",
    "dhat_endo",
    "dhat_metric",
    "ConditionInputs",
    "jp_condition_residuals",
    "jc_condition_residuals",
    "jp_reduced_residuals",
    "jc_reduced_residuals",
]


# ------------------------------------------------------------------
# Covariant derivatives, torsion and the bracket at the samples
# ------------------------------------------------------------------


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _directional(gamma: np.ndarray) -> np.ndarray:
    """A[m, k, a, b] = Gamma^a_{kb}: the matrix of nabla_{d_k} on vectors."""
    return gamma.transpose(0, 2, 1, 3)


def _endo_derivative(A: np.ndarray, T: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """d_k T + A_k T - T A_k for every direction k, [m, k, i, j]."""
    T = T[:, None]
    return dT + A @ T - T @ A


def _metric_derivative(A: np.ndarray, g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """d_k g - A_k^T g - g A_k for every direction k, [m, k, i, j]."""
    g = g[:, None]
    return dg - _swap(A) @ g - g @ A


def torsion(gamma: np.ndarray) -> np.ndarray:
    """T^k_{ij} = Gamma^k_{ij} - Gamma^k_{ji}, [m, k, i, j]."""
    return gamma - _swap(gamma)


def nabla_endo(gamma: np.ndarray, T: np.ndarray, dT: np.ndarray) -> np.ndarray:
    """(nabla_k T)^i_j of an endomorphism field, [m, k, i, j]."""
    return _endo_derivative(_directional(gamma), T, dT)


def nabla_metric(gamma: np.ndarray, g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """(nabla_k g)_{ij} of a (0,2) field, [m, k, i, j]."""
    return _metric_derivative(_directional(gamma), g, dg)


def _section_derivative(gamma: np.ndarray, V: np.ndarray, dV: np.ndarray) -> np.ndarray:
    """d_k of the vector part and nabla_k of the covector part of sections.

    ``V`` is (m, *family, 2n) and ``dV`` (m, *family, n, 2n) with d_k on the
    second-last axis; the result has the shape of ``dV``.
    """
    m, n = gamma.shape[:2]
    family = (1,) * (V.ndim - 2)
    # Gamma^s_{ki} beta_s for every (k, i), as beta @ Gamma[s, (k i)]
    correction = V[..., None, n:] @ gamma.reshape((m,) + family + (n, n * n))
    correction = correction.reshape(V.shape[:-1] + (n, n))
    return np.concatenate([dV[..., :n], dV[..., n:] - correction], axis=-1)


def nabla_bracket(
    gamma: np.ndarray, S: np.ndarray, dS: np.ndarray, T: np.ndarray, dT: np.ndarray
) -> np.ndarray:
    """[X+a, Y+b] = [X, Y] + nabla_X b - nabla_Y a for families of sections.

    Sections are given by values (m, *family, 2n) and partials
    (m, *family, n, 2n); the families of the two arguments broadcast.
    """
    n = gamma.shape[1]
    DS = _section_derivative(gamma, S, dS)
    DT = _section_derivative(gamma, T, dT)
    return (S[..., None, :n] @ DT - T[..., None, :n] @ DS)[..., 0, :]


def gen_nijenhuis(gamma: np.ndarray, J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """N(e_a, e_b) = [Je_a, Je_b] - J[Je_a, e_b] - J[e_a, Je_b] + J^2 [e_a, e_b]
    for every pair of the 2n constant sections (d_1..d_n, dx^1..dx^n), all
    nabla-brackets; ``J`` is (m, 2n, 2n), ``dJ`` (m, n, 2n, 2n).  Returns
    N^A(e_a, e_b) indexed [m, A, a, b].
    """
    m, N = J.shape[:2]
    n = gamma.shape[1]
    basis = np.broadcast_to(np.eye(N), (m, N, N))
    flat = np.zeros((m, N, n, N))
    columns = _swap(J)  # J e_a is column a of J
    d_columns = dJ.transpose(0, 3, 1, 2)  # [m, a, k, A] = d_k J^A_a
    s, ds = basis[:, :, None], flat[:, :, None]
    t, dt = basis[:, None], flat[:, None]
    js, djs = columns[:, :, None], d_columns[:, :, None]
    jt, djt = columns[:, None], d_columns[:, None]

    def apply(M, sections):
        return (M[:, None, None] @ sections[..., None])[..., 0]

    out = (
        nabla_bracket(gamma, js, djs, jt, djt)
        - apply(J, nabla_bracket(gamma, js, djs, t, dt))
        - apply(J, nabla_bracket(gamma, s, ds, jt, djt))
        + apply(J @ J, nabla_bracket(gamma, s, ds, t, dt))
    )
    return out.transpose(0, 3, 1, 2)


# ------------------------------------------------------------------
# The D = nabla^g + F system with the semi-symmetric metric F
# ------------------------------------------------------------------


def karaman_connection(
    g: np.ndarray,
    ginv: np.ndarray,
    J: np.ndarray,
    params: MetallicParams,
    omega: np.ndarray,
) -> np.ndarray:
    """F[m, k, i, j] of D = nabla^g + F at the samples; F is the display

    F(X_i, X_j) = w(X_j) X_i - w(X_l) g^{lk} g_{ij} X_k
                  + (1/q) w(JX_j) JX_i - (1/q) w(JX_l) g^{lk} J^s_j g_{is} X_k.
    """
    if params.q == 0:
        raise ZeroQ("the semi-symmetric connection needs q != 0")
    n = J.shape[-1]
    inv_q = 1.0 / params.q
    wj = (omega[:, None, :] @ J)[:, 0]  # (w J)_j = w_s J^s_j
    # the raised forms, shaped to broadcast as [m, k, i, j] with k free
    sharp_w = (ginv @ omega[..., None])[..., None]
    sharp_wj = (ginv @ wj[..., None])[..., None]
    return (
        np.eye(n)[:, :, None] * omega[:, None, None, :]
        - sharp_w * g[:, None]
        + inv_q * (wj[:, None, None, :] * J[..., None])
        - inv_q * (sharp_wj * (g @ J)[:, None])
    )


def torsion_formula_D(
    J_at: np.ndarray, params: MetallicParams, omega_at: np.ndarray, X, Y
) -> np.ndarray:
    """Closed form T^D(X,Y) = w(Y)X - w(X)Y + (w(JY)JX - w(JX)JY)/q at a point."""
    if params.q == 0:
        raise ZeroQ("the closed torsion form needs q != 0")
    J_at = np.asarray(J_at, dtype=float)
    w = np.asarray(omega_at, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    jx, jy = J_at @ X, J_at @ Y
    return (
        (w @ Y) * X
        - (w @ X) * Y
        + ((w @ jy) * jx - (w @ jx) * jy) / params.q
    )


def torsion_closed_form_values(
    J_at: np.ndarray, params: MetallicParams, omega_at: np.ndarray
) -> np.ndarray:
    """Closed-form torsion on coordinate fields, [m, k, i, j]."""
    if params.q == 0:
        raise ZeroQ("the closed torsion form needs q != 0")
    m, n, _ = J_at.shape
    eye = np.eye(n)
    wj = np.einsum("ms,msj->mj", omega_at, J_at)
    out = (
        np.einsum("mj,ki->mkij", omega_at, eye)
        - np.einsum("mi,kj->mkij", omega_at, eye)
        + (
            np.einsum("mj,mki->mkij", wj, J_at)
            - np.einsum("mi,mkj->mkij", wj, J_at)
        )
        / params.q
    )
    return out


def _upper(M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """M^k_s A[s, ...] for every sample: the contraction over the first index
    of A, as one (m, n, n) @ (m, n, rest) product."""
    m, n = A.shape[:2]
    return (M @ A.reshape(m, n, -1)).reshape(A.shape)


def phi_of_torsion(T_at: np.ndarray, J_at: np.ndarray) -> np.ndarray:
    """Phi(T)(d_i, d_j) = -T(Jd_i,Jd_j) + JT(Jd_i,d_j) + JT(d_i,Jd_j) - J^2 T(d_i,d_j).

    Arrays carry a leading sample axis; output indexed [m, k, i, j].  With
    T_s the matrix [i, j] of T^s_{ij}, this is
    Phi_k = sum_s J^k_s (J^T T_s + T_s J - sum_r J^s_r T_r) - J^T T_k J.
    """
    J = J_at[:, None]
    JtT = _swap(J_at)[:, None] @ T_at
    inner = JtT + T_at @ J - _upper(J_at, T_at)
    return _upper(J_at, inner) - JtT @ J


def covariant_nijenhuis_rhs(
    DJ_at: np.ndarray, T_at: np.ndarray, J_at: np.ndarray
) -> np.ndarray:
    """(nabla_{JX}J)Y - (nabla_{JY}J)X + J(nabla_Y J)X - J(nabla_X J)Y + Phi(T).

    ``DJ_at`` is [m, a, k, b] = (nabla_a J)^k_b.  With
    R[m, a, k, b] = J^c_a (nabla_c J)^k_b - J^k_c (nabla_a J)^c_b, the four
    covariant terms at (k, i, j) are R[i, k, j] - R[j, k, i].
    """
    R = _upper(_swap(J_at), DJ_at) - J_at[:, None] @ DJ_at
    return (
        R.transpose(0, 2, 1, 3)
        - R.transpose(0, 2, 3, 1)
        + phi_of_torsion(T_at, J_at)
    )


# ------------------------------------------------------------------
# Dhat on TM + T*M
# ------------------------------------------------------------------


def _gen_directional(gamma: np.ndarray) -> np.ndarray:
    """Omega[m, k] = blockdiag(A_k, -A_k^T) with (A_k)^s_a = Gamma^s_{ka}."""
    A = _directional(gamma)
    m, n = A.shape[:2]
    out = np.zeros((m, n, 2 * n, 2 * n))
    out[..., :n, :n] = A
    out[..., n:, n:] = -_swap(A)
    return out


def dhat_endo(gamma: np.ndarray, J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """(Dhat_k J) = d_k J + Omega_k J - J Omega_k for every direction, [m, k, A, B]."""
    return _endo_derivative(_gen_directional(gamma), J, dJ)


def dhat_metric(gamma: np.ndarray, ghat: np.ndarray, dghat: np.ndarray) -> np.ndarray:
    """(Dhat_k ghat) = d_k ghat - Omega_k^T ghat - ghat Omega_k, [m, k, A, B]."""
    return _metric_derivative(_gen_directional(gamma), ghat, dghat)


# ------------------------------------------------------------------
# Integrability conditions for the product / complex structures
# ------------------------------------------------------------------


@dataclass
class ConditionInputs:
    """Evaluated constituents at the samples; all arrays lead with m."""

    g: np.ndarray    # [m, i, j]
    ginv: np.ndarray
    J: np.ndarray    # [m, i, j] = J^i_j
    K: np.ndarray    # J^2
    Dg: np.ndarray   # [m, k, i, j] = (nabla_k g)_{ij}
    DJ: np.ndarray   # [m, k, i, j] = (nabla_k J)^i_j
    DK: np.ndarray   # [m, k, i, j] = (nabla_k J^2)^i_j
    T: np.ndarray    # [m, k, i, j]
    NJ: np.ndarray   # [m, k, i, j]

    @property
    def eye(self) -> np.ndarray:
        n = self.J.shape[-1]
        return np.broadcast_to(np.eye(n), self.J.shape)


def _ddg(ci: ConditionInputs) -> np.ndarray:
    """(d^nabla g)(d_i, d_j)_c = (nabla_i g)_{jc} - (nabla_j g)_{ic} + g_{cs} T^s_{ij}."""
    return (
        ci.Dg
        - ci.Dg.transpose(0, 2, 1, 3)
        + np.einsum("mcs,msij->mijc", ci.g, ci.T)
    )


def _conditions(ci: ConditionInputs, sign: float) -> list:
    """The six displayed conditions; sign=-1 uses A = I - J^2 (product case),
    sign=+1 uses A = I + J^2 (complex case), with the matching term signs."""
    A = ci.eye + sign * ci.K
    ddg = _ddg(ci)
    dgasym = ci.Dg - ci.Dg.transpose(0, 2, 1, 3)

    c1 = ci.NJ - (-sign) * np.einsum("mka,mac,mijc->mkij", A, ci.ginv, ddg)

    c2 = (
        np.einsum("mai,majc->mcij", ci.J, ci.Dg)
        - np.einsum("maj,maic->mcij", ci.J, ci.Dg)
        + np.einsum("mijs,msc->mcij", dgasym, ci.J)
        + np.einsum("mcs,mjsi->mcij", ci.g, ci.DJ)
        - np.einsum("mcs,misj->mcij", ci.g, ci.DJ)
        + np.einsum("mcs,msib,mbj->mcij", ci.g, ci.T, ci.J)
        + np.einsum("mcs,msaj,mai->mcij", ci.g, ci.T, ci.J)
    )

    ddg_u = (
        np.einsum("mbj,mbic->mcij", A, ci.Dg)
        - np.einsum("mibc,mbj->mcij", ci.Dg, A)
        + np.einsum("mcs,msbi,mbj->mcij", ci.g, ci.T, A)
    )
    t_jy = np.einsum("mst,mtj,misc->mcij", ci.g, ci.J, ci.DJ)
    t_jx = np.einsum("mai,msj,masc->mcij", ci.J, ci.g, ci.DJ)
    c3 = ddg_u + sign * t_jy - sign * t_jx

    c4 = np.einsum("mai,msj,masc->mcij", A, ci.g, ci.DJ) - np.einsum(
        "maj,msi,masc->mcij", A, ci.g, ci.DJ
    )

    inner5 = np.einsum("mai,majc->mcij", A, ci.Dg) - np.einsum(
        "maj,maic->mcij", A, ci.Dg
    )
    c5 = (
        np.einsum("mai,makj->mkij", A, ci.DK)
        - np.einsum("maj,maki->mkij", A, ci.DK)
        - sign * np.einsum("mkab,mai,mbj->mkij", ci.T, A, A)
        - np.einsum("mkb,mbc,mcij->mkij", A, ci.ginv, inner5)
    )

    inner6 = np.einsum("mai,majc->mcij", ci.J, ci.Dg) - np.einsum(
        "miac,maj->mcij", ci.Dg, ci.J
    )
    c6 = (
        -np.einsum("mai,makj->mkij", ci.J, ci.DK)
        + sign * np.einsum("maj,maki->mkij", A, ci.DJ)
        - sign * np.einsum("mikj->mkij", ci.DJ)
        + np.einsum("mks,misj->mkij", ci.J, ci.DK)
        - np.einsum("mks,misj->mkij", ci.K, ci.DJ)
        + sign * np.einsum("mkb,mbc,mcij->mkij", A, ci.ginv, inner6)
        + sign * np.einsum("mkab,mai,mbj->mkij", ci.T, ci.J, A)
        - sign * np.einsum("mks,msib,mbj->mkij", ci.J, ci.T, A)
    )
    return [c1, c2, c3, c4, c5, c6]


def jp_condition_residuals(ci: ConditionInputs) -> list:
    """Six conditions equivalent to nabla-integrability of the product structure."""
    return _conditions(ci, sign=-1.0)


def jc_condition_residuals(ci: ConditionInputs) -> list:
    """Six conditions equivalent to nabla-integrability of the complex structure."""
    return _conditions(ci, sign=+1.0)


def _reduced_common(ci: ConditionInputs) -> list:
    r1 = ci.NJ
    r2 = np.einsum("mjki->mkij", ci.DJ) - np.einsum("mikj->mkij", ci.DJ)
    # (nabla_X J*) J* - (nabla_{JX} J*), as a map on one-forms, [m, i, t, c]
    r3 = np.einsum("mts,misc->mitc", ci.J, ci.DJ) - np.einsum(
        "mai,matc->mitc", ci.J, ci.DJ
    )
    return [r1, r2, r3]


def _reduced_tail(ci: ConditionInputs, A: np.ndarray) -> list:
    r4 = np.einsum("mai,msj,masc->mcij", A, ci.g, ci.DJ) - np.einsum(
        "maj,msi,masc->mcij", A, ci.g, ci.DJ
    )
    r5 = np.einsum("mai,makj->mkij", A, ci.DK) - np.einsum(
        "maj,maki->mkij", A, ci.DK
    )
    return [r4, r5]


def _reduced_final(ci: ConditionInputs, A: np.ndarray, flip: float) -> np.ndarray:
    """-(nabla_{JX}J^2)Y ± (nabla_{A Y}J)X ∓ (nabla_X J)Y + J(nabla_X J^2)Y - J^2(nabla_X J)Y."""
    return (
        -np.einsum("mai,makj->mkij", ci.J, ci.DK)
        + flip * np.einsum("maj,maki->mkij", A, ci.DJ)
        - flip * np.einsum("mikj->mkij", ci.DJ)
        + np.einsum("mks,misj->mkij", ci.J, ci.DK)
        - np.einsum("mks,misj->mkij", ci.K, ci.DJ)
    )


def jp_reduced_residuals(ci: ConditionInputs) -> list:
    """The displayed torsion-free reduction for the product case (7 entries,
    the final two kept verbatim even though they nearly coincide)."""
    a_minus = ci.eye - ci.K
    a_plus = ci.eye + ci.K
    out = _reduced_common(ci) + _reduced_tail(ci, a_minus)
    out.append(_reduced_final(ci, a_minus, flip=-1.0))
    out.append(_reduced_final(ci, a_plus, flip=+1.0))
    return out


def jc_reduced_residuals(ci: ConditionInputs) -> list:
    """The displayed torsion-free reduction for the complex case (6 entries)."""
    a_plus = ci.eye + ci.K
    out = _reduced_common(ci) + _reduced_tail(ci, a_plus)
    out.append(_reduced_final(ci, a_plus, flip=+1.0))
    return out
