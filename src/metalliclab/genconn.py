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
theirs from :func:`metalliclab.genbundle.blocks`.  No tensor here needs a
derivative of the connection.  Every contraction is a matrix product per
sample over reshaped axes, two operands at a time.
"""

from __future__ import annotations

import numpy as np

from . import genbundle as gb
from .errors import ZeroQ
from .metallic import MetallicParams

__all__ = [
    "torsion",
    "nabla_endo",
    "nabla_metric",
    "nabla_bracket",
    "gen_nijenhuis",
    "karaman_connection",
    "torsion_closed_form_values",
    "phi_of_torsion",
    "covariant_nijenhuis_rhs",
    "dhat_endo",
    "dhat_metric",
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


def _bracket_term(P: np.ndarray, D: np.ndarray) -> np.ndarray:
    """sum_k P[a, k] D[b, k, A] for every pair of two families, indexed
    [m, A, b, a]: one (m, 2n*N, n) @ (m, n, N) product per sample, with P
    the vector parts (m, N, n) and D the derivatives (m, N, n, 2n)."""
    m, N, n, size = D.shape
    rows = D.transpose(0, 3, 1, 2).reshape(m, size * N, n)
    return (rows @ _swap(P)).reshape(m, size, N, P.shape[1])


def gen_nijenhuis(gamma: np.ndarray, J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """N(e_a, e_b) = [Je_a, Je_b] - J[Je_a, e_b] - J[e_a, Je_b] + J^2 [e_a, e_b]
    for every pair of the 2n constant sections (d_1..d_n, dx^1..dx^n), all
    nabla-brackets; ``J`` is (m, 2n, 2n), ``dJ`` (m, n, 2n, 2n).  Returns
    N^A(e_a, e_b) indexed [m, A, a, b].

    Only the basis and the columns J e_a have section derivatives D.  Each
    bracket is [s_a, t_b] = S[a, b] - S[b, a] with S[a, b] = s_a^k (D t_b)_k,
    and J acts on A only, so N = S[A, b, a] - S[A, a, b] for the one sum
    S = [Je, Je] - J ([Je, e] + [e, Je]) + J^2 [e, e] of such half-brackets.
    The basis is constant: D e is -Gamma on the covector sections dx^s and 0
    on the d_i, and the vector parts of the basis are [I 0], so [e, t] is a
    transpose of D t and [e, e] is -Gamma^s_{ai} at [n + i, n + s, a].
    """
    m, N = J.shape[:2]
    n = gamma.shape[1]
    columns = _swap(J)  # J e_a is column a of J
    d_columns = _section_derivative(gamma, columns, dJ.transpose(0, 3, 1, 2))
    c = columns[..., :n]
    minus_gamma = 0.0 - gamma  # D_k dx^s at [s, k, i]: 0 - Gamma, as for a general section

    mixed = np.zeros((m, N, N, N))
    mixed[..., :n] = d_columns.transpose(0, 3, 1, 2)  # [e, Je]
    mixed[:, n:, n:] += _bracket_term(c, minus_gamma)  # [Je, e]
    half = _bracket_term(c, d_columns) - (J @ mixed.reshape(m, N, N * N)).reshape(mixed.shape)
    # J^2 [e, e]: only the rows A >= n of [e, e] are non-zero
    e_e = minus_gamma.transpose(0, 3, 1, 2).reshape(m, n, n * n)
    half[:, :, n:, :n] += ((J @ J)[..., n:] @ e_e).reshape(m, N, n, n)
    return _swap(half) - half


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


def torsion_closed_form_values(
    J_at: np.ndarray, params: MetallicParams, omega_at: np.ndarray
) -> np.ndarray:
    """Closed-form torsion on coordinate fields, [m, k, i, j]."""
    if params.q == 0:
        raise ZeroQ("the closed torsion form needs q != 0")
    n = J_at.shape[-1]
    wj = (omega_at[:, None, :] @ J_at)[:, :, None, :]  # [m, 1, 1, j]: w_s J^s_j
    # w(d_j) d_i and w(J d_j) J d_i at [k, i, j]; the display antisymmetrizes them
    plain = np.eye(n)[:, :, None] * omega_at[:, None, None, :]
    with_j = wj * J_at[..., None]
    return plain - _swap(plain) + (with_j - _swap(with_j)) / params.q


def _first(M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_s M[m, r, s] A[m, s, ...], indexed [m, r, ...]: the contraction
    over the first index of A, as one (m, r, s) @ (m, s, rest) product."""
    m, s = A.shape[:2]
    return (M @ A.reshape(m, s, -1)).reshape(M.shape[:2] + A.shape[2:])


def phi_of_torsion(T_at: np.ndarray, J_at: np.ndarray) -> np.ndarray:
    """Phi(T)(d_i, d_j) = -T(Jd_i,Jd_j) + JT(Jd_i,d_j) + JT(d_i,Jd_j) - J^2 T(d_i,d_j).

    Arrays carry a leading sample axis; output indexed [m, k, i, j].  With
    T_s the matrix [i, j] of T^s_{ij}, this is
    Phi_k = sum_s J^k_s (J^T T_s + T_s J - sum_r J^s_r T_r) - J^T T_k J.
    Phi is linear in T, so a torsion-free T (every Levi-Civita run) gives
    exact zeros without the products.
    """
    if not T_at.any():
        return np.zeros(T_at.shape)
    J = J_at[:, None]
    JtT = _swap(J_at)[:, None] @ T_at
    inner = JtT + T_at @ J - _first(J_at, T_at)
    return _first(J_at, inner) - JtT @ J


def covariant_nijenhuis_rhs(
    DJ_at: np.ndarray, T_at: np.ndarray, J_at: np.ndarray
) -> np.ndarray:
    """(nabla_{JX}J)Y - (nabla_{JY}J)X + J(nabla_Y J)X - J(nabla_X J)Y + Phi(T).

    ``DJ_at`` is [m, a, k, b] = (nabla_a J)^k_b.  With
    R[m, a, k, b] = J^c_a (nabla_c J)^k_b - J^k_c (nabla_a J)^c_b, the four
    covariant terms at (k, i, j) are R[i, k, j] - R[j, k, i].
    """
    R = _first(_swap(J_at), DJ_at) - J_at[:, None] @ DJ_at
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
    return gb.blocks(A, 0.0, 0.0, -_swap(A))


def dhat_endo(gamma: np.ndarray, J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    """(Dhat_k J) = d_k J + Omega_k J - J Omega_k for every direction, [m, k, A, B]."""
    return _endo_derivative(_gen_directional(gamma), J, dJ)


def dhat_metric(gamma: np.ndarray, ghat: np.ndarray, dghat: np.ndarray) -> np.ndarray:
    """(Dhat_k ghat) = d_k ghat - Omega_k^T ghat - ghat Omega_k, [m, k, A, B]."""
    return _metric_derivative(_gen_directional(gamma), ghat, dghat)


# ------------------------------------------------------------------
# Integrability conditions for the product / complex structures
# ------------------------------------------------------------------


def _along(M: np.ndarray, D: np.ndarray) -> np.ndarray:
    """sum_a M^a_i D[a, ...]: a derivative D[m, a, ...] taken in the direction
    M d_i, indexed [m, i, ...]."""
    return _first(_swap(M), D)


def _ddg(g: np.ndarray, Dg: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(d^nabla g)(d_i, d_j)_c = (nabla_i g)_{jc} - (nabla_j g)_{ic} + g_{cs} T^s_{ij},
    indexed [m, c, i, j]."""
    Dg = Dg.transpose(0, 3, 1, 2)
    return Dg - _swap(Dg) + _first(g, T)


# The condition lists take g [m, i, j], ginv, J [m, i, j] = J^i_j, K = J^2,
# Dg, DJ and DK [m, k, i, j] = nabla_k of g, J and J^2, the torsion T and NJ.


def _conditions(g, ginv, J, K, Dg, DJ, DK, T, NJ, sign: float) -> list:
    """The six displayed conditions; sign=-1 uses A = I - J^2 (product case),
    sign=+1 uses A = I + J^2 (complex case), with the matching term signs.

    Each term is a per-sample matrix product; the comments give the
    (output-first) layout before the final transpose.
    """
    A = np.eye(J.shape[-1]) + sign * K
    J1, g1 = J[:, None], g[:, None]
    Jt, At, Ax = _swap(J)[:, None], _swap(A)[:, None], A[:, None]
    A_sharp = A @ ginv
    # (nabla_{J d_i} g)_{jc} and (nabla_{A d_i} g)_{jc}, [c, i, j]
    g_along_J = _along(J, Dg).transpose(0, 3, 1, 2)
    g_along_A = _along(A, Dg).transpose(0, 3, 1, 2)
    # (nabla_i g)_{jc} - (nabla_j g)_{ic}, [i, j, c]
    dgasym = Dg - Dg.transpose(0, 2, 1, 3)
    # g_{cs} (nabla_a J)^s_b, [a, c, b], and (nabla_a J)^s_c g_{sb}, [a, c, b]
    g_DJ = g1 @ DJ
    DJ_g = _swap(DJ) @ g1

    c1 = NJ + sign * _first(A_sharp, _ddg(g, Dg, T))

    c2 = (
        g_along_J
        - _swap(g_along_J)
        + (dgasym @ J1).transpose(0, 3, 1, 2)
        + g_DJ.transpose(0, 2, 3, 1)
        - g_DJ.transpose(0, 2, 1, 3)
        + _first(g, T @ J1)
        + _first(g, Jt @ T)
    )

    ddg_u = (
        _swap(g_along_A)
        - (_swap(Dg) @ Ax).transpose(0, 2, 1, 3)
        + _first(g, _swap(T) @ Ax)
    )
    # (nabla_i J)^s_c (g J)_{sj} and J^a_i (nabla_a J)^s_c g_{sj}, [i, c, j]
    t_jy = (_swap(DJ) @ (g @ J)[:, None]).transpose(0, 2, 1, 3)
    t_jx = _along(J, DJ_g).transpose(0, 2, 1, 3)
    c3 = ddg_u + sign * t_jy - sign * t_jx

    c4, r5 = _reduced_tail(g, DJ, DK, A)

    inner5 = g_along_A - _swap(g_along_A)
    c5 = r5 - sign * (At @ T @ Ax) - _first(A_sharp, inner5)

    inner6 = g_along_J - (_swap(Dg) @ J1).transpose(0, 2, 1, 3)
    c6 = (
        _reduced_final(J, K, DJ, DK, A, sign)
        + sign * _first(A_sharp, inner6)
        + sign * (Jt @ T @ Ax)
        - sign * _first(J, T @ Ax)
    )
    return [c1, c2, c3, c4, c5, c6]


def jp_condition_residuals(g, ginv, J, K, Dg, DJ, DK, T, NJ) -> list:
    """Six conditions equivalent to nabla-integrability of the product structure."""
    return _conditions(g, ginv, J, K, Dg, DJ, DK, T, NJ, sign=-1.0)


def jc_condition_residuals(g, ginv, J, K, Dg, DJ, DK, T, NJ) -> list:
    """Six conditions equivalent to nabla-integrability of the complex structure."""
    return _conditions(g, ginv, J, K, Dg, DJ, DK, T, NJ, sign=+1.0)


def _reduced_common(J: np.ndarray, DJ: np.ndarray, NJ: np.ndarray) -> list:
    r1 = NJ
    DJt = DJ.transpose(0, 2, 1, 3)  # [k, i, j] = (nabla_i J)^k_j
    r2 = _swap(DJt) - DJt
    # (nabla_X J*) J* - (nabla_{JX} J*), as a map on one-forms, [m, i, t, c]
    r3 = J[:, None] @ DJ - _along(J, DJ)
    return [r1, r2, r3]


def _reduced_tail(g, DJ, DK, A: np.ndarray) -> list:
    """A^a_i (nabla_a J)^s_c g_{sj} and (nabla_{A d_i} J^2)^k_j, each minus
    its (i, j) transpose."""
    r4 = _along(A, _swap(DJ) @ g[:, None]).transpose(0, 2, 1, 3)
    r5 = _along(A, DK).transpose(0, 2, 1, 3)
    return [r4 - _swap(r4), r5 - _swap(r5)]


def _reduced_final(J, K, DJ, DK, A: np.ndarray, flip: float) -> np.ndarray:
    """-(nabla_{JX}J^2)Y ± (nabla_{A Y}J)X ∓ (nabla_X J)Y + J(nabla_X J^2)Y - J^2(nabla_X J)Y.

    The terms are summed in the layout [i, k, j] and transposed once."""
    return (
        -_along(J, DK)
        + flip * _along(A, DJ).transpose(0, 3, 2, 1)
        - flip * DJ
        + J[:, None] @ DK
        - K[:, None] @ DJ
    ).transpose(0, 2, 1, 3)


def jp_reduced_residuals(g, J, K, DJ, DK, NJ) -> list:
    """The displayed torsion-free reduction for the product case (7 entries,
    the final two kept verbatim even though they nearly coincide)."""
    eye = np.eye(J.shape[-1])
    a_minus = eye - K
    a_plus = eye + K
    out = _reduced_common(J, DJ, NJ) + _reduced_tail(g, DJ, DK, a_minus)
    out.append(_reduced_final(J, K, DJ, DK, a_minus, flip=-1.0))
    out.append(_reduced_final(J, K, DJ, DK, a_plus, flip=+1.0))
    return out


def jc_reduced_residuals(g, J, K, DJ, DK, NJ) -> list:
    """The displayed torsion-free reduction for the complex case (6 entries)."""
    a_plus = np.eye(J.shape[-1]) + K
    out = _reduced_common(J, DJ, NJ) + _reduced_tail(g, DJ, DK, a_plus)
    out.append(_reduced_final(J, K, DJ, DK, a_plus, flip=+1.0))
    return out
