"""Independent numerical oracles used by the tests, the tests' own list of
the declared check ids and of those that hold on every chart, and the
seeded synthetic charts they are run on.

Everything here avoids the program's differentiation on purpose:
derivatives come from central finite differences (with one Richardson
step where accuracy matters), so agreement with the jets of
``expr.differentiate`` is meaningful evidence.
"""

import itertools
import math
import random

import numpy as np

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab import genconn as gc
from metalliclab.metallic import MetallicParams


def fd_partial(f, x, k, h=1e-5, richardson=True):
    """Central-difference d f / d x^k at x; f maps arrays to scalars/arrays."""
    x = np.asarray(x, dtype=float)

    def diff(step):
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        return (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * step)

    if not richardson:
        return diff(h)
    d1 = diff(h)
    d2 = diff(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def evaluate(e: ex.Expr, point) -> float:
    """Value of ``e`` at one point; DomainError where it is not finite."""
    point = np.asarray(point, dtype=float).reshape(1, -1)
    return float(ch.eval_exprs(np.array([e], dtype=object), point)[0, 0])


def fd_gradient(e: ex.Expr, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    return np.array([fd_partial(lambda p: evaluate(e, p), x, k, h) for k in range(len(x))])


def fd_christoffel(g, x, h=1e-5):
    """Koszul formula evaluated with finite-difference derivatives of the
    metric ``g``, an [n, n] array of Exprs."""
    x = np.asarray(x, dtype=float)
    n = len(x)

    def g_at(p):
        return ch.eval_exprs(g, p.reshape(1, -1))[0]

    gv = g_at(x)
    ginv = np.linalg.inv(gv)
    dg = np.array([fd_partial(g_at, x, k, h) for k in range(n)])  # dg[k, i, j]
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                    for l in range(n)
                )
    return gamma


def fd_riemann(gamma_at, x, h=1e-5):
    """House curvature formula with finite-difference Gamma derivatives;
    ``gamma_at`` maps a point to Gamma[k, i, j] there."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    gv = gamma_at(x)
    dgamma = np.array([fd_partial(gamma_at, x, a, h) for a in range(n)])
    R = np.zeros((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    R[l, i, j, k] = (
                        dgamma[i][l, j, k]
                        - dgamma[j][l, i, k]
                        + sum(gv[l, i, s] * gv[s, j, k] for s in range(n))
                        - sum(gv[l, j, s] * gv[s, i, k] for s in range(n))
                    )
    return R


def fd_nijenhuis(J, x, h=1e-5):
    """Bracket-based Nijenhuis via finite differences of the column fields of
    ``J``, an [n, n] array of Exprs."""
    x = np.asarray(x, dtype=float)
    n = len(x)

    def J_at(p):
        return ch.eval_exprs(J, p.reshape(1, -1))[0]

    Jv = J_at(x)
    # dcols[k][:, i] = d_k (J column i)
    dcols = [fd_partial(J_at, x, k, h) for k in range(n)]
    N = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            b1 = sum(Jv[s, i] * dcols[s][:, j] - Jv[s, j] * dcols[s][:, i] for s in range(n))
            b2 = -dcols[j][:, i]  # [J d_i, d_j]
            b3 = dcols[i][:, j]   # [d_i, J d_j]
            N[:, i, j] = b1 - Jv @ b2 - Jv @ b3
    return N


def lifted_jbar(g, J, flavor, z, connection=None, h=1e-3):
    """The lifted endomorphism at the bundle point z = (x, y), with numpy only.

    Forms the morphism column by column from the evaluated leaf values: the
    horizontal lifts X_i^H and the vertical images g^{jk} d/dy^k (tangent) or
    d/dy_j (cotangent).  Gamma is ``fd_christoffel`` at step ``h`` or, for an
    explicit ``connection``, its entries; the inverse is ``np.linalg.inv``.
    """
    z = np.asarray(z, dtype=float)
    n = len(z) // 2
    x, y = z[:n], z[n:]
    gv = ch.eval_exprs(g, x.reshape(1, -1))[0]
    Jv = ch.eval_exprs(J, x.reshape(1, -1))[0]
    if connection is None:
        gamma = fd_christoffel(g, x, h)
    else:
        gamma = ch.eval_exprs(connection, x.reshape(1, -1))[0]
    P = np.zeros((2 * n, 2 * n))
    for i in range(n):
        P[i, i] = 1.0
        for l in range(n):
            if flavor == "tangent":
                P[n + l, i] = -sum(y[k] * gamma[l, i, k] for k in range(n))
            else:
                P[n + l, i] = sum(y[k] * gamma[k, i, l] for k in range(n))
    P[n:, n:] = np.linalg.inv(gv) if flavor == "tangent" else np.eye(n)
    jm = np.zeros((2 * n, 2 * n))
    jm[:n, :n] = Jv
    jm[n:, n:] = Jv.T
    return P @ jm @ np.linalg.inv(P)


def fd_lifted_nijenhuis(g, J, flavor, z, connection=None, h=1e-5):
    """N^C_{AB} of the lifted endomorphism at z, [C, A, B], from the bracket
    N(e_A, e_B) = [J e_A, J e_B] - J[J e_A, e_B] - J[e_A, J e_B] on the
    coordinate fields, with central differences in all 2n coordinates."""
    z = np.asarray(z, dtype=float)
    size = len(z)

    def jbar_at(p):
        return lifted_jbar(g, J, flavor, p, connection)

    Jv = jbar_at(z)
    dcols = [fd_partial(jbar_at, z, k, h) for k in range(size)]  # dcols[k][:, a]
    N = np.zeros((size, size, size))
    for a in range(size):
        for b in range(size):
            bracket = sum(
                Jv[s, a] * dcols[s][:, b] - Jv[s, b] * dcols[s][:, a] for s in range(size)
            )
            # [J e_a, e_b] = -d_b (J e_a) and [e_a, J e_b] = d_a (J e_b)
            N[:, a, b] = bracket + Jv @ dcols[b][:, a] - Jv @ dcols[a][:, b]
    return N


def _oracle_bracket(gamma, s, ds, t, dt):
    """[X+a, Y+b] = [X,Y] + nabla_X b - nabla_Y a at one point, term by term.

    ``gamma[k, i, j]`` = Gamma^k_{ij}; ``s``, ``t`` are sections (2n,) and
    ``ds[k]``, ``dt[k]`` their partials d_k.
    """
    n = gamma.shape[0]
    X, alpha, Y, beta = s[:n], s[n:], t[:n], t[n:]
    out = np.zeros(2 * n)
    for i in range(n):
        for k in range(n):
            out[i] += X[k] * dt[k][i] - Y[k] * ds[k][i]
            nabla_beta = dt[k][n + i] - sum(gamma[r, k, i] * beta[r] for r in range(n))
            nabla_alpha = ds[k][n + i] - sum(gamma[r, k, i] * alpha[r] for r in range(n))
            out[n + i] += X[k] * nabla_beta - Y[k] * nabla_alpha
    return out


def fd_bracket(s_at, t_at, gamma, x, h=1e-5):
    """nabla-bracket of two sections given as functions of the point, at x;
    their partials come from central differences."""
    x = np.asarray(x, dtype=float)
    ds = [fd_partial(s_at, x, k, h) for k in range(len(x))]
    dt = [fd_partial(t_at, x, k, h) for k in range(len(x))]
    return _oracle_bracket(gamma, s_at(x), ds, t_at(x), dt)


def fd_gen_nijenhuis(jhat_at, gamma, x, h=1e-5):
    """N(e_a, e_b)^A of a generalized endomorphism at x, [A, a, b].

    ``jhat_at`` maps a point to the (2n, 2n) matrix; the partials of its
    columns come from central differences, the brackets from
    :func:`_oracle_bracket` with the connection values ``gamma`` at x.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    J = jhat_at(x)
    size = J.shape[0]
    dcols = [fd_partial(jhat_at, x, k, h) for k in range(n)]  # dcols[k][:, a]
    eye = np.eye(size)
    flat = [np.zeros(size)] * n
    out = np.zeros((size, size, size))
    for a in range(size):
        ja, dja = J[:, a], [d[:, a] for d in dcols]
        for b in range(size):
            jb, djb = J[:, b], [d[:, b] for d in dcols]
            out[:, a, b] = (
                _oracle_bracket(gamma, ja, dja, jb, djb)
                - J @ _oracle_bracket(gamma, ja, dja, eye[b], flat)
                - J @ _oracle_bracket(gamma, eye[a], flat, jb, djb)
                + J @ J @ _oracle_bracket(gamma, eye[a], flat, eye[b], flat)
            )
    return out


def nabla_loop(gamma, T, dT, metric=False):
    """nabla_k of an endomorphism (or, with ``metric``, of a (0,2) form) at one
    point, [k, i, j], entry by entry from gamma[k, i, j] = Gamma^k_{ij}, the
    values T and the partials dT[k, i, j] = d_k T[i, j]."""
    n = len(T)
    out = np.zeros((n, n, n))
    for k, i, j in np.ndindex(n, n, n):
        if metric:
            terms = (gamma[s, k, i] * T[s, j] + gamma[s, k, j] * T[i, s] for s in range(n))
            out[k, i, j] = dT[k, i, j] - sum(terms)
        else:
            terms = (gamma[i, k, s] * T[s, j] - gamma[s, k, j] * T[i, s] for s in range(n))
            out[k, i, j] = dT[k, i, j] + sum(terms)
    return out


def fd_dhat(mat_at, gamma, x, metric=False, h=1e-5):
    """Dhat_k of a generalized endomorphism (or, with ``metric``, of a
    generalized (0,2) form) at x, [k, A, B], with the partials of the matrix
    from central differences and Omega_k written out entry by entry."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    M = mat_at(x)
    out = np.zeros((n,) + M.shape)
    for k in range(n):
        omega = np.zeros(M.shape)
        for s in range(n):
            for a in range(n):
                omega[s, a] = gamma[s, k, a]
                omega[n + s, n + a] = -gamma[a, k, s]
        dM = fd_partial(mat_at, x, k, h)
        if metric:
            out[k] = dM - omega.T @ M - M @ omega
        else:
            out[k] = dM + omega @ M - M @ omega
    return out


def karaman_F(g, J, w, q):
    """F^k_{ij} of the semi-symmetric connection at one point, entry by entry."""
    n = len(w)
    ginv = np.linalg.inv(g)
    wj = [sum(w[s] * J[s, j] for s in range(n)) for j in range(n)]
    gj = g @ J
    F = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                F[k, i, j] = (
                    (w[j] if k == i else 0.0)
                    - sum(w[l] * ginv[l, k] for l in range(n)) * g[i, j]
                    + wj[j] * J[k, i] / q
                    - sum(wj[l] * ginv[l, k] for l in range(n)) * gj[i, j] / q
                )
    return F


def phi_of_torsion_loop(T, J):
    """Phi(T)(d_i, d_j) = -T(Jd_i,Jd_j) + JT(Jd_i,d_j) + JT(d_i,Jd_j) - J^2 T(d_i,d_j),
    sample by sample and entry by entry; ``T[m, k, a, b]`` = T^k_{ab},
    ``J[m, k, a]`` = J^k_a, output [m, k, i, j]."""
    m, n = J.shape[:2]
    out = np.zeros((m, n, n, n))
    for p in range(m):

        def apply_J(v):
            return [sum(J[p, k, a] * v[a] for a in range(n)) for k in range(n)]

        def apply_T(u, v):
            return [
                sum(T[p, k, a, b] * u[a] * v[b] for a in range(n) for b in range(n))
                for k in range(n)
            ]

        basis = [[1.0 if a == i else 0.0 for a in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                di, dj = basis[i], basis[j]
                terms = (
                    apply_T(apply_J(di), apply_J(dj)),
                    apply_J(apply_T(apply_J(di), dj)),
                    apply_J(apply_T(di, apply_J(dj))),
                    apply_J(apply_J(apply_T(di, dj))),
                )
                for k in range(n):
                    out[p, k, i, j] = -terms[0][k] + terms[1][k] + terms[2][k] - terms[3][k]
    return out


def covariant_nijenhuis_rhs_loop(DJ, T, J):
    """(nabla_{JX}J)Y - (nabla_{JY}J)X + J(nabla_Y J)X - J(nabla_X J)Y + Phi(T)
    at X = d_i, Y = d_j, sample by sample and entry by entry;
    ``DJ[m, a, k, b]`` = (nabla_a J)^k_b, output [m, k, i, j]."""
    m, n = J.shape[:2]
    out = phi_of_torsion_loop(T, J)
    for p in range(m):

        def nabla_J(direction, v):
            """(nabla_direction J) v."""
            return [
                sum(direction[a] * DJ[p, a, k, b] * v[b] for a in range(n) for b in range(n))
                for k in range(n)
            ]

        def apply_J(v):
            return [sum(J[p, k, a] * v[a] for a in range(n)) for k in range(n)]

        basis = [[1.0 if a == i else 0.0 for a in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                X, Y = basis[i], basis[j]
                terms = (
                    nabla_J(apply_J(X), Y),
                    nabla_J(apply_J(Y), X),
                    apply_J(nabla_J(Y, X)),
                    apply_J(nabla_J(X, Y)),
                )
                for k in range(n):
                    out[p, k, i, j] += terms[0][k] - terms[1][k] + terms[2][k] - terms[3][k]
    return out


def scrambled_halton_loop(d, count, seed):
    """Owen-scrambled Halton points with every digit of every index run
    through divmod and its permutation, exhausted digits included."""
    rng = np.random.default_rng(seed)
    index = np.arange(count)
    unit = np.empty((count, d))
    for axis, base in enumerate((2, 3, 5, 7, 11, 13)[:d]):
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


# ------------------------------------------------------------------
# Contractions as einsum specifications, index by index: the oracles of
# the per-sample matrix products in genconn and lifts
# ------------------------------------------------------------------


def gen_nijenhuis_loop(gamma, J, dJ):
    """N^A(e_a, e_b) [m, A, a, b] of a generalized endomorphism, one pair of
    basis sections at a time, each bracket from ``genconn.nabla_bracket``."""
    m, size = J.shape[:2]
    n = gamma.shape[1]
    flat = np.zeros((m, n, size))

    def apply(M, v):
        return (M @ v[..., None])[..., 0]

    def bracket(s, ds, t, dt):
        return gc.nabla_bracket(gamma, s, ds, t, dt)

    out = np.zeros((m, size, size, size))
    for a in range(size):
        ea, ca, dca = np.broadcast_to(np.eye(size)[a], (m, size)), J[:, :, a], dJ[:, :, :, a]
        for b in range(size):
            eb, cb, dcb = np.broadcast_to(np.eye(size)[b], (m, size)), J[:, :, b], dJ[:, :, :, b]
            out[:, :, a, b] = (
                bracket(ca, dca, cb, dcb)
                - apply(J, bracket(ca, dca, eb, flat))
                - apply(J, bracket(ea, flat, cb, dcb))
                + apply(J @ J, bracket(ea, flat, eb, flat))
            )
    return out


def torsion_closed_form_spec(J, q, omega):
    n = J.shape[-1]
    eye = np.eye(n)
    wj = np.einsum("ms,msj->mj", omega, J)
    return (
        np.einsum("mj,ki->mkij", omega, eye)
        - np.einsum("mi,kj->mkij", omega, eye)
        + (np.einsum("mj,mki->mkij", wj, J) - np.einsum("mi,mkj->mkij", wj, J)) / q
    )


def conditions_spec(ci, sign):
    """The six integrability conditions of ``genconn`` (sign -1: Jp, +1: Jc)."""
    A = ci.eye + sign * ci.K
    ddg = (
        ci.Dg
        - ci.Dg.transpose(0, 2, 1, 3)
        + np.einsum("mcs,msij->mijc", ci.g, ci.T)
    )
    dgasym = ci.Dg - ci.Dg.transpose(0, 2, 1, 3)
    c1 = ci.NJ + sign * np.einsum("mka,mac,mijc->mkij", A, ci.ginv, ddg)
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
    c4, r5 = reduced_tail_spec(ci, A)
    inner5 = np.einsum("mai,majc->mcij", A, ci.Dg) - np.einsum("maj,maic->mcij", A, ci.Dg)
    c5 = (
        r5
        - sign * np.einsum("mkab,mai,mbj->mkij", ci.T, A, A)
        - np.einsum("mkb,mbc,mcij->mkij", A, ci.ginv, inner5)
    )
    inner6 = np.einsum("mai,majc->mcij", ci.J, ci.Dg) - np.einsum("miac,maj->mcij", ci.Dg, ci.J)
    c6 = (
        reduced_final_spec(ci, A, sign)
        + sign * np.einsum("mkb,mbc,mcij->mkij", A, ci.ginv, inner6)
        + sign * np.einsum("mkab,mai,mbj->mkij", ci.T, ci.J, A)
        - sign * np.einsum("mks,msib,mbj->mkij", ci.J, ci.T, A)
    )
    return [c1, c2, c3, c4, c5, c6]


def reduced_tail_spec(ci, A):
    r4 = np.einsum("mai,msj,masc->mcij", A, ci.g, ci.DJ) - np.einsum(
        "maj,msi,masc->mcij", A, ci.g, ci.DJ
    )
    r5 = np.einsum("mai,makj->mkij", A, ci.DK) - np.einsum("maj,maki->mkij", A, ci.DK)
    return [r4, r5]


def reduced_final_spec(ci, A, flip):
    return (
        -np.einsum("mai,makj->mkij", ci.J, ci.DK)
        + flip * np.einsum("maj,maki->mkij", A, ci.DJ)
        - flip * np.einsum("mikj->mkij", ci.DJ)
        + np.einsum("mks,misj->mkij", ci.J, ci.DK)
        - np.einsum("mks,misj->mkij", ci.K, ci.DJ)
    )


def reduced_spec(ci, sign):
    """The torsion-free reductions of ``genconn`` (sign -1: Jp, 7 entries; +1: Jc, 6)."""
    a_plus = ci.eye + ci.K
    common = [
        ci.NJ,
        np.einsum("mjki->mkij", ci.DJ) - np.einsum("mikj->mkij", ci.DJ),
        np.einsum("mts,misc->mitc", ci.J, ci.DJ) - np.einsum("mai,matc->mitc", ci.J, ci.DJ),
    ]
    if sign > 0:
        return common + reduced_tail_spec(ci, a_plus) + [reduced_final_spec(ci, a_plus, 1.0)]
    a_minus = ci.eye - ci.K
    return (
        common
        + reduced_tail_spec(ci, a_minus)
        + [reduced_final_spec(ci, a_minus, -1.0), reduced_final_spec(ci, a_plus, 1.0)]
    )


def lift_spec(tangent, y, g, ginv, J, gamma, dg, dJ, dgamma, dginv):
    """(jbar, djbar) of ``lifts.jbar`` and ``lifts.djbar``, with L = y_k dL/dy_k
    and its base partials contracted as einsums."""
    m, n = J.shape[:2]
    Jt, dJt = np.swapaxes(J, -1, -2), np.swapaxes(dJ, -1, -2)
    if tangent:
        C, D = -gamma.transpose(0, 3, 1, 2), ginv @ Jt @ g
        dC = -dgamma.transpose(0, 1, 4, 2, 3)
        dD = (
            dginv @ (Jt @ g)[:, None]
            + ginv[:, None] @ dJt @ g[:, None]
            + (ginv @ Jt)[:, None] @ dg
        )
    else:
        C, D = gamma.transpose(0, 1, 3, 2), Jt
        dC, dD = dgamma.transpose(0, 1, 2, 4, 3), dJt
    L = np.einsum("mk,mkli->mli", y, C)
    dL = np.einsum("mk,makli->mali", y, dC)
    jbar = np.zeros((m, 2 * n, 2 * n))
    jbar[:, :n, :n], jbar[:, n:, :n], jbar[:, n:, n:] = J, L @ J - D @ L, D
    djbar = np.zeros((m, 2 * n, 2 * n, 2 * n))
    djbar[:, :n, :n, :n] = dJ
    djbar[:, :n, n:, :n] = (
        dL @ J[:, None] + L[:, None] @ dJ - dD @ L[:, None] - D[:, None] @ dL
    )
    djbar[:, :n, n:, n:] = dD
    djbar[:, n:, n:, :n] = C @ J[:, None] - D[:, None] @ C
    return jbar, djbar


def frame_endo_spec(jbar, frame, J, tangent):
    n = J.shape[-1]
    horiz = np.einsum("mab,mbi->mai", jbar, frame) - np.einsum("mki,mak->mai", J, frame)
    vert = jbar[:, :, n:].copy()
    vert[:, n:, :] -= J if tangent else np.swapaxes(J, -1, -2)
    m = J.shape[0]
    return np.concatenate([horiz.reshape(m, -1), vert.reshape(m, -1)], axis=1)


def coordinate_endo_spec(jbar, J, gamma, y, tangent):
    n = J.shape[-1]
    out = jbar[:, :, :n].copy()
    out[:, :n, :] -= J
    if tangent:
        out[:, n:, :] -= -np.einsum("ml,mki,mskl->msi", y, J, gamma) + np.einsum(
            "ml,msr,mril->msi", y, J, gamma
        )
    else:
        out[:, n:, :] -= np.einsum("ml,mki,mlkr->mri", y, J, gamma) - np.einsum(
            "ml,msr,mlis->mri", y, J, gamma
        )
    return out


def frame_metric_spec(gbar, frame, g, ginv, tangent):
    n, m = g.shape[-1], g.shape[0]
    hh = np.einsum("mai,mab,mbj->mij", frame, gbar, frame) - g
    hv = np.einsum("mai,mab->mib", frame, gbar)[:, :, n:]
    vv = gbar[:, n:, n:] - (g if tangent else ginv)
    return np.concatenate([hh.reshape(m, -1), hv.reshape(m, -1), vv.reshape(m, -1)], axis=1)


def coordinate_metric_spec(gbar, g, ginv, gamma, y, tangent):
    n, m = g.shape[-1], g.shape[0]
    if tangent:
        xx = gbar[:, :n, :n] - g - np.einsum("mk,mh,mlik,msjh,mls->mij", y, y, gamma, gamma, g)
        xv = gbar[:, :n, n:] - np.einsum("mk,mlik,mlj->mij", y, gamma, g)
    else:
        xx = gbar[:, :n, :n] - g - np.einsum(
            "mk,mh,mkil,mhjr,mlr->mij", y, y, gamma, gamma, ginv
        )
        xv = gbar[:, :n, n:] + np.einsum("mk,mkil,mlj->mij", y, gamma, ginv)
    return np.concatenate([xx.reshape(m, -1), xv.reshape(m, -1)], axis=1)


def mixed_display_spec(N, frame, J, DJ, tangent, literal=False):
    n = J.shape[-1]
    out = np.einsum("mabc,mbi->maic", N, frame)[:, :, :, n:]
    if tangent or literal:
        M = np.einsum("mai,mark->mrik", J, DJ) - np.einsum("mrs,misk->mrik", J, DJ)
    else:
        M = np.einsum("mai,mark->mrik", J, DJ) - np.einsum("mirs,msk->mrik", DJ, J)
    out[:, n:] -= M if tangent else np.einsum("mjik->mkij", M)
    return out


def horizontal_display_spec(N, frame, J, NJ, R, y, p, q, tangent):
    """The horizontal-part gap, the vertical gap before the curvature term, and
    the displayed vertical curvature term for each reading of R by index
    permutation: terms[perm] reads the displayed R^l_(a b c) as the house
    R^l_(perm(a b c)), and terms[("a", "b", "c")] is the one the program checks."""
    n = J.shape[-1]
    actual = np.einsum("mabj,mbi->maij", np.einsum("mabc,mcj->mabj", N, frame), frame)
    gap = actual - np.einsum("mkij,mak->maij", NJ, frame)
    terms = {}
    for perm in itertools.permutations("abc"):
        Rc = np.einsum(f"ml{''.join(perm)}->mlabc", R)
        if tangent:
            X = np.einsum("mrabs,ms->mrab", Rc, y)
            JX = np.einsum("mrl,mlab->mrab", J, X)
        else:
            X = np.einsum("ml,mlabr->mrab", y, Rc)
            JX = np.einsum("mlr,mlab->mrab", J, X)
        inner = (
            np.einsum("mxa,mrxy,myb->mrab", J, X, J)
            - np.einsum("mxa,mrxb->mrab", J, JX)
            - np.einsum("mrax,mxb->mrab", JX, J)
            + p * JX
            + q * X
        )
        terms[perm] = -inner if tangent else inner
    return gap[:, :n], gap[:, n:], terms


def matching_readings(N, frame, J, NJ, R, y, p, q, tangent, tol=1e-7):
    """The largest horizontal-part gap, and the readings of the displayed
    curvature (6 index orders times 2 signs) whose vertical gap is at most
    ``tol``: the search that tells which convention the data decides.  A
    reading (sign, perm), such as ("-", ("b", "a", "c")), reads the displayed
    R^l_(a b c) as -R_house^l_(b a c).

    N, frame and y are lifted arrays [m, F, ...] and J, NJ and R base arrays
    [m, ...], as the program holds them; the spec reads one row per lifted
    sample, so the base arrays are repeated over the F fibre points."""
    fibre = y.shape[1]
    N, frame, y = (a.reshape((-1,) + a.shape[2:]) for a in (N, frame, y))
    J, NJ, R = (np.repeat(a, fibre, axis=0) for a in (J, NJ, R))
    horiz, vert, terms = horizontal_display_spec(N, frame, J, NJ, R, y, p, q, tangent)
    matching = {
        (sign, perm)
        for perm, term in terms.items()
        for sign, factor in (("+", 1.0), ("-", -1.0))
        if np.abs(vert - factor * term).max() <= tol
    }
    return np.abs(horiz).max(), matching


def per_sample_worst(residuals, points):
    """The largest absolute entry of per-sample residual arrays (one array or a
    list) and the point of its sample, through one maximum per sample with NaN
    read as infinite: the oracle of the MAX rule (``suites.MAX``)."""
    if isinstance(residuals, (list, tuple)):
        m = np.asarray(residuals[0]).shape[0]
        residuals = np.concatenate(
            [np.abs(np.asarray(r, dtype=float)).reshape(m, -1) for r in residuals], axis=1
        )
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        return 0.0, None
    per_point = np.abs(residuals).reshape(residuals.shape[0], -1).max(axis=1)
    per_point[np.isnan(per_point)] = np.inf
    worst = int(np.argmax(per_point))
    return float(per_point[worst]), tuple(float(v) for v in np.asarray(points, dtype=float)[worst])


def random_compatible_pair(rng: np.random.Generator, n: int, params: MetallicParams):
    """Random pointwise pair (g, J): g SPD, J metallic and g-symmetric.

    g = A^T A + 0.1 I; P projects g-orthogonally onto a random subspace
    (spanning columns g-orthonormalised first, which keeps P well
    conditioned); J = sigma P + (p - sigma)(I - P). Both invariants hold
    by construction.
    """
    a = rng.normal(size=(n, n))
    g = a.T @ a + 0.1 * np.eye(n)
    k = int(rng.integers(0, n + 1))
    if k == 0:
        proj = np.zeros((n, n))
    else:
        v = rng.normal(size=(n, k))
        for col in range(k):  # Gram-Schmidt in the g inner product
            for prev in range(col):
                v[:, col] -= (v[:, prev] @ g @ v[:, col]) * v[:, prev]
            v[:, col] /= math.sqrt(v[:, col] @ g @ v[:, col])
        proj = v @ v.T @ g
    J = params.sigma * proj + params.sigma_other * (np.eye(n) - proj)
    return g, J


def signature_by_congruence(G: np.ndarray, threshold: float = 1e-10):
    """Signature (n_plus, n_minus) by symmetric Gaussian elimination, a congruence:
    the oracle of ``genbundle.neutral_signature``, which reads eigenvalues."""
    A = np.array(G, dtype=float)
    pivots = []
    while A.size:
        k = int(np.argmax(np.abs(np.diag(A))))
        if abs(A[k, k]) < threshold:
            # make a diagonal entry non-zero from an off-diagonal one: e_i + e_j
            i, j = np.unravel_index(np.argmax(np.abs(np.triu(A, 1))), A.shape)
            if abs(A[i, j]) < threshold:
                raise ValueError("form is degenerate under congruence reduction")
            A[i, :] += A[j, :]
            A[:, i] += A[:, j]
            continue
        pivots.append(A[k, k])
        A = np.delete(np.delete(A - np.outer(A[:, k], A[k]) / A[k, k], k, 0), k, 1)
    return sum(int(d > 0) for d in pivots), sum(int(d < 0) for d in pivots)


# ------------------------------------------------------------------
# the declared check ids by suite, and the checks that hold on every chart
# ------------------------------------------------------------------

DECLARED = {
    "core": (
        "metric-spd",
        "metallic-equation",
        "compatibility",
        "levi-civita-metric-parallel",
        "bianchi-first",
        "locally-metallic",
        "nijenhuis-covariant-identity",
    ),
    "genbundle": (
        "jm-ghat-symmetric",
        "jm-metallic",
        "jp-squares-to-identity",
        "jc-squares-to-minus-identity",
        "jc-jp-anticommute",
        "neutral-signature",
        "calibration",
        "derived-family",
        "fhat-with-df-equal-j",
    ),
    "genconn": (
        "nabla-bracket-antisymmetry",
        "jm-gen-nijenhuis-mixed-identity",
        "jm-gen-nijenhuis",
        "jp-gen-nijenhuis",
        "jc-gen-nijenhuis",
        "jp-integrability-conditions",
        "jc-integrability-conditions",
        "jp-reduced-conditions",
        "jc-reduced-conditions",
        "covariant-nijenhuis-identity-levi-civita",
        "covariant-nijenhuis-identity-karaman",
        "dhat-jm",
        "dhat-ghat",
    ),
    "karaman": (
        "metric-parallel",
        "endo-parallel",
        "torsion-closed-form",
        "torsion-j-commutation",
        "phi-torsion-vanishes",
        "jm-d-integrable",
        "dhat-jm-parallel",
        "dhat-jp-parallel",
        "dhat-jc-parallel",
        "dhat-ghat-parallel",
        "random-omega-sweep",
    ),
    "lifts-tangent": (
        "metallic-equation",
        "compatibility",
        "frame-endo-display",
        "coordinate-endo-display",
        "metric-frame-components",
        "metric-coordinate-displays",
        "nijenhuis-vertical-vertical",
        "nijenhuis-mixed-display",
        "nijenhuis-horizontal-display",
        "nijenhuis-vanishes",
    ),
    "commutation": ("jm-lift-intertwine",),
}
DECLARED["lifts-cotangent"] = DECLARED["lifts-tangent"]

# checks that hold for every metallic Riemannian pair and every 1-form; the
# others depend on nabla J = 0 or on integrability
IDENTITIES = (
    "core/metric-spd",
    "core/metallic-equation",
    "core/compatibility",
    "core/levi-civita-metric-parallel",
    "core/bianchi-first",
    "core/nijenhuis-covariant-identity",
    *(f"genbundle/{name}" for name in DECLARED["genbundle"]),
    "genconn/nabla-bracket-antisymmetry",
    "genconn/jm-gen-nijenhuis-mixed-identity",
    "genconn/covariant-nijenhuis-identity-levi-civita",
    "genconn/covariant-nijenhuis-identity-karaman",
    "genconn/dhat-ghat",
    "karaman/metric-parallel",
    "karaman/torsion-closed-form",
    "karaman/torsion-j-commutation",
    "karaman/phi-torsion-vanishes",
    "karaman/dhat-ghat-parallel",
    *(
        f"{suite}/{name}"
        for suite in ("lifts-tangent", "lifts-cotangent")
        for name in DECLARED[suite]
        if name not in ("metric-coordinate-displays", "nijenhuis-vanishes")
    ),
    "commutation/jm-lift-intertwine",
)


# ------------------------------------------------------------------
# seeded synthetic charts of every dimension the schema accepts
# ------------------------------------------------------------------

# diagonal metric entries, each positive on [0.2, 1.1]^n for the drawn
# coefficients a in [1, 2] and b in [0.2, 0.9] and distinct coordinates u, v
DIAGONAL_ENTRIES = {
    "trig": ("{a} + {b}*sin({u})*{v}", "{a} + {b}*cos({u})*{v}", "{a} + {b}*exp({u})*{v}"),
    "smooth": (
        "2.5 + sin({u})",
        "2 + 0.5*cos({u})*cos({v})",
        "exp(0.4*{u})",
        "3 + 0.3*{u}^2",
        "2 + tanh({u}*{v})",
    ),
}
FAMILIES = (*DIAGONAL_ENTRIES, "coupled")
OMEGA_TEMPLATES = ("{c}*{u} + {v}", "{c}*{u}*{v}", "sin({c}*{u}) + {v}")
PQ = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 2.0))


def synthetic_chart(n: int, family: str, seed: int) -> dict:
    """A scenario of all seven suites at 16 samples, with a metric of
    ``family``, a projection J and a 1-form drawn from ``seed`` by
    ``random.Random``; same arguments, same dict.

    ``trig`` and ``smooth`` draw a diagonal metric and a constant diagonal
    projection of any rank 0..n.  ``coupled`` draws g_ij = delta_ij (a_i +
    b_i sin x_{i+1}) + 0.1 x_i x_j and the rank-one P = v (g v)^T / (v^T g v),
    with v_i = 1 + 0.3 x_{i+2} at odd i and a constant at even i (indices
    from 1, mod n), written out entry by entry: J and its partials vary.
    """
    rng = random.Random(seed)
    x = [f"x{i}" for i in range(1, n + 1)]

    def fill(templates):
        u, v = rng.sample(x, 2)
        return rng.choice(templates).format(
            a=f"{rng.uniform(1.0, 2.0):.3f}", b=f"{rng.uniform(0.2, 0.9):.3f}",
            c=f"{rng.uniform(0.5, 1.5):.3f}", u=u, v=v,
        )

    if family == "coupled":
        metric = [[f"0.1*{x[min(i, j)]}*{x[max(i, j)]}" for j in range(n)] for i in range(n)]
        for i in range(n):
            a, b = rng.uniform(1.5, 2.5), rng.uniform(0.1, 0.3)
            metric[i][i] = f"{a:.3f} + {b:.3f}*sin({x[(i + 1) % n]}) + " + metric[i][i]
        v = [f"1 + 0.3*{x[(i + 2) % n]}" if i % 2 == 0 else f"{rng.uniform(0.3, 0.9):.3f}"
             for i in range(n)]
        gv = [" + ".join(f"({metric[j][k]})*({v[k]})" for k in range(n)) for j in range(n)]
        norm = " + ".join(f"({v[j]})*({gv[j]})" for j in range(n))
        projection = [[f"({v[i]})*({gv[j]})/({norm})" for j in range(n)] for i in range(n)]
    else:
        metric = [[fill(DIAGONAL_ENTRIES[family]) if i == j else "0" for j in range(n)]
                  for i in range(n)]
        ones = rng.sample(range(n), rng.randint(0, n))
        projection = [["1" if i == j and i in ones else "0" for j in range(n)] for i in range(n)]
    p, q = rng.choice(PQ)
    return {
        "schema_version": 1,
        "name": f"{family}-{n}-{seed}",
        "dimension": n,
        "coordinates": x,
        "domain": [[0.2, 1.1]] * n,
        "p": p,
        "q": q,
        "metric": metric,
        "J": {"projection": projection},
        "omega": [fill(OMEGA_TEMPLATES) for _ in range(n)],
        "connection": "levi-civita",
        "suites": list(DECLARED),
        "samples": 16,
        "seed": seed,
        "tolerance": 1e-9,
    }
