"""Independent numerical oracles used by the tests.

Everything here avoids the symbolic differentiation path on purpose:
derivatives come from central finite differences (with one Richardson
step where accuracy matters), so agreement with the symbolic engine is
meaningful evidence.
"""

import numpy as np

from metalliclab import chart as ch
from metalliclab import expr as ex


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


def fd_gradient(e: ex.Expr, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    return np.array(
        [fd_partial(lambda p: ex.evaluate(e, p), x, k, h) for k in range(len(x))]
    )


def fd_christoffel(g: ch.MetricField, x, h=1e-5):
    """Koszul formula evaluated with finite-difference metric derivatives."""
    x = np.asarray(x, dtype=float)
    n = g.chart.dim

    def g_at(p):
        return ch.eval_exprs(g.comps, p.reshape(1, -1))[0]

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


def fd_riemann(conn: ch.ConnectionField, x, h=1e-5):
    """House curvature formula with finite-difference Gamma derivatives."""
    x = np.asarray(x, dtype=float)
    n = conn.chart.dim

    def gamma_at(p):
        return ch.eval_exprs(conn.comps, p.reshape(1, -1))[0]

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


def fd_nijenhuis(J: ch.EndoField, x, h=1e-5):
    """Bracket-based Nijenhuis via finite differences of the column fields."""
    x = np.asarray(x, dtype=float)
    n = J.chart.dim

    def J_at(p):
        return ch.eval_exprs(J.comps, p.reshape(1, -1))[0]

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


def lifted_jbar(g: ch.MetricField, J: ch.EndoField, flavor, z, connection=None, h=1e-3):
    """The lifted endomorphism at the bundle point z = (x, y), with numpy only.

    Forms the morphism column by column from the evaluated leaf values: the
    horizontal lifts X_i^H and the vertical images g^{jk} d/dy^k (tangent) or
    d/dy_j (cotangent).  Gamma is ``fd_christoffel`` at step ``h`` or, for an
    explicit ``connection``, its entries; the inverse is ``np.linalg.inv``.
    """
    z = np.asarray(z, dtype=float)
    n = len(z) // 2
    x, y = z[:n], z[n:]
    gv = ch.eval_exprs(g.comps, x.reshape(1, -1))[0]
    Jv = ch.eval_exprs(J.comps, x.reshape(1, -1))[0]
    if connection is None:
        gamma = fd_christoffel(g, x, h)
    else:
        gamma = ch.eval_exprs(connection.comps, x.reshape(1, -1))[0]
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


def random_expr(rng, names, depth=3):
    """A random expression over the coordinates, safe on positive domains."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(0.2, 2.5), 3))
        return names[rng.integers(0, len(names))]
    kind = rng.integers(0, 6)
    a = random_expr(rng, names, depth - 1)
    b = random_expr(rng, names, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a})*({b})"
    if kind == 3:
        return f"({a})/(3.5 + ({b})^2)"
    if kind == 4:
        fn = ("sin", "cos", "tanh", "exp")[rng.integers(0, 4)]
        if fn == "exp":
            return f"exp(-(({a}))^2)"
        return f"{fn}({a})"
    return f"(3.1 + ({a})^2)^0.5"


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
