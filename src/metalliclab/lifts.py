"""Lifted metallic structures on tangent and cotangent bundle charts.

The bundle chart doubles the base chart with fibre coordinates y^1..y^n
(tangent) or y_1..y_n (cotangent); base-field expressions stay valid there
since they only reference the first n coordinates.  The lifted structures
are built by conjugating blockdiag(J, J*) with the horizontal-lift
morphism and pulling the block metric back, then cross-checked against
their displayed frame formulas and Nijenhuis expansion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import chart as ch
from . import expr as ex
from .errors import DimensionMismatch
from .metallic import MetallicParams

__all__ = [
    "TANGENT",
    "COTANGENT",
    "LiftedChart",
    "horizontal_frame",
    "psi_matrix",
    "psi_inverse",
    "phi_matrix",
    "phi_inverse",
    "lift_structure",
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

    @property
    def total(self) -> ch.Chart:
        n = self.base.dim
        fibre_names = tuple(f"y{i + 1}" for i in range(n))
        if set(fibre_names) & set(self.base.names):
            fibre_names = tuple(f"yy{i + 1}" for i in range(n))
        return ch.Chart(
            self.base.names + fibre_names,
            self.base.box + self.fibre_box,
            seed=self.base.seed,
        )

    def fibre_coord(self, k: int) -> ex.Expr:
        return self.total.coord(self.base.dim + k)

    def sample_points(
        self, base_count: int = 32, fibre_per_base: int = 4, seed: int | None = None
    ) -> np.ndarray:
        """Base Halton samples, each paired with several uniform fibre draws."""
        if seed is None:
            seed = self.base.seed
        base_points = self.base.sample_points(base_count, seed=seed)
        rng = np.random.default_rng(seed + 1)
        n = self.base.dim
        lo = np.array([b[0] for b in self.fibre_box])
        hi = np.array([b[1] for b in self.fibre_box])
        fibre = rng.uniform(lo, hi, size=(base_count * fibre_per_base, n))
        repeated = np.repeat(base_points, fibre_per_base, axis=0)
        return np.hstack([repeated, fibre])


def horizontal_frame(lifted: LiftedChart, conn: ch.ConnectionField) -> np.ndarray:
    """Columns are the horizontal lifts X_i^H in the 2n coordinate frame.

    Tangent:   X_i^H = d_i - y^k Gamma^l_{ik} d/dy^l.
    Cotangent: X_i^H = d_i + y_k Gamma^k_{il} d/dy_l.
    """
    n = lifted.base.dim
    gamma = conn.comps
    out = np.empty((2 * n, n), dtype=object)
    for i in range(n):
        for a in range(n):
            out[a, i] = ex.const(1.0 if a == i else 0.0)
        for l in range(n):
            if lifted.flavor == TANGENT:
                out[n + l, i] = -ex.balanced_sum(
                    lifted.fibre_coord(k) * gamma[l, i, k] for k in range(n)
                )
            else:
                out[n + l, i] = ex.balanced_sum(
                    lifted.fibre_coord(k) * gamma[k, i, l] for k in range(n)
                )
    return out


def psi_matrix(
    lifted: LiftedChart,
    conn: ch.ConnectionField,
    ginv: np.ndarray,
) -> np.ndarray:
    """Tangent-flavour morphism: d_i -> X_i^H, dx^j -> g^{jk} d/dy^k."""
    n = lifted.base.dim
    out = np.empty((2 * n, 2 * n), dtype=object)
    out[:, :n] = horizontal_frame(lifted, conn)
    zero = ex.const(0.0)
    for j in range(n):
        for a in range(n):
            out[a, n + j] = zero
        for k in range(n):
            out[n + k, n + j] = ginv[j, k]
    return out


def psi_inverse(
    lifted: LiftedChart,
    conn: ch.ConnectionField,
    g: ch.MetricField,
) -> np.ndarray:
    """Closed-form inverse [[I, 0], [-g L, g]] of the block-triangular psi."""
    n = lifted.base.dim
    frame = horizontal_frame(lifted, conn)
    L = frame[n:, :]  # fibre block, L[l, i]
    gl = ch.mat_mul(g.comps, L)
    out = np.empty((2 * n, 2 * n), dtype=object)
    zero = ex.const(0.0)
    for i in range(n):
        for j in range(n):
            out[i, j] = ex.const(1.0 if i == j else 0.0)
            out[i, n + j] = zero
            out[n + i, j] = -gl[i, j]
            out[n + i, n + j] = g.comps[i, j]
    return out


def phi_matrix(lifted: LiftedChart, conn: ch.ConnectionField) -> np.ndarray:
    """Cotangent-flavour morphism: d_i -> X_i^H, dx^j -> d/dy_j."""
    n = lifted.base.dim
    out = np.empty((2 * n, 2 * n), dtype=object)
    out[:, :n] = horizontal_frame(lifted, conn)
    for j in range(n):
        for a in range(n):
            out[a, n + j] = ex.const(0.0)
        for k in range(n):
            out[n + k, n + j] = ex.const(1.0 if k == j else 0.0)
    return out


def phi_inverse(lifted: LiftedChart, conn: ch.ConnectionField) -> np.ndarray:
    n = lifted.base.dim
    frame = horizontal_frame(lifted, conn)
    out = np.empty((2 * n, 2 * n), dtype=object)
    zero = ex.const(0.0)
    for i in range(n):
        for j in range(n):
            out[i, j] = ex.const(1.0 if i == j else 0.0)
            out[i, n + j] = zero
            out[n + i, j] = -frame[n + i, j]
            out[n + i, n + j] = ex.const(1.0 if i == j else 0.0)
    return out


def _gen_metallic(J: ch.EndoField) -> np.ndarray:
    n = J.chart.dim
    zero = ch.constant_matrix(np.zeros((n, n)))
    out = np.empty((2 * n, 2 * n), dtype=object)
    out[:n, :n] = J.comps
    out[:n, n:] = zero
    out[n:, :n] = zero
    out[n:, n:] = J.comps.T
    return out


def lift_structure(
    lifted: LiftedChart,
    g: ch.MetricField,
    J: ch.EndoField,
    conn: ch.ConnectionField,
    ginv: np.ndarray | None = None,
):
    """Lifted endomorphism and metric on the bundle chart.

    Tangent:   Jbar = Psi Jm Psi^{-1},  gbar = (Psi^{-1})^T ghat Psi^{-1}.
    Cotangent: same with Phi.
    """
    if ginv is None:
        ginv = ch.inverse_metric(g)
    n = lifted.base.dim
    if lifted.flavor == TANGENT:
        forward = psi_matrix(lifted, conn, ginv)
        backward = psi_inverse(lifted, conn, g)
    else:
        forward = phi_matrix(lifted, conn)
        backward = phi_inverse(lifted, conn)
    jm = _gen_metallic(J)
    jbar = ch.mat_mul(ch.mat_mul(forward, jm), backward)
    ghat = np.empty((2 * n, 2 * n), dtype=object)
    zero = ch.constant_matrix(np.zeros((n, n)))
    ghat[:n, :n] = g.comps
    ghat[:n, n:] = zero
    ghat[n:, :n] = zero
    ghat[n:, n:] = ginv
    gbar = ch.mat_mul(ch.mat_mul(backward.T, ghat), backward)
    total = lifted.total
    return (
        ch.EndoField(total, jbar),
        ch.MetricField(total, gbar),
        forward,
        backward,
    )


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


def nijenhuis_values(jbar: ch.EndoField, points2n: np.ndarray) -> np.ndarray:
    """Bracket-built Nijenhuis of the lifted endomorphism, [m, A, B, C]."""
    field = ch.nijenhuis(jbar)
    return ch.eval_exprs(field, points2n)


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


def _candidate_curvature(R_v: np.ndarray, perm, sign: float) -> np.ndarray:
    """Candidate reading: displayed R^l_{abc} = sign * house R^l_{perm(abc)}."""
    return sign * np.einsum(f"ml{''.join(perm)}->mlabc", R_v)


def candidate_label(perm, sign: float) -> str:
    s = "+" if sign > 0 else "-"
    return f"R^l_(a b c) = {s}R_house^l_({' '.join(perm)})"


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

    Returns the per-candidate residuals, the matching equivalence classes and
    the horizontal-part residual (shared by all candidates).
    """
    n = J_v.shape[-1]
    actual = np.einsum("mabc,mbi,mcj->maij", N_v, frame_v, frame_v)
    base_expected = np.einsum("mkij,mak->maij", NJ_v, frame_v)
    horiz_gap = actual[:, :n] - base_expected[:, :n]
    vert_gap_common = actual[:, n:] - base_expected[:, n:]
    p, q = params.p, params.q
    results = []
    for perm, sign in CONVENTION_CANDIDATES:
        Rc = _candidate_curvature(R_v, perm, sign)
        if flavor == TANGENT:
            V = (
                np.einsum("mki,mhj,mrkhs->mrijs", J_v, J_v, Rc)
                - np.einsum("mrl,mki,mlkjs->mrijs", J_v, J_v, Rc)
                - np.einsum("mhj,mrl,mlihs->mrijs", J_v, J_v, Rc)
                + p * np.einsum("mrl,mlijs->mrijs", J_v, Rc)
                + q * Rc
            )
            vert_expected = -np.einsum("ms,mrijs->mrij", y, V)
        else:
            W = (
                np.einsum("mki,mhj,mlkhs->mlijs", J_v, J_v, Rc)
                - np.einsum("mrs,mki,mlkjr->mlijs", J_v, J_v, Rc)
                - np.einsum("mrs,mkj,mlikr->mlijs", J_v, J_v, Rc)
                + p * np.einsum("mks,mlijk->mlijs", J_v, Rc)
                + q * Rc
            )
            vert_expected = np.einsum("ml,mlijs->msij", y, W)
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
    phi_v: np.ndarray,
    jbar_v: np.ndarray,
    jtilde_v: np.ndarray,
) -> np.ndarray:
    """Residual of Jbar (Psi Phi^{-1}) = (Psi Phi^{-1}) Jtilde at matched samples."""
    K = psi_v @ np.linalg.inv(phi_v)
    return jbar_v @ K - K @ jtilde_v
