"""Metallic structures: parameters, compatibility, conversions, integrability."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chart as ch
from . import expr as ex
from .errors import (
    ComplexDiscriminant,
    DegenerateDiscriminant,
    DimensionMismatch,
    NotAProductStructure,
    NotAProjection,
    ZeroQ,
)
from .report import CheckResult, from_residuals

__all__ = [
    "MetallicParams",
    "MetallicStructure",
    "metallic_number",
    "check_metallic",
    "check_compatible",
    "from_projection",
    "product_from_metallic",
    "metallic_from_product",
    "is_locally_metallic",
    "inverse_metallic",
    "check_metallic_map",
    "random_compatible_pair",
]


def metallic_number(p: float, q: float) -> float:
    """Larger root of x^2 - p x - q; requires a non-negative discriminant."""
    disc = p * p + 4.0 * q
    if disc < 0:
        raise ComplexDiscriminant(f"p^2 + 4q = {disc} < 0")
    return (p + math.sqrt(disc)) / 2.0


@dataclass(frozen=True)
class MetallicParams:
    p: float
    q: float

    @property
    def discriminant(self) -> float:
        return self.p * self.p + 4.0 * self.q

    @property
    def sigma(self) -> float:
        return metallic_number(self.p, self.q)

    @property
    def sigma_other(self) -> float:
        """The second root p - sigma."""
        return self.p - self.sigma


@dataclass(frozen=True)
class MetallicStructure:
    params: MetallicParams
    J: ch.EndoField
    g: ch.MetricField | None
    chart: ch.Chart


def _endo_residual(values: np.ndarray, p: float, q: float) -> np.ndarray:
    eye = np.eye(values.shape[-1])
    return values @ values - p * values - q * eye


def check_metallic(
    J: ch.EndoField, params: MetallicParams, points, tolerance: float = 1e-10
) -> CheckResult:
    """Max-norm residual of J^2 - pJ - qI over the samples."""
    values = J.eval(points)
    res = _endo_residual(values, params.p, params.q)
    return from_residuals(
        "metallic-equation", "J^2 = p J + q I", res, points, tolerance
    )


def check_compatible(
    J: ch.EndoField, g: ch.MetricField, points, tolerance: float = 1e-10
) -> CheckResult:
    """g J must be a symmetric matrix at every sample: g(JX,Y) = g(X,JY)."""
    memo: dict = {}
    gv = g.eval(points, memo)
    jv = J.eval(points, memo)
    gj = gv @ jv
    res = gj - np.swapaxes(gj, -1, -2)
    return from_residuals(
        "compatibility", "g(JX,Y) = g(X,JY)", res, points, tolerance
    )


def from_projection(
    chart_: ch.Chart,
    P: ch.EndoField,
    params: MetallicParams,
    g: ch.MetricField | None = None,
    probe_points=None,
    tolerance: float = 1e-10,
) -> MetallicStructure:
    """Build J = sigma P + (p - sigma)(I - P) from a g-symmetric projection."""
    if params.discriminant < 0:
        raise ComplexDiscriminant(f"p^2 + 4q = {params.discriminant} < 0")
    if probe_points is None:
        probe_points = chart_.sample_points(8)
    pv = P.eval(probe_points)
    if np.abs(pv @ pv - pv).max() > tolerance:
        raise NotAProjection("P^2 != P at sample points")
    if g is not None:
        gv = g.eval(probe_points)
        gp = gv @ pv
        if np.abs(gp - np.swapaxes(gp, -1, -2)).max() > tolerance:
            raise NotAProjection("g P is not symmetric at sample points")
    sigma = params.sigma
    other = params.sigma_other
    n = chart_.dim
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            eye = 1.0 if i == j else 0.0
            comps[i, j] = (
                ex.const(sigma) * P.comps[i, j]
                + ex.const(other) * (ex.const(eye) - P.comps[i, j])
            )
    return MetallicStructure(params, ch.EndoField(chart_, comps), g, chart_)


def product_from_metallic(
    J: ch.EndoField, params: MetallicParams
) -> tuple[ch.EndoField, ch.EndoField]:
    """Almost product structures F^± = ±(2 J - p I) / (2 sigma - p)."""
    if params.discriminant <= 0:
        raise DegenerateDiscriminant(
            f"conversion needs p^2 + 4q > 0, got {params.discriminant}"
        )
    denom = 2.0 * params.sigma - params.p
    n = J.chart.dim
    plus = np.empty((n, n), dtype=object)
    minus = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            eye = 1.0 if i == j else 0.0
            f = (ex.const(2.0 / denom) * J.comps[i, j]) - ex.const(params.p / denom * eye)
            plus[i, j] = f
            minus[i, j] = -f
    return ch.EndoField(J.chart, plus), ch.EndoField(J.chart, minus)


def metallic_from_product(
    F: ch.EndoField,
    params: MetallicParams,
    probe_points=None,
    tolerance: float = 1e-10,
) -> tuple[ch.EndoField, ch.EndoField]:
    """Metallic structures J^± = ±(2 sigma - p)/2 F + p/2 I."""
    if probe_points is None:
        probe_points = F.chart.sample_points(8)
    fv = F.eval(probe_points)
    eye = np.eye(F.chart.dim)
    if np.abs(fv @ fv - eye).max() > tolerance:
        raise NotAProductStructure("F^2 != I at sample points")
    half_gap = (2.0 * params.sigma - params.p) / 2.0
    n = F.chart.dim
    plus = np.empty((n, n), dtype=object)
    minus = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            shift = ex.const(params.p / 2.0 if i == j else 0.0)
            plus[i, j] = ex.const(half_gap) * F.comps[i, j] + shift
            minus[i, j] = ex.const(-half_gap) * F.comps[i, j] + shift
    return ch.EndoField(F.chart, plus), ch.EndoField(F.chart, minus)


def is_locally_metallic(
    J: ch.EndoField, g: ch.MetricField, points, tolerance: float = 1e-9
) -> CheckResult:
    """Residual of nabla J for the Levi-Civita connection of g."""
    conn = ch.christoffel(g, probe_points=points)
    nabla_j = ch.covariant_derivative_endo(conn, J)
    values = ch.eval_exprs(nabla_j, points)
    return from_residuals(
        "locally-metallic",
        "nabla J = 0 for the Levi-Civita connection",
        values,
        points,
        tolerance,
    )


def inverse_metallic(J: ch.EndoField, params: MetallicParams) -> ch.EndoField:
    """J^{-1} = (1/q) J - (p/q) I, defined when q != 0."""
    if params.q == 0:
        raise ZeroQ("J is not invertible via the metallic relation when q = 0")
    n = J.chart.dim
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            shift = ex.const(params.p / params.q if i == j else 0.0)
            comps[i, j] = ex.const(1.0 / params.q) * J.comps[i, j] - shift
    return ch.EndoField(J.chart, comps)


def check_metallic_map(
    J1: np.ndarray, J2: np.ndarray, jacobian: np.ndarray, tolerance: float = 1e-10
) -> CheckResult:
    """Pointwise residual of Df J1 - J2 Df for given matrices."""
    J1 = np.asarray(J1, dtype=float)
    J2 = np.asarray(J2, dtype=float)
    df = np.asarray(jacobian, dtype=float)
    if df.ndim != 2 or J1.shape != (df.shape[1], df.shape[1]) or J2.shape != (
        df.shape[0],
        df.shape[0],
    ):
        raise DimensionMismatch(
            f"Df {df.shape} incompatible with J1 {J1.shape}, J2 {J2.shape}"
        )
    res = df @ J1 - J2 @ df
    residual = float(np.abs(res).max())
    return CheckResult(
        "metallic-map",
        "Df J1 = J2 Df",
        residual,
        tolerance,
    )


def random_compatible_pair(rng: np.random.Generator, n: int, params: MetallicParams):
    """Random pointwise pair (g, J): g SPD, J metallic and g-symmetric.

    g = A^T A + 0.1 I; P projects g-orthogonally onto a random subspace
    (spanning columns g-orthonormalised first, which keeps P well
    conditioned); J = sigma P + (p - sigma)(I - P). Both invariants hold
    by construction.
    """
    if params.discriminant < 0:
        raise ComplexDiscriminant(f"p^2 + 4q = {params.discriminant} < 0")
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
