"""Metallic structures: the parameters (p, q) and J built from a projection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chart as ch
from . import expr as ex
from .errors import ComplexDiscriminant, NotAProjection

__all__ = [
    "MetallicParams",
    "metallic_number",
    "from_projection",
]

# the bound of the load-time probes of a scenario's fields at a few points
PROBE_TOL = 1e-10


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


def from_projection(
    P: np.ndarray, params: MetallicParams, g: np.ndarray, probe_points: np.ndarray
) -> np.ndarray:
    """J = sigma P + (p - sigma)(I - P) from a g-symmetric projection.

    ``P`` and ``g`` are [n, n] arrays of Exprs; P^2 = P and the symmetry of
    g P are probed at ``probe_points``.
    """
    if params.discriminant < 0:
        raise ComplexDiscriminant(f"p^2 + 4q = {params.discriminant} < 0")
    pv = ch.eval_exprs(P, probe_points)
    if np.abs(pv @ pv - pv).max() > PROBE_TOL:
        raise NotAProjection("P^2 != P at sample points")
    gp = ch.eval_exprs(g, probe_points) @ pv
    if np.abs(gp - np.swapaxes(gp, -1, -2)).max() > PROBE_TOL:
        raise NotAProjection("g P is not symmetric at sample points")
    # one node per constant, shared by the n^2 entries
    sigma, other = ex.const(params.sigma), ex.const(params.sigma_other)
    one, zero = ex.const(1.0), ex.const(0.0)
    n = P.shape[0]
    comps = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            eye = one if i == j else zero
            comps[i, j] = ex.add(ex.mul(sigma, P[i, j]), ex.mul(other, ex.sub(eye, P[i, j])))
    return comps
