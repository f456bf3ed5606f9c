import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import genbundle as gb
from metalliclab import metallic as mt
from metalliclab import suites
from metalliclab.errors import ComplexDiscriminant, NotAProjection
from metalliclab.suites import run_suites

from conftest import field_context, pair_context
from helpers import random_compatible_pair

GOLDEN = (1 + math.sqrt(5)) / 2


def flat_chart(seed=1):
    return ch.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), seed=seed)


def identity_metric(c):
    return ch.constant_matrix(np.eye(c.dim))


def test_metallic_numbers():
    assert mt.metallic_number(1, 1) == pytest.approx(GOLDEN, abs=1e-15)
    assert mt.metallic_number(2, 1) == pytest.approx(1 + math.sqrt(2), abs=1e-15)
    assert mt.metallic_number(3, 1) == pytest.approx((3 + math.sqrt(13)) / 2, abs=1e-15)
    assert mt.metallic_number(1, 2) == pytest.approx(2.0, abs=1e-15)
    assert mt.metallic_number(1, 3) == pytest.approx((1 + math.sqrt(13)) / 2, abs=1e-15)
    with pytest.raises(ComplexDiscriminant):
        mt.metallic_number(0, -1)


def test_metallic_number_solves_quadratic():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.uniform(-3, 3)
        q = rng.uniform(0.1, 4)
        s = mt.metallic_number(p, q)
        assert abs(s * s - p * s - q) < 1e-12 * max(1.0, s * s)


def _metallic_residual(J_at, params):
    """Largest entry of J^2 - p J - q I over the samples."""
    eye = np.eye(J_at.shape[-1])
    return np.abs(J_at @ J_at - params.p * J_at - params.q * eye).max()


def test_check_metallic():
    # core/metallic-equation of a run over fields on a flat chart
    c = flat_chart()
    g = identity_metric(c)

    def residual(J, params):
        scenario = field_context(c, g, J, c.sample_points(16), params).scenario
        return run_suites(scenario, suites=["core"]).find("core/metallic-equation")

    golden = residual(ch.constant_matrix(np.diag([GOLDEN, 1 - GOLDEN])), mt.MetallicParams(1, 1))
    assert golden.residual < 1e-12

    eye = ch.constant_matrix(np.eye(2))
    assert residual(eye, mt.MetallicParams(0, 1)).passed
    failing = residual(eye, mt.MetallicParams(1, 1))
    assert not failing.passed
    assert failing.residual == pytest.approx(1.0, abs=1e-15)


def test_from_projection_cases():
    c = flat_chart()
    g = identity_metric(c)
    params = mt.MetallicParams(1, 1)
    pts = c.sample_points(8)

    def J_at(P, params=params):
        return ch.eval_exprs(mt.from_projection(ch.constant_matrix(P), params, g, pts), pts)

    assert np.abs(J_at(np.diag([1.0, 0.0])) - np.diag([GOLDEN, 1 - GOLDEN])).max() < 1e-15
    assert np.abs(J_at(np.zeros((2, 2))) - (1 - GOLDEN) * np.eye(2)).max() < 1e-15
    assert np.abs(J_at(np.eye(2)) - GOLDEN * np.eye(2)).max() < 1e-15

    with pytest.raises(NotAProjection):
        J_at([[1.0, 1.0], [0.0, 0.5]])
    with pytest.raises(NotAProjection, match="g P is not symmetric"):
        J_at([[1.0, 1.0], [0.0, 0.0]])  # idempotent, but oblique for g = I
    with pytest.raises(ComplexDiscriminant):
        J_at(np.diag([1.0, 0.0]), mt.MetallicParams(0, -1))


def _family_fhat_plus(monkeypatch, ctx):
    """The residual of the derived-family check on ``ctx`` and the Fhat^+ it
    built, read from the one structure it converts besides Jp."""
    converted = []
    real = suites._converted

    def recorded(c, sign, X):
        converted.append(X)
        return real(c, sign, X)

    monkeypatch.setattr(suites, "_converted", recorded)
    check = next(check for check in suites.CHECKS if check.cid == "genbundle/derived-family")
    residual = suites._evaluate(check, ctx).residual
    fhat = [X for X in converted if X is not ctx["gen[jp]"]]
    assert len(fhat) == 2 and fhat[0] is fhat[1]
    return residual, fhat[0][0]


def test_product_from_metallic_and_back(monkeypatch):
    # F^+ = (2 J - p I) / (2 sigma - p) is diag(1, -1) for the golden J, and the
    # conversion J^+ = (2 sigma - p)/2 F + p/2 I takes Fhat^+ back to Jm
    params = mt.MetallicParams(1, 1)
    J = np.diag([GOLDEN, 1 - GOLDEN])
    ctx = pair_context(np.eye(2), J, params)
    residual, fhat_plus = _family_fhat_plus(monkeypatch, ctx)
    assert residual < 1e-12
    assert np.abs(fhat_plus - np.diag([1.0, -1.0, 1.0, -1.0])).max() < 1e-12
    back = suites._converted(ctx, 1.0, fhat_plus)
    assert np.abs(back - np.diag([GOLDEN, 1 - GOLDEN] * 2)).max() < 1e-12
    # the scalar structure sigma I has F^+ = I and converts back to sigma I
    scalar = pair_context(np.eye(2), GOLDEN * np.eye(2), params)
    residual, fhat_plus = _family_fhat_plus(monkeypatch, scalar)
    assert residual < 1e-12 and np.abs(fhat_plus - np.eye(4)).max() < 1e-12
    back = suites._converted(scalar, 1.0, fhat_plus)
    assert np.abs(back - GOLDEN * np.eye(4)).max() < 1e-12

    # p^2 + 4q = 0: 2 sigma - p = 0 and no run declares the family check
    degenerate = pair_context(np.eye(2), np.eye(2), mt.MetallicParams(2, -1)).scenario
    declared = [check.cid for check in suites._declared("genbundle", degenerate)]
    assert "genbundle/derived-family" not in declared


def test_metallic_from_product_values(monkeypatch):
    # J^+ = (2 sigma - p)/2 F + p/2 I, here on Fhat^+ = blockdiag(F^+, F^+*)
    silver = mt.MetallicParams(2, 1)
    ctx = pair_context(np.eye(2), np.diag([silver.sigma, 2 - silver.sigma]), silver)
    residual, fhat_plus = _family_fhat_plus(monkeypatch, ctx)
    assert residual < 1e-12
    assert np.abs(fhat_plus - np.diag([1.0, -1.0, 1.0, -1.0])).max() < 1e-12
    got = suites._converted(ctx, 1.0, fhat_plus)
    assert np.abs(got - np.diag([silver.sigma, 2 - silver.sigma] * 2)).max() < 1e-12


def _nabla_J(c, J, g, pts):
    """nabla J of the Levi-Civita connection of g, as core/locally-metallic reads it."""
    ctx = field_context(c, g, J, pts)
    return ctx["nablaJ[lc]"]


def test_is_locally_metallic(sphere_chart, sphere_metric, golden_params, sphere_diag_J):
    flat = flat_chart()
    pts = flat.sample_points(16)
    J = ch.constant_matrix(np.diag([GOLDEN, 1 - GOLDEN]))
    assert np.abs(_nabla_J(flat, J, identity_metric(flat), pts)).max() < 1e-9

    sphere_pts = sphere_chart.sample_points(16)
    sigma_eye = ch.constant_matrix(GOLDEN * np.eye(2))
    assert np.abs(_nabla_J(sphere_chart, sigma_eye, sphere_metric, sphere_pts)).max() < 1e-9

    residual = np.abs(_nabla_J(sphere_chart, sphere_diag_J, sphere_metric, sphere_pts)).max()
    # the only non-zero components are (nabla_2 J)^1_2 = sin cos (2 sigma - 1)
    # and (nabla_2 J)^2_1 = cot (2 sigma - 1)
    x1 = sphere_pts[:, 0]
    gap = 2 * GOLDEN - 1
    expected = max(
        np.abs(np.sin(x1) * np.cos(x1) * gap).max(),
        np.abs(np.cos(x1) / np.sin(x1) * gap).max(),
    )
    assert residual == pytest.approx(expected, rel=1e-9)


def test_compatibility_closure_for_powers():
    rng = np.random.default_rng(3)
    params = mt.MetallicParams(1.0, 1.0)
    for n in (2, 3, 4):
        for _ in range(10):
            g, J = random_compatible_pair(rng, n, params)
            for k in (2, 3):
                gjk = g @ np.linalg.matrix_power(J, k)
                assert np.abs(gjk - gjk.T).max() < 1e-10


def test_special_parameter_families():
    c = flat_chart()
    pts = c.sample_points(8)
    # (0, 1): almost product
    J = mt.from_projection(
        ch.constant_matrix(np.diag([1.0, 0.0])), mt.MetallicParams(0, 1), identity_metric(c), pts
    )
    F = ch.eval_exprs(J, pts)
    assert np.abs(F @ F - np.eye(2)).max() < 1e-12
    # (0, -1): almost complex
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert _metallic_residual(rot90, mt.MetallicParams(0, -1)) == 0.0
    # (0, 0): almost tangent (nilpotent)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert _metallic_residual(nil, mt.MetallicParams(0, 0)) == 0.0


def test_from_projection_passes_check_for_random_projections():
    rng = np.random.default_rng(100)
    params = mt.MetallicParams(1.0, 1.0)
    for n in (2, 3, 4):
        names = tuple(f"x{i + 1}" for i in range(n))
        c = ch.Chart(names, ((-1.0, 1.0),) * n, seed=0)
        g = identity_metric(c)
        pts = c.sample_points(8)
        for _ in range(100):
            k = int(rng.integers(0, n + 1))
            if k == 0:
                proj = np.zeros((n, n))
            else:
                v = np.linalg.qr(rng.normal(size=(n, k)))[0]
                proj = v @ v.T
            J = ch.eval_exprs(mt.from_projection(ch.constant_matrix(proj), params, g, pts), pts)
            assert _metallic_residual(J, params) <= 1e-10
            assert np.abs(J - np.swapaxes(J, -1, -2)).max() <= 1e-10  # g = I


def test_random_generator_satisfies_both_invariants():
    rng = np.random.default_rng(42)
    params = mt.MetallicParams(1.0, 1.0)
    for n in (2, 3, 4):
        for _ in range(100):
            g, J = random_compatible_pair(rng, n, params)
            assert np.linalg.eigvalsh(g).min() > 1e-10
            assert np.abs(J @ J - params.p * J - params.q * np.eye(n)).max() < 1e-10
            gj = g @ J
            assert np.abs(gj - gj.T).max() < 1e-10
