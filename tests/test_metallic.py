import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import metallic as mt
from metalliclab.errors import (
    ComplexDiscriminant,
    DegenerateDiscriminant,
    DimensionMismatch,
    NotAProductStructure,
    NotAProjection,
    ZeroQ,
)

from conftest import field_context

GOLDEN = (1 + math.sqrt(5)) / 2


def flat_chart(seed=1):
    return ch.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), seed=seed)


def const_endo(c, mat):
    return ch.EndoField(c, ch.constant_matrix(np.asarray(mat, dtype=float)))


def identity_metric(c):
    return ch.MetricField(c, ch.constant_matrix(np.eye(c.dim)))


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


def test_check_metallic():
    c = flat_chart()
    pts = c.sample_points(16)
    J = const_endo(c, np.diag([GOLDEN, 1 - GOLDEN]))
    assert mt.check_metallic(J, mt.MetallicParams(1, 1), pts).residual < 1e-12

    eye = const_endo(c, np.eye(2))
    assert mt.check_metallic(eye, mt.MetallicParams(0, 1), pts).passed
    failing = mt.check_metallic(eye, mt.MetallicParams(1, 1), pts)
    assert not failing.passed
    assert failing.residual == pytest.approx(1.0, abs=1e-15)


def test_from_projection_cases():
    c = flat_chart()
    g = identity_metric(c)
    params = mt.MetallicParams(1, 1)
    pts = c.sample_points(8)

    s = mt.from_projection(c, const_endo(c, np.diag([1.0, 0.0])), params, g, pts)
    J_at = s.J.eval(pts)
    assert np.abs(J_at - np.diag([GOLDEN, 1 - GOLDEN])).max() < 1e-15

    s0 = mt.from_projection(c, const_endo(c, np.zeros((2, 2))), params, g, pts)
    assert np.abs(s0.J.eval(pts) - (1 - GOLDEN) * np.eye(2)).max() < 1e-15

    s1 = mt.from_projection(c, const_endo(c, np.eye(2)), params, g, pts)
    assert np.abs(s1.J.eval(pts) - GOLDEN * np.eye(2)).max() < 1e-15

    with pytest.raises(NotAProjection):
        mt.from_projection(c, const_endo(c, [[1.0, 1.0], [0.0, 0.5]]), params, g, pts)
    with pytest.raises(ComplexDiscriminant):
        mt.from_projection(
            c, const_endo(c, np.diag([1.0, 0.0])), mt.MetallicParams(0, -1), g, pts
        )


def test_product_from_metallic_and_back():
    c = flat_chart()
    params = mt.MetallicParams(1, 1)
    pts = c.sample_points(8)
    J = const_endo(c, np.diag([GOLDEN, 1 - GOLDEN]))
    f_plus, f_minus = mt.product_from_metallic(J, params)
    fp = f_plus.eval(pts)
    assert np.abs(fp - np.diag([1.0, -1.0])).max() < 1e-12
    assert np.abs(f_minus.eval(pts) + fp).max() == 0.0

    scalar = const_endo(c, GOLDEN * np.eye(2))
    assert np.abs(mt.product_from_metallic(scalar, params)[0].eval(pts) - np.eye(2)).max() < 1e-12

    with pytest.raises(DegenerateDiscriminant):
        mt.product_from_metallic(J, mt.MetallicParams(2, -1))  # p^2 + 4q = 0


def test_metallic_from_product_values():
    c = flat_chart()
    pts = c.sample_points(8)
    f = const_endo(c, np.diag([1.0, -1.0]))
    j_plus, j_minus = mt.metallic_from_product(f, mt.MetallicParams(1, 1), pts)
    assert np.abs(j_plus.eval(pts) - np.diag([GOLDEN, 1 - GOLDEN])).max() < 1e-12

    silver = mt.MetallicParams(2, 1)
    eye = const_endo(c, np.eye(2))
    j_plus, _ = mt.metallic_from_product(eye, silver, pts)
    assert np.abs(j_plus.eval(pts) - (1 + math.sqrt(2)) * np.eye(2)).max() < 1e-12

    with pytest.raises(NotAProductStructure):
        mt.metallic_from_product(const_endo(c, [[1.0, 0.3], [0.0, 1.0]]),
                                 mt.MetallicParams(1, 1), pts)


def test_conversion_round_trip_on_random_structures():
    c = flat_chart()
    pts = c.sample_points(8)
    rng = np.random.default_rng(5)
    params = mt.MetallicParams(1.0, 1.0)
    for _ in range(10):
        _, J_mat = mt.random_compatible_pair(rng, 2, params)
        J = const_endo(c, J_mat)
        f_plus, _ = mt.product_from_metallic(J, params)
        j_plus, j_minus = mt.metallic_from_product(f_plus, params, pts)
        assert np.abs(j_plus.eval(pts) - J_mat).max() < 1e-10
        # the second branch is p I - J
        assert np.abs(j_minus.eval(pts) - (params.p * np.eye(2) - J_mat)).max() < 1e-10
        back_plus, _ = mt.product_from_metallic(j_plus, params)
        assert np.abs(back_plus.eval(pts) - f_plus.eval(pts)).max() < 1e-10


def _nabla_J(J, g, pts):
    """nabla J of the Levi-Civita connection of g, as core/locally-metallic reads it."""
    ctx = field_context(g, J, pts)
    return ctx.bundle(ctx.lc_gamma_at).nabla_J_at


def test_is_locally_metallic(sphere_chart, sphere_metric, golden_params, sphere_diag_J):
    flat = flat_chart()
    pts = flat.sample_points(16)
    J = const_endo(flat, np.diag([GOLDEN, 1 - GOLDEN]))
    assert np.abs(_nabla_J(J, identity_metric(flat), pts)).max() < 1e-9

    sphere_pts = sphere_chart.sample_points(16)
    sigma_eye = const_endo(sphere_chart, GOLDEN * np.eye(2))
    assert np.abs(_nabla_J(sigma_eye, sphere_metric, sphere_pts)).max() < 1e-9

    residual = np.abs(_nabla_J(sphere_diag_J, sphere_metric, sphere_pts)).max()
    # the only non-zero components are (nabla_2 J)^1_2 = sin cos (2 sigma - 1)
    # and (nabla_2 J)^2_1 = cot (2 sigma - 1)
    x1 = sphere_pts[:, 0]
    gap = 2 * GOLDEN - 1
    expected = max(
        np.abs(np.sin(x1) * np.cos(x1) * gap).max(),
        np.abs(np.cos(x1) / np.sin(x1) * gap).max(),
    )
    assert residual == pytest.approx(expected, rel=1e-9)


def test_inverse_metallic():
    c = flat_chart()
    pts = c.sample_points(8)
    params = mt.MetallicParams(1, 1)
    J = const_endo(c, np.diag([GOLDEN, 1 - GOLDEN]))
    inv = mt.inverse_metallic(J, params)
    assert np.abs(inv.eval(pts) - np.diag([GOLDEN - 1, -GOLDEN])).max() < 1e-12
    assert np.abs(J.eval(pts) @ inv.eval(pts) - np.eye(2)).max() < 1e-12

    copper = mt.MetallicParams(1, 2)  # sigma = 2
    two_eye = const_endo(c, 2.0 * np.eye(2))
    inv2 = mt.inverse_metallic(two_eye, copper)
    assert np.abs(inv2.eval(pts) - 0.5 * np.eye(2)).max() < 1e-15

    with pytest.raises(ZeroQ):
        mt.inverse_metallic(J, mt.MetallicParams(1, 0))


def test_check_metallic_map():
    J = np.diag([GOLDEN, 1 - GOLDEN])
    assert mt.check_metallic_map(J, J, np.eye(2)).passed

    # Df = F chosen to commute with J by construction (diagonal)
    F = np.diag([2.0, 3.0])
    assert mt.check_metallic_map(J, J, F).passed

    theta = math.pi / 4
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    report = mt.check_metallic_map(J, J, rot)
    assert not report.passed
    assert report.residual == pytest.approx(math.sin(theta) * math.sqrt(5), rel=1e-12)

    with pytest.raises(DimensionMismatch):
        mt.check_metallic_map(J, np.eye(3), np.eye(2))


def test_compatibility_closure_for_powers():
    rng = np.random.default_rng(3)
    params = mt.MetallicParams(1.0, 1.0)
    for n in (2, 3, 4):
        for _ in range(10):
            g, J = mt.random_compatible_pair(rng, n, params)
            for k in (2, 3):
                gjk = g @ np.linalg.matrix_power(J, k)
                assert np.abs(gjk - gjk.T).max() < 1e-10


def test_special_parameter_families():
    c = flat_chart()
    pts = c.sample_points(8)
    # (0, 1): almost product
    s = mt.from_projection(
        c, const_endo(c, np.diag([1.0, 0.0])), mt.MetallicParams(0, 1),
        identity_metric(c), pts
    )
    F = s.J.eval(pts)
    assert np.abs(F @ F - np.eye(2)).max() < 1e-12
    # (0, -1): almost complex
    rot90 = const_endo(c, [[0.0, -1.0], [1.0, 0.0]])
    assert mt.check_metallic(rot90, mt.MetallicParams(0, -1), pts).passed
    # (0, 0): almost tangent (nilpotent)
    nil = const_endo(c, [[0.0, 1.0], [0.0, 0.0]])
    assert mt.check_metallic(nil, mt.MetallicParams(0, 0), pts).passed


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
            s = mt.from_projection(c, const_endo(c, proj), params, g, pts)
            assert mt.check_metallic(s.J, params, pts).passed
            assert mt.check_compatible(s.J, g, pts).passed


def test_random_generator_satisfies_both_invariants():
    rng = np.random.default_rng(42)
    params = mt.MetallicParams(1.0, 1.0)
    for n in (2, 3, 4):
        for _ in range(100):
            g, J = mt.random_compatible_pair(rng, n, params)
            assert np.linalg.eigvalsh(g).min() > 1e-10
            assert np.abs(J @ J - params.p * J - params.q * np.eye(n)).max() < 1e-10
            gj = g @ J
            assert np.abs(gj - gj.T).max() < 1e-10
