import re

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab import genconn as gc
from metalliclab.errors import DimensionMismatch, SingularMetric

from conftest import dense_metric, field_context, jet
from helpers import fd_christoffel, fd_nijenhuis, fd_partial, fd_riemann


def make_chart(seed=3):
    return ch.Chart(("x1", "x2"), ((0.5, 2.0), (0.1, 1.0)), seed=seed)


def metric_from_strings(c, rows):
    comps = np.array([[c.parse(s) for s in row] for row in rows], dtype=object)
    return ch.MetricField(c, comps)


def endo_from_strings(c, rows):
    comps = np.array([[c.parse(s) for s in row] for row in rows], dtype=object)
    return ch.EndoField(c, comps)


def levi_civita(g, pts):
    """Gamma and its partials [m, a, k, i, j] of the metric field at the points."""
    ctx = field_context(g, None, pts)
    return ctx.lc_gamma_at, ctx.lc_dgamma_at


def gamma_function(g):
    """The function point -> Levi-Civita Gamma of the metric field there."""
    return lambda p: levi_civita(g, np.reshape(p, (1, -1)))[0][0]


def test_chart_validation():
    with pytest.raises(DimensionMismatch):
        ch.Chart(("x1",), ((0, 1),))
    with pytest.raises(ValueError):
        ch.Chart(("x1", "x1"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ch.Chart(("x1", "x2"), ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        ch.Chart(("x1", "2bad"), ((0, 1), (0, 1)))


def test_sample_points_deterministic_and_in_box():
    c = make_chart()
    a = c.sample_points(32)
    b = c.sample_points(32)
    assert (a == b).all()
    assert a.shape == (32, 2)
    assert (a[:, 0] >= 0.5).all() and (a[:, 0] <= 2.0).all()
    assert (a[:, 1] >= 0.1).all() and (a[:, 1] <= 1.0).all()
    other = c.sample_points(32, seed=99)
    assert not (a == other).all()


# scrambled Halton points on the unit box, as scipy.stats.qmc.Halton(d,
# scramble=True, seed=seed).random(m) gives them
HALTON_TABLE = {
    (2, 4, 7): [
        [0.10224233015287731, 0.9346983862017634],
        [0.6022423301528773, 0.2680317195350967],
        [0.3522423301528773, 0.6013650528684301],
        [0.8522423301528773, 0.7124761639795413],
    ],
    (3, 3, 0): [
        [0.0991217798843752, 0.05391376185363979, 0.30077622909743845],
        [0.5991217798843752, 0.7205804285203065, 0.7007762290974384],
        [0.3491217798843752, 0.38724709518697303, 0.1007762290974384],
    ],
    (5, 2, 11): [
        [0.8638207929137475, 0.29917133044508865, 0.35947120653882325,
         0.3166475620669352, 0.13639123474530673],
        [0.36382079291374747, 0.6325046637784222, 0.9594712065388233,
         0.6023618477812208, 0.31820941656348856],
    ],
}


def _names(d):
    return tuple(f"x{i + 1}" for i in range(d))


@pytest.mark.parametrize("d, m, seed", sorted(HALTON_TABLE))
def test_sample_points_match_a_frozen_halton_table(d, m, seed):
    c = ch.Chart(_names(d), ((0.0, 1.0),) * d)
    assert c.sample_points(m, seed=seed).tolist() == HALTON_TABLE[d, m, seed]


def test_sample_points_equal_scipy_halton_bit_for_bit():
    qmc = pytest.importorskip("scipy.stats.qmc")
    for d in (2, 3, 6, 12):
        box = tuple((-0.5 - k, 1.25 + 0.5 * k) for k in range(d))
        c = ch.Chart(_names(d), box)
        lo, hi = [b[0] for b in box], [b[1] for b in box]
        for seed in (0, 7, 1234):
            for m in (1, 5, 32, 300):
                expected = qmc.scale(qmc.Halton(d=d, scramble=True, seed=seed).random(m), lo, hi)
                assert np.array_equal(c.sample_points(m, seed=seed), expected), (d, seed, m)


def test_identity_metric_has_zero_christoffel():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "1"]])
    values, derivatives = levi_civita(g, c.sample_points(8))
    assert np.abs(values).max() == 0.0
    assert np.abs(derivatives).max() == 0.0


def test_polar_plane_christoffel_closed_form_and_fd_oracle():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "x1^2"]])
    pts = c.sample_points(20)
    values, derivatives = levi_civita(g, pts)
    x1 = pts[:, 0]
    assert np.abs(values[:, 0, 1, 1] + x1).max() < 1e-12
    assert np.abs(values[:, 1, 0, 1] - 1.0 / x1).max() < 1e-12
    assert np.abs(values[:, 1, 1, 0] - 1.0 / x1).max() < 1e-12
    # d_1 Gamma^2_{12} = -1 / x1^2
    assert np.abs(derivatives[:, 0, 1, 0, 1] + 1.0 / x1**2).max() < 1e-12
    for got, p in zip(values, pts):
        assert np.abs(got - fd_christoffel(g, p)).max() < 1e-8


def test_sphere_christoffel_closed_form_and_fd_oracle(sphere_chart, sphere_metric):
    pts = sphere_chart.sample_points(20)
    values = levi_civita(sphere_metric, pts)[0]
    x1 = pts[:, 0]
    assert np.abs(values[:, 0, 1, 1] + np.sin(x1) * np.cos(x1)).max() < 1e-12
    assert np.abs(values[:, 1, 0, 1] - np.cos(x1) / np.sin(x1)).max() < 1e-12
    for got, p in zip(values[:8], pts[:8]):
        assert np.abs(got - fd_christoffel(sphere_metric, p)).max() < 1e-7


def test_singular_metric_detected():
    c = make_chart()
    g = metric_from_strings(c, [["x1 - x1", "0"], ["0", "1"]])
    pts = c.sample_points(4)
    first = str(tuple(float(v) for v in pts[0]))
    with pytest.raises(SingularMetric, match=re.escape(first)):
        levi_civita(g, pts)


def test_metric_positive_definite_guard():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "x1 - 1"]])  # changes sign
    with pytest.raises(SingularMetric):
        g.check_positive_definite(c.sample_points(16))


def test_flat_metrics_have_zero_curvature():
    c = make_chart()
    for rows in ([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "x1^2"]]):
        g = metric_from_strings(c, rows)
        values = ch.riemann(*levi_civita(g, c.sample_points(16)))
        assert np.abs(values).max() < 1e-9


def test_sphere_curvature_value_and_fd_oracle(sphere_chart, sphere_metric):
    pts = sphere_chart.sample_points(12)
    values = ch.riemann(*levi_civita(sphere_metric, pts))
    # R(d_1, d_2)d_2 = sin^2(x1) d_1 in the house convention
    assert np.abs(values[:, 0, 0, 1, 1] - np.sin(pts[:, 0]) ** 2).max() < 1e-12
    # antisymmetry in the first two lower slots
    assert np.abs(values + values.transpose(0, 1, 3, 2, 4)).max() == 0.0
    for got, p in zip(values[:6], pts[:6]):
        oracle = fd_riemann(gamma_function(sphere_metric), p)
        assert np.abs(got - oracle).max() < 1e-6


def test_first_bianchi_identity(sphere_chart, sphere_metric):
    values = ch.riemann(*levi_civita(sphere_metric, sphere_chart.sample_points(16)))
    cyc = (
        values
        + np.einsum("mljki->mlijk", values)
        + np.einsum("mlkij->mlijk", values)
    )
    assert np.abs(cyc).max() < 1e-9


def test_levi_civita_is_metric_parallel(sphere_chart, sphere_metric):
    ctx = field_context(sphere_metric, None, sphere_chart.sample_points(16))
    values = gc.nabla_metric(ctx.lc_gamma_at, ctx.g_at, ctx.dg_at)
    assert np.abs(values).max() < 1e-9


def test_covariant_derivative_with_zero_connection_reduces_to_partials():
    c = make_chart()
    pts = c.sample_points(8)
    zero = np.zeros((8, 2, 2, 2))
    g = metric_from_strings(c, [["1", "0"], ["0", "x1^2"]])
    values = gc.nabla_metric(zero, *jet(g.comps, pts))
    assert np.abs(values[:, 0, 1, 1] - 2.0 * pts[:, 0]).max() < 1e-12
    J = endo_from_strings(c, [["x1*x2", "x2^2"], ["1", "x1 + x2"]])
    assert (gc.nabla_endo(zero, *jet(J.comps, pts)) == jet(J.comps, pts)[1]).all()


def test_covariant_derivative_endo_cases(sphere_chart, sphere_metric):
    c = sphere_chart
    pts = c.sample_points(8)
    gamma = levi_civita(sphere_metric, pts)[0]
    sigma = (1 + np.sqrt(5)) / 2
    scalar = ch.EndoField(c, ch.constant_matrix(sigma * np.eye(2)))
    values = gc.nabla_endo(gamma, *jet(scalar.comps, pts))
    assert np.abs(values).max() < 1e-12

    J = endo_from_strings(c, [["x1", "0"], ["0", "1"]])
    v2 = gc.nabla_endo(np.zeros_like(gamma), *jet(J.comps, pts))
    assert np.abs(v2[:, 0, 0, 0] - 1.0).max() == 0.0


def test_torsion():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "x1^2"]])
    assert np.abs(gc.torsion(levi_civita(g, c.sample_points(8))[0])).max() == 0.0

    gamma = np.zeros((4, 2, 2, 2))
    gamma[:, 0, 0, 1] = 1.0  # Gamma^1_{12} = 1, Gamma^1_{21} = 0
    values = gc.torsion(gamma)
    assert np.abs(values[:, 0, 0, 1] - 1.0).max() == 0.0
    assert np.abs(values[:, 0, 1, 0] + 1.0).max() == 0.0


def test_nijenhuis_constant_endo_vanishes():
    c = make_chart()
    J = endo_from_strings(c, [["2", "1"], ["0.5", "3"]])
    values = ch.nijenhuis(*jet(J.comps, c.sample_points(8)))
    assert np.abs(values).max() == 0.0


def test_nijenhuis_against_finite_difference_oracle():
    c = make_chart()
    # f(x) * (non-trivial constant matrix) plus a genuinely mixed field
    fields = [
        [["sin(x1)*2 + 3", "sin(x1)"], ["sin(x1)*0.5", "sin(x1) - 1"]],
        [["x1*x2", "x2^2"], ["1", "x1 + x2"]],
    ]
    pts = c.sample_points(20)
    for rows in fields:
        J = endo_from_strings(c, rows)
        for p in pts:
            oracle = fd_nijenhuis(J, p)
            got = ch.nijenhuis(*jet(J.comps, p.reshape(1, -1)))[0]
            assert np.abs(got - oracle).max() < 1e-8


def test_nijenhuis_antisymmetry():
    c = make_chart()
    J = endo_from_strings(c, [["x1*x2", "x2^2"], ["1", "x1 + x2"]])
    values = ch.nijenhuis(*jet(J.comps, c.sample_points(12)))
    assert np.abs(values + values.transpose(0, 1, 3, 2)).max() == 0.0


def test_nijenhuis_covariant_identity_any_connection():
    # bracket N_J equals the covariant expansion + Phi(T) for an arbitrary
    # (torsion-ful) connection
    c = make_chart()
    J = endo_from_strings(c, [["x1*x2", "x2^2"], ["1", "x1 + x2"]])
    rng = np.random.default_rng(8)
    gamma = np.empty((2, 2, 2), dtype=object)
    for idx in np.ndindex(2, 2, 2):
        c0, c1 = rng.uniform(-1, 1, size=2)
        gamma[idx] = ex.const(c0) + ex.const(c1) * c.coord(idx[1])
    conn = ch.ConnectionField(c, gamma)
    pts = c.sample_points(16)
    NJ = ch.nijenhuis(*jet(J.comps, pts))
    gamma = conn.eval(pts)
    Jv, dJ = jet(J.comps, pts)
    rhs = gc.covariant_nijenhuis_rhs(gc.nabla_endo(gamma, Jv, dJ), gc.torsion(gamma), Jv)
    assert np.abs(NJ - rhs).max() < 1e-8


def test_inverse_metric_of_a_dense_metric():
    # n = 3 with off-diagonal entries
    c = ch.Chart(("x1", "x2", "x3"), ((0.2, 1.0),) * 3, seed=2)
    g = metric_from_strings(
        c,
        [
            ["2 + x1^2", "x1*x2/4", "0"],
            ["x1*x2/4", "2 + x2^2", "x3/5"],
            ["0", "x3/5", "2 + x3^2"],
        ],
    )
    ctx = field_context(g, None, c.sample_points(12))
    assert np.abs(ctx.g_at @ ctx.ginv_at - np.eye(3)).max() < 1e-12
    assert np.abs(ctx.ginv_at - np.swapaxes(ctx.ginv_at, -1, -2)).max() < 1e-15


def test_christoffel_fd_oracle_in_dimension_four():
    names = ("x1", "x2", "x3", "x4")
    c = ch.Chart(names, ((0.3, 1.1),) * 4, seed=6)
    rows = [
        ["2 + x2^2", "x1*x4/5", "0", "0"],
        ["x1*x4/5", "2 + x3^2", "0", "0"],
        ["0", "0", "2 + x4^2", "x2/4"],
        ["0", "0", "x2/4", "2 + x1^2"],
    ]
    g = metric_from_strings(c, rows)
    pts = c.sample_points(5)
    for got, p in zip(levi_civita(g, pts)[0], pts):
        assert np.abs(got - fd_christoffel(g, p)).max() < 1e-7
    # Levi-Civita stays metric-parallel through the numeric inverse
    ctx = field_context(g, None, c.sample_points(8))
    assert np.abs(gc.nabla_metric(ctx.lc_gamma_at, ctx.g_at, ctx.dg_at)).max() < 1e-12


def test_inverse_metric_dimension_six():
    names = tuple(f"x{i + 1}" for i in range(6))
    c = ch.Chart(names, ((0.3, 1.0),) * 6, seed=9)
    entries = [[("3 + x1^2" if i == j else "0") for j in range(6)] for i in range(6)]
    entries[0][1] = entries[1][0] = "x3/4"
    entries[2][3] = entries[3][2] = "x5/5"
    entries[4][5] = entries[5][4] = "x1*x2/6"
    ctx = field_context(metric_from_strings(c, entries), None, c.sample_points(6))
    assert np.abs(ctx.g_at @ ctx.ginv_at - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize("n", (2, 3, 4))
def test_christoffel_of_a_dense_metric_matches_the_fd_oracle(n):
    # every entry of g varies, so every term of the Koszul formula and every
    # entry of g^-1 enters
    c, g = dense_metric(n, seed=n)
    pts = c.sample_points(4)
    values = levi_civita(g, pts)[0]
    assert np.abs(values - np.swapaxes(values, -1, -2)).max() == 0.0
    for got, p in zip(values, pts):
        oracle = fd_christoffel(g, p)
        assert np.abs(oracle).min() > 1e-6  # no entry of the comparison is trivial
        assert np.abs(got - oracle).max() < 1e-8


@pytest.mark.parametrize("n", (2, 3, 4))
def test_christoffel_partials_of_a_dense_metric_match_central_differences(n):
    c, g = dense_metric(n, seed=10 + n)
    pts = c.sample_points(3)
    derivatives = levi_civita(g, pts)[1]
    gamma_at = gamma_function(g)
    for got, p in zip(derivatives, pts):
        oracle = np.array([fd_partial(gamma_at, p, a) for a in range(n)])
        assert np.abs(oracle).max() > 0.1
        assert np.abs(got - oracle).max() < 1e-8
