import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab import genconn as gc
from metalliclab.errors import DimensionMismatch, SingularMetric

from conftest import jet
from helpers import fd_christoffel, fd_nijenhuis, fd_riemann


def make_chart(seed=3):
    return ch.Chart(("x1", "x2"), ((0.5, 2.0), (0.1, 1.0)), seed=seed)


def metric_from_strings(c, rows):
    comps = np.array([[c.parse(s) for s in row] for row in rows], dtype=object)
    return ch.MetricField(c, comps)


def endo_from_strings(c, rows):
    comps = np.array([[c.parse(s) for s in row] for row in rows], dtype=object)
    return ch.EndoField(c, comps)


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
    conn = ch.christoffel(g)
    values = conn.eval(c.sample_points(8))
    assert np.abs(values).max() == 0.0


def test_polar_plane_christoffel_closed_form_and_fd_oracle():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "x1^2"]])
    conn = ch.christoffel(g, probe_points=c.sample_points(8))
    pts = c.sample_points(20)
    values = conn.eval(pts)
    x1 = pts[:, 0]
    assert np.abs(values[:, 0, 1, 1] + x1).max() < 1e-12
    assert np.abs(values[:, 1, 0, 1] - 1.0 / x1).max() < 1e-12
    assert np.abs(values[:, 1, 1, 0] - 1.0 / x1).max() < 1e-12
    for p in pts:
        oracle = fd_christoffel(g, p)
        got = conn.eval(p.reshape(1, -1))[0]
        assert np.abs(got - oracle).max() < 1e-8


def test_sphere_christoffel_closed_form_and_fd_oracle(sphere_chart, sphere_metric):
    conn = ch.christoffel(sphere_metric)
    pts = sphere_chart.sample_points(20)
    values = conn.eval(pts)
    x1 = pts[:, 0]
    assert np.abs(values[:, 0, 1, 1] + np.sin(x1) * np.cos(x1)).max() < 1e-12
    assert np.abs(values[:, 1, 0, 1] - np.cos(x1) / np.sin(x1)).max() < 1e-12
    for p in pts[:8]:
        oracle = fd_christoffel(sphere_metric, p)
        got = values[np.where((pts == p).all(axis=1))[0][0]]
        assert np.abs(got - oracle).max() < 1e-7


def test_singular_metric_detected():
    c = make_chart()
    g = metric_from_strings(c, [["x1 - x1", "0"], ["0", "1"]])
    with pytest.raises(SingularMetric):
        ch.christoffel(g, probe_points=c.sample_points(4))


def test_metric_positive_definite_guard():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "x1 - 1"]])  # changes sign
    with pytest.raises(SingularMetric):
        g.check_positive_definite(c.sample_points(16))


def test_flat_metrics_have_zero_curvature():
    c = make_chart()
    for rows in ([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "x1^2"]]):
        g = metric_from_strings(c, rows)
        values = ch.riemann(*jet(ch.christoffel(g).comps, c.sample_points(16)))
        assert np.abs(values).max() < 1e-9


def test_sphere_curvature_value_and_fd_oracle(sphere_chart, sphere_metric):
    conn = ch.christoffel(sphere_metric)
    pts = sphere_chart.sample_points(12)
    values = ch.riemann(*jet(conn.comps, pts))
    # R(d_1, d_2)d_2 = sin^2(x1) d_1 in the house convention
    assert np.abs(values[:, 0, 0, 1, 1] - np.sin(pts[:, 0]) ** 2).max() < 1e-12
    # antisymmetry in the first two lower slots
    assert np.abs(values + values.transpose(0, 1, 3, 2, 4)).max() == 0.0
    for p in pts[:6]:
        oracle = fd_riemann(conn, p)
        got = ch.riemann(*jet(conn.comps, p.reshape(1, -1)))[0]
        assert np.abs(got - oracle).max() < 1e-6


def test_first_bianchi_identity(sphere_chart, sphere_metric):
    conn = ch.christoffel(sphere_metric)
    values = ch.riemann(*jet(conn.comps, sphere_chart.sample_points(16)))
    cyc = (
        values
        + np.einsum("mljki->mlijk", values)
        + np.einsum("mlkij->mlijk", values)
    )
    assert np.abs(cyc).max() < 1e-9


def test_levi_civita_is_metric_parallel(sphere_chart, sphere_metric):
    conn = ch.christoffel(sphere_metric)
    nabla_g = ch.covariant_derivative_metric(conn, sphere_metric)
    values = ch.eval_exprs(nabla_g, sphere_chart.sample_points(16))
    assert np.abs(values).max() < 1e-9


def test_covariant_derivative_with_zero_connection_reduces_to_partials():
    c = make_chart()
    zero_conn = ch.ConnectionField(c, ch.constant_matrix(np.zeros((2, 2, 2))))
    g = metric_from_strings(c, [["1", "0"], ["0", "x1^2"]])
    values = ch.eval_exprs(
        ch.covariant_derivative_metric(zero_conn, g), c.sample_points(8)
    )
    pts = c.sample_points(8)
    assert np.abs(values[:, 0, 1, 1] - 2.0 * pts[:, 0]).max() < 1e-12

    alpha = ch.OneFormField(c, np.array([c.parse("1"), c.parse("0")], dtype=object))
    v2 = ch.eval_exprs(
        ch.covariant_derivative_oneform(zero_conn, alpha), c.sample_points(8)
    )
    assert np.abs(v2).max() == 0.0


def test_covariant_derivative_endo_cases(sphere_chart, sphere_metric):
    c = sphere_chart
    conn = ch.christoffel(sphere_metric)
    sigma = (1 + np.sqrt(5)) / 2
    scalar = ch.EndoField(c, ch.constant_matrix(sigma * np.eye(2)))
    values = ch.eval_exprs(
        ch.covariant_derivative_endo(conn, scalar), c.sample_points(8)
    )
    assert np.abs(values).max() < 1e-12

    zero_conn = ch.ConnectionField(c, ch.constant_matrix(np.zeros((2, 2, 2))))
    J = endo_from_strings(c, [["x1", "0"], ["0", "1"]])
    v2 = ch.eval_exprs(ch.covariant_derivative_endo(zero_conn, J), c.sample_points(8))
    assert np.abs(v2[:, 0, 0, 0] - 1.0).max() == 0.0


def test_lie_bracket_examples():
    c = make_chart()
    zero = c.parse("0")
    one = c.parse("1")
    d1 = np.array([one, zero], dtype=object)
    d2 = np.array([zero, one], dtype=object)
    pts = c.sample_points(8)
    assert np.abs(ch.eval_exprs(ch.lie_bracket(c, d1, d2), pts)).max() == 0.0

    # [x1 d_2, d_1] = -d_2
    x1d2 = np.array([zero, c.parse("x1")], dtype=object)
    values = ch.eval_exprs(ch.lie_bracket(c, x1d2, d1), pts)
    assert np.abs(values[:, 0]).max() == 0.0
    assert np.abs(values[:, 1] + 1.0).max() == 0.0


def test_lie_bracket_antisymmetry_and_jacobi():
    c = make_chart()
    rng = np.random.default_rng(4)

    def poly_field():
        out = np.empty(2, dtype=object)
        for i in range(2):
            c0, c1, c2, c3 = rng.uniform(-1, 1, size=4)
            out[i] = (
                ex.const(c0)
                + ex.const(c1) * c.coord(0)
                + ex.const(c2) * c.coord(1)
                + ex.const(c3) * c.coord(0) * c.coord(1)
            )
        return out

    pts = c.sample_points(10)
    for _ in range(5):
        X, Y, Z = poly_field(), poly_field(), poly_field()
        anti = ch.lie_bracket(c, X, Y) + ch.lie_bracket(c, Y, X)
        assert np.abs(ch.eval_exprs(anti, pts)).max() < 1e-9
        jac = (
            ch.lie_bracket(c, X, ch.lie_bracket(c, Y, Z))
            + ch.lie_bracket(c, Y, ch.lie_bracket(c, Z, X))
            + ch.lie_bracket(c, Z, ch.lie_bracket(c, X, Y))
        )
        assert np.abs(ch.eval_exprs(jac, pts)).max() < 1e-9


def test_torsion():
    c = make_chart()
    g = metric_from_strings(c, [["1", "0"], ["0", "x1^2"]])
    lc = ch.christoffel(g)
    assert np.abs(ch.eval_exprs(ch.torsion(lc), c.sample_points(8))).max() == 0.0

    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 1] = 1.0  # Gamma^1_{12} = 1, Gamma^1_{21} = 0
    conn = ch.ConnectionField(c, ch.constant_matrix(gamma))
    values = ch.eval_exprs(ch.torsion(conn), c.sample_points(4))
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
    DJ = ch.eval_exprs(ch.covariant_derivative_endo(conn, J), pts)
    T = ch.eval_exprs(ch.torsion(conn), pts)
    Jv = ch.eval_exprs(J.comps, pts)
    rhs = gc.covariant_nijenhuis_rhs(DJ, T, Jv)
    assert np.abs(NJ - rhs).max() < 1e-8


def test_inverse_metric_symbolic_adjugate():
    # n = 3 with off-diagonal entries exercises the memoised minors
    c = ch.Chart(("x1", "x2", "x3"), ((0.2, 1.0),) * 3, seed=2)
    comps = np.array(
        [
            [c.parse("2 + x1^2"), c.parse("x1*x2/4"), c.parse("0")],
            [c.parse("x1*x2/4"), c.parse("2 + x2^2"), c.parse("x3/5")],
            [c.parse("0"), c.parse("x3/5"), c.parse("2 + x3^2")],
        ],
        dtype=object,
    )
    g = ch.MetricField(c, comps)
    inv = ch.inverse_metric(g)
    pts = c.sample_points(12)
    gv = g.eval(pts)
    iv = ch.eval_exprs(inv, pts)
    eye = np.eye(3)
    assert np.abs(gv @ iv - eye).max() < 1e-12
    assert np.abs(iv - np.swapaxes(iv, -1, -2)).max() == 0.0


def test_christoffel_fd_oracle_in_dimension_four():
    names = ("x1", "x2", "x3", "x4")
    c = ch.Chart(names, ((0.3, 1.1),) * 4, seed=6)
    rows = [
        ["2 + x2^2", "x1*x4/5", "0", "0"],
        ["x1*x4/5", "2 + x3^2", "0", "0"],
        ["0", "0", "2 + x4^2", "x2/4"],
        ["0", "0", "x2/4", "2 + x1^2"],
    ]
    g = ch.MetricField(c, np.array([[c.parse(s) for s in r] for r in rows], dtype=object))
    conn = ch.christoffel(g)
    for p in c.sample_points(5):
        oracle = fd_christoffel(g, p)
        got = conn.eval(p.reshape(1, -1))[0]
        assert np.abs(got - oracle).max() < 1e-7
    # Levi-Civita stays metric-parallel through the adjugate inverse
    nabla_g = ch.eval_exprs(ch.covariant_derivative_metric(conn, g), c.sample_points(8))
    assert np.abs(nabla_g).max() < 1e-12


def test_inverse_metric_dimension_six():
    names = tuple(f"x{i + 1}" for i in range(6))
    c = ch.Chart(names, ((0.3, 1.0),) * 6, seed=9)
    entries = [[("3 + x1^2" if i == j else "0") for j in range(6)] for i in range(6)]
    entries[0][1] = entries[1][0] = "x3/4"
    entries[2][3] = entries[3][2] = "x5/5"
    entries[4][5] = entries[5][4] = "x1*x2/6"
    g = ch.MetricField(
        c, np.array([[c.parse(s) for s in r] for r in entries], dtype=object)
    )
    inv = ch.inverse_metric(g)
    pts = c.sample_points(6)
    assert np.abs(g.eval(pts) @ ch.eval_exprs(inv, pts) - np.eye(6)).max() < 1e-12
