import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab import genconn as gc
from metalliclab.errors import ZeroQ
from metalliclab.metallic import MetallicParams, from_projection
from metalliclab.scenario import load_scenario
from metalliclab.suites import ScenarioContext, run_suites

from conftest import CORPUS, field_context, scenario_path
from helpers import (
    covariant_nijenhuis_rhs_loop,
    fd_bracket,
    fd_christoffel,
    fd_dhat,
    fd_gen_nijenhuis,
    karaman_F,
    nabla_loop,
    phi_of_torsion_loop,
)

GOLDEN = (1 + math.sqrt(5)) / 2
PARAMS = MetallicParams(1.0, 1.0)


def flat_setup(seed=1):
    c = ch.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), seed=seed)
    g = ch.MetricField(c, ch.constant_matrix(np.eye(2)))
    J = ch.EndoField(c, ch.constant_matrix(np.diag([GOLDEN, 1 - GOLDEN])))
    return c, g, J


@pytest.fixture(scope="module")
def product_setup():
    c = ch.Chart(("x1", "x2", "x3"), ((0.4, 2.7), (0.0, 1.5), (0.0, 1.0)), seed=13)
    rows = [["1", "0", "0"], ["0", "sin(x1)^2", "0"], ["0", "0", "1"]]
    g = ch.MetricField(c, np.array([[c.parse(s) for s in r] for r in rows], dtype=object))
    P = ch.EndoField(c, ch.constant_matrix(np.diag([1.0, 1.0, 0.0])))
    J = from_projection(c, P, PARAMS, g, c.sample_points(8)).J
    return c, g, J


def jet(comps, pts):
    """Values and first partials d_k of an Expr array at the points, [m, k, ...]."""
    comps = np.asarray(comps, dtype=object)
    n = pts.shape[1]
    partials = np.empty((n,) + comps.shape, dtype=object)
    for k in range(n):
        for idx in np.ndindex(comps.shape):
            partials[(k,) + idx] = ex.differentiate(comps[idx], k)
    return ch.eval_exprs(comps, pts), ch.eval_exprs(partials, pts)


def basis_section(c, a, m):
    """Values and (zero) partials of the constant section e_a at m points."""
    size = 2 * c.dim
    return (
        np.broadcast_to(np.eye(size)[a], (m, size)),
        np.zeros((m, c.dim, size)),
    )


def lc_gamma(g, pts):
    """Levi-Civita Gamma of the metric field at the points."""
    return field_context(g, None, pts).lc_gamma_at


def karaman_gamma(g, J, omega, pts):
    """D = Levi-Civita + F at the points, from the array karaman_connection."""
    return field_context(g, J, pts, omega=omega).karaman_gamma_at


def jm_jet(g, J, pts):
    """Values and partials of Jm = blockdiag(J, J*) at the points."""
    return field_context(g, J, pts).gen_jet("jm")


def test_nabla_bracket_trivial_cases():
    c, g, J = flat_setup()
    pts = c.sample_points(8)
    gamma = lc_gamma(g, pts)
    out = gc.nabla_bracket(gamma, *basis_section(c, 0, 8), *basis_section(c, 1, 8))
    assert np.abs(out).max() == 0.0
    # sigma = dx^1, tau = d_2, flat connection: covector part vanishes
    out2 = gc.nabla_bracket(gamma, *basis_section(c, 2, 8), *basis_section(c, 1, 8))
    assert np.abs(out2).max() == 0.0


def test_nabla_bracket_antisymmetry_random_fields(product_setup):
    c, g, J = product_setup
    rng = np.random.default_rng(6)
    pts = c.sample_points(10)
    gamma = lc_gamma(g, pts)
    n = c.dim
    for _ in range(4):
        sections = []
        for _ in range(2):
            c0 = np.empty(2 * n)
            c1 = np.empty((2 * n, n))
            for a in range(2 * n):
                c0[a] = rng.uniform(-1, 1)
                c1[a] = rng.uniform(-1, 1, size=n)
            partials = np.broadcast_to(c1.T, (len(pts), n, 2 * n))
            sections.append((c0 + pts @ c1.T, partials))
        (s, ds), (t, dt) = sections
        fwd = gc.nabla_bracket(gamma, s, ds, t, dt)
        bwd = gc.nabla_bracket(gamma, t, dt, s, ds)
        assert np.abs(fwd + bwd).max() < 1e-9


def test_gen_nijenhuis_flat_constant_vanishes():
    c, g, J = flat_setup()
    pts = c.sample_points(8)
    nij = gc.gen_nijenhuis(lc_gamma(g, pts), *jm_jet(g, J, pts))
    assert nij.shape == (8, 4, 4, 4)
    assert np.abs(nij).max() == 0.0


def test_gen_nijenhuis_mixed_slot_identity(sphere_chart, sphere_metric, sphere_diag_J):
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(12)
    ctx = field_context(g, J, pts)
    nij = gc.gen_nijenhuis(ctx.lc_gamma_at, *ctx.gen_jet("jm"))
    DJ = ctx.bundle(ctx.lc_gamma_at).nabla_J_at
    Jv = ctx.J_at
    n = 2
    for i in range(n):
        for j in range(n):
            values = nij[:, :, i, n + j]
            assert np.abs(values[:, :n]).max() < 1e-12
            expected = np.einsum("ma,mac->mc", Jv[:, :, i], DJ[:, :, j, :]) - np.einsum(
                "ms,msc->mc", DJ[:, i, j, :], Jv
            )
            assert np.abs(values[:, n:] - expected).max() < 1e-8


def test_gen_nijenhuis_covector_pairs_vanish(sphere_chart, sphere_metric, sphere_diag_J):
    # N(alpha, beta) = 0 for the generalized metallic structure
    pts = sphere_chart.sample_points(8)
    nij = gc.gen_nijenhuis(lc_gamma(sphere_metric, pts), *jm_jet(sphere_metric, sphere_diag_J, pts))
    assert np.abs(nij[:, :, 2, 3]).max() < 1e-12


def test_phi_of_torsion_cases(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(10)
    Jv = ch.eval_exprs(J.comps, pts)
    # torsion-free connection
    T0 = gc.torsion(lc_gamma(g, pts))
    assert np.abs(gc.phi_of_torsion(T0, Jv)).max() == 0.0
    # J = I with (p, q) = (0, 1): Phi(T) = -T + T + T - T = 0 for any torsion
    rng = np.random.default_rng(3)
    T_random = rng.normal(size=T0.shape)
    T_random = T_random - T_random.transpose(0, 1, 3, 2)
    eye = np.broadcast_to(np.eye(3), Jv.shape)
    assert np.abs(gc.phi_of_torsion(T_random, eye)).max() < 1e-12


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_torsion_kernels_match_loop_oracles(n):
    # random non-symmetric J, antisymmetric T and arbitrary nabla J
    rng = np.random.default_rng(70 + n)
    m = 3
    J = rng.normal(size=(m, n, n))
    T = rng.normal(size=(m, n, n, n))
    T = T - T.transpose(0, 1, 3, 2)
    DJ = rng.normal(size=(m, n, n, n))
    for got, expected in (
        (gc.phi_of_torsion(T, J), phi_of_torsion_loop(T, J)),
        (gc.covariant_nijenhuis_rhs(DJ, T, J), covariant_nijenhuis_rhs_loop(DJ, T, J)),
    ):
        # Phi(T) vanishes identically at n = 2, hence the absolute floor
        assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_bracket_check_fails_without_vector_partials(monkeypatch):
    # a bracket that drops the partials of the vector parts is still exactly
    # antisymmetric; the Leibniz side of the check must catch it
    original = gc.nabla_bracket

    def mutant(gamma, S, dS, T, dT):
        n = gamma.shape[1]
        dS, dT = dS.copy(), dT.copy()
        dS[..., :n] = 0.0
        dT[..., :n] = 0.0
        return original(gamma, S, dS, T, dT)

    scenario = load_scenario(scenario_path("warped-mixing"))
    cid = "genconn/nabla-bracket-antisymmetry"
    assert run_suites(scenario, suites=["genconn"]).find(cid).passed
    monkeypatch.setattr(gc, "nabla_bracket", mutant)
    check = run_suites(scenario, suites=["genconn"]).find(cid)
    assert not check.passed
    assert check.details["antisymmetry"] == 0.0
    assert check.details["leibniz"] > 1.0


def test_karaman_connection_flat_case():
    c, g, J = flat_setup()
    pts = c.sample_points(16)
    gv, Jv = g.eval(pts), J.eval(pts)
    ginv = np.linalg.inv(gv)
    # omega = 0 gives F = 0, D = Levi-Civita
    F0 = gc.karaman_connection(gv, ginv, Jv, PARAMS, np.zeros((16, 2)))
    assert np.abs(F0).max() == 0.0

    omega = ch.OneFormField(c, np.array([c.parse("1"), c.parse("0")], dtype=object))
    F = gc.karaman_connection(gv, ginv, Jv, PARAMS, omega.eval(pts))
    # g(F(X_i, X_j), X_r) + g(X_j, F(X_i, X_r)) = 0
    skew = np.einsum("mkij,mkr->mijr", F, gv) + np.einsum("mkir,mjk->mijr", F, gv)
    assert np.abs(skew).max() < 1e-12
    # torsion of D matches the closed form at 20 points
    Td = gc.torsion(lc_gamma(g, pts) + F)
    closed = gc.torsion_closed_form_values(Jv, PARAMS, omega.eval(pts))
    assert np.abs(Td - closed).max() < 1e-12

    with pytest.raises(ZeroQ):
        gc.karaman_connection(gv, ginv, Jv, MetallicParams(1, 0), omega.eval(pts))


def test_torsion_formula_frozen_values():
    # golden diagonal J, omega = dx^1: T^D(d_1, d_2) = 0 because the two
    # eigen-directions cancel (sigma (1 - sigma) = -q)
    J_at = np.diag([GOLDEN, 1 - GOLDEN])
    w = np.array([1.0, 0.0])
    out = gc.torsion_formula_D(J_at, PARAMS, w, [1.0, 0.0], [0.0, 1.0])
    assert np.abs(out).max() < 1e-15
    # antisymmetry: X = Y gives zero
    out_xx = gc.torsion_formula_D(J_at, PARAMS, w, [1.0, 0.0], [1.0, 0.0])
    assert np.abs(out_xx).max() == 0.0
    # scalar J = sigma I: T^D(d_1, d_2) = -(1 + sigma^2) d_2 = -(2 + sigma) d_2
    out2 = gc.torsion_formula_D(GOLDEN * np.eye(2), PARAMS, w, [1.0, 0.0], [0.0, 1.0])
    assert np.abs(out2 - np.array([0.0, -(2.0 + GOLDEN)])).max() < 1e-12
    with pytest.raises(ZeroQ):
        gc.torsion_formula_D(J_at, MetallicParams(1, 0), w, [1, 0], [0, 1])


def test_torsion_lemma_three_way(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(12)
    rng = np.random.default_rng(12)
    omega = ch.OneFormField(
        c,
        np.array(
            [ex.const(rng.uniform(-1, 1)) + ex.const(rng.uniform(-1, 1)) * c.coord(i) for i in range(3)],
            dtype=object,
        ),
    )
    Td = gc.torsion(karaman_gamma(g, J, omega, pts))
    Jv = ch.eval_exprs(J.comps, pts)
    for _ in range(10):
        X = rng.normal(size=3)
        Y = rng.normal(size=3)
        for m in range(4):
            T_m = Td[m]
            J_m = Jv[m]
            txy = np.einsum("kij,i,j->k", T_m, X, Y)
            tjx = np.einsum("kij,i,j->k", T_m, J_m @ X, Y)
            txj = np.einsum("kij,i,j->k", T_m, X, J_m @ Y)
            assert np.abs(tjx - J_m @ txy).max() < 1e-9
            assert np.abs(txj - J_m @ txy).max() < 1e-9


def test_karaman_full_suite_on_product_scenario(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(16)
    rng = np.random.default_rng(20)
    jm = jm_jet(g, J, pts)
    Jv, dJ = jet(J.comps, pts)
    gv, dg = jet(g.comps, pts)
    for trial in range(3):
        comps = np.array(
            [
                ex.const(rng.uniform(-1, 1))
                + ex.const(rng.uniform(-1, 1)) * c.coord((trial + i) % 3)
                for i in range(3)
            ],
            dtype=object,
        )
        omega = ch.OneFormField(c, comps)
        D = karaman_gamma(g, J, omega, pts)
        Dg = gc.nabla_metric(D, gv, dg)
        assert np.abs(Dg).max() < 1e-9
        DJ = gc.nabla_endo(D, Jv, dJ)
        assert np.abs(DJ).max() < 1e-9
        Td = gc.torsion(D)
        assert np.abs(gc.phi_of_torsion(Td, Jv)).max() < 1e-9
        worst = np.abs(gc.gen_nijenhuis(D, *jm)).max()
        assert worst < 1e-9


def test_semi_symmetric_part_drops_out_of_dj(sphere_chart, sphere_metric, sphere_diag_J):
    # F(X, JY) = J F(X, Y) holds for every compatible pair, so D J = nabla J
    # exactly, whatever the 1-form; checked where nabla J != 0
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(10)
    base_dj = gc.nabla_endo(lc_gamma(g, pts), *jet(J.comps, pts))
    assert np.abs(base_dj).max() > 1e-2
    rng = np.random.default_rng(31)
    for _ in range(3):
        comps = np.array(
            [
                ex.const(rng.uniform(-1, 1)) + ex.const(rng.uniform(-1, 1)) * c.coord(i)
                for i in range(2)
            ],
            dtype=object,
        )
        D = karaman_gamma(g, J, ch.OneFormField(c, comps), pts)
        dj = gc.nabla_endo(D, *jet(J.comps, pts))
        assert np.abs(dj - base_dj).max() < 1e-12


def test_dhat_tracks_base_derivatives(product_setup, sphere_chart, sphere_metric, sphere_diag_J):
    # positive control: semi-symmetric D on the decomposable scenario
    c, g, J = product_setup
    pts = c.sample_points(12)
    omega = ch.OneFormField(c, np.array([c.parse("x3"), c.parse("x1"), c.parse("x2")], dtype=object))
    ctx = field_context(g, J, pts, omega=omega)
    D = ctx.karaman_gamma_at
    for label in ("jm", "jp", "jc"):
        res = gc.dhat_endo(D, *ctx.gen_jet(label))
        assert res.shape == (12, 3, 6, 6)
        assert np.abs(res).max() < 1e-9
    res = gc.dhat_metric(D, *ctx.gen_jet("ghat"))
    assert np.abs(res).max() < 1e-9

    # negative control: Levi-Civita on the sphere with the diagonal structure
    ctx2 = field_context(sphere_metric, sphere_diag_J, sphere_chart.sample_points(12))
    gamma2 = ctx2.lc_gamma_at
    worst = np.abs(gc.dhat_endo(gamma2, *ctx2.gen_jet("jm"))).max()
    assert worst > 1e-3
    dg_res = np.abs(gc.dhat_metric(gamma2, *ctx2.gen_jet("ghat"))).max()
    assert dg_res < 1e-9


def test_gen_nijenhuis_vector_pairs_reduce_to_base_nijenhuis(sphere_chart, sphere_metric):
    # N of blockdiag(J, J*) on two vector sections is (N_J, 0) for ANY
    # endomorphism and connection: checked where N_J is genuinely non-zero
    c = sphere_chart
    J = ch.EndoField(
        c,
        np.array(
            [[c.parse("x1*x2"), c.parse("x2^2")], [c.parse("1"), c.parse("x1 + x2")]],
            dtype=object,
        ),
    )
    pts = c.sample_points(10)
    NJ = ch.nijenhuis(*jet(J.comps, pts))
    assert np.abs(NJ).max() > 1e-2
    values = gc.gen_nijenhuis(lc_gamma(sphere_metric, pts), *jm_jet(sphere_metric, J, pts))
    values = values[:, :, 0, 1]
    assert np.abs(values[:, :2] - NJ[:, :, 0, 1]).max() < 1e-10
    assert np.abs(values[:, 2:]).max() < 1e-12


def test_dhat_block_structure(sphere_chart, sphere_metric, sphere_diag_J):
    # (Dhat_k Jm) carries exactly (D_k J) and its transpose in the diagonal
    # blocks, and (Dhat_k Jp) carries (D_k J) / (D_k g) in its first column
    # of blocks; checked where the residuals are genuinely non-zero
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(10)
    ctx = field_context(g, J, pts)
    gamma = ctx.lc_gamma_at
    DJ = gc.nabla_endo(gamma, ctx.J_at, ctx.dJ_at)
    Dg = gc.nabla_metric(gamma, ctx.g_at, ctx.dg_at)
    assert np.abs(DJ).max() > 1e-2  # non-trivial comparison
    dm_all = gc.dhat_endo(gamma, *ctx.gen_jet("jm"))
    dp_all = gc.dhat_endo(gamma, *ctx.gen_jet("jp"))
    n = 2
    for k in range(n):
        dm = dm_all[:, k]
        assert np.abs(dm[:, :n, :n] - DJ[:, k]).max() < 1e-12
        assert np.abs(dm[:, n:, n:] - np.swapaxes(DJ[:, k], -1, -2)).max() < 1e-12
        assert np.abs(dm[:, :n, n:]).max() == 0.0
        dp = dp_all[:, k]
        assert np.abs(dp[:, :n, :n] - DJ[:, k]).max() < 1e-12
        assert np.abs(dp[:, n:, :n] - Dg[:, k]).max() < 1e-12


def _condition_inputs(g, J, pts):
    ctx = field_context(g, J, pts)
    return ctx.bundle(ctx.lc_gamma_at).condition_inputs


def test_integrability_conditions_vanish_when_locally_metallic(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(12)
    ci = _condition_inputs(g, J, pts)
    for cond in gc.jp_condition_residuals(ci) + gc.jc_condition_residuals(ci):
        assert np.abs(cond).max() < 1e-10
    reduced = gc.jp_reduced_residuals(ci)
    assert len(reduced) == 7  # the near-duplicate pair is kept verbatim
    for cond in reduced:
        assert np.abs(cond).max() < 1e-10
    reduced_c = gc.jc_reduced_residuals(ci)
    assert len(reduced_c) == 6
    for cond in reduced_c:
        assert np.abs(cond).max() < 1e-10


def test_integrability_conditions_fail_on_sphere_diag(
    sphere_chart, sphere_metric, sphere_diag_J
):
    pts = sphere_chart.sample_points(12)
    ci = _condition_inputs(sphere_metric, sphere_diag_J, pts)
    jp = gc.jp_condition_residuals(ci)
    # the first condition only involves N_J and d-nabla-g, both zero here
    assert np.abs(jp[0]).max() < 1e-10
    assert max(np.abs(cond).max() for cond in jp) > 1e-3


def test_implication_conditions_bound_gen_nijenhuis(product_setup):
    # when all six conditions vanish at every sample, the direct generalized
    # Nijenhuis tensor vanishes too (within 10x the tolerance)
    c, g, J = product_setup
    pts = c.sample_points(10)
    tol = 1e-9
    ctx = field_context(g, J, pts)
    ci = ctx.bundle(ctx.lc_gamma_at).condition_inputs
    worst_condition = max(
        np.abs(cond).max()
        for cond in gc.jp_condition_residuals(ci) + gc.jc_condition_residuals(ci)
    )
    assert worst_condition <= tol
    for label in ("jp", "jc"):
        worst = np.abs(gc.gen_nijenhuis(ctx.lc_gamma_at, *ctx.gen_jet(label))).max()
        assert worst <= 10 * tol


def test_covariant_identity_with_both_connections(
    sphere_chart, sphere_metric, sphere_diag_J
):
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(16)
    NJ = ch.nijenhuis(*jet(J.comps, pts))
    Jv = ch.eval_exprs(J.comps, pts)
    omega = ch.OneFormField(c, np.array([c.parse("x2"), c.parse("x1")], dtype=object))
    dJ = jet(J.comps, pts)[1]
    for gamma in (lc_gamma(g, pts), karaman_gamma(g, J, omega, pts)):
        DJ = gc.nabla_endo(gamma, Jv, dJ)
        T = gc.torsion(gamma)
        rhs = gc.covariant_nijenhuis_rhs(DJ, T, Jv)
        assert np.abs(NJ - rhs).max() < 1e-8


def _pointwise(comps):
    """The function point -> values of an Expr array, for the oracles."""
    return lambda p: ch.eval_exprs(comps, np.asarray(p).reshape(1, -1))[0]


def _structure_at(scenario, label):
    """The function point -> Jm, Jp, Jc or ghat there, assembled with np.block."""
    g_at, J_at = _pointwise(scenario.metric.comps), _pointwise(scenario.J.comps)

    def at(p):
        g, J = g_at(p), J_at(p)
        ginv, zero, eye = np.linalg.inv(g), np.zeros_like(g), np.eye(len(g))
        blocks = {
            "jm": [[J, zero], [zero, J.T]],
            "jp": [[J, (eye - J @ J) @ ginv], [g, -J.T]],
            "jc": [[J, -(eye + J @ J) @ ginv], [g, -J.T]],
            "ghat": [[g, zero], [zero, ginv]],
        }
        return np.block(blocks[label])

    return at


@pytest.mark.parametrize("name", ["sphere-diagJ", "warped-mixing", "product-decomposable"])
def test_array_layer_matches_finite_difference_oracles(name):
    # N, the bracket and Dhat from the array functions against brackets and
    # Dhat written out entry by entry, with central differences of the
    # structure matrices and Gamma values that do not come from
    # differentiate: the Christoffel symbols by finite differences, plus F
    # of the scenario's 1-form on product-decomposable
    scenario = load_scenario(scenario_path(name))
    with ex.fresh_table(scenario.table):
        ctx = ScenarioContext(scenario, samples=3)
        karaman = scenario.omega is not None and name == "product-decomposable"
        gamma = ctx.karaman_gamma_at if karaman else ctx.gamma_at
        fields = {label: _structure_at(scenario, label) for label in ("jm", "jp", "jc", "ghat")}
        oracle_gamma = []
        for m, x in enumerate(ctx.points):
            G = fd_christoffel(scenario.metric, x)
            if karaman:
                assert np.abs(ctx.omega_at[m]).max() > 0.1
                G = G + karaman_F(ctx.g_at[m], ctx.J_at[m], ctx.omega_at[m], ctx.params.q)
            oracle_gamma.append(G)
        jp_value, jp_partials = ctx.gen_jet("jp")
        n = ctx.chart.dim
        a, b = np.triu_indices(2 * n, 1)
        columns, d_columns = np.swapaxes(jp_value, -1, -2), jp_partials.transpose(0, 3, 1, 2)
        brackets = gc.nabla_bracket(
            gamma, columns[:, a], d_columns[:, a], columns[:, b], d_columns[:, b]
        )
        jp_at = fields["jp"]
        for m, x in enumerate(ctx.points):
            G = oracle_gamma[m]
            for label in ("jm", "jp", "jc"):
                got = gc.gen_nijenhuis(gamma, *ctx.gen_jet(label))[m]
                assert np.abs(got - fd_gen_nijenhuis(fields[label], G, x)).max() < 1e-7
                got = gc.dhat_endo(gamma, *ctx.gen_jet(label))[m]
                assert np.abs(got - fd_dhat(fields[label], G, x)).max() < 1e-7
            got = gc.dhat_metric(gamma, *ctx.gen_jet("ghat"))[m]
            oracle = fd_dhat(fields["ghat"], G, x, metric=True)
            assert np.abs(got - oracle).max() < 1e-7
            for pair, (i, j) in enumerate(zip(a, b)):
                oracle = fd_bracket(
                    lambda p, i=i: jp_at(p)[:, i], lambda p, j=j: jp_at(p)[:, j], G, x
                )
                assert np.abs(brackets[m, pair] - oracle).max() < 1e-7


@pytest.mark.parametrize("name", CORPUS)
def test_array_covariant_derivatives_match_the_symbolic_ones(name):
    # nabla J, nabla g and the torsion of both connections against the
    # formulas written out entry by entry, from the same Christoffel symbols
    # and leaf partials; the Levi-Civita symbols themselves against the Koszul
    # formula with finite-difference metric partials
    scenario = load_scenario(scenario_path(name))
    with ex.fresh_table(scenario.table):
        ctx = ScenarioContext(scenario, samples=8)
        for m, x in enumerate(ctx.points):
            G = fd_christoffel(scenario.metric, x)
            assert np.abs(ctx.lc_gamma_at[m] - G).max() <= 1e-8 * max(1.0, np.abs(G).max())
        for gamma in (ctx.lc_gamma_at, ctx.gamma_at):
            b = ctx.bundle(gamma)
            got = {"nabla J": b.nabla_J_at, "nabla g": b.nabla_g_at, "torsion": b.torsion_at}
            for m, G in enumerate(gamma):
                expected = {
                    "nabla J": nabla_loop(G, ctx.J_at[m], ctx.dJ_at[m]),
                    "nabla g": nabla_loop(G, ctx.g_at[m], ctx.dg_at[m], metric=True),
                    "torsion": G - np.swapaxes(G, -1, -2),
                }
                for key, value in expected.items():
                    scale = max(1.0, np.abs(value).max())
                    assert np.abs(got[key][m] - value).max() <= 1e-12 * scale, (name, key)


def test_omega_sweep_names_its_worst_trial_and_sample(monkeypatch):
    # the closed torsion form is computed once for the suite's own 1-form,
    # then once per trial: call c moves sample c % m by 0.01 * (c % 7), so
    # trial 5 (call 6) is the first worst one and sample 6 its worst sample
    closed_form = gc.torsion_closed_form_values
    calls = []

    def bumped(J_at, params, omega_at):
        out = closed_form(J_at, params, omega_at)
        c = len(calls)
        calls.append(c)
        out[c % len(out)] += 0.01 * (c % 7)
        return out

    monkeypatch.setattr(gc, "torsion_closed_form_values", bumped)
    scenario = load_scenario(scenario_path("product-decomposable"))
    report = run_suites(scenario, suites=["karaman"])
    sweep = report.find("karaman/random-omega-sweep")
    assert len(calls) == 21 and report.find("karaman/torsion-closed-form").passed
    assert sweep.details["worst_trial"] == 5
    assert sweep.residual == pytest.approx(0.06, abs=1e-9)
    points = ScenarioContext(scenario).points
    assert sweep.witness == tuple(points[6])
    assert sweep.to_dict()["witness"] == list(points[6])
