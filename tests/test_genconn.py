import inspect
import json
import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab import genconn as gc
from metalliclab import suites
from metalliclab.errors import DomainError, ZeroQ
from metalliclab.metallic import MetallicParams, from_projection
from metalliclab.scenario import ChartScenario, load_scenario
from metalliclab.suites import ScenarioContext, run_suites

from conftest import CORPUS, break_array, exprs, field_context, gen_jet, jet, scenario_path
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
    g = ch.constant_matrix(np.eye(2))
    J = ch.constant_matrix(np.diag([GOLDEN, 1 - GOLDEN]))
    return c, g, J


@pytest.fixture(scope="module")
def product_setup():
    c = ch.Chart(("x1", "x2", "x3"), ((0.4, 2.7), (0.0, 1.5), (0.0, 1.0)), seed=13)
    rows = [["1", "0", "0"], ["0", "sin(x1)^2", "0"], ["0", "0", "1"]]
    g = exprs(c, rows)
    J = from_projection(ch.constant_matrix(np.diag([1.0, 1.0, 0.0])), PARAMS, g, c.sample_points(8))
    return c, g, J


def basis_section(c, a, m):
    """Values and (zero) partials of the constant section e_a at m points."""
    size = 2 * c.dim
    return (
        np.broadcast_to(np.eye(size)[a], (m, size)),
        np.zeros((m, c.dim, size)),
    )


def random_affine(rng, i):
    """c0 + c1 x_i with c0 and c1 drawn uniformly in [-1, 1], in that order."""
    return ex.add(ex.const(rng.uniform(-1, 1)), ex.mul(ex.const(rng.uniform(-1, 1)), ex.coord(i)))


def lc_gamma(c, g, pts):
    """Levi-Civita Gamma of the metric field at the points."""
    return field_context(c, g, None, pts)["gamma[lc]"]


def karaman_gamma(c, g, J, omega, pts):
    """D = Levi-Civita + F at the points, from the array karaman_connection."""
    return field_context(c, g, J, pts, omega=omega)["gamma[karaman]"]


def jm_jet(c, g, J, pts):
    """Values and partials of Jm = blockdiag(J, J*) at the points."""
    return gen_jet(field_context(c, g, J, pts), "jm")


def test_nabla_bracket_trivial_cases():
    c, g, J = flat_setup()
    pts = c.sample_points(8)
    gamma = lc_gamma(c, g, pts)
    out = gc.nabla_bracket(gamma, *basis_section(c, 0, 8), *basis_section(c, 1, 8))
    assert np.abs(out).max() == 0.0
    # sigma = dx^1, tau = d_2, flat connection: covector part vanishes
    out2 = gc.nabla_bracket(gamma, *basis_section(c, 2, 8), *basis_section(c, 1, 8))
    assert np.abs(out2).max() == 0.0


def test_nabla_bracket_antisymmetry_random_fields(product_setup):
    c, g, J = product_setup
    rng = np.random.default_rng(6)
    pts = c.sample_points(10)
    gamma = lc_gamma(c, g, pts)
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
    nij = gc.gen_nijenhuis(lc_gamma(c, g, pts), *jm_jet(c, g, J, pts))
    assert nij.shape == (8, 4, 4, 4)
    assert np.abs(nij).max() == 0.0


def test_gen_nijenhuis_mixed_slot_identity(sphere_chart, sphere_metric, sphere_diag_J):
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(12)
    ctx = field_context(c, g, J, pts)
    nij = gc.gen_nijenhuis(ctx["gamma[lc]"], *gen_jet(ctx, "jm"))
    DJ = ctx["nablaJ[lc]"]
    Jv = ctx["J"]
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
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(8)
    nij = gc.gen_nijenhuis(lc_gamma(c, g, pts), *jm_jet(c, g, J, pts))
    assert np.abs(nij[:, :, 2, 3]).max() < 1e-12


def test_phi_of_torsion_cases(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(10)
    Jv = ch.eval_exprs(J, pts)
    # torsion-free connection
    T0 = gc.torsion(lc_gamma(c, g, pts))
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


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("where", ("nowhere", "at one sample"))
def test_torsion_kernels_on_a_torsion_zero_at_all_samples_or_all_but_one(n, where):
    rng = np.random.default_rng(80 + n)
    m = 4
    J = rng.normal(size=(m, n, n))
    DJ = rng.normal(size=(m, n, n, n))
    T = np.zeros((m, n, n, n))
    if where == "at one sample":
        T[2] = rng.normal(size=(n, n, n))
        T[2] -= T[2].transpose(0, 2, 1)
    phi = gc.phi_of_torsion(T, J)
    expected = phi_of_torsion_loop(T, J)
    assert np.abs(phi - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())
    assert not phi[[0, 1, 3]].any()
    rhs, expected = gc.covariant_nijenhuis_rhs(DJ, T, J), covariant_nijenhuis_rhs_loop(DJ, T, J)
    assert np.abs(rhs - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_bracket_check_fails_without_vector_partials(monkeypatch):
    # a bracket that drops the partials of the vector parts is still exactly
    # antisymmetric; the Leibniz rule, all the check tests, must catch it
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
    assert check.residual > 1.0


def test_karaman_connection_flat_case():
    c, g, J = flat_setup()
    pts = c.sample_points(16)
    gv, Jv = ch.eval_exprs(g, pts), ch.eval_exprs(J, pts)
    ginv = np.linalg.inv(gv)
    # omega = 0 gives F = 0, D = Levi-Civita
    F0 = gc.karaman_connection(gv, ginv, Jv, PARAMS, np.zeros((16, 2)))
    assert np.abs(F0).max() == 0.0

    omega = ch.eval_exprs(ch.constant_matrix([1.0, 0.0]), pts)
    F = gc.karaman_connection(gv, ginv, Jv, PARAMS, omega)
    # g(F(X_i, X_j), X_r) + g(X_j, F(X_i, X_r)) = 0
    skew = np.einsum("mkij,mkr->mijr", F, gv) + np.einsum("mkir,mjk->mijr", F, gv)
    assert np.abs(skew).max() < 1e-12
    # torsion of D matches the closed form at 20 points
    Td = gc.torsion(lc_gamma(c, g, pts) + F)
    closed = gc.torsion_closed_form_values(Jv, PARAMS, omega)
    assert np.abs(Td - closed).max() < 1e-12

    with pytest.raises(ZeroQ):
        gc.karaman_connection(gv, ginv, Jv, MetallicParams(1, 0), omega)


def test_torsion_formula_frozen_values():
    # golden diagonal J, omega = dx^1: T^D(d_1, d_2) = 0 because the two
    # eigen-directions cancel (sigma (1 - sigma) = -q)
    # T[k, i, j] = T^D(d_i, d_j)^k
    J_at = np.diag([GOLDEN, 1 - GOLDEN])[None]
    w = np.array([[1.0, 0.0]])
    T = gc.torsion_closed_form_values(J_at, PARAMS, w)[0]
    assert np.abs(T[:, 0, 1]).max() < 1e-15
    # antisymmetry: X = Y gives zero
    assert np.abs(T[:, 0, 0]).max() == 0.0
    # scalar J = sigma I: T^D(d_1, d_2) = -(1 + sigma^2) d_2 = -(2 + sigma) d_2
    T2 = gc.torsion_closed_form_values(GOLDEN * np.eye(2)[None], PARAMS, w)[0]
    assert np.abs(T2[:, 0, 1] - np.array([0.0, -(2.0 + GOLDEN)])).max() < 1e-12
    with pytest.raises(ZeroQ):
        gc.torsion_closed_form_values(J_at, MetallicParams(1, 0), w)


def test_torsion_lemma_three_way(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(12)
    rng = np.random.default_rng(12)
    omega = np.array([random_affine(rng, i) for i in range(3)], dtype=object)
    Td = gc.torsion(karaman_gamma(c, g, J, omega, pts))
    Jv = ch.eval_exprs(J, pts)
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
    jm = jm_jet(c, g, J, pts)
    Jv, dJ = jet(J, pts)
    gv, dg = jet(g, pts)
    for trial in range(3):
        omega = np.array([random_affine(rng, (trial + i) % 3) for i in range(3)], dtype=object)
        D = karaman_gamma(c, g, J, omega, pts)
        Dg = gc.nabla_metric(D, gv, dg)
        assert np.abs(Dg).max() < 1e-9
        DJ = gc.nabla_endo(D, Jv, dJ)
        assert np.abs(DJ).max() < 1e-9
        Td = gc.torsion(D)
        assert np.abs(gc.phi_of_torsion(Td, Jv)).max() < 1e-9
        worst = np.abs(gc.gen_nijenhuis(D, *jm)).max()
        assert worst < 1e-9


def test_karaman_metric_parallel_fails_with_j_g_for_g_j_in_the_last_term(
    tmp_path, monkeypatch
):
    # g = [[2, 1], [1, 1]] and J from the g-symmetric projection [[1, 1/2],
    # [0, 0]] do not commute, so the last term of F, (1/q) w(JX_l) g^{lk}
    # J^s_j g_{is} X_k, keeps g parallel only as g J; on a diagonal g or J
    # the two orders agree and the corpus cannot tell them apart
    payload = json.loads(scenario_path("flat-golden").read_text())
    payload.update(
        metric=[["2", "1"], ["1", "1"]],
        J={"projection": [["1", "0.5"], ["0", "0"]]},
        suites=["karaman"],
    )
    path = tmp_path / "sheared.json"
    path.write_text(json.dumps(payload))
    scenario = load_scenario(path)
    point = scenario.chart.sample_points(1)
    g, J = ch.eval_exprs(scenario.metric, point)[0], ch.eval_exprs(scenario.J, point)[0]
    assert np.abs(g @ J - J @ g).max() > 0.5
    assert run_suites(scenario).find("karaman/metric-parallel").passed
    source = inspect.getsource(gc.karaman_connection)
    assert source.count("(g @ J)") == 1
    namespace = dict(vars(gc))
    exec(source.replace("(g @ J)", "(J @ g)"), namespace)
    monkeypatch.setattr(gc, "karaman_connection", namespace["karaman_connection"])
    check = run_suites(scenario).find("karaman/metric-parallel")
    assert not check.passed and check.residual > 0.1


def test_semi_symmetric_part_drops_out_of_dj(sphere_chart, sphere_metric, sphere_diag_J):
    # F(X, JY) = J F(X, Y) holds for every compatible pair, so D J = nabla J
    # exactly, whatever the 1-form; checked where nabla J != 0
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(10)
    base_dj = gc.nabla_endo(lc_gamma(c, g, pts), *jet(J, pts))
    assert np.abs(base_dj).max() > 1e-2
    rng = np.random.default_rng(31)
    for _ in range(3):
        omega = np.array([random_affine(rng, i) for i in range(2)], dtype=object)
        D = karaman_gamma(c, g, J, omega, pts)
        dj = gc.nabla_endo(D, *jet(J, pts))
        assert np.abs(dj - base_dj).max() < 1e-12


def test_dhat_tracks_base_derivatives(product_setup, sphere_chart, sphere_metric, sphere_diag_J):
    # positive control: semi-symmetric D on the decomposable scenario
    c, g, J = product_setup
    pts = c.sample_points(12)
    omega = exprs(c, ["x3", "x1", "x2"])
    ctx = field_context(c, g, J, pts, omega=omega)
    D = ctx["gamma[karaman]"]
    for label in ("jm", "jp", "jc"):
        res = gc.dhat_endo(D, *gen_jet(ctx, label))
        assert res.shape == (12, 3, 6, 6)
        assert np.abs(res).max() < 1e-9
    res = gc.dhat_metric(D, *gen_jet(ctx, "ghat"))
    assert np.abs(res).max() < 1e-9

    # negative control: Levi-Civita on the sphere with the diagonal structure
    ctx2 = field_context(sphere_chart, sphere_metric, sphere_diag_J, sphere_chart.sample_points(12))
    gamma2 = ctx2["gamma[lc]"]
    worst = np.abs(gc.dhat_endo(gamma2, *gen_jet(ctx2, "jm"))).max()
    assert worst > 1e-3
    dg_res = np.abs(gc.dhat_metric(gamma2, *gen_jet(ctx2, "ghat"))).max()
    assert dg_res < 1e-9


def test_gen_nijenhuis_vector_pairs_reduce_to_base_nijenhuis(sphere_chart, sphere_metric):
    # N of blockdiag(J, J*) on two vector sections is (N_J, 0) for ANY
    # endomorphism and connection: checked where N_J is genuinely non-zero
    c = sphere_chart
    rows = [["x1*x2", "x2^2"], ["1", "x1 + x2"]]
    J = exprs(c, rows)
    pts = c.sample_points(10)
    NJ = ch.nijenhuis(*jet(J, pts))
    assert np.abs(NJ).max() > 1e-2
    values = gc.gen_nijenhuis(lc_gamma(c, sphere_metric, pts), *jm_jet(c, sphere_metric, J, pts))
    values = values[:, :, 0, 1]
    assert np.abs(values[:, :2] - NJ[:, :, 0, 1]).max() < 1e-10
    assert np.abs(values[:, 2:]).max() < 1e-12


def test_dhat_block_structure(sphere_chart, sphere_metric, sphere_diag_J):
    # (Dhat_k Jm) carries exactly (D_k J) and its transpose in the diagonal
    # blocks, and (Dhat_k Jp) carries (D_k J) / (D_k g) in its first column
    # of blocks; checked where the residuals are genuinely non-zero
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(10)
    ctx = field_context(c, g, J, pts)
    gamma = ctx["gamma[lc]"]
    DJ = gc.nabla_endo(gamma, ctx["J"], ctx["dJ"])
    Dg = gc.nabla_metric(gamma, ctx["g"], ctx["dg"])
    assert np.abs(DJ).max() > 1e-2  # non-trivial comparison
    dm_all = gc.dhat_endo(gamma, *gen_jet(ctx, "jm"))
    dp_all = gc.dhat_endo(gamma, *gen_jet(ctx, "jp"))
    n = 2
    for k in range(n):
        dm = dm_all[:, k]
        assert np.abs(dm[:, :n, :n] - DJ[:, k]).max() < 1e-12
        assert np.abs(dm[:, n:, n:] - np.swapaxes(DJ[:, k], -1, -2)).max() < 1e-12
        assert np.abs(dm[:, :n, n:]).max() == 0.0
        dp = dp_all[:, k]
        assert np.abs(dp[:, :n, :n] - DJ[:, k]).max() < 1e-12
        assert np.abs(dp[:, n:, :n] - Dg[:, k]).max() < 1e-12


def _conditions(c, g, J, pts, name):
    """The residual list of the declared check genconn/``name`` on (g, J),
    from the arrays that check reads."""
    ctx = field_context(c, g, J, pts)
    check = next(check for check in suites.CHECKS if check.cid == f"genconn/{name}")
    return check.residual(ctx, *[ctx[read] for read in check.reads])["per_condition"]


def test_integrability_conditions_vanish_when_locally_metallic(product_setup):
    c, g, J = product_setup
    pts = c.sample_points(12)
    for label in ("jp", "jc"):
        for cond in _conditions(c, g, J, pts, f"{label}-integrability-conditions"):
            assert np.abs(cond).max() < 1e-10
    reduced = _conditions(c, g, J, pts, "jp-reduced-conditions")
    assert len(reduced) == 7  # the near-duplicate pair is kept verbatim
    for cond in reduced:
        assert np.abs(cond).max() < 1e-10
    reduced_c = _conditions(c, g, J, pts, "jc-reduced-conditions")
    assert len(reduced_c) == 6
    for cond in reduced_c:
        assert np.abs(cond).max() < 1e-10


def test_integrability_conditions_fail_on_sphere_diag(
    sphere_chart, sphere_metric, sphere_diag_J
):
    pts = sphere_chart.sample_points(12)
    jp = _conditions(sphere_chart, sphere_metric, sphere_diag_J, pts, "jp-integrability-conditions")
    # the first condition only involves N_J and d-nabla-g, both zero here
    assert np.abs(jp[0]).max() < 1e-10
    assert max(np.abs(cond).max() for cond in jp) > 1e-3


def test_implication_conditions_bound_gen_nijenhuis(product_setup):
    # when all six conditions vanish at every sample, the direct generalized
    # Nijenhuis tensor vanishes too (within 10x the tolerance)
    c, g, J = product_setup
    pts = c.sample_points(10)
    tol = 1e-9
    ctx = field_context(c, g, J, pts)
    worst_condition = max(
        np.abs(cond).max()
        for label in ("jp", "jc")
        for cond in _conditions(c, g, J, pts, f"{label}-integrability-conditions")
    )
    assert worst_condition <= tol
    for label in ("jp", "jc"):
        worst = np.abs(gc.gen_nijenhuis(ctx["gamma[lc]"], *gen_jet(ctx, label))).max()
        assert worst <= 10 * tol


def test_covariant_identity_with_both_connections(
    sphere_chart, sphere_metric, sphere_diag_J
):
    c, g, J = sphere_chart, sphere_metric, sphere_diag_J
    pts = c.sample_points(16)
    NJ = ch.nijenhuis(*jet(J, pts))
    Jv = ch.eval_exprs(J, pts)
    omega = exprs(c, ["x2", "x1"])
    dJ = jet(J, pts)[1]
    for gamma in (lc_gamma(c, g, pts), karaman_gamma(c, g, J, omega, pts)):
        DJ = gc.nabla_endo(gamma, Jv, dJ)
        T = gc.torsion(gamma)
        rhs = gc.covariant_nijenhuis_rhs(DJ, T, Jv)
        assert np.abs(NJ - rhs).max() < 1e-8


def _pointwise(comps):
    """The function point -> values of an Expr array, for the oracles."""
    return lambda p: ch.eval_exprs(comps, np.asarray(p).reshape(1, -1))[0]


def _structure_at(scenario, label):
    """The function point -> Jm, Jp, Jc or ghat there, assembled with np.block."""
    g_at, J_at = _pointwise(scenario.metric), _pointwise(scenario.J)

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
    ctx = ScenarioContext(scenario, samples=3)
    karaman = scenario.omega is not None and name == "product-decomposable"
    gamma = ctx["gamma[karaman]"] if karaman else ctx["gamma[scenario]"]
    fields = {label: _structure_at(scenario, label) for label in ("jm", "jp", "jc", "ghat")}
    oracle_gamma = []
    for m, x in enumerate(ctx.points):
        G = fd_christoffel(scenario.metric, x)
        if karaman:
            assert np.abs(ctx["omega"][m]).max() > 0.1
            G = G + karaman_F(ctx["g"][m], ctx["J"][m], ctx["omega"][m], ctx.params.q)
        oracle_gamma.append(G)
    jp_value, jp_partials = gen_jet(ctx, "jp")
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
            got = gc.gen_nijenhuis(gamma, *gen_jet(ctx, label))[m]
            assert np.abs(got - fd_gen_nijenhuis(fields[label], G, x)).max() < 1e-7
            got = gc.dhat_endo(gamma, *gen_jet(ctx, label))[m]
            assert np.abs(got - fd_dhat(fields[label], G, x)).max() < 1e-7
        got = gc.dhat_metric(gamma, *gen_jet(ctx, "ghat"))[m]
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
    ctx = ScenarioContext(scenario, samples=8)
    for m, x in enumerate(ctx.points):
        G = fd_christoffel(scenario.metric, x)
        assert np.abs(ctx["gamma[lc]"][m] - G).max() <= 1e-8 * max(1.0, np.abs(G).max())
    for conn in ("lc", "scenario"):
        gamma = ctx[f"gamma[{conn}]"]
        got = {
            "nabla J": ctx[f"nablaJ[{conn}]"],
            "nabla g": ctx[f"nablag[{conn}]"],
            "torsion": ctx[f"torsion[{conn}]"],
        }
        for m, G in enumerate(gamma):
            expected = {
                "nabla J": nabla_loop(G, ctx["J"][m], ctx["dJ"][m]),
                "nabla g": nabla_loop(G, ctx["g"][m], ctx["dg"][m], metric=True),
                "torsion": G - np.swapaxes(G, -1, -2),
            }
            for key, value in expected.items():
                scale = max(1.0, np.abs(value).max())
                assert np.abs(got[key][m] - value).max() <= 1e-12 * scale, (name, key)


def test_omega_sweep_names_its_worst_trial_and_sample(monkeypatch):
    # the closed torsion form is computed once for the suite's own 1-form,
    # then once per trial, the forms 0, e_1, e_2, e_3 in turn: call c moves
    # sample c % m by 0.01 * (3 c % 7), so form e_1 (call 2, 0.06) is the
    # worst one and sample 2 its worst sample
    closed_form = gc.torsion_closed_form_values
    calls = []

    def bumped(J_at, params, omega_at):
        out = closed_form(J_at, params, omega_at)
        c = len(calls)
        calls.append(c)
        out[c % len(out)] += 0.01 * (3 * c % 7)
        return out

    monkeypatch.setattr(gc, "torsion_closed_form_values", bumped)
    scenario = load_scenario(scenario_path("product-decomposable"))
    report = run_suites(scenario, suites=["karaman"])
    sweep = report.find("karaman/random-omega-sweep")
    assert len(calls) == 1 + (3 + 1) and report.find("karaman/torsion-closed-form").passed
    per_form = sweep.details["per_form_max"]
    assert len(per_form) == 4 and int(np.argmax(per_form)) == 1
    assert sweep.residual == pytest.approx(0.06, abs=1e-9)
    points = ScenarioContext(scenario).points
    assert sweep.witness == tuple(points[2])
    assert sweep.to_dict()["witness"] == list(points[2])


@pytest.mark.parametrize("name", ["flat-golden", "product-decomposable"])
def test_a_broken_karaman_connection_fails_the_omega_sweep(monkeypatch, name):
    # each 1-form's D is the table's gamma[karaman], so a breaker of that
    # array reaches every form the sweep checks, as it reaches the suite's own
    def broken(gamma):
        gamma[:, 0, 0, 1] += 0.1
        return gamma

    break_array(monkeypatch, "gamma[karaman]", broken)
    report = run_suites(load_scenario(scenario_path(name)), suites=["karaman"])
    assert not report.find("karaman/metric-parallel").passed
    sweep = report.find("karaman/random-omega-sweep")
    assert not sweep.passed and min(sweep.details["per_form_max"]) >= 0.1


def test_an_error_in_one_coordinate_form_s_connection_fails_only_the_sweep(monkeypatch):
    # D for the form e_2 raises at sample 4; the suite's own 1-form is not e_2
    scenario = load_scenario(scenario_path("product-decomposable"))
    points = ScenarioContext(scenario).points
    make, reads = suites.ARRAYS["gamma[karaman]"]

    def failing(ctx, *arrays):
        if (arrays[reads.index("omega")] == np.eye(3)[1]).all():
            raise DomainError("injected", ctx.points[4])
        return make(ctx, *arrays)

    monkeypatch.setitem(suites.ARRAYS, "gamma[karaman]", (failing, reads))
    report = run_suites(scenario, suites=["karaman"])
    assert [c.check_id for c in report.checks if not c.passed] == ["karaman/random-omega-sweep"]
    sweep = report.find("karaman/random-omega-sweep")
    assert sweep.residual == math.inf and sweep.witness == tuple(points[4])


def _rotating_projection():
    """A conformally flat metric and J from the projection onto a unit field
    u that turns with x: J is compatible with g but not parallel."""
    c = ch.Chart(("x1", "x2", "x3"), ((0.2, 1.3),) * 3, seed=3)
    factor = "2 + sin(x1*x2) + 0.3*x3^2"
    g = exprs(c, [[factor if i == j else "0" for j in range(3)] for i in range(3)])
    u = ("cos(x1*x2)", "sin(x1*x2)*cos(x3)", "sin(x1*x2)*sin(x3)")
    P = exprs(c, [[f"{u[i]}*{u[j]}" for j in range(3)] for i in range(3)])
    params = MetallicParams(2.0, 1.0)
    J = from_projection(P, params, g, c.sample_points(8))
    return ChartScenario("rotating-projection", c, params, g, J, None, None, [], 12, 0, 1e-9)


def _swept_arrays(ctx, omega_at):
    """The five arrays the omega sweep reads, for the 1-form values omega_at."""
    g, J = ctx["g"], ctx["J"]
    D = ctx["gamma[lc]"] + gc.karaman_connection(g, ctx["ginv"], J, ctx.params, omega_at)
    T = gc.torsion(D)
    return {
        "dg": gc.nabla_metric(D, g, ctx["dg"]),
        "torsion_gap": suites._torsion_gap(ctx, T, J, omega_at),
        "lemma": suites._torsion_lemma(ctx, T, J),
        "phi": gc.phi_of_torsion(T, J),
        "jm": gc.gen_nijenhuis(D, *gen_jet(ctx, "jm")),
    }


@pytest.mark.parametrize("name", ["flat-golden", "product-decomposable", "rotating-projection"])
def test_the_swept_arrays_are_affine_in_omega(name):
    # the sweep's premise: at each sample every array it reads equals
    # A(0) + sum_k omega_k (A(e_k) - A(0)) for every value omega there
    rng = np.random.default_rng(21)
    if name == "rotating-projection":
        scenario = _rotating_projection()
    else:
        scenario = load_scenario(scenario_path(name))
    lo, hi = np.array(scenario.chart.box).T
    m, n = 12, scenario.chart.dim
    ctx = ScenarioContext(scenario, points=rng.uniform(lo, hi, size=(m, n)))
    if name == "rotating-projection":
        assert np.abs(ctx["nablaJ[lc]"]).max() > 0.1
    basis = [_swept_arrays(ctx, np.zeros((m, n)))]
    basis += [_swept_arrays(ctx, np.tile(np.eye(n)[k], (m, 1))) for k in range(n)]
    for _ in range(3):
        omega_at = rng.uniform(-2.0, 2.0, size=(m, n))
        for key, got in _swept_arrays(ctx, omega_at).items():
            zero = basis[0][key]
            affine = zero.copy()
            for k in range(n):
                weight = omega_at[:, k].reshape((m,) + (1,) * (zero.ndim - 1))
                affine += weight * (basis[k + 1][key] - zero)
            scale = max(1.0, np.abs(got).max(), np.abs(affine).max())
            assert np.abs(got - affine).max() <= 1e-12 * scale, (name, key)
