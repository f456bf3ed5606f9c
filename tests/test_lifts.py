import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab import lifts as lf
from metalliclab.errors import DomainError
from metalliclab.metallic import MetallicParams, from_projection
from metalliclab.scenario import load_scenario
from metalliclab import suites
from metalliclab.suites import ScenarioContext, run_suites

from conftest import CORPUS, field_context, scenario_path
from helpers import fd_lifted_nijenhuis, fd_partial, lifted_jbar

GOLDEN = (1 + math.sqrt(5)) / 2
PARAMS = MetallicParams(1.0, 1.0)


def flat_setup():
    c = ch.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), seed=1)
    g = ch.MetricField(c, ch.constant_matrix(np.eye(2)))
    J = ch.EndoField(c, ch.constant_matrix(np.diag([GOLDEN, 1 - GOLDEN])))
    return c, g, J


@pytest.fixture(scope="module")
def sphere_setup(sphere_chart, sphere_metric, sphere_diag_J):
    return sphere_chart, sphere_metric, sphere_diag_J


@pytest.fixture(scope="module")
def warped_setup():
    c = ch.Chart(("x1", "x2", "x3"), ((0.3, 1.2),) * 3, seed=17)
    rows = [["1", "0", "0"], ["0", "exp(2*x1*x3)", "0"], ["0", "0", "1"]]
    g = ch.MetricField(c, np.array([[c.parse(s) for s in r] for r in rows], dtype=object))
    P = ch.EndoField(c, ch.constant_matrix(np.diag([1.0, 1.0, 0.0])))
    J = from_projection(c, P, PARAMS, g, c.sample_points(8)).J
    return c, g, J


def lift_at(g, J, flavor, pts):
    """The array lift at the 2n points ``pts`` over the Levi-Civita values at their base points."""
    n = g.chart.dim
    return lf.lift(flavor, pts[:, n:], **suites._lift_inputs(field_context(g, J, pts[:, :n])))


def test_lifted_chart_samples():
    c, g, J = flat_setup()
    lifted = lf.LiftedChart(c, lf.TANGENT)
    pts = lifted.sample_points(8, 4, seed=3)
    assert pts.shape == (32, 4)
    assert (pts == lifted.sample_points(8, 4, seed=3)).all()
    assert (np.abs(pts[:, 2:]) <= 1.0).all()
    # four fibre draws share each base point
    assert (pts[0, :2] == pts[3, :2]).all()
    with pytest.raises(ValueError):
        lf.LiftedChart(c, "sideways")


def test_fibre_points_are_the_fibre_part_of_the_samples():
    c, *_ = flat_setup()
    lifted = lf.LiftedChart(c, lf.COTANGENT)
    pts = lifted.sample_points(8, 4, seed=3)
    assert (lifted.fibre_points(32, 3) == pts[:, 2:]).all()


def test_horizontal_frame_zero_connection_is_coordinate_frame():
    c, g, J = flat_setup()
    for flavor in (lf.TANGENT, lf.COTANGENT):
        lifted = lf.LiftedChart(c, flavor)
        values = lift_at(g, J, flavor, lifted.sample_points(4, 2)).forward[:, :, :2]
        expected = np.zeros_like(values)
        expected[:, 0, 0] = 1.0
        expected[:, 1, 1] = 1.0
        assert np.abs(values - expected).max() == 0.0


def test_horizontal_frame_formulas_on_sphere(sphere_setup):
    c, g, J = sphere_setup
    pts_t = lf.LiftedChart(c, lf.TANGENT).sample_points(6, 2, seed=2)
    gamma = field_context(g, J, pts_t[:, :2]).lc_gamma_at
    y = pts_t[:, 2:]

    tangent = lift_at(g, J, lf.TANGENT, pts_t).forward[:, :, :2]
    # fibre component l of X_i^H is -y^k Gamma^l_{ik}
    expected = -np.einsum("mk,mlik->mli", y, gamma)
    assert np.abs(tangent[:, 2:, :] - expected).max() < 1e-14

    cotangent = lift_at(g, J, lf.COTANGENT, pts_t).forward[:, :, :2]
    expected_c = np.einsum("mk,mkil->mli", y, gamma)
    assert np.abs(cotangent[:, 2:, :] - expected_c).max() < 1e-14


def test_morphism_matrices_invertible(sphere_setup):
    c, g, J = sphere_setup
    lifted_t = lf.LiftedChart(c, lf.TANGENT)
    pts = lifted_t.sample_points(8, 2, seed=4)
    tangent = lift_at(g, J, lf.TANGENT, pts)
    cotangent = lift_at(g, J, lf.COTANGENT, pts)
    psi, phi = tangent.forward, cotangent.forward
    g_at = ch.eval_exprs(g.comps, pts)
    # block-triangular determinant: det psi = det g^{-1} != 0; det phi = 1
    assert np.abs(np.linalg.det(psi) - 1.0 / np.linalg.det(g_at)).max() < 1e-12
    assert np.abs(np.linalg.det(phi) - 1.0).max() < 1e-12
    # closed-form inverses really invert
    psi_inv, phi_inv = tangent.backward, cotangent.backward
    eye = np.eye(4)
    assert np.abs(psi @ psi_inv - eye).max() < 1e-12
    assert np.abs(phi @ phi_inv - eye).max() < 1e-12
    # flat morphisms are the identity
    cf, gf, Jf = flat_setup()
    lifted_f = lf.LiftedChart(cf, lf.TANGENT)
    psi_f = lift_at(gf, Jf, lf.TANGENT, lifted_f.sample_points(4, 1)).forward
    assert np.abs(psi_f - eye).max() == 0.0


def test_flat_lift_is_block_diagonal():
    c, g, J = flat_setup()
    for flavor in (lf.TANGENT, lf.COTANGENT):
        lifted = lf.LiftedChart(c, flavor)
        pts = lifted.sample_points(8, 2)
        lift = lift_at(g, J, flavor, pts)
        jv = lift.jbar
        expected = np.zeros((4, 4))
        expected[:2, :2] = np.diag([GOLDEN, 1 - GOLDEN])
        expected[2:, 2:] = np.diag([GOLDEN, 1 - GOLDEN])
        assert np.abs(jv - expected).max() < 1e-15
        assert np.abs(lift.gbar - np.eye(4)).max() < 1e-15


def test_scalar_structure_lifts_to_scalar(sphere_setup):
    c, g, _ = sphere_setup
    scalar = ch.EndoField(c, ch.constant_matrix(GOLDEN * np.eye(2)))
    lifted = lf.LiftedChart(c, lf.TANGENT)
    pts = lifted.sample_points(8, 2)
    jbar = lift_at(g, scalar, lf.TANGENT, pts).jbar
    assert np.abs(jbar - GOLDEN * np.eye(4)).max() < 1e-11


def test_lifted_structure_is_metallic_riemannian(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        lifted = lf.LiftedChart(c, flavor)
        pts = lifted.sample_points(16, 4, seed=9)
        lift = lift_at(g, J, flavor, pts)
        jv, gv = lift.jbar, lift.gbar
        assert np.abs(jv @ jv - PARAMS.p * jv - PARAMS.q * np.eye(4)).max() < 1e-9
        gj = gv @ jv
        assert np.abs(gj - np.swapaxes(gj, -1, -2)).max() < 1e-9
        assert np.linalg.eigvalsh(gv).min() > 1e-10


def test_frame_and_coordinate_displays(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        lifted = lf.LiftedChart(c, flavor)
        pts = lifted.sample_points(12, 4, seed=6)
        lift = lift_at(g, J, flavor, pts)
        jv, gv, frame = lift.jbar, lift.gbar, lift.forward[:, :, :2]
        ctx = field_context(g, J, pts[:, :2])
        g_at, ginv_at, J_at, gamma_at = ctx.g_at, ctx.ginv_at, ctx.J_at, ctx.lc_gamma_at
        y = pts[:, 2:]
        assert np.abs(lf.frame_endo_residuals(jv, frame, J_at, flavor)).max() < 1e-9
        assert (
            np.abs(lf.coordinate_endo_residuals(jv, J_at, gamma_at, y, flavor)).max()
            < 1e-9
        )
        assert (
            np.abs(lf.frame_metric_residuals(gv, frame, g_at, ginv_at, flavor)).max()
            < 1e-9
        )
        assert (
            np.abs(
                lf.coordinate_metric_residuals(gv, g_at, ginv_at, gamma_at, y, flavor)
            ).max()
            < 1e-9
        )


def _nijenhuis_data(c, g, J, flavor, base=10, fibre=4, seed=8):
    lifted = lf.LiftedChart(c, flavor)
    pts = lifted.sample_points(base, fibre, seed=seed)
    lift = lift_at(g, J, flavor, pts)
    N = lf.nijenhuis_values(lift)
    frame = lift.forward[:, :, : c.dim]
    ctx = field_context(g, J, pts[:, : c.dim])
    DJ = ctx.bundle(ctx.lc_gamma_at).nabla_J_at
    return lifted, pts, N, frame, ctx.J_at, DJ, ctx.NJ_at, ctx.lc_riemann_at


def test_lifted_nijenhuis_vanishes_flat_locally_metallic():
    c, g, J = flat_setup()
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, pts, N, *_ = _nijenhuis_data(c, g, J, flavor)
        assert np.abs(N).max() < 1e-9


def test_lifted_nijenhuis_vanishes_for_scalar_on_sphere(sphere_setup):
    # curvature is non-zero but the scalar factor sigma^2 - p sigma - q kills
    # the curvature bracket
    c, g, _ = sphere_setup
    scalar = ch.EndoField(c, ch.constant_matrix(GOLDEN * np.eye(2)))
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, pts, N, *_ = _nijenhuis_data(c, g, scalar, flavor)
        assert np.abs(N).max() < 1e-9


def test_vertical_vertical_always_vanishes(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, pts, N, *_ = _nijenhuis_data(c, g, J, flavor)
        assert np.abs(N[:, :, 2:, 2:]).max() < 1e-12


def test_mixed_display(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, pts, N, frame, J_at, DJ, _, _ = _nijenhuis_data(c, g, J, flavor)
        res = lf.mixed_display_residual(N, frame, J_at, DJ, flavor)
        assert np.abs(res).max() < 1e-9
    # the literal cotangent display composes J on the wrong side and fails
    _, pts, N, frame, J_at, DJ, _, _ = _nijenhuis_data(c, g, J, lf.COTANGENT)
    literal = lf.mixed_display_residual(N, frame, J_at, DJ, lf.COTANGENT, literal=True)
    assert np.abs(literal).max() > 1e-3


def test_sphere_diag_cannot_distinguish_sign(sphere_setup):
    # in two dimensions the displayed curvature combination vanishes for any
    # metallic J (Cayley-Hamilton), so both signs of the argument-last
    # placement match while every misplaced-argument candidate fails
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, pts, N, frame, J_at, _, NJ, R = _nijenhuis_data(c, g, J, flavor)
        match = lf.horizontal_display_match(
            N, frame, J_at, NJ, R, pts[:, 2:], PARAMS, flavor
        )
        assert match["horizontal_residual"] < 1e-9
        good = [cand for cand in match["candidates"] if cand["residual"] <= 1e-7]
        assert good and all(cand["argument_slot"] == 3 for cand in good)
        bad = [cand for cand in match["candidates"] if cand["argument_slot"] != 3]
        assert all(cand["residual"] > 1e-3 for cand in bad)


def test_warped_scenario_resolves_full_convention(warped_setup):
    c, g, J = warped_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, pts, N, frame, J_at, _, NJ, R = _nijenhuis_data(c, g, J, flavor, base=8, fibre=4
        )
        assert np.abs(R).max() > 1.0  # the coupling curvature is substantial
        match = lf.horizontal_display_match(
            N, frame, J_at, NJ, R, pts[:, 3:], PARAMS, flavor
        )
        good = {cand["label"] for cand in match["candidates"] if cand["residual"] <= 1e-7}
        assert good == {
            "R^l_(a b c) = +R_house^l_(a b c)",
            "R^l_(a b c) = -R_house^l_(b a c)",
        }


def test_commutation_identity(sphere_setup, warped_setup):
    for c, g, J in (flat_setup(), sphere_setup, warped_setup):
        base = c.sample_points(10)
        rng = np.random.default_rng(14)
        y = rng.uniform(-1.0, 1.0, size=base.shape)
        g_at = ch.eval_exprs(g.comps, base)
        eta = np.einsum("mij,mj->mi", g_at, y)
        pts_t = np.hstack([base, y])
        pts_c = np.hstack([base, eta])
        tangent = lift_at(g, J, lf.TANGENT, pts_t)
        cotangent = lift_at(g, J, lf.COTANGENT, pts_c)
        res = lf.commutation_residual(
            tangent.forward, cotangent.backward, tangent.jbar, cotangent.jbar
        )
        assert np.abs(res).max() < 1e-9


@pytest.mark.parametrize("name", CORPUS)
def test_closed_form_inverses_at_the_commutation_points(name):
    # the commutation check multiplies by the cotangent lift's backward in
    # place of a numeric inverse of Phi: it must invert Phi where the check runs
    ctx = ScenarioContext(load_scenario(scenario_path(name)))
    tangent, cotangent, points = suites._commutation_lifts(ctx)
    eye = np.eye(2 * ctx.chart.dim)
    assert points.shape == (ctx.samples, 2 * ctx.chart.dim)
    for lifted in (tangent, cotangent):
        assert np.abs(lifted.forward @ lifted.backward - eye).max() <= 1e-12


def test_the_commutation_check_inverts_nothing_numerically(monkeypatch):
    # g^-1 is the run's one numeric inverse; the check inverts nothing else
    scenario = load_scenario(scenario_path("warped-mixing"))
    g_at = ScenarioContext(scenario).g_at
    inv = np.linalg.inv

    def refuse(a, *args, **kwargs):
        if not np.array_equal(a, g_at):
            raise AssertionError("numeric inverse")
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert run_suites(scenario, suites=["commutation"]).checks[0].passed


@pytest.mark.parametrize("flavor", [lf.TANGENT, lf.COTANGENT])
@pytest.mark.parametrize("name", ["sphere-diagJ", "warped-mixing", "polar-plane"])
def test_array_lift_matches_numpy_oracle(name, flavor):
    # Jbar, its partials in all 2n coordinates and its Nijenhuis tensor against
    # a lift built column by column with numpy, differentiated by central
    # differences, with the Christoffel symbols by finite differences too
    scenario = load_scenario(scenario_path(name))
    with ex.fresh_table(scenario.table):
        ctx = ScenarioContext(scenario, samples=3)
        n = ctx.chart.dim
        y = np.random.default_rng(5).uniform(-1.0, 1.0, size=ctx.points.shape)
        inputs = {key: getattr(ctx, f"{key}_at") for key in ("g", "ginv", "J", "gamma")}
        inputs.update({key: getattr(ctx, f"{key}_at") for key in ("dg", "dJ", "dgamma", "dginv")})
        lift = lf.lift(flavor, y, **inputs)
        N = lf.nijenhuis_values(lift)
    args = (scenario.metric, scenario.J, flavor)

    def jbar_at(p):
        return lifted_jbar(*args, p, scenario.connection)

    assert np.abs(N).max() > 1e-3 or name == "polar-plane"  # a non-trivial comparison
    for m, z in enumerate(np.hstack([ctx.points, y])):
        assert np.abs(lift.jbar[m] - jbar_at(z)).max() < 1e-9
        for c in range(2 * n):
            assert np.abs(lift.djbar[m, c] - fd_partial(jbar_at, z, c)).max() < 1e-6
        oracle = fd_lifted_nijenhuis(*args, z, scenario.connection)
        assert np.abs(N[m] - oracle).max() < 1e-6


def test_a_corpus_run_builds_no_bundle_coordinates(monkeypatch):
    # the lifts are array algebra on base values: no run builds an
    # expression in a fibre coordinate
    built = []
    init = ex.Coord.__init__

    def recording(node, index, name):
        built.append(index)
        init(node, index, name)

    monkeypatch.setattr(ex.Coord, "__init__", recording)
    for name in CORPUS:
        scenario = load_scenario(scenario_path(name))
        built.clear()
        run_suites(scenario)
        assert all(index < scenario.chart.dim for index in built), name
    with ex.fresh_table():
        ex.coord(7)
    assert built == [7]  # the hook sees every coordinate node built


LIFT_IDS = (
    "metallic-equation",
    "compatibility",
    "frame-endo-display",
    "coordinate-endo-display",
    "metric-frame-components",
    "metric-coordinate-displays",
    "nijenhuis-vertical-vertical",
    "nijenhuis-mixed-display",
    "nijenhuis-horizontal-display",
    "nijenhuis-vanishes",
)
WITNESS = (0.25, 0.5)


def _raise_domain_error(*args, **kwargs):
    raise DomainError("injected", WITNESS)


def test_an_error_in_the_lift_fails_every_lifts_check_once(monkeypatch):
    monkeypatch.setattr(lf, "lift", _raise_domain_error)
    scenario = load_scenario(scenario_path("sphere-diagJ"))
    report = run_suites(scenario, suites=["lifts-tangent", "lifts-cotangent"])
    ids = [check.check_id for check in report.checks]
    flavors = ("lifts-tangent", "lifts-cotangent")
    assert ids == [f"{flavor}/{name}" for flavor in flavors for name in LIFT_IDS]
    for check in report.checks:
        assert not check.passed and check.witness == WITNESS, check.check_id


def test_an_error_in_the_lifted_nijenhuis_fails_only_its_checks(monkeypatch):
    monkeypatch.setattr(lf, "nijenhuis_values", _raise_domain_error)
    scenario = load_scenario(scenario_path("sphere-diagJ"))
    report = run_suites(scenario, suites=["lifts-tangent", "lifts-cotangent"])
    flavors = ("lifts-tangent", "lifts-cotangent")
    assert [check.check_id for check in report.checks] == [
        f"{flavor}/{name}" for flavor in flavors for name in LIFT_IDS
    ]
    for check in report.checks:
        if "/nijenhuis-" in check.check_id:
            assert not check.passed and check.witness == WITNESS, check.check_id
        else:
            assert check.passed, check.check_id
