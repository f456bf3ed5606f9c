import json
import math
from types import SimpleNamespace

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

from conftest import CORPUS, break_array, exprs, field_context, scenario_path, transitive_reads
from helpers import fd_lifted_nijenhuis, fd_partial, lifted_jbar, matching_readings

GOLDEN = (1 + math.sqrt(5)) / 2
PARAMS = MetallicParams(1.0, 1.0)


def flat_setup():
    c = ch.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), seed=1)
    g = ch.constant_matrix(np.eye(2))
    J = ch.constant_matrix(np.diag([GOLDEN, 1 - GOLDEN]))
    return c, g, J


@pytest.fixture(scope="module")
def sphere_setup(sphere_chart, sphere_metric, sphere_diag_J):
    return sphere_chart, sphere_metric, sphere_diag_J


@pytest.fixture(scope="module")
def warped_setup():
    c = ch.Chart(("x1", "x2", "x3"), ((0.3, 1.2),) * 3, seed=17)
    rows = [["1", "0", "0"], ["0", "exp(2*x1*x3)", "0"], ["0", "0", "1"]]
    g = exprs(c, rows)
    J = from_projection(ch.constant_matrix(np.diag([1.0, 1.0, 0.0])), PARAMS, g, c.sample_points(8))
    return c, g, J


def lift_context(c, g, J, base, y):
    """The run context of the Levi-Civita values at the m points ``base``,
    with the fibre points y [m, F, n] over them as its ``fibre``."""
    ctx = field_context(c, g, J, base)
    ctx["fibre"] = y
    return ctx


def lift_at(c, g, J, flavor, base, y):
    """The lift at the fibre points y [m, F, n] over the Levi-Civita values at
    the m points ``base``: its arrays as a run makes them, and the morphism
    and its closed-form inverse."""
    ctx = lift_context(c, g, J, base, y)
    L = ctx[f"horizontal[{flavor}]"]
    return SimpleNamespace(
        **{name: ctx[f"{name}[{flavor}]"] for name in ("jbar", "gbar", "frame")},
        forward=lf.forward(flavor, L, ctx["ginv"]),
        backward=lf.backward(flavor, L, ctx["g"]),
    )


def djbar_inputs(ctx, flavor):
    """The arrays lf.djbar takes after the flavour, as a run reads them: the
    declared reads of ``lift_nij[flavor]`` after the lifted structure."""
    return [ctx[name] for name in suites.ARRAYS[f"lift_nij[{flavor}]"][1][1:]]


def bundle_points(c, base_count, fibre_per_base, seed=None):
    """Base samples of the chart ``c`` [m, n], and ``fibre_per_base`` fibre
    draws over each [m, F, n]."""
    seed = c.seed if seed is None else seed
    y = lf.fibre_points(c.dim, base_count * fibre_per_base, seed)
    return c.sample_points(base_count, seed=seed), y.reshape(base_count, fibre_per_base, c.dim)


def test_lifted_chart_samples():
    c, g, J = flat_setup()
    y = lf.fibre_points(c.dim, 32, 3)
    assert y.shape == (32, 2)
    assert (y == lf.fibre_points(c.dim, 32, 3)).all()
    assert (np.abs(y) <= 1.0).all()


def test_the_fibre_draws_spread_over_both_signs_of_the_unit_box():
    # the lifts' fibre points and the commutation check's: a draw of all
    # ones, all minus ones or all zeros leaves every corpus verdict unchanged
    c, g, J = flat_setup()
    ctx = field_context(c, g, J, c.sample_points(64, seed=0))
    for y in (ctx["fibre"].reshape(-1, c.dim), ctx["commutation_fibre"]):
        assert (np.abs(y) <= 1.0).all()
        assert (y.min(axis=0) < -0.5).all() and (y.max(axis=0) > 0.5).all()
        assert (y.std(axis=0) > 0.4).all()


def test_fibre_points_are_the_fibre_part_of_the_samples():
    # a run pairs each base sample with FIBRE_PER_BASE fibre draws of its seed
    c, g, J = flat_setup()
    ctx = field_context(c, g, J, c.sample_points(8, seed=0))
    base = np.repeat(c.sample_points(8, seed=0), suites.FIBRE_PER_BASE, axis=0)
    expected = np.hstack([base, lf.fibre_points(c.dim, len(base), 0)])
    assert (ctx["lift_points"] == expected).all()
    assert (ctx["fibre"].reshape(-1, c.dim) == expected[:, c.dim :]).all()


def test_horizontal_frame_zero_connection_is_coordinate_frame():
    c, g, J = flat_setup()
    for flavor in (lf.TANGENT, lf.COTANGENT):
        values = lift_at(c, g, J, flavor, *bundle_points(c, 4, 2)).frame
        expected = np.zeros_like(values)
        expected[..., 0, 0] = 1.0
        expected[..., 1, 1] = 1.0
        assert np.abs(values - expected).max() == 0.0


def test_horizontal_frame_formulas_on_sphere(sphere_setup):
    c, g, J = sphere_setup
    base, y = bundle_points(c, 6, 2, seed=2)
    gamma = field_context(c, g, J, base)["gamma[lc]"]

    tangent = lift_at(c, g, J, lf.TANGENT, base, y).frame
    # fibre component l of X_i^H is -y^k Gamma^l_{ik}
    expected = -np.einsum("mfk,mlik->mfli", y, gamma)
    assert np.abs(tangent[..., 2:, :] - expected).max() < 1e-14

    cotangent = lift_at(c, g, J, lf.COTANGENT, base, y).frame
    expected_c = np.einsum("mfk,mkil->mfli", y, gamma)
    assert np.abs(cotangent[..., 2:, :] - expected_c).max() < 1e-14


def test_morphism_matrices_invertible(sphere_setup):
    c, g, J = sphere_setup
    base, y = bundle_points(c, 8, 2, seed=4)
    tangent = lift_at(c, g, J, lf.TANGENT, base, y)
    cotangent = lift_at(c, g, J, lf.COTANGENT, base, y)
    psi, phi = tangent.forward, cotangent.forward
    g_at = ch.eval_exprs(g, base)[:, None]
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
    psi_f = lift_at(cf, gf, Jf, lf.TANGENT, *bundle_points(cf, 4, 1)).forward
    assert np.abs(psi_f - eye).max() == 0.0


def test_flat_lift_is_block_diagonal():
    c, g, J = flat_setup()
    for flavor in (lf.TANGENT, lf.COTANGENT):
        lift = lift_at(c, g, J, flavor, *bundle_points(c, 8, 2))
        jv = lift.jbar
        expected = np.zeros((4, 4))
        expected[:2, :2] = np.diag([GOLDEN, 1 - GOLDEN])
        expected[2:, 2:] = np.diag([GOLDEN, 1 - GOLDEN])
        assert np.abs(jv - expected).max() < 1e-15
        assert np.abs(lift.gbar - np.eye(4)).max() < 1e-15


def test_scalar_structure_lifts_to_scalar(sphere_setup):
    c, g, _ = sphere_setup
    scalar = ch.constant_matrix(GOLDEN * np.eye(2))
    jbar = lift_at(c, g, scalar, lf.TANGENT, *bundle_points(c, 8, 2)).jbar
    assert np.abs(jbar - GOLDEN * np.eye(4)).max() < 1e-11


def test_lifted_structure_is_metallic_riemannian(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        lift = lift_at(c, g, J, flavor, *bundle_points(c, 16, 4, seed=9))
        jv, gv = lift.jbar, lift.gbar
        assert np.abs(jv @ jv - PARAMS.p * jv - PARAMS.q * np.eye(4)).max() < 1e-9
        gj = gv @ jv
        assert np.abs(gj - np.swapaxes(gj, -1, -2)).max() < 1e-9
        assert np.linalg.eigvalsh(gv).min() > 1e-10


def test_frame_and_coordinate_displays(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        base, y = bundle_points(c, 12, 4, seed=6)
        lift = lift_at(c, g, J, flavor, base, y)
        jv, gv, frame = lift.jbar, lift.gbar, lift.frame
        ctx = field_context(c, g, J, base)
        g_at, ginv_at, J_at, gamma_at = ctx["g"], ctx["ginv"], ctx["J"], ctx["gamma[lc]"]
        fibre_g = g_at if flavor == lf.TANGENT else ginv_at
        for residuals in (
            lf.frame_endo_residuals(jv, frame, J_at, flavor),
            [lf.coordinate_endo_residuals(jv, J_at, gamma_at, y, flavor)],
            lf.frame_metric_residuals(gv, frame, g_at, fibre_g),
            lf.coordinate_metric_residuals(gv, g_at, fibre_g, gamma_at, y, flavor),
        ):
            assert max(np.abs(r).max() for r in residuals) < 1e-9


def _nijenhuis_data(c, g, J, flavor, base=10, fibre=4, seed=8):
    points, y = bundle_points(c, base, fibre, seed=seed)
    ctx = lift_context(c, g, J, points, y)
    N, frame = ctx[f"lift_nij[{flavor}]"], ctx[f"frame[{flavor}]"]
    DJ = ctx["nablaJ[lc]"]
    return y, N, frame, ctx["J"], DJ, ctx["NJ"], ctx["riemann[lc]"]


def test_lifted_nijenhuis_vanishes_flat_locally_metallic():
    c, g, J = flat_setup()
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, N, *_ = _nijenhuis_data(c, g, J, flavor)
        assert np.abs(N).max() < 1e-9


def test_lifted_nijenhuis_vanishes_for_scalar_on_sphere(sphere_setup):
    # curvature is non-zero but the scalar factor sigma^2 - p sigma - q kills
    # the curvature bracket
    c, g, _ = sphere_setup
    scalar = ch.constant_matrix(GOLDEN * np.eye(2))
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, N, *_ = _nijenhuis_data(c, g, scalar, flavor)
        assert np.abs(N).max() < 1e-9


def test_vertical_vertical_always_vanishes(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, N, *_ = _nijenhuis_data(c, g, J, flavor)
        assert np.abs(N[..., 2:, 2:]).max() < 1e-12


def test_mixed_display(sphere_setup):
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        _, N, frame, J_at, DJ, _, _ = _nijenhuis_data(c, g, J, flavor)
        res, printed = lf.mixed_display_residual(N, frame, J_at, DJ, flavor)
        assert np.abs(res).max() < 1e-9
    # the literal cotangent display composes J on the wrong side and fails
    assert flavor == lf.COTANGENT and np.abs(printed).max() > 1e-3


def test_sphere_diag_cannot_distinguish_sign(sphere_setup):
    # in two dimensions the displayed curvature combination vanishes for any
    # metallic J (Cayley-Hamilton), so both signs of the argument-last
    # placement match while every misplaced-argument reading fails; the house
    # reading the program checks is one of those that match
    c, g, J = sphere_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        y, N, frame, J_at, _, NJ, R = _nijenhuis_data(c, g, J, flavor)
        horizontal, good = matching_readings(N, frame, J_at, NJ, R, y, 1.0, 1.0, flavor == lf.TANGENT)
        assert horizontal < 1e-9
        assert good == {(sign, perm) for sign in "+-" for perm in (tuple("abc"), tuple("bac"))}
        gap = lf.horizontal_display_match(N, frame, J_at, NJ, R, y, PARAMS, flavor)
        assert np.abs(gap).max() <= 1e-7


def test_warped_scenario_resolves_full_convention(warped_setup):
    c, g, J = warped_setup
    for flavor in (lf.TANGENT, lf.COTANGENT):
        y, N, frame, J_at, _, NJ, R = _nijenhuis_data(c, g, J, flavor, base=8, fibre=4)
        assert np.abs(R).max() > 1.0  # the coupling curvature is substantial
        _, good = matching_readings(N, frame, J_at, NJ, R, y, 1.0, 1.0, flavor == lf.TANGENT)
        assert good == {("+", tuple("abc")), ("-", tuple("bac"))}
        gap = lf.horizontal_display_match(N, frame, J_at, NJ, R, y, PARAMS, flavor)
        assert np.abs(gap).max() <= 1e-7


def test_a_sign_flipped_curvature_term_fails_the_horizontal_display(monkeypatch):
    # warped-mixing is the corpus scenario whose data decides the sign
    scenario = load_scenario(scenario_path("warped-mixing"))
    flavors = ("lifts-tangent", "lifts-cotangent")
    cids = [f"{flavor}/nijenhuis-horizontal-display" for flavor in flavors]
    report = run_suites(scenario, suites=list(flavors))
    assert all(report.find(cid).passed for cid in cids)
    term = lf._displayed_curvature_term
    monkeypatch.setattr(lf, "_displayed_curvature_term", lambda *args: -term(*args))
    report = run_suites(scenario, suites=list(flavors))
    for cid in cids:
        assert report.find(cid).residual > 1.0, cid
        assert not report.find(cid).satisfied


def test_commutation_identity(sphere_setup, warped_setup):
    for c, g, J in (flat_setup(), sphere_setup, warped_setup):
        base = c.sample_points(10)
        rng = np.random.default_rng(14)
        y = rng.uniform(-1.0, 1.0, size=base.shape)
        g_at = ch.eval_exprs(g, base)
        eta = np.einsum("mij,mj->mi", g_at, y)
        # one fibre point over each sample
        tangent = lift_at(c, g, J, lf.TANGENT, base, y[:, None])
        cotangent = lift_at(c, g, J, lf.COTANGENT, base, eta[:, None])
        res = lf.commutation_residual(
            tangent.forward, cotangent.backward, tangent.jbar, cotangent.jbar
        )
        assert np.abs(res).max() < 1e-9


@pytest.mark.parametrize("name", CORPUS)
def test_closed_form_inverses_at_the_commutation_points(name, monkeypatch):
    # the commutation check multiplies by the cotangent lift's backward in
    # place of a numeric inverse of Phi: it must invert Phi where the check runs
    ctx = ScenarioContext(load_scenario(scenario_path(name)))
    check = next(check for check in suites.CHECKS if check.suite == "commutation")
    built, horizontal = [], lf.horizontal

    def recorded(flavor, *args):
        built.append((flavor, horizontal(flavor, *args)))
        return built[-1][1]

    monkeypatch.setattr(lf, "horizontal", recorded)
    check.residual(ctx, *[ctx[read] for read in check.reads])
    assert len(built) == 2  # the tangent and the cotangent lift
    assert [flavor for flavor, _ in built] == [lf.TANGENT, lf.COTANGENT]
    eye = np.eye(2 * ctx.chart.dim)
    assert ctx[check.points].shape == (len(ctx.points), 2 * ctx.chart.dim)
    for flavor, L in built:
        forward, backward = lf.forward(flavor, L, ctx["ginv"]), lf.backward(flavor, L, ctx["g"])
        assert np.abs(forward @ backward - eye).max() <= 1e-12


def test_the_commutation_check_inverts_nothing_numerically(monkeypatch):
    # g^-1 is the run's one numeric inverse; the check inverts nothing else
    scenario = load_scenario(scenario_path("warped-mixing"))
    g_at = ScenarioContext(scenario)["g"]
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
    ctx = ScenarioContext(scenario, samples=3)
    n = ctx.chart.dim
    y = np.random.default_rng(5).uniform(-1.0, 1.0, size=ctx.points.shape)
    ctx["fibre"] = y[:, None]  # one fibre point each
    jbar, djbar = ctx[f"jbar[{flavor}]"][:, 0], lf.djbar(flavor, *djbar_inputs(ctx, flavor))[:, 0]
    N = ctx[f"lift_nij[{flavor}]"][:, 0]
    args = (scenario.metric, scenario.J, flavor)

    def jbar_at(p):
        return lifted_jbar(*args, p, scenario.connection)

    assert np.abs(N).max() > 1e-3 or name == "polar-plane"  # a non-trivial comparison
    for m, z in enumerate(np.hstack([ctx.points, y])):
        assert np.abs(jbar[m] - jbar_at(z)).max() < 1e-9
        for c in range(2 * n):
            assert np.abs(djbar[m, c] - fd_partial(jbar_at, z, c)).max() < 1e-6
        oracle = fd_lifted_nijenhuis(*args, z, scenario.connection)
        assert np.abs(N[m] - oracle).max() < 1e-6


@pytest.mark.parametrize("flavor", [lf.TANGENT, lf.COTANGENT])
@pytest.mark.parametrize("n", range(2, 7))
def test_the_broadcast_lift_is_the_lift_over_repeated_base_arrays_bit_for_bit(n, flavor):
    # the layout a run uses, F fibre points over each base sample with the base
    # arrays broadcast, against the copy layout: one lifted sample per row over
    # the base arrays repeated at each of its fibre points
    rng = np.random.default_rng(70 + n)
    m, F = 5, suites.FIBRE_PER_BASE
    a = rng.normal(size=(m, n, n))
    g = a @ np.swapaxes(a, -1, -2) + n * np.eye(n)
    ginv = np.linalg.inv(g)
    dg = rng.normal(size=(m, n, n, n))
    dg = dg + np.swapaxes(dg, -1, -2)
    base = {
        "g": g,
        "ginv": ginv,
        "J": rng.normal(size=(m, n, n)),
        "gamma": rng.normal(size=(m, n, n, n)),
    }
    partials = {
        "dJ": rng.normal(size=(m, n, n, n)),
        "dgamma": rng.normal(size=(m, n, n, n, n)),
        "dg": dg,
        "dginv": -(ginv[:, None] @ dg @ ginv[:, None]),
    }
    y = rng.uniform(-1.0, 1.0, size=(m, F, n))

    def arrays(y, g, ginv, J, gamma, **partials):
        L = lf.horizontal(flavor, y, gamma)
        return {
            "horizontal": L,
            "frame": lf.frame(L),
            "jbar": lf.jbar(flavor, L, J, g, ginv),
            "forward": lf.forward(flavor, L, ginv),
            "backward": lf.backward(flavor, L, g),
            "gbar": lf.gbar(flavor, L, g, ginv),
            "djbar": lf.djbar(flavor, y, L, gamma, J, g=g, ginv=ginv, **partials),
        }

    def repeat(arrays):
        return {key: np.repeat(values, F, axis=0) for key, values in arrays.items()}

    broadcast = arrays(y, **base, **partials)
    copied = arrays(y.reshape(m * F, 1, n), **repeat(base), **repeat(partials))
    for name, got in broadcast.items():
        expected = copied[name]
        assert got.shape == (m, F) + expected.shape[2:], name
        assert got.tobytes() == expected.tobytes(), name
    got = lf.nijenhuis_values(broadcast["jbar"], broadcast["djbar"])
    expected = lf.nijenhuis_values(copied["jbar"], copied["djbar"])
    assert got.tobytes() == expected.tobytes()


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
    monkeypatch.setattr(lf, "horizontal", _raise_domain_error)
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


@pytest.mark.parametrize("flavor", [lf.TANGENT, lf.COTANGENT])
def test_only_the_lifted_nijenhuis_checks_read_the_partials(flavor):
    # the lift is built from base values; the partials enter through
    # lift_nij alone, so a check that does not read it reads none of them
    scenario = load_scenario(scenario_path("warped-mixing"))
    partials = {"dJ", "dgamma[scenario]", "dgamma[lc]", "d2g", "dginv"}
    reads = {
        check.cid: transitive_reads(scenario, check)
        for check in suites.CHECKS
        if check.suite == f"lifts-{flavor}"
    }
    nijenhuis = {cid for cid, found in reads.items() if f"lift_nij[{flavor}]" in found}
    assert len(reads) - len(nijenhuis) == 6
    for cid, found in reads.items():
        if cid in nijenhuis:
            assert {"dJ", "dgamma[scenario]", "d2g"} <= found, cid
        else:
            assert not partials & found, cid


def test_non_finite_second_partials_fail_only_the_lifted_nijenhuis_checks(tmp_path):
    # 1 + (x1 - x1)^1.5 is 1 with first partials 0, but its second partials
    # 1.5 * 0.5 * 0^-0.5 * 0 are NaN: d2g fails, and with it the partials of
    # the Levi-Civita connection that only the lifted Nijenhuis tensor reads
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["metric"][0][0] = "1 + (x1 - x1)^1.5"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    scenario = load_scenario(path)
    ctx = ScenarioContext(scenario)
    assert np.isfinite(ctx["dg"]).all()
    with pytest.raises(DomainError) as err:
        ctx["d2g"]
    report = run_suites(scenario, suites=["lifts-tangent", "lifts-cotangent"])
    assert len(report.checks) == 20
    for check in report.checks:
        if "/nijenhuis-" in check.check_id:
            assert not check.passed, check.check_id
            assert check.residual == math.inf and check.witness == err.value.point
        else:
            assert check.passed, check.check_id


def test_a_nan_in_a_display_detail_reads_as_inf(monkeypatch):
    # as in every residual: a NaN curvature or literal display entry reads inf;
    # flat-golden's connection is the Levi-Civita one, so its arrays are the [lc] ones
    def broken(values):
        values[3] = np.nan
        return values

    for name in ("riemann[lc]", "nablaJ[lc]"):
        break_array(monkeypatch, name, broken)
    with np.errstate(invalid="ignore"):
        report = run_suites(load_scenario(scenario_path("flat-golden")), suites=["lifts-cotangent"])
    horizontal = report.find("lifts-cotangent/nijenhuis-horizontal-display")
    mixed = report.find("lifts-cotangent/nijenhuis-mixed-display")
    assert horizontal.details["curvature"] == math.inf
    assert mixed.details["literal_display_residual"] == math.inf
