"""Acceptance suite: every gating criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); the corpus
reports are computed once per session and shared.
"""

import json
import math

import numpy as np
import pytest

from metalliclab import genbundle as gb
from metalliclab import lifts as lf
from metalliclab import metallic as mt
from metalliclab import suites
from metalliclab.metallic import MetallicParams
from metalliclab.scenario import load_scenario
from metalliclab.suites import ScenarioContext, run_suites

from conftest import pair_context, scenario_path
from helpers import matching_readings, random_compatible_pair

TOL_ALGEBRAIC = 1e-10
TOL_GEOMETRIC = 1e-9
TOL_IDENTITY = 1e-8
TOL_CONVENTION = 1e-7


def _line(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")
    assert ok, f"criterion {number}: {text}"


def _satisfied(report, check_id, tol=None):
    check = report.find(check_id)
    if tol is not None and not check.expected_fail:
        return check.residual <= tol
    return check.satisfied


def test_criterion_01_metallic_numbers():
    values = {
        (1, 1): (1 + math.sqrt(5)) / 2,
        (2, 1): 1 + math.sqrt(2),
        (3, 1): (3 + math.sqrt(13)) / 2,
        (1, 2): 2.0,
        (1, 3): (1 + math.sqrt(13)) / 2,
    }
    worst = max(abs(mt.metallic_number(p, q) - v) for (p, q), v in values.items())
    _line(1, worst <= 1e-12, f"golden/silver/bronze/copper/nickel within 1e-12 (worst {worst:.2e})")


@pytest.fixture(scope="module")
def random_pair_sweep():
    """The 300 seeded pairs, 100 for each n in 2, 3, 4, as the g and J at the
    100 samples of one run context per n: the structures are the run's own."""
    rng = np.random.default_rng(2024)
    params = MetallicParams(1.0, 1.0)
    out = []
    for n in (2, 3, 4):
        g, J = zip(*(random_compatible_pair(rng, n, params) for _ in range(100)))
        out.append((n, pair_context(np.array(g), np.array(J), params)))
    return params, out


def test_criterion_02_structure_identities(random_pair_sweep):
    params, contexts = random_pair_sweep
    worst = 0.0
    for n, ctx in contexts:
        eye = np.eye(2 * n)
        jm, jp, jc = (ctx[f"gen[{label}]"] for label in ("jm", "jp", "jc"))
        worst = max(
            worst,
            np.abs(jm @ jm - params.p * jm - params.q * eye).max(),
            np.abs(jp @ jp - eye).max(),
            np.abs(jc @ jc + eye).max(),
            np.abs(jc @ jp + jp @ jc).max(),
        )
    _line(
        2,
        worst <= TOL_ALGEBRAIC,
        f"block structure identities at 300 random points (worst {worst:.2e})",
    )


def test_criterion_03_neutral_signature(random_pair_sweep):
    _, contexts = random_pair_sweep
    ok = True
    for n, ctx in contexts:
        n_plus, n_minus = gb.neutral_signature(gb.pairing_eigenvalues(ctx["gen[jp]"]))
        ok = ok and bool(((n_plus == n) & (n_minus == n)).all())
    _line(3, ok, "signature of G is exactly (n, n) on every generated pair")


def _symmetric(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def test_criterion_04_calibration(random_pair_sweep):
    _, contexts = random_pair_sweep
    check = next(c for c in suites.CHECKS if c.cid == "genbundle/calibration")
    worst = 0.0
    forms = True
    for n, ctx in contexts:
        # the natural pairing (X + a, Y + b) = -(a(Y) - b(X)) / 2
        M = np.zeros((2 * n, 2 * n))
        M[:n, n:], M[n:, :n] = 0.5 * np.eye(n), -0.5 * np.eye(n)
        jp, jc = ctx["gen[jp]"], ctx["gen[jc]"]
        anti = np.abs(np.swapaxes(jp, -1, -2) @ M @ jp + M).max()
        invariance = np.abs(np.swapaxes(jc, -1, -2) @ M @ jc - M).max()
        measured = suites._evaluate(check, ctx)
        worst = max(worst, anti, invariance, measured.residual)
        non_degenerate = np.abs(np.linalg.eigvalsh(_symmetric(M @ jp))).min() > TOL_ALGEBRAIC
        positive = np.linalg.eigvalsh(_symmetric(M @ jc)).min() > TOL_ALGEBRAIC
        forms = forms and non_degenerate and positive
    _line(
        4,
        worst <= TOL_ALGEBRAIC and forms,
        f"anti-invariance / invariance / non-degeneracy / positive-definiteness (worst {worst:.2e})",
    )


def test_criterion_05_covariant_nijenhuis_identity(corpus_reports):
    report = corpus_reports["sphere-diagJ"]
    lc = report.find("genconn/covariant-nijenhuis-identity-levi-civita")
    semi = report.find("genconn/covariant-nijenhuis-identity-karaman")
    ok = lc.residual <= TOL_IDENTITY and semi.residual <= TOL_IDENTITY
    _line(
        5,
        ok,
        "bracket N_J equals its covariant expansion for both connections "
        f"(LC {lc.residual:.2e}, semi-symmetric {semi.residual:.2e})",
    )


def test_criterion_06_karaman_suite(corpus_reports):
    report = corpus_reports["product-decomposable"]
    ids = [
        "karaman/metric-parallel",
        "karaman/torsion-closed-form",
        "karaman/torsion-j-commutation",
        "karaman/phi-torsion-vanishes",
        "karaman/jm-d-integrable",
        "karaman/random-omega-sweep",
    ]
    residuals = {cid: report.find(cid).residual for cid in ids}
    ok = all(r <= TOL_GEOMETRIC for r in residuals.values())
    worst = max(residuals.values())
    _line(
        6,
        ok,
        "semi-symmetric suite incl. every 1-form, exactly at omega = 0 and the "
        f"coordinate 1-forms by affinity (worst {worst:.2e})",
    )


def test_criterion_07_locally_metallic_integrability(corpus_reports):
    ids = [
        "genconn/jp-integrability-conditions",
        "genconn/jc-integrability-conditions",
        "genconn/jp-gen-nijenhuis",
        "genconn/jc-gen-nijenhuis",
    ]
    worst = 0.0
    for name in ("flat-golden", "sphere-scalarJ"):
        for cid in ids:
            worst = max(worst, corpus_reports[name].find(cid).residual)
    _line(
        7,
        worst <= TOL_GEOMETRIC,
        f"all six conditions and the direct generalized Nijenhuis tensors (worst {worst:.2e})",
    )


def test_criterion_08_dhat_parallelism(corpus_reports):
    prod = corpus_reports["product-decomposable"]
    positives = [
        "karaman/endo-parallel",
        "karaman/metric-parallel",
        "karaman/dhat-jm-parallel",
        "karaman/dhat-ghat-parallel",
        "karaman/dhat-jp-parallel",
        "karaman/dhat-jc-parallel",
    ]
    ok = all(prod.find(cid).residual <= TOL_GEOMETRIC for cid in positives)
    diag = corpus_reports["sphere-diagJ"]
    negative = diag.find("genconn/dhat-jm")
    control = not negative.passed and diag.find("genconn/dhat-ghat").passed
    _line(
        8,
        ok and control,
        "Dhat parallelism tracks DJ/Dg (pass/pass) with the sphere negative control failing as required",
    )


def test_criterion_09_lifts(corpus_reports):
    lift_ids = [
        "metallic-equation",
        "compatibility",
        "frame-endo-display",
        "coordinate-endo-display",
        "metric-frame-components",
    ]
    worst = 0.0
    lifted_scenarios = (
        "flat-golden",
        "flat-silver",
        "polar-plane",
        "sphere-scalarJ",
        "sphere-diagJ",
        "warped-mixing",
    )
    for name in lifted_scenarios:
        report = corpus_reports[name]
        for flavor in ("lifts-tangent", "lifts-cotangent"):
            for cid in lift_ids:
                worst = max(worst, report.find(f"{flavor}/{cid}").residual)
    golden = corpus_reports["flat-golden"]
    nij = max(
        golden.find("lifts-tangent/nijenhuis-vanishes").residual,
        golden.find("lifts-cotangent/nijenhuis-vanishes").residual,
    )
    _line(
        9,
        worst <= TOL_GEOMETRIC and nij <= TOL_GEOMETRIC,
        f"lifted structures and displays (worst {worst:.2e}); flat-golden lifted N (max {nij:.2e})",
    )


def _readings(name, flavor):
    """The readings of the displayed curvature that match at the lifted samples
    of the scenario's run (helpers.matching_readings)."""
    ctx = ScenarioContext(load_scenario(scenario_path(name)))
    N, frame = ctx[f"lift_nij[{flavor}]"], ctx[f"frame[{flavor}]"]
    J, NJ, R, y = (ctx[key] for key in ("J", "NJ", "riemann[scenario]", "fibre"))
    p, q = ctx.params.p, ctx.params.q
    return matching_readings(N, frame, J, NJ, R, y, p, q, flavor == lf.TANGENT)[1]


def test_criterion_10_curvature_convention(corpus_reports):
    diag = corpus_reports["sphere-diagJ"]
    warped = corpus_reports["warped-mixing"]
    ok = True
    for flavor in (lf.TANGENT, lf.COTANGENT):
        cid = f"lifts-{flavor}/nijenhuis-horizontal-display"
        # the check reads the displayed curvature in the house convention and
        # passes on both scenarios
        ok = ok and diag.find(cid).residual <= TOL_CONVENTION
        ok = ok and warped.find(cid).residual <= TOL_CONVENTION
        # in two dimensions the curvature combination vanishes identically for
        # metallic J, so the sign is undecidable there; the argument-slot
        # placement must still be pinned uniquely
        slots = {perm.index("c") + 1 for _, perm in _readings("sphere-diagJ", flavor)}
        ok = ok and slots == {3}
        # the warped data decides the sign: one class of readings matches, the
        # house one and its antisymmetric twin
        ok = ok and _readings("warped-mixing", flavor) == {("+", tuple("abc")), ("-", tuple("bac"))}
    _line(
        10,
        ok,
        "display matches on sphere-diagJ with a unique index placement; the "
        "warped scenario resolves exactly one signed convention, the house one the check gates on",
    )


def test_criterion_11_commutation(corpus_reports):
    worst = max(
        report.find("commutation/jm-lift-intertwine").residual
        for report in corpus_reports.values()
    )
    _line(
        11,
        worst <= TOL_GEOMETRIC,
        f"tangent and cotangent lifts intertwined on all corpus scenarios (worst {worst:.2e})",
    )


def test_criterion_12_determinism():
    scenario = load_scenario(scenario_path("sphere-diagJ"))
    first = run_suites(scenario).to_json()
    second = run_suites(scenario).to_json()
    ok = first == second and json.loads(first)["overall_pass"]
    _line(12, ok, "repeated runs with a fixed seed produce byte-identical machine reports")
