import json
import math
from functools import cached_property

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import genbundle as gb
from metalliclab import suites
from metalliclab.errors import (
    DegenerateDiscriminant,
    DegenerateForm,
    DimensionMismatch,
    DomainError,
    IncompatiblePair,
    MetallicLabError,
    SingularJacobian,
    SingularMetric,
)
from metalliclab.metallic import MetallicParams, random_compatible_pair
from metalliclab.scenario import load_scenario

from conftest import dense_metric, field_context, scenario_path
from helpers import fd_partial

GOLDEN = (1 + math.sqrt(5)) / 2
PARAMS = MetallicParams(1.0, 1.0)

# frozen golden pointwise pair: g = I, J = diag(sigma, 1 - sigma)
G2 = np.eye(2)
J2 = np.diag([GOLDEN, 1 - GOLDEN])

# with sigma^2 = sigma + 1 the product-structure blocks collapse:
# (I - J^2) = -J and -J* = diag(-sigma, sigma - 1)
JP_GOLDEN = np.array(
    [
        [GOLDEN, 0.0, -GOLDEN, 0.0],
        [0.0, 1 - GOLDEN, 0.0, GOLDEN - 1],
        [1.0, 0.0, -GOLDEN, 0.0],
        [0.0, 1.0, 0.0, GOLDEN - 1],
    ]
)


def test_musical_isomorphisms():
    g = np.diag([1.0, 4.0])
    assert np.allclose(gb.musical_sharp(g, [0.0, 1.0]), [0.0, 0.25])
    assert np.allclose(gb.musical_flat(g, [1.0, 1.0]), [1.0, 4.0])
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        gm = a.T @ a + 0.2 * np.eye(2)
        alpha = rng.normal(size=2)
        assert np.abs(gb.musical_flat(gm, gb.musical_sharp(gm, alpha)) - alpha).max() < 1e-12
    with pytest.raises(SingularMetric):
        gb.musical_sharp(np.zeros((2, 2)), [1.0, 0.0])


def test_ghat_matrix():
    assert np.allclose(gb.ghat_matrix(np.eye(2)), np.eye(4))
    got = gb.ghat_matrix(np.diag([1.0, 4.0]))
    assert np.allclose(np.diag(got), [1.0, 4.0, 1.0, 0.25])
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    gm = a.T @ a + 0.2 * np.eye(3)
    ghat = gb.ghat_matrix(gm)
    for _ in range(100):
        v = rng.normal(size=6)
        if np.abs(v).max() > 1e-9:
            assert v @ ghat @ v > 0.0


def test_natural_pairing():
    rng = np.random.default_rng(2)
    for _ in range(20):
        sigma = gb.GenVector(rng.normal(size=2), rng.normal(size=2))
        assert gb.natural_pairing(sigma, sigma) == pytest.approx(0.0, abs=1e-15)

    x = gb.GenVector([1.0, 0.0], [0.0, 0.0])
    beta = gb.GenVector([0.0, 0.0], [1.0, 0.0])
    assert gb.natural_pairing(x, beta) == pytest.approx(0.5, abs=1e-15)

    # bilinearity on random triples
    for _ in range(20):
        s1 = gb.GenVector(rng.normal(size=2), rng.normal(size=2))
        s2 = gb.GenVector(rng.normal(size=2), rng.normal(size=2))
        t = gb.GenVector(rng.normal(size=2), rng.normal(size=2))
        a, b = rng.normal(size=2)
        combo = gb.GenVector(a * s1.X + b * s2.X, a * s1.alpha + b * s2.alpha)
        lhs = gb.natural_pairing(combo, t)
        rhs = a * gb.natural_pairing(s1, t) + b * gb.natural_pairing(s2, t)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    # matrix form agrees
    M = gb.pairing_matrix(2)
    s1 = gb.GenVector([1.0, 2.0], [3.0, 4.0])
    s2 = gb.GenVector([-1.0, 0.5], [2.0, -3.0])
    assert gb.natural_pairing(s1, s2) == pytest.approx(s1.stacked @ M @ s2.stacked)


def test_block_structures_golden_case():
    jp = gb.build_jp(J2, G2)
    assert np.abs(jp - JP_GOLDEN).max() < 1e-12
    assert np.abs(jp @ jp - np.eye(4)).max() < 1e-12
    jc = gb.build_jc(J2, G2)
    assert np.abs(jc @ jc + np.eye(4)).max() < 1e-12
    assert np.abs(jc @ jp + jp @ jc).max() < 1e-12
    jm = gb.build_jm(J2, G2)
    assert np.abs(jm @ jm - PARAMS.p * jm - PARAMS.q * np.eye(4)).max() < 1e-12


def test_incompatible_pair_rejected():
    bad_J = np.array([[GOLDEN, 1.0], [0.0, 1 - GOLDEN]])
    g = np.diag([1.0, 3.0])
    with pytest.raises(IncompatiblePair):
        gb.build_jp(bad_J, g)


def test_structure_identities_on_random_pairs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(100):
            g, J = random_compatible_pair(rng, n, PARAMS)
            eye = np.eye(2 * n)
            jm = gb.build_jm(J, g)
            jp = gb.build_jp(J, g)
            jc = gb.build_jc(J, g)
            ghat = gb.ghat_matrix(g)
            assert np.abs(jm @ jm - PARAMS.p * jm - PARAMS.q * eye).max() < 1e-10
            assert np.abs(jp @ jp - eye).max() < 1e-10
            assert np.abs(jc @ jc + eye).max() < 1e-10
            assert np.abs(jc @ jp + jp @ jc).max() < 1e-10
            sym = ghat @ jm
            assert np.abs(sym - sym.T).max() < 1e-10


def test_derived_family_identities():
    rng = np.random.default_rng(9)
    gap = 2 * PARAMS.sigma - PARAMS.p
    for n in (2, 3):
        for _ in range(25):
            g, J = random_compatible_pair(rng, n, PARAMS)
            fam = gb.derived_family(J, g, gb.build_jp(J, g), PARAMS)
            eye2n = np.eye(2 * n)
            jm = gb.build_jm(J, g)
            assert np.abs(fam.fhat_plus @ fam.fhat_plus - eye2n).max() < 1e-10
            assert np.abs(fam.fhat_minus @ fam.fhat_minus - eye2n).max() < 1e-10
            assert np.abs(fam.j_plus_of_fplus - jm).max() < 1e-10
            assert np.abs(fam.j_minus_of_fminus - jm).max() < 1e-10
            mirror = np.zeros((2 * n, 2 * n))
            mirror[:n, :n] = PARAMS.p * np.eye(n) - J
            mirror[n:, n:] = (PARAMS.p * np.eye(n) - J).T
            assert np.abs(fam.j_minus_of_fplus - mirror).max() < 1e-10
            assert np.abs(fam.j_plus_of_fminus - mirror).max() < 1e-10
            for cand in (fam.jm_plus, fam.jm_minus):
                res = cand @ cand - PARAMS.p * cand - PARAMS.q * eye2n
                assert np.abs(res).max() < 1e-11
            # corrected reading of the upper-right block: the printed form
            # -(pJ + (q-1)I) sharp misses the (2 sigma - p)/2 factor
            pjqi = PARAMS.p * J + (PARAMS.q - 1) * np.eye(n)
            ginv = np.linalg.inv(g)
            scale = max(1.0, np.abs(ginv).max())
            upper = fam.jm_plus[:n, n:]
            assert np.abs(upper + gap / 2.0 * pjqi @ ginv).max() < 1e-10 * scale
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = upper / (-(pjqi @ ginv))
            finite = ratio[np.isfinite(ratio)]
            if finite.size:
                assert np.allclose(finite, gap / 2.0, atol=1e-8)

    with pytest.raises(DegenerateDiscriminant):
        gb.derived_family(J2, G2, gb.build_jp(J2, G2), MetallicParams(2, -1))


def test_neutral_metric_block_form():
    # 2G = [[g, -J*], [-J, -(I - J^2) sharp]] for any compatible pair
    rng = np.random.default_rng(15)
    for n in (2, 3):
        g, J = random_compatible_pair(rng, n, PARAMS)
        G, _ = gb.neutral_metric_G(gb.build_jp(J, g))
        two_g = 2.0 * G
        assert np.abs(two_g[:n, :n] - g).max() < 1e-12
        assert np.abs(two_g[:n, n:] + J.T).max() < 1e-12
        assert np.abs(two_g[n:, :n] + J).max() < 1e-12
        expected = -(np.eye(n) - J @ J) @ np.linalg.inv(g)
        assert np.abs(two_g[n:, n:] - expected).max() < 1e-10


def test_neutral_metric_signature():
    jp = gb.build_jp(J2, G2)
    G, sig = gb.neutral_metric_G(jp)
    assert sig == (2, 2)
    assert np.abs(G - G.T).max() <= 1e-12
    # the proof device: congruence reduction gives the same signature
    assert gb.signature_by_congruence(G) == (2, 2)

    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        g, J = random_compatible_pair(rng, n, PARAMS)
        G, sig = gb.neutral_metric_G(gb.build_jp(J, g))
        assert sig == (n, n)
        assert gb.signature_by_congruence(G) == (n, n)


def test_calibration_checks():
    jp = gb.build_jp(J2, G2)
    jc = gb.build_jc(J2, G2)
    assert gb.check_anti_pseudo_calibrated(jp, gb.pairing_eigenvalues(jp)).residual < 1e-12
    calibrated = gb.check_calibrated(jc)
    assert calibrated.residual < 1e-12
    assert calibrated.details["min_eigenvalue"] > 0.0
    # the generalized metallic structure is NOT pairing-invariant
    jm = gb.build_jm(J2, G2)
    assert not gb.check_calibrated(jm).passed


def test_fhat_conjugation():
    jm = gb.build_jm(J2, G2)
    assert gb.fhat_conjugation(np.eye(2), jm, jm).passed
    # Df = J itself (invertible since q != 0)
    assert gb.fhat_conjugation(J2, jm, jm).passed
    # the push-forward form f(X + a) = f_* X + f_*^* a coincides with Jm
    fh2 = np.zeros((4, 4))
    fh2[:2, :2] = J2
    fh2[2:, 2:] = J2.T
    assert np.abs(fh2 - jm).max() < 1e-15

    theta = math.pi / 4
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    assert not gb.fhat_conjugation(rot, jm, jm).passed

    with pytest.raises(SingularJacobian):
        gb.fhat_matrix(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        gb.fhat_matrix(np.zeros((2, 3)))


def test_degenerate_form_rejected():
    from metalliclab.errors import DegenerateForm

    with pytest.raises(DegenerateForm):
        gb.neutral_metric_G(np.zeros((4, 4)))


def test_endo_blocks():
    jp = gb.build_jp(J2, G2)
    blocks = gb.endo_blocks(jp)
    assert np.allclose(blocks.A, J2)
    assert np.allclose(blocks.C, G2)
    assert np.allclose(blocks.D, -J2.T)
    with pytest.raises(DimensionMismatch):
        gb.endo_blocks(np.zeros((3, 3)))


def test_gen_vector_validation():
    with pytest.raises(DimensionMismatch):
        gb.GenVector([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        gb.GenVector([np.inf, 0.0], [0.0, 0.0])


# ------------------------------------------------------------------
# batches: a leading sample axis, each sample on its own
# ------------------------------------------------------------------

FAMILY_MEMBERS = (
    "f_plus",
    "f_minus",
    "fhat_plus",
    "fhat_minus",
    "j_plus_of_fplus",
    "j_minus_of_fplus",
    "j_plus_of_fminus",
    "j_minus_of_fminus",
    "jm_plus",
    "jm_minus",
)


def _compatible_stack(rng, n, m):
    pairs = [random_compatible_pair(rng, n, PARAMS) for _ in range(m)]
    return np.array([g for g, _ in pairs]), np.array([J for _, J in pairs])


def _equal_slices(stack, singles):
    return len(stack) == len(singles) and all(
        (stack[k] == single).all() for k, single in enumerate(singles)
    )


@pytest.mark.parametrize("n", (2, 3))
def test_batched_functions_equal_a_loop_over_their_slices(n):
    rng = np.random.default_rng(21)
    m = 12
    g, J = _compatible_stack(rng, n, m)
    points = rng.uniform(-1.0, 1.0, size=(m, n))
    loop = range(m)

    for build in (gb.build_jm, gb.build_jp, gb.build_jc):
        assert _equal_slices(build(J, g), [build(J[k], g[k]) for k in loop])
    assert _equal_slices(gb.ghat_matrix(g), [gb.ghat_matrix(g[k]) for k in loop])
    jm, jp, jc = gb.build_jm(J, g), gb.build_jp(J, g), gb.build_jc(J, g)
    blocks = gb.endo_blocks(jp)
    for name in ("A", "B", "C", "D"):
        expected = [getattr(gb.endo_blocks(jp[k]), name) for k in loop]
        assert _equal_slices(getattr(blocks, name), expected)

    family = gb.derived_family(J, g, jp, PARAMS)
    singles = [gb.derived_family(J[k], g[k], jp[k], PARAMS) for k in loop]
    for name in FAMILY_MEMBERS:
        assert _equal_slices(getattr(family, name), [getattr(f, name) for f in singles])

    G, (n_plus, n_minus) = gb.neutral_metric_G(jp)
    single_G = [gb.neutral_metric_G(jp[k]) for k in loop]
    assert _equal_slices(G, [Gk for Gk, _ in single_G])
    assert [(n_plus[k], n_minus[k]) for k in loop] == [sig for _, sig in single_G]

    assert _equal_slices(gb.pairing_eigenvalues(jp), [gb.pairing_eigenvalues(jp[k]) for k in loop])

    def anti_pseudo_calibrated(op, **kwargs):
        return gb.check_anti_pseudo_calibrated(op, gb.pairing_eigenvalues(op), **kwargs)

    # Jm is not pairing-invariant: its calibration residuals differ per sample
    for check, stack in (
        (anti_pseudo_calibrated, jp),
        (gb.check_calibrated, jc),
        (gb.check_calibrated, jm),
    ):
        batched = check(stack, points=points)
        single = [check(stack[k]) for k in loop]
        worst = max(loop, key=lambda k: single[k].residual)
        assert batched.residual == single[worst].residual
        assert batched.witness == tuple(points[worst])
        for key, value in batched.details.items():
            reduce = min if key.startswith("min_") else max
            assert value == reduce(s.details[key] for s in single)

    df = rng.normal(size=(m, n, n))
    assert _equal_slices(gb.fhat_matrix(df), [gb.fhat_matrix(df[k]) for k in loop])
    batched = gb.fhat_conjugation(df, jm, jp, points=points)
    single = [gb.fhat_conjugation(df[k], jm[k], jp[k]) for k in loop]
    worst = max(loop, key=lambda k: single[k].residual)
    assert batched.residual == single[worst].residual > 0.0
    assert batched.witness == tuple(points[worst])
    assert gb.fhat_conjugation(df[:0], jm[:0], jm[:0]).residual == 0.0


def _loop_error(fn, J, g):
    for k in range(len(J)):
        try:
            fn(J[k], g[k])
        except MetallicLabError as err:
            return err
    return None


@pytest.mark.parametrize(
    "fn",
    (
        gb.build_jm,
        gb.build_jp,
        gb.build_jc,
        # the preconditions are checked before the product structure is read
        lambda J, g: gb.derived_family(J, g, None, PARAMS),
    ),
    ids=("build_jm", "build_jp", "build_jc", "derived_family"),
)
def test_batched_errors_are_those_of_the_first_failing_sample(fn):
    rng = np.random.default_rng(23)
    g, J = _compatible_stack(rng, 3, 8)
    good_g3 = g[3].copy()
    g[3] = 0.0
    J[5] = J[5] + np.triu(np.ones((3, 3)), 1)

    expected = _loop_error(fn, J, g)
    assert isinstance(expected, SingularMetric)
    with pytest.raises(SingularMetric) as got:
        fn(J, g)
    assert str(got.value) == str(expected)

    g[3] = good_g3
    g[6] = 0.0  # a later singular metric does not take precedence
    expected = _loop_error(fn, J, g)
    assert isinstance(expected, IncompatiblePair)
    assert str(expected) == str(_loop_error(fn, J[5:6], g[5:6]))
    with pytest.raises(IncompatiblePair) as got:
        fn(J, g)
    assert str(got.value) == str(expected)


def test_degenerate_form_names_the_first_degenerate_sample():
    jp = np.stack([gb.build_jp(J2, G2)] * 6)
    jp[2] *= 1e-12
    jp[4] *= 1e-11
    messages = []
    for batch in (jp, jp[2], jp[4]):
        with pytest.raises(DegenerateForm) as got:
            gb.neutral_metric_G(batch)
        messages.append(str(got.value))
    assert messages[0] == messages[1] != messages[2]


GENBUNDLE_IDS = (
    "genbundle/jm-ghat-symmetric",
    "genbundle/jm-metallic",
    "genbundle/jp-squares-to-identity",
    "genbundle/jc-squares-to-minus-identity",
    "genbundle/jc-jp-anticommute",
    "genbundle/neutral-signature",
    "genbundle/calibration",
    "genbundle/derived-family",
    "genbundle/fhat-with-df-equal-j",
)
BROKEN = 5
ROTATION = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])


def _break_sample(monkeypatch, field, breaker):
    """Replace one sample of a ScenarioContext field by ``breaker`` of it."""
    original = getattr(suites.ScenarioContext, field).func

    def broken(ctx):
        values = original(ctx).copy()
        values[BROKEN] = breaker(values[BROKEN])
        return values

    monkeypatch.setattr(suites.ScenarioContext, field, property(broken))


def _genbundle_run(samples=8, seed=3):
    scenario = load_scenario(scenario_path("flat-golden"))
    report = suites.run_suites(scenario, suites=["genbundle"], samples=samples, seed=seed)
    points = suites.ScenarioContext(scenario, samples=samples, seed=seed).points
    return report, points


def test_one_degenerate_sample_keeps_every_genbundle_check(monkeypatch):
    _break_sample(monkeypatch, "J_at", np.zeros_like)
    _break_sample(monkeypatch, "g_at", np.zeros_like)
    report, points = _genbundle_run()
    assert sorted(c.check_id for c in report.checks) == sorted(GENBUNDLE_IDS)
    # g^-1 refuses the singular sample, so every check that reads it fails
    # and names that sample
    signature = report.find("genbundle/neutral-signature")
    assert not signature.passed
    assert str(tuple(float(v) for v in points[BROKEN])) in signature.details["error"]


EIGENSOLVE_IDS = ("genbundle/neutral-signature", "genbundle/calibration")


def test_a_non_finite_sample_fails_both_eigenvalue_checks_at_that_sample(monkeypatch):
    _break_sample(monkeypatch, "J_at", lambda J: np.full_like(J, np.nan))
    with np.errstate(invalid="ignore"):
        report, points = _genbundle_run()
    assert sorted(c.check_id for c in report.checks) == sorted(GENBUNDLE_IDS)
    for cid in EIGENSOLVE_IDS:
        check = report.find(cid)
        assert not check.passed, cid
        assert check.witness == tuple(points[BROKEN]), cid


def test_an_error_in_the_shared_eigensolve_fails_both_its_checks(monkeypatch):
    witness = (0.25, 0.5)

    def broken(op):
        raise DomainError("injected", witness)

    monkeypatch.setattr(gb, "pairing_eigenvalues", broken)
    report, _ = _genbundle_run()
    assert sorted(c.check_id for c in report.checks) == sorted(GENBUNDLE_IDS)
    for check in report.checks:
        failed = check.check_id in EIGENSOLVE_IDS
        assert check.passed != failed, check.check_id
        if failed:
            assert check.witness == witness, check.check_id


@pytest.mark.parametrize(
    "breaker, failing",
    (
        # gJ no longer symmetric: G changes signature, Jp and Jc lose their pairing
        (
            lambda J: J + np.array([[0.0, 3.0], [0.0, 0.0]]),
            ("genbundle/neutral-signature", "genbundle/calibration"),
        ),
        # compatible but not metallic, and so ill-conditioned that
        # Df = J intertwines Jm only up to a rounding error above 1e-10
        (
            lambda J: ROTATION @ np.diag([1e5, 1e-5]) @ ROTATION.T,
            (
                "genbundle/calibration",
                "genbundle/derived-family",
                "genbundle/fhat-with-df-equal-j",
            ),
        ),
    ),
    ids=("incompatible", "ill-conditioned"),
)
def test_batched_checks_name_the_broken_sample(monkeypatch, breaker, failing):
    _break_sample(monkeypatch, "J_at", breaker)
    report, points = _genbundle_run()
    for cid in failing:
        check = report.find(cid)
        assert not check.passed, cid
        assert check.witness == tuple(points[BROKEN]), cid
        assert check.to_dict()["witness"] == list(points[BROKEN]), cid


def test_the_minus_members_of_the_family_are_the_plus_members_bit_for_bit():
    # F^- = -F^+ exactly, so the family reads J^+(Fhat^-) as J^-(Fhat^+) and
    # J^-(Fhat^-) as J^+(Fhat^+): built from Fhat^- itself they are the same bits
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        g, J = _compatible_stack(rng, n, 16)
        fam = gb.derived_family(J, g, gb.build_jp(J, g), PARAMS)
        fhat_minus = np.zeros((16, 2 * n, 2 * n))
        fhat_minus[:, :n, :n] = fam.f_minus
        fhat_minus[:, n:, n:] = np.swapaxes(fam.f_minus, -1, -2)
        assert np.array_equal(fam.fhat_minus, fhat_minus)
        for sign, member in ((1.0, fam.j_plus_of_fminus), (-1.0, fam.j_minus_of_fminus)):
            direct = fam._converted(sign, fhat_minus)
            assert np.array_equal(member, direct)
            assert np.array_equal(member.view(np.int64), direct.view(np.int64))


def test_the_derived_family_check_builds_each_member_once(monkeypatch):
    calls = {"converted": 0, "fhat_plus": 0}
    converted = gb.DerivedFamily._converted
    fhat_plus = gb.DerivedFamily.fhat_plus.func

    def counting_converted(self, sign, product):
        calls["converted"] += 1
        return converted(self, sign, product)

    def counting_fhat_plus(self):
        calls["fhat_plus"] += 1
        return fhat_plus(self)

    prop = cached_property(counting_fhat_plus)
    prop.__set_name__(gb.DerivedFamily, "fhat_plus")
    monkeypatch.setattr(gb.DerivedFamily, "_converted", counting_converted)
    monkeypatch.setattr(gb.DerivedFamily, "fhat_plus", prop)
    report = suites.run_suites(load_scenario(scenario_path("sphere-diagJ")), suites=["genbundle"])
    assert report.find("genbundle/derived-family").passed
    # Jm^+, Jm^-, J^+(Fhat^+) and J^-(Fhat^+), each once; Fhat^+ once
    assert calls == {"converted": 4, "fhat_plus": 1}


def _dense_endo(c):
    """A position-dependent endomorphism with every entry non-constant."""
    n = c.dim
    total = " + ".join(c.names)
    rows = [
        [f"{1 if i == j else 0} + 0.3*cos(x{i + 1} + 2*x{j + 1} + ({total})/5)" for j in range(n)]
        for i in range(n)
    ]
    return ch.EndoField(c, np.array([[c.parse(s) for s in row] for row in rows], dtype=object))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_generalized_partials_match_central_differences_of_the_structures(n):
    # the partials of Jm, Jp, Jc and ghat against central differences of the
    # assembled values, on a dense metric and an endomorphism that both vary
    c, g = dense_metric(n, seed=20 + n)
    J = _dense_endo(c)
    pts = c.sample_points(3)
    ctx = field_context(g, J, pts)
    for label in ("jm", "jp", "jc", "ghat"):
        values, partials = ctx.gen_jet(label)

        def at(p, label=label):
            return field_context(g, J, p.reshape(1, -1)).gen_at(label)[0]

        for m, p in enumerate(pts):
            assert np.array_equal(values[m], at(p))
            oracle = np.array([fd_partial(at, p, k) for k in range(n)])
            assert np.abs(oracle).max() > 0.1
            assert np.abs(partials[m] - oracle).max() < 1e-8, label


SINGULAR = 20


def _twin_scenarios(tmp_path):
    """flat-golden (all seven suites) with g = diag(1, |x - x_s|^2 + shift) for
    the run's sample x_s: regular for shift 1, singular at x_s only for shift 0."""
    payload = json.loads(scenario_path("flat-golden").read_text())
    chart = ch.Chart(tuple(payload["coordinates"]), tuple(map(tuple, payload["domain"])))
    point = chart.sample_points(payload["samples"], seed=payload["seed"])[SINGULAR]
    a, b = (repr(float(v)) for v in point)
    paths = []
    for shift in (1, 0):
        payload["metric"] = [["1", "0"], ["0", f"(x1 - ({a}))^2 + (x2 - ({b}))^2 + {shift}"]]
        paths.append(tmp_path / f"shift{shift}.json")
        paths[-1].write_text(json.dumps(payload))
    return [load_scenario(path) for path in paths], point


def test_a_metric_singular_at_one_sample_fails_the_checks_that_invert_it(tmp_path):
    (regular, singular), point = _twin_scenarios(tmp_path)
    expected = suites.run_suites(regular)
    report = suites.run_suites(singular)
    ids = [check.check_id for check in report.checks]
    assert ids == [check.check_id for check in expected.checks]
    assert len(set(ids)) == len(ids) and not any(cid.endswith("/evaluation") for cid in ids)
    named = str(tuple(float(v) for v in point))
    failed = 0
    for check, before in zip(report.checks, expected.checks):
        if check.passed == before.passed:
            continue
        failed += 1
        if check.check_id != "core/metric-spd":
            assert named in check.details["error"], check.check_id
    assert failed > 30
    for cid in ("core/metallic-equation", "core/compatibility", "genbundle/jm-metallic"):
        assert report.find(cid).passed, cid


def test_a_run_of_all_seven_suites_inverts_the_metric_once(tmp_path, monkeypatch):
    (scenario, _), _ = _twin_scenarios(tmp_path)
    g_at = suites.ScenarioContext(scenario).g_at
    inverted = []
    inv = np.linalg.inv

    def recording(a, *args, **kwargs):
        inverted.append(np.array(a, copy=True))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", recording)
    report = suites.run_suites(scenario)
    assert report.suites == list(suites.KNOWN_SUITES)
    assert not any(check.check_id.endswith("/evaluation") for check in report.checks)
    assert sum(a.shape == g_at.shape and np.array_equal(a, g_at) for a in inverted) == 1
