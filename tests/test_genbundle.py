import json
import math
from functools import cached_property

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
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
from metalliclab.metallic import MetallicParams
from metalliclab.scenario import load_scenario

from conftest import dense_metric, field_context, pair_context, scenario_path
from helpers import fd_partial, random_compatible_pair, signature_by_congruence

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


def _gen(label, g, J):
    """The structure ``label`` of one pointwise pair, as a run builds it."""
    return pair_context(g, J).gen_at(label)[0]


def test_ghat_matrix():
    assert np.allclose(_gen("ghat", np.eye(2), np.eye(2)), np.eye(4))
    got = _gen("ghat", np.diag([1.0, 4.0]), np.eye(2))
    assert np.allclose(np.diag(got), [1.0, 4.0, 1.0, 0.25])
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    gm = a.T @ a + 0.2 * np.eye(3)
    ghat = _gen("ghat", gm, np.eye(3))
    for _ in range(100):
        v = rng.normal(size=6)
        if np.abs(v).max() > 1e-9:
            assert v @ ghat @ v > 0.0


def test_natural_pairing():
    # (s, t) = -(alpha(Y) - beta(X)) / 2 for s = X + alpha, t = Y + beta
    M = gb.pairing_matrix(2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s, t = rng.normal(size=(2, 4))
        assert s @ M @ s == pytest.approx(0.0, abs=1e-15)
        assert s @ M @ t == pytest.approx(-0.5 * (s[2:] @ t[:2] - t[2:] @ s[:2]), abs=1e-12)
    assert np.array([1.0, 0.0, 0.0, 0.0]) @ M @ np.array([0.0, 0.0, 1.0, 0.0]) == 0.5


def test_block_structures_golden_case():
    jp = _gen("jp", G2, J2)
    assert np.abs(jp - JP_GOLDEN).max() < 1e-12
    assert np.abs(jp @ jp - np.eye(4)).max() < 1e-12
    jc = _gen("jc", G2, J2)
    assert np.abs(jc @ jc + np.eye(4)).max() < 1e-12
    assert np.abs(jc @ jp + jp @ jc).max() < 1e-12
    jm = _gen("jm", G2, J2)
    assert np.abs(jm @ jm - PARAMS.p * jm - PARAMS.q * np.eye(4)).max() < 1e-12


def test_incompatible_pair_rejected():
    bad_J = np.array([[GOLDEN, 1.0], [0.0, 1 - GOLDEN]])
    g = np.diag([1.0, 3.0])
    with pytest.raises(IncompatiblePair):
        gb.derived_family(bad_J, g, None, PARAMS)


def test_structure_identities_on_random_pairs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        ctx = pair_context(*_compatible_stack(rng, n, 100))
        eye = np.eye(2 * n)
        jm, jp, jc, ghat = (ctx.gen_at(label) for label in ("jm", "jp", "jc", "ghat"))
        assert np.abs(jm @ jm - PARAMS.p * jm - PARAMS.q * eye).max() < 1e-10
        assert np.abs(jp @ jp - eye).max() < 1e-10
        assert np.abs(jc @ jc + eye).max() < 1e-10
        assert np.abs(jc @ jp + jp @ jc).max() < 1e-10
        sym = ghat @ jm
        assert np.abs(sym - np.swapaxes(sym, -1, -2)).max() < 1e-10


def test_derived_family_identities():
    rng = np.random.default_rng(9)
    gap = 2 * PARAMS.sigma - PARAMS.p
    for n in (2, 3):
        for _ in range(25):
            g, J = random_compatible_pair(rng, n, PARAMS)
            fam = gb.derived_family(J, g, _gen("jp", g, J), PARAMS)
            eye2n = np.eye(2 * n)
            jm = _gen("jm", g, J)
            assert np.abs(fam.fhat_plus @ fam.fhat_plus - eye2n).max() < 1e-10
            assert np.abs(fam.j_plus_of_fplus - jm).max() < 1e-10
            mirror = np.zeros((2 * n, 2 * n))
            mirror[:n, :n] = PARAMS.p * np.eye(n) - J
            mirror[n:, n:] = (PARAMS.p * np.eye(n) - J).T
            assert np.abs(fam.j_minus_of_fplus - mirror).max() < 1e-10
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
        gb.derived_family(J2, G2, _gen("jp", G2, J2), MetallicParams(2, -1))


def test_neutral_metric_block_form():
    # 2G = [[g, -J*], [-J, -(I - J^2) sharp]] for any compatible pair
    rng = np.random.default_rng(15)
    for n in (2, 3):
        g, J = random_compatible_pair(rng, n, PARAMS)
        two_g = 2.0 * _form(_gen("jp", g, J))
        assert np.abs(two_g[:n, :n] - g).max() < 1e-12
        assert np.abs(two_g[:n, n:] + J.T).max() < 1e-12
        assert np.abs(two_g[n:, :n] + J).max() < 1e-12
        expected = -(np.eye(n) - J @ J) @ np.linalg.inv(g)
        assert np.abs(two_g[n:, n:] - expected).max() < 1e-10


def _form(op):
    """The symmetric form G(s, t) = (s, op t) of the natural pairing."""
    form = gb.pairing_matrix(op.shape[-1] // 2) @ op
    return 0.5 * (form + np.swapaxes(form, -1, -2))


def test_neutral_metric_signature():
    # the proof device, congruence reduction, gives the signature of the eigenvalues
    jp = _gen("jp", G2, J2)
    assert gb.neutral_signature(gb.pairing_eigenvalues(jp)) == (2, 2)
    assert signature_by_congruence(_form(jp)) == (2, 2)

    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        jp = _gen("jp", *random_compatible_pair(rng, n, PARAMS))
        assert gb.neutral_signature(gb.pairing_eigenvalues(jp)) == (n, n)
        assert signature_by_congruence(_form(jp)) == (n, n)


def test_calibration_checks():
    jp = _gen("jp", G2, J2)
    jc = _gen("jc", G2, J2)
    assert gb.check_anti_pseudo_calibrated(jp, gb.pairing_eigenvalues(jp)).residual < 1e-12
    calibrated = gb.check_calibrated(jc)
    assert calibrated.residual < 1e-12
    assert gb.pairing_eigenvalues(jc).min() > 0.0
    # the generalized metallic structure is NOT pairing-invariant
    assert not gb.check_calibrated(_gen("jm", G2, J2)).passed


# smallest eigenvalues just above and just below the tolerance of the check
ABOVE, BELOW = 1e-10 * (1 + 1e-3), 1e-10 * (1 - 1e-3)


def _forms(rng, smallest, n=3):
    """Symmetric 2n x 2n forms Q diag(l) Q^T, one per entry of ``smallest``,
    with that smallest eigenvalue and the others in [0.5, 2]."""
    out = []
    for low in smallest:
        q, _ = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))
        spectrum = np.concatenate([[low], rng.uniform(0.5, 2.0, size=2 * n - 1)])
        form = (q * spectrum) @ q.T
        out.append(0.5 * (form + form.T))
    return np.array(out)


def _with_form(form):
    """An operator whose pairing form (s, op t) is the symmetric ``form``:
    the pairing matrix M has the inverse -4 M, and both products are exact."""
    return -4.0 * gb.pairing_matrix(form.shape[-1] // 2) @ form


def _eigen_verdict(form, tol):
    return np.linalg.eigvalsh(form).min(axis=-1) > tol


def _recorded(monkeypatch, name):
    """Record each input of np.linalg.<name>."""
    calls = []
    original = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        calls.append(np.array(a, copy=True))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_positive_definite_forms_are_decided_by_one_cholesky(monkeypatch):
    tol = 1e-10
    forms = _forms(np.random.default_rng(11), [0.3] * 5 + [ABOVE] * 3)
    cholesky, eigvalsh = _recorded(monkeypatch, "cholesky"), _recorded(monkeypatch, "eigvalsh")
    got = gb.pairing_positive_definite(_with_form(forms), tol)
    assert got.tolist() == [True] * 8
    assert len(cholesky) == 1 and eigvalsh == []
    monkeypatch.undo()
    assert got.tolist() == _eigen_verdict(forms, tol).tolist()


@pytest.mark.parametrize(
    "smallest",
    [
        [0.3, 0.3, 0.3, BELOW, 0.3],
        [BELOW] * 4,
        [ABOVE, BELOW, 0.3, ABOVE],
        [0.3, -0.2, 0.3, 0.0],
    ],
)
def test_positive_definiteness_matches_the_eigenvalues_at_every_sample(smallest):
    tol = 1e-10
    forms = _forms(np.random.default_rng(12), smallest)
    got = gb.pairing_positive_definite(_with_form(forms), tol)
    assert got.tolist() == _eigen_verdict(forms, tol).tolist()


def test_the_form_of_jm_at_one_sample_is_not_positive_definite():
    rng = np.random.default_rng(13)
    ctx = pair_context(*_compatible_stack(rng, 3, 6))
    ops = ctx.gen_at("jc").copy()
    ops[4] = ctx.gen_at("jm")[4]
    forms = gb.pairing_matrix(3) @ ops
    forms = 0.5 * (forms + np.swapaxes(forms, -1, -2))
    expected = _eigen_verdict(forms, 1e-10)
    assert expected.tolist() == [True] * 4 + [False, True]
    assert gb.pairing_positive_definite(ops, 1e-10).tolist() == expected.tolist()


def test_a_non_finite_form_never_reaches_the_cholesky_factorisation(monkeypatch):
    forms = _forms(np.random.default_rng(14), [0.3] * 5)
    ops = _with_form(forms)
    ops[2, 0, 1] = np.nan
    cholesky = _recorded(monkeypatch, "cholesky")
    got = gb.pairing_positive_definite(ops, 1e-10)
    assert got.tolist() == [True, True, False, True, True]
    assert all(np.isfinite(a).all() for a in cholesky)


def test_calibration_names_the_sample_whose_form_is_not_positive_definite():
    # -Jc keeps the pairing invariant, and its form is negative definite
    rng = np.random.default_rng(15)
    ops = pair_context(*_compatible_stack(rng, 2, 5)).gen_at("jc").copy()
    points = np.arange(10.0).reshape(5, 2)
    assert gb.check_calibrated(ops, points=points).passed
    ops[3] = -ops[3]
    result = gb.check_calibrated(ops, points=points)
    assert not result.passed
    assert result.residual == 2e-10 and result.witness == (6.0, 7.0)


def test_fhat_conjugation():
    jm = _gen("jm", G2, J2)
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
        gb.neutral_signature(gb.pairing_eigenvalues(np.zeros((4, 4))))


def test_endo_blocks():
    # blocks lays out [[A, B], [C, D]]: for Jp, A = J, C = flat = g and D = -J*
    jp = _gen("jp", G2, J2)
    assert np.allclose(jp[:2, :2], J2)
    assert np.allclose(jp[2:, :2], G2)
    assert np.allclose(jp[2:, 2:], -J2.T)


# ------------------------------------------------------------------
# batches: a leading sample axis, each sample on its own
# ------------------------------------------------------------------

FAMILY_MEMBERS = ("f_plus", "fhat_plus", "j_plus_of_fplus", "j_minus_of_fplus", "jm_plus",
                  "jm_minus")


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

    ctx = pair_context(g, J)
    for label in ("jm", "jp", "jc", "ghat"):
        assert _equal_slices(ctx.gen_at(label), [_gen(label, g[k], J[k]) for k in loop])
    jm, jp, jc = ctx.gen_at("jm"), ctx.gen_at("jp"), ctx.gen_at("jc")

    family = gb.derived_family(J, g, jp, PARAMS)
    singles = [gb.derived_family(J[k], g[k], jp[k], PARAMS) for k in loop]
    for name in FAMILY_MEMBERS:
        assert _equal_slices(getattr(family, name), [getattr(f, name) for f in singles])

    eigenvalues = gb.pairing_eigenvalues(jp)
    assert _equal_slices(eigenvalues, [gb.pairing_eigenvalues(jp[k]) for k in loop])
    n_plus, n_minus = gb.neutral_signature(eigenvalues)
    single = [gb.neutral_signature(eigenvalues[k]) for k in loop]
    assert [(n_plus[k], n_minus[k]) for k in loop] == single

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
    # the preconditions are checked before the product structure is read
    "fn", (lambda J, g: gb.derived_family(J, g, None, PARAMS),), ids=("derived_family",)
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
    jp = np.stack([_gen("jp", G2, J2)] * 6)
    jp[2] *= 1e-12
    jp[4] *= 1e-11
    messages = []
    for batch in (jp, jp[2], jp[4]):
        with pytest.raises(DegenerateForm) as got:
            gb.neutral_signature(gb.pairing_eigenvalues(batch))
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
    # F^- = -F^+ exactly, so the family check reads J^+(Fhat^-) as J^-(Fhat^+)
    # and J^-(Fhat^-) as J^+(Fhat^+): built from Fhat^- itself they are the same bits
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        g, J = _compatible_stack(rng, n, 16)
        fam = gb.derived_family(J, g, pair_context(g, J).gen_at("jp"), PARAMS)
        f_minus = -fam.f_plus
        fhat_minus = gb.blocks(f_minus, 0.0, 0.0, np.swapaxes(f_minus, -1, -2))
        for sign, member in ((1.0, fam.j_minus_of_fplus), (-1.0, fam.j_plus_of_fplus)):
            direct = fam._converted(sign, fhat_minus)
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
    comps = np.array([[ex.parse(s, c.names) for s in row] for row in rows], dtype=object)
    return ch.EndoField(c, comps)


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
    assert report.find("core/metric-spd").witness == tuple(float(v) for v in point)
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


def test_the_fhat_check_is_informative_and_reads_the_push_forward(monkeypatch):
    # for Df = J the intertwining holds for every invertible J, so no scenario
    # can fail the check and it does not gate; with a non-normal J it still
    # tells Df^-1 from (Df^T)^-1 in the push-forward
    cid = "genbundle/fhat-with-df-equal-j"
    check = _genbundle_run()[0].find(cid)
    assert check.passed and not check.gating
    assert "rounding only" in check.details["informative"]
    _break_sample(monkeypatch, "J_at", lambda J: J + np.array([[0.0, 0.5], [0.0, 0.0]]))
    assert _genbundle_run()[0].find(cid).passed
    monkeypatch.setattr(
        gb, "fhat_matrix", lambda df, invertible: gb.blocks(df, 0.0, 0.0, np.linalg.inv(df))
    )
    assert not _genbundle_run()[0].find(cid).passed
