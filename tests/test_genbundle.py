import json
import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import genbundle as gb
from metalliclab import suites
from metalliclab.errors import DegenerateForm, DomainError
from metalliclab.metallic import MetallicParams
from metalliclab.scenario import load_scenario

from conftest import (
    break_array,
    dense_metric,
    exprs,
    field_context,
    gen_jet,
    pair_context,
    scenario_path,
    transitive_reads,
)
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
    return pair_context(g, J)[f"gen[{label}]"][0]


def _measured(cid, ctx):
    """The Measured of the declared check ``cid`` on ``ctx``, under the run's guard."""
    check = next(check for check in suites.CHECKS if check.cid == cid)
    return suites._evaluate(check, ctx)


def _blockdiag(A, D):
    """[[A, 0], [0, D]] for stacks of n x n blocks."""
    n = A.shape[-1]
    out = np.zeros(A.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n], out[..., n:, n:] = A, D
    return out


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
    # gJ = [[sigma, a], [0, 3 (1 - sigma)]] has asymmetry a: 1 at sample 1, 2 at
    # sample 3; the error is the first failing sample's
    g = np.stack([np.diag([1.0, 3.0])] * 4)
    J = np.stack([J2] * 4)
    J[1, 0, 1], J[3, 0, 1] = 1.0, 2.0
    ctx = pair_context(g, J)
    measured = _measured("genbundle/derived-family", ctx)
    assert measured.raised and measured.residual == math.inf
    first = tuple(float(v) for v in ctx.points[1])
    assert measured.details == {"error": f"gJ asymmetry 1.000e+00 exceeds 1e-08 at point {first}"}
    assert measured.witness == first


def test_structure_identities_on_random_pairs():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        ctx = pair_context(*_compatible_stack(rng, n, 100))
        eye = np.eye(2 * n)
        jm, jp, jc, ghat = (ctx[f"gen[{label}]"] for label in ("jm", "jp", "jc", "ghat"))
        assert np.abs(jm @ jm - PARAMS.p * jm - PARAMS.q * eye).max() < 1e-10
        assert np.abs(jp @ jp - eye).max() < 1e-10
        assert np.abs(jc @ jc + eye).max() < 1e-10
        assert np.abs(jc @ jp + jp @ jc).max() < 1e-10
        sym = ghat @ jm
        assert np.abs(sym - np.swapaxes(sym, -1, -2)).max() < 1e-10


def _family(g, J, params=PARAMS):
    """Jp, F^+ and the four members Jm^+, Jm^-, J^+(Fhat^+), J^-(Fhat^+) of
    stacked pairs, from the paper's formulas."""
    n = J.shape[-1]
    gap = 2 * params.sigma - params.p
    Jt = np.swapaxes(J, -1, -2)
    jp = np.block([[J, (np.eye(n) - J @ J) @ np.linalg.inv(g)], [g, -Jt]])
    f_plus = (2 * J - params.p * np.eye(n)) / gap
    fhat_plus = _blockdiag(f_plus, np.swapaxes(f_plus, -1, -2))

    def converted(sign, X):
        return sign * gap / 2 * X + params.p / 2 * np.eye(2 * n)

    members = [converted(sign, X) for X in (jp, fhat_plus) for sign in (1, -1)]
    return jp, f_plus, members


def test_derived_family_identities():
    rng = np.random.default_rng(9)
    gap = 2 * PARAMS.sigma - PARAMS.p
    cid = "genbundle/derived-family"
    for n in (2, 3):
        g, J = _compatible_stack(rng, n, 25)
        measured = _measured(cid, pair_context(g, J))
        assert not measured.raised and measured.residual < 1e-10
        assert max(measured.details.values()) == measured.residual
        _, f_plus, (jm_plus, jm_minus, j_plus, j_minus) = _family(g, J)
        eye2n = np.eye(2 * n)
        fhat_plus = _blockdiag(f_plus, np.swapaxes(f_plus, -1, -2))
        assert np.abs(fhat_plus @ fhat_plus - eye2n).max() < 1e-10
        assert np.abs(j_plus - _blockdiag(J, np.swapaxes(J, -1, -2))).max() < 1e-10
        mirror = PARAMS.p * np.eye(n) - J
        assert np.abs(j_minus - _blockdiag(mirror, np.swapaxes(mirror, -1, -2))).max() < 1e-10
        for cand in (jm_plus, jm_minus):
            res = cand @ cand - PARAMS.p * cand - PARAMS.q * eye2n
            assert np.abs(res).max() < 1e-10
        # corrected reading of the upper-right block: the printed form
        # -(pJ + (q-1)I) sharp misses the (2 sigma - p)/2 factor
        pjqi = PARAMS.p * J + (PARAMS.q - 1) * np.eye(n)
        ginv = np.linalg.inv(g)
        scale = max(1.0, np.abs(ginv).max())
        upper = jm_plus[:, :n, n:]
        assert np.abs(upper + gap / 2.0 * pjqi @ ginv).max() < 1e-10 * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = upper / (-(pjqi @ ginv))
        finite = ratio[np.isfinite(ratio)]
        if finite.size:
            assert np.allclose(finite, gap / 2.0, atol=1e-8)

    # p^2 + 4q = 0: the conversions divide by 2 sigma - p = 0, and no run declares the check
    degenerate = pair_context(G2, J2, MetallicParams(2, -1)).scenario
    assert cid not in [check.cid for check in suites._declared("genbundle", degenerate)]


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


def _with_structure(ctx, label, values):
    """``ctx`` with ``values`` in place of its generalized structure ``label``."""
    ctx[f"gen[{label}]"] = values
    return ctx


def test_calibration_checks():
    cid = "genbundle/calibration"
    ctx = pair_context(G2, J2)
    assert _measured(cid, ctx).residual < 1e-12
    assert gb.pairing_eigenvalues(ctx["gen[jc]"]).min() > 0.0
    # the generalized metallic structure is NOT pairing-invariant
    measured = _measured(cid, _with_structure(ctx, "jc", ctx["gen[jm]"]))
    assert measured.residual > suites.TOL_ALGEBRAIC
    assert measured.details["jc_invariance"] == measured.residual
    assert measured.details["jp_anti_invariance"] < 1e-12


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
    ops = ctx["gen[jc]"].copy()
    ops[4] = ctx["gen[jm]"][4]
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


def test_calibration_names_the_sample_whose_form_is_not_positive_definite(monkeypatch):
    # -Jc keeps the pairing invariant, and its form is negative definite
    cid = "genbundle/calibration"
    pairs = _compatible_stack(np.random.default_rng(15), 2, 5)
    ctx = pair_context(*pairs)
    assert _measured(cid, ctx).residual <= suites.TOL_ALGEBRAIC
    ops = ctx["gen[jc]"].copy()
    ops[3] = -ops[3]
    measured = _measured(cid, _with_structure(ctx, "jc", ops))
    assert measured.residual == 2e-10 and measured.witness == tuple(ctx.points[3])
    assert measured.details["jc_invariance"] == 2e-10

    # the same for a sample whose form (., Jp .) is degenerate
    eigenvalues = gb.pairing_eigenvalues(ctx["gen[jp]"])
    eigenvalues[2, 0] = 0.0
    monkeypatch.setattr(gb, "pairing_eigenvalues", lambda op: eigenvalues)
    measured = _measured(cid, pair_context(*pairs))
    assert measured.residual == 2e-10 and measured.witness == tuple(ctx.points[2])
    assert measured.details["jp_anti_invariance"] == 2e-10


def test_fhat_conjugation():
    jm = _gen("jm", G2, J2)
    # the push-forward form f(X + a) = f_* X + f_*^* a coincides with Jm
    assert np.abs(_blockdiag(J2, J2.T) - jm).max() < 1e-15

    theta = math.pi / 4
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    for df in (np.eye(2), J2, rot):
        fhat = gb.fhat_matrix(df)
        assert np.array_equal(fhat, _blockdiag(df, np.linalg.inv(df.T)))
        # Df = I and Df = J (invertible since q != 0) intertwine Jm with itself
        intertwines = np.abs(fhat @ jm - jm @ fhat).max() <= suites.TOL_ALGEBRAIC
        assert intertwines == (df is not rot)


def test_degenerate_form_rejected():
    from metalliclab.errors import DegenerateForm

    with pytest.raises(DegenerateForm):
        gb.neutral_signature(gb.pairing_eigenvalues(np.zeros((4, 4))))


def test_the_default_thresholds_lie_between_0_5e_10_and_1_5e_10():
    from metalliclab.errors import DegenerateForm

    # smallest eigenvalues on both sides of the 1e-10 defaults, and one
    # between a default and its double
    forms = _forms(np.random.default_rng(16), [0.5e-10, 1.5e-10, 2e-10])
    assert gb.pairing_positive_definite(_with_form(forms)).tolist() == [False, True, True]
    eigenvalues = np.array([[2e-10, 1.0, -1.0, -1.0], [1.5e-10, -1.5e-10, 1.0, -1.0]])
    assert [a.tolist() for a in gb.neutral_signature(eigenvalues)] == [[2, 2], [2, 2]]
    with pytest.raises(DegenerateForm, match="5.000e-11"):
        gb.neutral_signature(np.array([[1.0, 0.5e-10, -1.0, -1.0]]))


def test_endo_blocks():
    # blocks lays out [[A, B], [C, D]]: for Jp, A = J, C = flat = g and D = -J*
    jp = _gen("jp", G2, J2)
    assert np.allclose(jp[:2, :2], J2)
    assert np.allclose(jp[2:, :2], G2)
    assert np.allclose(jp[2:, 2:], -J2.T)


# ------------------------------------------------------------------
# batches: a leading sample axis, each sample on its own
# ------------------------------------------------------------------

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
        assert _equal_slices(ctx[f"gen[{label}]"], [_gen(label, g[k], J[k]) for k in loop])
    jm, jp, jc = ctx["gen[jm]"], ctx["gen[jp]"], ctx["gen[jc]"]

    eigenvalues = gb.pairing_eigenvalues(jp)
    assert _equal_slices(eigenvalues, [gb.pairing_eigenvalues(jp[k]) for k in loop])
    n_plus, n_minus = gb.neutral_signature(eigenvalues)
    single = [gb.neutral_signature(eigenvalues[k]) for k in loop]
    assert [(n_plus[k], n_minus[k]) for k in loop] == single

    df = rng.normal(size=(m, n, n))
    assert _equal_slices(gb.fhat_matrix(df), [gb.fhat_matrix(df[k]) for k in loop])

    def context(k, swap):
        """The run context of the samples ``k``; ``swap`` = (label, source)
        puts the structure ``source`` in place of ``label``."""
        out = pair_context(g[k], J[k])
        return _with_structure(out, swap[0], out[f"gen[{swap[1]}]"]) if swap else out

    # each check over the stack is its worst sample checked alone.  Jm is not
    # pairing-invariant and Jp does not commute with the push-forward of J,
    # so those swaps give residuals that differ from sample to sample
    for cid, swap in (
        ("genbundle/calibration", None),
        ("genbundle/calibration", ("jc", "jm")),
        ("genbundle/derived-family", None),
        ("genbundle/fhat-with-df-equal-j", None),
        ("genbundle/fhat-with-df-equal-j", ("jm", "jp")),
    ):
        batched = _measured(cid, context(slice(None), swap))
        single = [_measured(cid, context(k, swap)) for k in loop]
        worst = max(loop, key=lambda k: single[k].residual)
        assert batched.residual == single[worst].residual, cid
        assert batched.witness == tuple(ctx.points[worst]), cid
        assert (batched.residual > suites.TOL_ALGEBRAIC) == bool(swap), cid
        for key, value in batched.details.items():
            if isinstance(value, float):
                assert value == max(s.details[key] for s in single), (cid, key)
    # no Df = J is invertible: the push-forward check reads 0 at every
    # sample, and its witness is the first sample, which holds that 0
    singular = pair_context(g, 0.0 * J)
    no_fhat = _measured("genbundle/fhat-with-df-equal-j", singular)
    assert (no_fhat.residual, no_fhat.witness) == (0.0, tuple(singular.points[0]))
    assert not no_fhat.raised


@pytest.mark.parametrize("cid", ("genbundle/derived-family",), ids=("derived_family",))
def test_batched_errors_are_those_of_the_first_failing_sample(cid):
    rng = np.random.default_rng(23)
    good_g, J = _compatible_stack(rng, 3, 8)
    g = good_g.copy()
    g[3] = 0.0
    g[6] = 0.0
    J[5] = J[5] + np.triu(np.ones((3, 3)), 1)
    J[7] = J[7] + 2.0 * np.triu(np.ones((3, 3)), 1)

    # the singular metric at sample 3 is named before the incompatible pairs
    ctx = pair_context(g, J)
    measured = _measured(cid, ctx)
    assert measured.raised
    first = tuple(float(v) for v in ctx.points[3])
    assert measured.details["error"] == f"|det g| < 1e-12 at point {first}"
    assert measured.witness == first

    # a later singular metric does not take precedence; each sample's error
    # alone, but for the point it names
    g = good_g.copy()
    g[6] = 0.0
    errors = [
        _measured(cid, pair_context(g[k], J[k])).details.get("error", "").split(" at point ")[0]
        for k in range(8)
    ]
    assert [k for k, error in enumerate(errors) if error] == [5, 6, 7]
    assert errors[5].startswith("gJ asymmetry") and errors[5] != errors[7]
    assert errors[6].startswith("|det g|")
    ctx = pair_context(g, J)
    measured = _measured(cid, ctx)
    fifth = tuple(float(v) for v in ctx.points[5])
    assert (measured.details["error"], measured.witness) == (f"{errors[5]} at point {fifth}", fifth)

    # at one sample a singular metric is named before an incompatible pair
    g[5] = 0.0
    ctx = pair_context(g, J)
    fifth = tuple(float(v) for v in ctx.points[5])
    assert _measured(cid, ctx).details["error"] == f"|det g| < 1e-12 at point {fifth}"


def test_a_degenerate_form_fails_the_signature_check_at_one_of_its_samples(tmp_path):
    # polar-plane's metric times 1e8: the form (s, Jp t) is degenerate there
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["metric"] = [[f"({entry})*1e8" for entry in row] for row in payload["metric"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(payload))
    scenario = load_scenario(path)
    report = suites.run_suites(scenario, suites=["genbundle"])
    signature = report.find("genbundle/neutral-signature")
    error = signature.details["error"]
    assert error.endswith(f"below threshold 1e-10 at point {signature.witness}")
    points = suites.ScenarioContext(scenario).points
    assert signature.witness in [tuple(float(v) for v in point) for point in points]


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


def _break_sample(monkeypatch, name, breaker):
    """Replace one sample of the run's array ``name`` by ``breaker`` of it."""

    def broken(values):
        values[BROKEN] = breaker(values[BROKEN])
        return values

    break_array(monkeypatch, name, broken)


def _genbundle_run(samples=8, seed=3):
    scenario = load_scenario(scenario_path("flat-golden"))
    report = suites.run_suites(scenario, suites=["genbundle"], samples=samples, seed=seed)
    points = suites.ScenarioContext(scenario, samples=samples, seed=seed).points
    return report, points


def test_one_degenerate_sample_keeps_every_genbundle_check(monkeypatch):
    _break_sample(monkeypatch, "J", np.zeros_like)
    _break_sample(monkeypatch, "g", np.zeros_like)
    report, points = _genbundle_run()
    assert sorted(c.check_id for c in report.checks) == sorted(GENBUNDLE_IDS)
    # g^-1 refuses the singular sample, so every check that reads it fails
    # and names that sample
    signature = report.find("genbundle/neutral-signature")
    assert not signature.passed
    assert str(tuple(float(v) for v in points[BROKEN])) in signature.details["error"]


EIGENSOLVE_IDS = ("genbundle/neutral-signature", "genbundle/calibration")


def test_a_non_finite_sample_fails_both_eigenvalue_checks_at_that_sample(monkeypatch):
    _break_sample(monkeypatch, "J", lambda J: np.full_like(J, np.nan))
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
    _break_sample(monkeypatch, "J", breaker)
    report, points = _genbundle_run()
    for cid in failing:
        check = report.find(cid)
        assert not check.passed, cid
        assert check.witness == tuple(points[BROKEN]), cid
        assert check.to_dict()["witness"] == list(points[BROKEN]), cid


def test_the_minus_members_of_the_family_are_the_plus_members_bit_for_bit():
    # F^- = -F^+ exactly, so the family check reads J^+(Fhat^-) as J^-(Fhat^+)
    # and J^-(Fhat^-) as J^+(Fhat^+): built here from Fhat^- itself they are the same bits
    rng = np.random.default_rng(41)
    gap = 2.0 * PARAMS.sigma - PARAMS.p
    for n in (2, 3, 4):
        g, J = _compatible_stack(rng, n, 16)
        ctx = pair_context(g, J)
        f_plus = (2.0 * J - PARAMS.p * np.eye(n)) / gap
        fhat_plus = _blockdiag(f_plus, np.swapaxes(f_plus, -1, -2))
        fhat_minus = _blockdiag(-f_plus, -np.swapaxes(f_plus, -1, -2))
        for sign in (1.0, -1.0):
            direct = sign * (gap / 2.0) * fhat_minus + PARAMS.p / 2.0 * np.eye(2 * n)
            member = suites._converted(ctx, -sign, fhat_plus)
            assert np.array_equal(member.view(np.int64), direct.view(np.int64))


def test_the_derived_family_check_builds_each_member_once(monkeypatch):
    products = []
    converted = suites._converted

    def recording(ctx, sign, X):
        products.append((sign, X))
        return converted(ctx, sign, X)

    monkeypatch.setattr(suites, "_converted", recording)
    scenario = load_scenario(scenario_path("sphere-diagJ"))
    report = suites.run_suites(scenario, suites=["genbundle"])
    assert report.find("genbundle/derived-family").passed
    # Jm^+, Jm^-, J^+(Fhat^+) and J^-(Fhat^+), each once: two from one Jp and
    # two from one Fhat^+, which is blockdiag(F^+, F^+*)
    assert [sign for sign, _ in products] == [1.0, -1.0, 1.0, -1.0]
    assert products[0][1] is products[1][1] and products[2][1] is products[3][1]
    ctx = suites.ScenarioContext(scenario)
    jp, f_plus, _ = _family(ctx["g"], ctx["J"])
    assert np.abs(products[0][1] - jp).max() < 1e-12
    fhat_plus = _blockdiag(f_plus, np.swapaxes(f_plus, -1, -2))
    assert np.abs(products[2][1] - fhat_plus).max() < 1e-12


def _dense_endo(c):
    """A position-dependent endomorphism with every entry non-constant."""
    n = c.dim
    total = " + ".join(c.names)
    rows = [
        [f"{1 if i == j else 0} + 0.3*cos(x{i + 1} + 2*x{j + 1} + ({total})/5)" for j in range(n)]
        for i in range(n)
    ]
    return exprs(c, rows)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_generalized_partials_match_central_differences_of_the_structures(n):
    # the partials of Jm, Jp, Jc and ghat against central differences of the
    # assembled values, on a dense metric and an endomorphism that both vary
    c, g = dense_metric(n, seed=20 + n)
    J = _dense_endo(c)
    pts = c.sample_points(3)
    ctx = field_context(c, g, J, pts)
    for label in ("jm", "jp", "jc", "ghat"):
        values, partials = gen_jet(ctx, label)

        def at(p, label=label):
            return field_context(c, g, J, p.reshape(1, -1))[f"gen[{label}]"][0]

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
    changed, raised = set(), set()
    for check, before in zip(report.checks, expected.checks):
        if "error" in check.details:
            raised.add(check.check_id)
            assert named in check.details["error"], check.check_id
            assert check.witness == tuple(float(v) for v in point), check.check_id
        if check.passed != before.passed:
            changed.add(check.check_id)
    # the checks whose declared reads need g^-1, directly or through the
    # producers of what they read, fail naming the singular sample (some fail
    # on the regular twin too); no other check but core/metric-spd moves
    inverting = {
        check.cid
        for suite in singular.suites
        for check in suites._declared(suite, singular)
        if "ginv" in transitive_reads(singular, check)
    }
    assert raised == inverting
    assert changed - inverting == {"core/metric-spd"}
    # what the geometry says needs no g^-1, so an invented read fails too
    algebraic = ("core/metallic-equation", "core/compatibility", "genbundle/jm-metallic")
    needs_no_inverse = {"core/metric-spd", "genbundle/fhat-with-df-equal-j", *algebraic}
    assert inverting == set(ids) - needs_no_inverse
    assert len(changed) > 30
    assert report.find("core/metric-spd").witness == tuple(float(v) for v in point)
    for cid in algebraic:
        assert report.find(cid).passed, cid


def test_a_run_of_all_seven_suites_inverts_the_metric_once(tmp_path, monkeypatch):
    (scenario, _), _ = _twin_scenarios(tmp_path)
    g_at = suites.ScenarioContext(scenario)["g"]
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
    _break_sample(monkeypatch, "J", lambda J: J + np.array([[0.0, 0.5], [0.0, 0.0]]))
    assert _genbundle_run()[0].find(cid).passed
    monkeypatch.setattr(
        gb, "fhat_matrix", lambda df: gb.blocks(df, 0.0, 0.0, np.linalg.inv(df))
    )
    assert not _genbundle_run()[0].find(cid).passed
