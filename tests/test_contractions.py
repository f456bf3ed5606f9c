"""The per-sample matrix products of genconn and lifts against their
einsum specifications (tests/helpers.py), on random arrays at n = 2..6."""

from types import SimpleNamespace

import numpy as np
import pytest

from metalliclab import genconn as gc
from metalliclab import lifts as lf
from metalliclab import suites
from metalliclab.metallic import MetallicParams
from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

from conftest import CORPUS, scenario_path
from helpers import (
    conditions_spec,
    coordinate_endo_spec,
    coordinate_metric_spec,
    frame_endo_spec,
    frame_metric_spec,
    gen_nijenhuis_loop,
    horizontal_display_spec,
    lift_spec,
    mixed_display_spec,
    reduced_spec,
    torsion_closed_form_spec,
)

DIMS = (2, 3, 4, 5, 6)
M = 3
PARAMS = MetallicParams(3.0, 2.0)


def close(got, expected):
    """Agreement to 1e-12 of the scale of the expected values."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    return np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def spd(rng, n):
    a = rng.normal(size=(M, n, n))
    return a @ np.swapaxes(a, -1, -2) + n * np.eye(n)


@pytest.mark.parametrize("n", DIMS)
def test_gen_nijenhuis_matches_the_pairwise_bracket_loop(n):
    rng = np.random.default_rng(10 + n)
    gamma = rng.normal(size=(M, n, n, n))  # not symmetric in (i, j): torsionful
    J = rng.normal(size=(M, 2 * n, 2 * n))
    dJ = rng.normal(size=(M, n, 2 * n, 2 * n))
    assert close(gc.gen_nijenhuis(gamma, J, dJ), gen_nijenhuis_loop(gamma, J, dJ))


def condition_inputs(rng, n) -> dict:
    """The named arrays of the condition lists, by their parameter names."""
    g = spd(rng, n)
    J = rng.normal(size=(M, n, n))
    Dg = rng.normal(size=(M, n, n, n))
    T = rng.normal(size=(M, n, n, n))
    return dict(
        g=g,
        ginv=np.linalg.inv(g),
        J=J,
        K=J @ J,
        Dg=Dg + np.swapaxes(Dg, -1, -2),
        DJ=rng.normal(size=(M, n, n, n)),
        DK=rng.normal(size=(M, n, n, n)),
        T=T - np.swapaxes(T, -1, -2),
        NJ=rng.normal(size=(M, n, n, n)),
    )


@pytest.mark.parametrize("n", DIMS)
def test_condition_lists_match_their_einsum_specs(n):
    arrays = condition_inputs(np.random.default_rng(20 + n), n)
    # the specs read the arrays as attributes, and the identity as ``eye``
    ci = SimpleNamespace(**arrays, eye=np.broadcast_to(np.eye(n), arrays["J"].shape))
    reduced_reads = {name: arrays[name] for name in ("g", "J", "K", "DJ", "DK", "NJ")}
    for sign, conditions, reduced in (
        (-1.0, gc.jp_condition_residuals, gc.jp_reduced_residuals),
        (1.0, gc.jc_condition_residuals, gc.jc_reduced_residuals),
    ):
        for got, expected in (
            (conditions(**arrays), conditions_spec(ci, sign)),
            (reduced(**reduced_reads), reduced_spec(ci, sign)),
        ):
            assert len(got) == len(expected)
            for k, (a, b) in enumerate(zip(got, expected)):
                assert close(a, b), (sign, k)


@pytest.mark.parametrize("n", DIMS)
def test_torsion_closed_form_matches_its_einsum_spec(n):
    rng = np.random.default_rng(30 + n)
    J, omega = rng.normal(size=(M, n, n)), rng.normal(size=(M, n))
    got = gc.torsion_closed_form_values(J, PARAMS, omega)
    assert close(got, torsion_closed_form_spec(J, PARAMS.q, omega))


FIBRE = 2  # fibre points over each of the M base samples of the lifts


def lift_arrays(rng, n):
    g = spd(rng, n)
    ginv = np.linalg.inv(g)
    dg = rng.normal(size=(M, n, n, n))
    dg = dg + np.swapaxes(dg, -1, -2)
    return {
        "y": rng.normal(size=(M, FIBRE, n)),
        "g": g,
        "ginv": ginv,
        "J": rng.normal(size=(M, n, n)),
        "gamma": rng.normal(size=(M, n, n, n)),
        "dg": dg,
        "dJ": rng.normal(size=(M, n, n, n)),
        "dgamma": rng.normal(size=(M, n, n, n, n)),
        "dginv": -(ginv[:, None] @ dg @ ginv[:, None]),
    }


def rows(a):
    """A lifted array [M, FIBRE, ...] with one row per lifted sample, as the specs read it."""
    return a.reshape((M * FIBRE,) + a.shape[2:])


def side_by_side(arrays):
    """A list of lifted arrays [M, FIBRE, ...] as the specs give them: one
    row per lifted sample, the arrays' entries side by side."""
    return np.concatenate([rows(a).reshape(M * FIBRE, -1) for a in arrays], axis=1)


def repeated(a):
    """A base array [M, ...] at each of the FIBRE lifted samples over its sample."""
    return np.repeat(a, FIBRE, axis=0)


@pytest.mark.parametrize("flavor", (lf.TANGENT, lf.COTANGENT))
@pytest.mark.parametrize("n", DIMS)
def test_lift_and_displays_match_their_einsum_specs(n, flavor):
    # the program broadcasts the base arrays over the fibre points; the specs
    # read the base arrays repeated at every lifted sample
    rng = np.random.default_rng(40 + n)
    tangent = flavor == lf.TANGENT
    a = lift_arrays(rng, n)
    L = lf.horizontal(flavor, a["y"], a["gamma"])
    at_rows = {key: rows(v) if key == "y" else repeated(v) for key, v in a.items()}
    jbar, djbar = lift_spec(tangent, **at_rows)
    assert close(rows(lf.jbar(flavor, L, a["J"], a["g"], a["ginv"])), jbar)
    assert close(rows(lf.djbar(flavor, L=L, **a)), djbar)

    y, g, ginv, J, gamma = a["y"], a["g"], a["ginv"], a["J"], a["gamma"]
    fibre_g = g if tangent else ginv
    jbar = rng.normal(size=(M, FIBRE, 2 * n, 2 * n))
    gbar = rng.normal(size=(M, FIBRE, 2 * n, 2 * n))
    frame = rng.normal(size=(M, FIBRE, 2 * n, n))
    N = rng.normal(size=(M, FIBRE, 2 * n, 2 * n, 2 * n))
    DJ, NJ = rng.normal(size=(M, n, n, n)), rng.normal(size=(M, n, n, n))
    R = rng.normal(size=(M, n, n, n, n))
    jbar_r, gbar_r, frame_r, N_r, y_r = (rows(x) for x in (jbar, gbar, frame, N, y))
    base = (g, ginv, J, gamma, DJ, NJ, R)
    g_r, ginv_r, J_r, gamma_r, DJ_r, NJ_r, R_r = (repeated(x) for x in base)
    assert close(
        side_by_side(lf.frame_endo_residuals(jbar, frame, J, flavor)),
        frame_endo_spec(jbar_r, frame_r, J_r, tangent),
    )
    assert close(
        rows(lf.coordinate_endo_residuals(jbar, J, gamma, y, flavor)),
        coordinate_endo_spec(jbar_r, J_r, gamma_r, y_r, tangent),
    )
    assert close(
        side_by_side(lf.frame_metric_residuals(gbar, frame, g, fibre_g)),
        frame_metric_spec(gbar_r, frame_r, g_r, ginv_r, tangent),
    )
    assert close(
        side_by_side(lf.coordinate_metric_residuals(gbar, g, fibre_g, gamma, y, flavor)),
        coordinate_metric_spec(gbar_r, g_r, ginv_r, gamma_r, y_r, tangent),
    )
    for literal, residual in zip((False, True), lf.mixed_display_residual(N, frame, J, DJ, flavor)):
        assert close(
            rows(residual), mixed_display_spec(N_r, frame_r, J_r, DJ_r, tangent, literal=literal)
        )
    gap = rows(lf.horizontal_display_match(N, frame, J, NJ, R, y, PARAMS, flavor))
    horiz, vert, terms = horizontal_display_spec(
        N_r, frame_r, J_r, NJ_r, R_r, y_r, PARAMS.p, PARAMS.q, tangent
    )
    assert close(gap[:, :n], horiz)
    assert close(gap[:, n:], vert - terms[("a", "b", "c")])


def test_a_corpus_pass_makes_no_einsum_of_three_or_more_operands(monkeypatch):
    # chained einsums run without a contraction order; the program contracts
    # such terms as per-sample matrix products, smallest pair first
    einsum = np.einsum
    wide = []

    def guarded(subscripts, *operands, **kwargs):
        if len(operands) >= 3:
            wide.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", guarded)
    for name in CORPUS:
        run_suites(load_scenario(scenario_path(name)))
    assert not wide


def test_a_commutation_run_evaluates_no_second_partials(monkeypatch):
    # the intertwining reads the lifts' values only, so the partials of Gamma
    # (and the second partials of g, read only by those of the Levi-Civita
    # connection) stay unbuilt
    scenario = load_scenario(scenario_path("warped-mixing"))
    built = []
    missing = suites.ScenarioContext.__missing__

    def recorded(ctx, name):
        built.append(name)
        return missing(ctx, name)

    monkeypatch.setattr(suites.ScenarioContext, "__missing__", recorded)
    report = run_suites(scenario, suites=["commutation"])
    assert not {"d2g", "dgamma[lc]", "dgamma[scenario]"} & set(built)
    assert report.checks[0].passed
