"""Checks whose arrays are the same at every sample: a run evaluates them
once, on its first sample, and each output stands for every sample by the
closed form of its rule, which must give what evaluating and folding them
chunk by chunk gives."""

import functools
import math

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import suites
from metalliclab.metallic import MetallicParams
from metalliclab.scenario import ChartScenario, load_scenario
from metalliclab.suites import Measured, ScenarioContext, run_suites

from conftest import CORPUS, scenario_path

WIDE_BATCH = ("core", "genbundle", "commutation")


def invariant_checks(scenario) -> list:
    varies = {}
    return [
        check
        for suite in suites.KNOWN_SUITES
        for check in suites._declared(suite, scenario)
        if not suites._varies(scenario, check.reads, varies)
    ]


@pytest.mark.parametrize("name", CORPUS)
def test_a_check_called_invariant_gives_one_result_at_any_sample(name):
    # two one-sample contexts that share nothing but the scenario: another
    # point, seed and sample index; a residual or producer that reads the
    # sample coordinates or draws by sample index without declaring
    # ``points`` gives two results
    scenario = load_scenario(scenario_path(name))
    points = scenario.chart.sample_points(40, seed=scenario.seed + 1)
    checks = invariant_checks(scenario)
    assert checks
    for check in checks:
        one = ScenarioContext(scenario, seed=1, points=points[3:4])
        other = ScenarioContext(scenario, seed=2, first=517, points=points[29:30])
        a, b = suites._evaluate(check, one), suites._evaluate(check, other)
        assert not a.raised, check.cid
        assert (a.residual, a.details) == (b.residual, b.details), check.cid


def test_the_flat_charts_evaluate_all_but_the_sampled_checks_once():
    # wide-batch's suites: only the commutation check reads the samples
    for name in ("flat-golden", "flat-silver"):
        scenario = load_scenario(scenario_path(name))
        wide = [c for s in WIDE_BATCH for c in suites._declared(s, scenario)]
        once = {check.cid for check in invariant_checks(scenario)}
        assert [c.cid for c in wide if c.cid not in once] == ["commutation/jm-lift-intertwine"]
    # a chart whose metric varies shares only the checks that read J alone
    scenario = load_scenario(scenario_path("warped-mixing"))
    assert {check.cid for check in invariant_checks(scenario)} == {
        "core/metallic-equation",
        "genbundle/jm-metallic",
        "genbundle/fhat-with-df-equal-j",
    }


# one result per declared rule, at a sample where the check gives it: output
# name -> (value, row), rows numbered from that sample, inf where none holds it
RESULTS = {
    "core/metric-spd": Measured(
        {"residual": (1.0, 0), "min_eigenvalue": (-0.5, math.inf)}, (0.1, 0.2)
    ),
    "genbundle/neutral-signature": Measured(
        {"residual": (3.0, 0), "signature": ([1, 3], math.inf)}, (0.1, 0.2)
    ),
    "genbundle/fhat-with-df-equal-j": Measured(
        {"residual": (2e-17, 0)}, (0.1, 0.2), {"informative": "text"}
    ),
    "genconn/jp-integrability-conditions": Measured(
        {"residual": (0.5, 0), "per_condition": ([0.5, 0.25, 0.0], [0, 0, 0])}, (0.1, 0.2)
    ),
    "karaman/random-omega-sweep": Measured(
        {"residual": (2.0, 0), "per_form_max": ([0.0, 1e-3, 2.0], [math.inf, 0, 0])}, (0.1, 0.2)
    ),
    "core/locally-metallic": Measured(
        {"residual": (math.inf, math.inf)}, None, {"error": "singular"}, raised=True
    ),
    # no entry holds the residual: no row and no witness
    "core/bianchi-first": Measured({"residual": (0.0, math.inf)}),
}


def test_the_results_cover_every_declared_rule():
    checks = {check.cid: check for check in suites.CHECKS}
    declared = {rule for check in suites.CHECKS for rule in check.rules.values()}
    assert declared == {suites.MAX, suites.MAX_EACH, suites.MIN, suites.SUM, suites.LAST}
    covered = {checks[cid].rule(name) for cid, out in RESULTS.items() for name in out.outputs}
    assert declared <= covered
    assert any(checks[cid].details for cid in RESULTS)


def at_sample(out: Measured, k: int) -> Measured:
    """``out`` as the result of the k-th sample: its rows moved on by k, and
    for k > 0 a witness of its own."""

    def moved(row):
        return [r + k for r in row] if isinstance(row, list) else row + k

    outputs = {name: (value, moved(row)) for name, (value, row) in out.outputs.items()}
    witness = out.witness if k == 0 or out.witness is None else (*out.witness, k)
    return Measured(outputs, witness, out.notes, out.raised)


@pytest.mark.parametrize("count", (1, 2, 3, 7, 512, 4097))
@pytest.mark.parametrize("cid", sorted(RESULTS))
def test_the_closed_form_repeat_is_folding_one_by_one(cid, count):
    # the result of one sample stands for ``count`` samples by each rule's
    # repeat, as a run applies it to a check evaluated once
    check = next(check for check in suites.CHECKS if check.cid == cid)
    out = RESULTS[cid]
    one_by_one = functools.reduce(
        lambda before, after: suites._fold(check, before, after),
        [at_sample(out, k) for k in range(count)],
    )
    repeated = out
    if not out.raised:
        repeat = {name: check.rule(name).repeat(pair, count) for name, pair in out.outputs.items()}
        repeated = Measured(repeat, out.witness, out.notes)
    assert repeated == one_by_one


def constant_chart(samples: int) -> ChartScenario:
    """The golden structure of the projection P = [[1, 1], [0, 0]] with the
    flat metric: P is not g-symmetric, so loading refuses it, and a run's
    compatibility check fails, its derived family raises and G has the
    wrong signature at every sample."""
    c = ch.Chart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)), seed=0)
    params = MetallicParams(1.0, 1.0)
    P = np.array([[1.0, 1.0], [0.0, 0.0]])
    J = params.sigma * P + params.sigma_other * (np.eye(2) - P)
    g, J = ch.constant_matrix(np.eye(2)), ch.constant_matrix(J)
    selected = list(WIDE_BATCH)
    return ChartScenario("constant", c, params, g, J, None, None, selected, samples, 3, 1e-9)


def per_chunk(scenario, length: int = 1024) -> dict:
    """cid -> every check of the run evaluated on each chunk of ``length``
    samples in its own context and folded chunk by chunk."""
    folded = {}
    for start in range(0, scenario.samples, length):
        count = min(length, scenario.samples - start)
        ctx = ScenarioContext(scenario, count, scenario.seed, first=start)
        for suite in scenario.suites:
            for check in suites._declared(suite, scenario):
                out = suites._evaluate(check, ctx)
                before = folded.get(check.cid)
                folded[check.cid] = out if before is None else suites._fold(check, before, out)
    return folded


def test_a_constant_chart_over_three_chunks_gives_the_per_chunk_results():
    scenario = constant_chart(2100)
    assert suites._chunk_length(2) == 1024
    once = {check.cid for check in invariant_checks(scenario)}
    assert [c.cid for c in suites.CHECKS if c.suite in WIDE_BATCH and c.cid not in once] == [
        "commutation/jm-lift-intertwine"
    ]
    report = run_suites(scenario)
    reference = per_chunk(scenario)
    assert [check.check_id for check in report.checks] == list(reference)
    for check in report.checks:
        out = reference[check.check_id]
        got = (check.residual, check.witness, check.details)
        assert got == (out.residual, out.witness, out.details), check.check_id
    first = tuple(float(v) for v in scenario.chart.sample_points(1, seed=3)[0])
    failed = report.find("core/compatibility")
    assert failed.gating and not failed.passed and failed.witness == first
    raised = report.find("genbundle/derived-family")
    assert raised.gating and raised.residual == math.inf and "error" in raised.details
    assert report.find("genbundle/neutral-signature").residual == 2100.0
