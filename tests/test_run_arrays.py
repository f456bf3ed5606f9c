"""The arrays of a run: each is built at most once per chunk, one that is
the same at every sample once per run, and dropped after its last use; a
run at 4096 samples stays within a fixed memory budget.  A residual that
makes a context of its own (the omega sweep, one per 1-form) builds there
only what reaches the array it gives that context beyond the check's reads."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from metalliclab import suites
from metalliclab.errors import MetallicLabError
from metalliclab.scenario import load_scenario
from metalliclab.suites import ScenarioContext, run_suites

from conftest import CORPUS, reached, scenario_path, transitive_reads

WIDE_BATCH = ["core", "genbundle", "commutation"]


@pytest.fixture
def counted_run(monkeypatch):
    """run(scenario, suites, samples) -> the builds of that run, by array name.

    A chunk that takes an array from the run's one-sample context, as a view,
    does not build it, and no context builds its own ``points``.  The run
    also holds the memo to the checks' declarations.  Each array built
    while a check's inputs are made is one the check reads, directly or
    through the producers of what it reads; while its residual runs, the
    memo holds only the arrays it declares, and a read of any other array
    fails the test.  A context the residual makes of its own may build only
    an array that reaches, through the producers of what it reads, an array
    that context holds and the check does not declare (the omega sweep's
    1-form); its builds are not counted.  Every array is an ndarray with one
    row per sample of its context, or per lifted sample for ``lift_points``.
    Before each check the memo holds only arrays that check or a later one
    reads, the checks whose arrays are the same at every sample running
    first, and after the run it holds none."""
    counts = Counter()
    run_state = {}
    missing, evaluate = ScenarioContext.__missing__, suites._evaluate

    def counted_missing(ctx, name):
        run = run_state["ctx"]
        if ctx is run or ctx is run.once:
            once = ctx.once
            shared = once is not None and not suites._varies(ctx.scenario, (name,), once.varies)
            if name != "points" and not shared:
                counts[name] += 1
            assert name in run_state["reads"], (run_state["cid"], name)
        else:
            given = set(ctx) - set(run_state["declared"])
            assert reached(ctx.scenario, (name,)) & given, (run_state["cid"], name)
        value = missing(ctx, name)
        rows = len(ctx.points) * (suites.FIBRE_PER_BASE if name == "lift_points" else 1)
        assert isinstance(value, np.ndarray) and value.shape[:1] == (rows,), name
        return value

    def checked_evaluate(check, ctx):
        k = next(k for k, declared in enumerate(run_state["checks"]) if declared is check)
        assert set(ctx) <= set().union(*run_state["closures"][k:]), check.cid
        declared = (*check.reads, check.points)
        run_state.update(ctx=ctx, cid=check.cid, reads=run_state["closures"][k], declared=declared)
        try:
            for name in declared:
                ctx[name]
        except MetallicLabError:
            return evaluate(check, ctx)  # the error, under the check's guard
        hidden = {name: ctx.pop(name) for name in list(ctx) if name not in declared}
        run_state["reads"] = ()
        try:
            return evaluate(check, ctx)
        finally:
            ctx.update(hidden)

    monkeypatch.setattr(ScenarioContext, "__missing__", counted_missing)
    monkeypatch.setattr(suites, "_evaluate", checked_evaluate)

    def run(scenario, selected, samples=None):
        counts.clear()
        checks = [check for suite in selected for check in suites._declared(suite, scenario)]
        varies = {}
        checks.sort(key=lambda check: suites._varies(scenario, check.reads, varies))
        closures = [transitive_reads(scenario, c) for c in checks]
        run_state.update(checks=checks, closures=closures)
        run_suites(scenario, suites=selected, samples=samples)
        assert counts, "nothing was counted"
        assert not run_state["ctx"], sorted(run_state["ctx"])
        return Counter(counts)

    return run


@pytest.mark.parametrize("order", ("declared", "reversed", "wide-batch"))
@pytest.mark.parametrize("name", CORPUS)
def test_every_run_array_is_built_at_most_once(counted_run, name, order):
    scenario = load_scenario(scenario_path(name))
    selected = {
        "declared": scenario.suites,
        "reversed": scenario.suites[::-1],
        "wide-batch": WIDE_BATCH,
    }[order]
    counts = counted_run(scenario, selected)
    assert {key: n for key, n in counts.items() if n > 1} == {}


def rebuilt_in_pairs(counted_run, scenario) -> list:
    """The ordered pairs of the scenario's suites whose run builds something twice."""
    return [
        (first, second)
        for first, second in itertools.permutations(scenario.suites, 2)
        if max(counted_run(scenario, [first, second]).values()) > 1
    ]


def test_every_ordered_pair_of_suites_builds_each_array_at_most_once(counted_run):
    # flat-golden declares all seven suites
    assert rebuilt_in_pairs(counted_run, load_scenario(scenario_path("flat-golden"))) == []


def test_an_invariant_array_is_built_once_per_run_and_the_others_once_per_chunk(counted_run):
    # flat-golden's g and J are constant and its omega is not; at 1100
    # samples the run goes over chunks of 1024 and 76
    scenario = load_scenario(scenario_path("flat-golden"))
    assert suites._chunk_length(scenario.chart.dim) == 1024
    counts = counted_run(scenario, scenario.suites, samples=1100)
    varies = {}
    once = {name for name in counts if not suites._varies(scenario, (name,), varies)}
    assert {"g", "d2g", "J", "ginv", "gamma[lc]", "riemann[lc]", "gen_nij[lc,jp]"} <= once
    assert {"omega", "gamma[karaman]", "fibre", "jbar[tangent]"} <= set(counts) - once
    assert {name: n for name, n in counts.items() if name in once} == dict.fromkeys(once, 1)
    assert {name: n for name, n in counts.items() if name not in once} == dict.fromkeys(
        set(counts) - once, 2
    )


def test_the_inputs_of_an_array_go_once_it_is_built(monkeypatch):
    # nijenhuis-vertical-vertical, the first lifts-tangent check to read
    # lift_nij[tangent], builds it; the later checks read it, the frame and
    # base arrays, but none of jbar, the horizontal frame or the metric's partials
    scenario = load_scenario(scenario_path("warped-mixing"))
    assert suites._chunk_length(scenario.chart.dim) == 455
    held, evaluate = {}, suites._evaluate

    def recording(check, ctx):
        held[check.cid] = set(ctx)  # what the checks before this one left
        return evaluate(check, ctx)

    monkeypatch.setattr(suites, "_evaluate", recording)
    run_suites(scenario, suites=["lifts-tangent"], samples=455)
    after = held["lifts-tangent/nijenhuis-mixed-display"]
    assert "lift_nij[tangent]" in after
    inputs = {"jbar[tangent]", "horizontal[tangent]", "dg", "dginv", "d2g"}
    assert inputs & after == set()


def test_the_wide_batch_suites_at_4096_samples_stay_below_24_mb_traced():
    # the run holds one chunk's arrays at a time (suites._chunk_length);
    # chunked it peaks near 1.9 MB, and in one chunk of all 4096 samples near 28 MB
    scenario = load_scenario(scenario_path("warped-mixing"))
    tracemalloc.start()
    try:
        run_suites(scenario, suites=WIDE_BATCH, samples=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"{peak / 1e6:.1f} MB"


def test_both_lifts_at_512_samples_stay_below_20_mb_traced(monkeypatch):
    # one chunk of 512 samples of warped-mixing (n = 3), longer than the 455
    # a run takes: the lifts broadcast the base arrays over the 4 fibre
    # points over each sample and peak near 16.9 MB, where copies of the
    # base arrays at every fibre point peaked near 22.3 MB
    scenario = load_scenario(scenario_path("warped-mixing"))
    monkeypatch.setattr(suites, "_STACK_ENTRIES", 512 * 6**2)
    assert suites._chunk_length(scenario.chart.dim) == 512
    tracemalloc.start()
    try:
        run_suites(scenario, suites=["lifts-tangent", "lifts-cotangent"], samples=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"{peak / 1e6:.1f} MB"
