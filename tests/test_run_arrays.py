"""The arrays of a run: each is built at most once, and a run at 4096
samples stays within a fixed memory budget."""

import itertools
import tracemalloc
from collections import Counter
from functools import cached_property

import pytest

from metalliclab.scenario import load_scenario
from metalliclab.suites import ScenarioContext, run_suites

from conftest import CORPUS, scenario_path

WIDE_BATCH = ["core", "genbundle", "commutation"]


@pytest.fixture
def counted_run(monkeypatch):
    """run(scenario, suites) -> the builds of that run: each cached property
    of the run context (the keyed caches included), each generalized
    structure and jet by label, and each connection bundle by the name of
    its Gamma array."""
    counts = Counter()
    for name, prop in list(vars(ScenarioContext).items()):
        if isinstance(prop, cached_property):

            def build(ctx, name=name, func=prop.func):
                counts[name] += 1
                return func(ctx)

            counted = cached_property(build)
            counted.__set_name__(ScenarioContext, name)
            monkeypatch.setattr(ScenarioContext, name, counted)
    gen_at, gen_jet = ScenarioContext.gen_at, ScenarioContext.gen_jet
    bundle = ScenarioContext.bundle

    def counted_gen_at(ctx, label):
        counts[f"gen_at[{label}]"] += label not in ctx._gen_at
        return gen_at(ctx, label)

    def counted_gen_jet(ctx, label):
        counts[f"gen_jet[{label}]"] += label not in ctx._gen_jets
        return gen_jet(ctx, label)

    def counted_bundle(ctx, gamma):
        if id(gamma) not in ctx._bundles:
            name = next(name for name, value in vars(ctx).items() if value is gamma)
            counts[f"bundle[{name}]"] += 1
        return bundle(ctx, gamma)

    monkeypatch.setattr(ScenarioContext, "gen_at", counted_gen_at)
    monkeypatch.setattr(ScenarioContext, "gen_jet", counted_gen_jet)
    monkeypatch.setattr(ScenarioContext, "bundle", counted_bundle)

    def run(scenario, selected):
        counts.clear()
        run_suites(scenario, suites=selected)
        assert counts, "nothing was counted"
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


def test_the_wide_batch_suites_at_4096_samples_stay_below_24_mb_traced():
    # the run holds one chunk's arrays at a time (suites._chunk_length);
    # chunked it peaks near 8.5 MB, and in one chunk of all 4096 samples near 28 MB
    scenario = load_scenario(scenario_path("warped-mixing"))
    tracemalloc.start()
    try:
        run_suites(scenario, suites=WIDE_BATCH, samples=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, f"{peak / 1e6:.1f} MB"
