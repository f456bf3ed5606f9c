"""Every draw of a run is addressed by sample index: a context of the
samples first .. first + count - 1 draws what a run-wide context draws in
those rows, so a run over chunks holds one chunk's arrays at a time."""

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import suites
from metalliclab.scenario import load_scenario
from metalliclab.suites import FIBRE_PER_BASE, ScenarioContext

from conftest import field_context, scenario_path
from test_chunks import traced_peak

COUNT = 37


@pytest.mark.parametrize("n", range(2, 7))
def test_each_chunk_draws_the_rows_of_the_run_wide_draw(n):
    c = ch.Chart(tuple(f"x{i + 1}" for i in range(n)), ((-0.5, 1.5),) * n)
    g = ch.constant_matrix(np.eye(n))
    scenario = field_context(c, g, None, c.sample_points(1)).scenario
    for seed in (0, 9):
        whole = ScenarioContext(scenario, samples=1000 + COUNT, seed=seed)
        rows = {
            "points": whole.points,
            "fibre": suites._fibre_points(whole, whole.points),
            "commutation": suites._commutation_fibre(whole, whole.points),
        }
        for first in (0, 1, 511, 512, 1000):
            part = ScenarioContext(scenario, samples=COUNT, seed=seed, first=first)
            assert np.array_equal(part.points, rows["points"][first : first + COUNT])
            got = suites._commutation_fibre(part, part.points)
            assert np.array_equal(got, rows["commutation"][first : first + COUNT])
            got = suites._fibre_points(part, part.points)
            assert got.shape == (COUNT, FIBRE_PER_BASE, n)
            assert np.array_equal(got, rows["fibre"][first : first + COUNT]), (n, seed, first)


def test_the_peak_of_a_run_does_not_grow_with_its_chunk_count():
    # 16 and 64 chunks of 1024 samples: a run holds one chunk and the fold
    scenario = load_scenario(scenario_path("flat-silver"))
    length = suites._chunk_length(scenario.chart.dim)
    selected = ["core", "commutation"]
    sixteen = traced_peak(scenario, 16 * length, selected)
    sixty_four = traced_peak(scenario, 64 * length, selected)
    assert sixty_four <= 1.1 * sixteen, (sixteen / 1e6, sixty_four / 1e6)
