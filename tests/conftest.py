import pathlib

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab.metallic import MetallicParams, from_projection
from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

CORPUS = (
    "flat-golden",
    "flat-silver",
    "polar-plane",
    "sphere-scalarJ",
    "sphere-diagJ",
    "product-decomposable",
    "warped-mixing",
)


def scenario_path(name: str) -> pathlib.Path:
    return SCENARIO_DIR / f"{name}.json"


def jet(comps, pts):
    """Values and first partials d_k of an Expr array at the points, [m, k, ...]."""
    comps = np.asarray(comps, dtype=object)
    return ch.eval_exprs(comps, pts), ch.eval_exprs(ch.partials(comps, pts.shape[1]), pts)


@pytest.fixture(scope="session")
def corpus_reports():
    """Every corpus scenario run once, shared across the whole session."""
    reports = {}
    for name in CORPUS:
        scenario = load_scenario(scenario_path(name))
        reports[name] = run_suites(scenario)
    return reports


@pytest.fixture(scope="session")
def sphere_chart():
    return ch.Chart(("x1", "x2"), ((0.4, 2.7), (0.0, 1.5)), seed=5)


@pytest.fixture(scope="session")
def sphere_metric(sphere_chart):
    c = sphere_chart
    comps = np.array(
        [[c.parse("1"), c.parse("0")], [c.parse("0"), c.parse("sin(x1)^2")]],
        dtype=object,
    )
    return ch.MetricField(c, comps)


@pytest.fixture(scope="session")
def golden_params():
    return MetallicParams(1.0, 1.0)


@pytest.fixture(scope="session")
def sphere_diag_J(sphere_chart, sphere_metric, golden_params):
    c = sphere_chart
    P = ch.EndoField(c, np.array([[c.parse("1"), c.parse("0")], [c.parse("0"), c.parse("0")]], dtype=object))
    return from_projection(c, P, golden_params, sphere_metric, c.sample_points(8)).J
