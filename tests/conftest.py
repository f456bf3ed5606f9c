import pathlib

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab.metallic import MetallicParams, from_projection
from metalliclab.scenario import ChartScenario, load_scenario
from metalliclab.suites import ScenarioContext, run_suites

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


def field_context(g, J, pts, params=MetallicParams(1.0, 1.0), omega=None, connection=None):
    """The run context of bare fields at the points: g^-1, Levi-Civita, the
    generalized structures and the rest as a run over a scenario builds them."""
    scenario = ChartScenario(
        "fields", g.chart, params, g, J, False, omega, connection, [], len(pts), 0, 1e-9
    )
    return ScenarioContext(scenario, points=pts)


def dense_metric(n, seed=0):
    """g_ij = 3 delta_ij + 0.4 sin(x_i x_j + (x_1 + ... + x_n) / 3 + (i + j) / 3):
    every entry depends on every coordinate, and g is diagonally dominant,
    hence positive definite."""
    c = ch.Chart(tuple(f"x{i + 1}" for i in range(n)), ((0.2, 1.3),) * n, seed=seed)
    total = " + ".join(c.names)
    rows = [
        [
            f"{3 if i == j else 0} + 0.4*sin(x{i + 1}*x{j + 1} + ({total})/3 + {(i + j) / 3})"
            for j in range(n)
        ]
        for i in range(n)
    ]
    comps = np.array([[c.parse(s) for s in row] for row in rows], dtype=object)
    return c, ch.MetricField(c, comps)


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
