import pathlib

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab.metallic import MetallicParams, from_projection
from metalliclab.scenario import ChartScenario, load_scenario
from metalliclab import suites
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
    return ch.eval_exprs(comps, pts), ch.eval_exprs(comps, pts, 1)


def exprs(c, rows):
    """The object array of Exprs parsed from nested lists of strings over the
    coordinates of the chart ``c``."""
    rows = np.asarray(rows, dtype=object)
    out = np.empty(rows.shape, dtype=object)
    for idx in np.ndindex(rows.shape):
        out[idx] = ex.parse(rows[idx], c.names)
    return out


def field_context(c, g, J, pts, params=MetallicParams(1.0, 1.0), omega=None, connection=None):
    """The run context of bare fields (Expr arrays) on the chart ``c`` at the
    points: g^-1, Levi-Civita, the generalized structures and the rest as a
    run over a scenario builds them.  A J of None stands for the identity, for
    tests that read only g."""
    if J is None:
        J = ch.constant_matrix(np.eye(c.dim))
    scenario = ChartScenario("fields", c, params, g, J, omega, connection, [], len(pts), 0, 1e-9)
    return ScenarioContext(scenario, points=pts)


def pair_context(g, J, params=MetallicParams(1.0, 1.0)):
    """A run context whose g and J at its samples are the pointwise pairs
    ``g`` and ``J``, one (n, n) matrix or a stack (m, n, n) each, so that the
    generalized structures are the ones a run builds (``gen[...]``)."""
    n = np.shape(g)[-1]
    g, J = np.reshape(g, (-1, n, n)).astype(float), np.reshape(J, (-1, n, n)).astype(float)
    c = ch.Chart(tuple(f"x{i + 1}" for i in range(n)), ((0.0, 1.0),) * n)
    eye = ch.constant_matrix(np.eye(n))
    pts = c.sample_points(len(g))
    ctx = field_context(c, eye, eye, pts, params)
    ctx["g"], ctx["J"] = g, J
    return ctx


def gen_jet(ctx, label):
    """The values and first partials [m, k, 2n, 2n] of the generalized
    structure ``label`` ("jm", "jp", "jc" or "ghat") of a run context."""
    return ctx[f"gen[{label}]"], ctx[f"gen_jet[{label}]"]


def break_array(monkeypatch, name, breaker):
    """Make the run's array ``name`` ``breaker`` of what its producer makes.
    A breaker that changes some sample indices reads by sample index, so the
    new producer declares ``points``, and a leaf field's array is no longer
    exempt as a constant one (see suites._producer)."""
    make, reads = suites.ARRAYS[name]

    def broken(ctx, *arrays):
        return breaker(make(ctx, *arrays[: len(reads)]).copy())

    monkeypatch.setitem(suites.ARRAYS, name, (broken, (*reads, "points")))
    monkeypatch.delitem(suites._LEAVES, name, raising=False)


def transitive_reads(scenario, check):
    """The arrays a check of a run over ``scenario`` declares, its points
    included, and every array their producers read, transitively."""
    return reached(scenario, (*check.reads, check.points))


def reached(scenario, names):
    """The arrays ``names`` of a run over ``scenario`` and every array their
    producers read, transitively."""
    found, pending = set(), list(names)
    while pending:
        name = pending.pop()
        if name not in found:
            found.add(name)
            pending += suites._producer(scenario, name)[1]
    return found


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
    return c, exprs(c, rows)


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
    return exprs(sphere_chart, [["1", "0"], ["0", "sin(x1)^2"]])


@pytest.fixture(scope="session")
def golden_params():
    return MetallicParams(1.0, 1.0)


@pytest.fixture(scope="session")
def sphere_diag_J(sphere_chart, sphere_metric, golden_params):
    c = sphere_chart
    P = ch.constant_matrix(np.diag([1.0, 0.0]))
    return from_projection(P, golden_params, sphere_metric, c.sample_points(8))
