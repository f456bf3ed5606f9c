"""Randomised end-to-end runs: theorem-level checks must hold on any
compatible scenario, whatever the geometry."""

import json

import numpy as np
import pytest

from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

from helpers import IDENTITIES

SUITES = ("core", "genbundle", "commutation")
# the checks of those suites that hold for every metallic Riemannian pair, on any chart
ALWAYS_SATISFIED = tuple(cid for cid in IDENTITIES if cid.split("/")[0] in SUITES)

SMOOTH_ENTRIES = (
    "2.5 + sin({u})",
    "2 + 0.5*cos({u})*cos({v})",
    "exp(0.4*{u})",
    "3 + 0.3*{u}^2",
    "2 + tanh({u}*{v})",
)


def random_scenario(rng, n, p, q):
    names = [f"x{i + 1}" for i in range(n)]
    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        u, v = names[rng.integers(0, n)], names[rng.integers(0, n)]
        template = SMOOTH_ENTRIES[rng.integers(0, len(SMOOTH_ENTRIES))]
        metric[i][i] = template.format(u=u, v=v)
    projection = [["0"] * n for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.5:
            projection[i][i] = "1"
    return {
        "schema_version": 1,
        "name": f"fuzz-{n}-{p}-{q}",
        "dimension": n,
        "coordinates": names,
        "domain": [[0.2, 1.1]] * n,
        "p": p,
        "q": q,
        "metric": metric,
        "J": {"projection": projection},
        "connection": "levi-civita",
        "suites": list(SUITES),
        "samples": 16,
        "seed": int(rng.integers(0, 1000)),
        "tolerance": 1e-9,
    }


@pytest.mark.parametrize("case", range(4))
def test_randomised_scenarios_satisfy_theorem_level_checks(tmp_path, case):
    rng = np.random.default_rng(314 + case)
    n = int(rng.integers(2, 4))
    p, q = [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 1.0)][case]
    payload = random_scenario(rng, n, p, q)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(payload))
    report = run_suites(load_scenario(path))
    for cid in ALWAYS_SATISFIED:
        check = report.find(cid)
        assert check.passed, (cid, check.residual, payload["metric"])
