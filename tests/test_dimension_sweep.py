"""Every suite runs at every dimension the schema accepts, on seeded
synthetic charts with a diagonal metric."""

import json
import time

import numpy as np
import pytest

from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

from helpers import DECLARED, IDENTITIES

SUITES = (
    "core",
    "genbundle",
    "genconn",
    "karaman",
    "lifts-tangent",
    "lifts-cotangent",
    "commutation",
)
SAMPLES = 16
BUDGET_S = 30.0

# each positive on the box [0.2, 1.1]^n for the coefficient ranges below
METRIC_TEMPLATES = (
    "{a} + {b}*sin(x{j})*x{k}",
    "{a} + {b}*cos(x{j})*x{k}",
    "{a} + {b}*exp(x{j})*x{k}",
)
OMEGA_TEMPLATES = ("{c}*x{j} + x{k}", "{c}*x{j}*x{k}", "sin({c}*x{j}) + x{k}")
PQ = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 2.0))


def synthetic_scenario(n: int, seed: int) -> dict:
    """A diagonal metric, a constant projection J and a 1-form, all from ``seed``."""
    rng = np.random.default_rng(seed)

    def pair():
        j, k = rng.choice(n, size=2, replace=False) + 1
        return int(j), int(k)

    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        j, k = pair()
        metric[i][i] = METRIC_TEMPLATES[rng.integers(len(METRIC_TEMPLATES))].format(
            a=f"{rng.uniform(1.0, 2.0):.3f}", b=f"{rng.uniform(0.2, 0.9):.3f}", j=j, k=k
        )
    ones = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
    projection = [["1" if i == j and i in ones else "0" for j in range(n)] for i in range(n)]
    omega = []
    for _ in range(n):
        j, k = pair()
        template = OMEGA_TEMPLATES[rng.integers(len(OMEGA_TEMPLATES))]
        omega.append(template.format(c=f"{rng.uniform(0.5, 1.5):.3f}", j=j, k=k))
    p, q = PQ[rng.integers(len(PQ))]
    return {
        "schema_version": 1,
        "name": f"sweep-{n}-{seed}",
        "dimension": n,
        "coordinates": [f"x{i}" for i in range(1, n + 1)],
        "domain": [[0.2, 1.1]] * n,
        "p": p,
        "q": q,
        "metric": metric,
        "J": {"projection": projection},
        "omega": omega,
        "connection": "levi-civita",
        "suites": list(SUITES),
        "samples": SAMPLES,
        "seed": seed,
        "tolerance": 1e-9,
    }


def test_array_suites_run_at_every_schema_dimension(tmp_path):
    start = time.perf_counter()
    for n in range(2, 7):
        path = tmp_path / f"sweep-{n}.json"
        path.write_text(json.dumps(synthetic_scenario(n, seed=40 + n)))
        report = run_suites(load_scenario(path))
        ids = [check.check_id for check in report.checks]
        declared = [f"{suite}/{name}" for suite in SUITES for name in DECLARED[suite]]
        assert sorted(ids) == sorted(declared), n
        assert not [cid for cid in ids if cid.endswith("/evaluation")]
        failing = [cid for cid in IDENTITIES if not report.find(cid).passed]
        assert not failing, (n, failing)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"the sweep took {elapsed:.1f} s"


@pytest.mark.parametrize("n", [2, 4, 6])
def test_synthetic_scenarios_are_deterministic_in_the_seed(n):
    assert synthetic_scenario(n, 7) == synthetic_scenario(n, 7)
    assert synthetic_scenario(n, 7) != synthetic_scenario(n, 8)
