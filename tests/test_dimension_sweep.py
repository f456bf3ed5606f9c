"""Every suite runs at every dimension the schema accepts, and every check
that holds on any chart passes, on seeded synthetic charts of each family."""

import json
import time

import pytest

from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

from helpers import DECLARED, FAMILIES, IDENTITIES, synthetic_chart

CASES = [(n, family) for n in range(2, 7) for family in FAMILIES]
BUDGET_S = 30.0 / len(CASES)  # 30 s for all the cases together


@pytest.mark.parametrize("n, family", CASES)
def test_every_identity_holds_on_a_synthetic_chart(tmp_path, n, family):
    start = time.perf_counter()
    chart = synthetic_chart(n, family, seed=40 + n)
    # the same seed draws the same chart, and another seed another
    assert chart == synthetic_chart(n, family, 40 + n) != synthetic_chart(n, family, 0)
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart))
    report = run_suites(load_scenario(path))
    ids = sorted(check.check_id for check in report.checks)
    assert ids == sorted(f"{suite}/{name}" for suite in DECLARED for name in DECLARED[suite])
    failing = [cid for cid in IDENTITIES if not report.find(cid).passed]
    assert not failing, failing
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"the chart took {elapsed:.1f} s"
