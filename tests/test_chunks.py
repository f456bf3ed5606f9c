"""Runs over chunks of samples: every check is pointwise, so a run folded
over many chunks reports what one chunk over all samples reports, and its
peak memory is that of one chunk."""

import json
import math
import tracemalloc

import pytest

from metalliclab import suites
from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

from conftest import CORPUS, scenario_path

WIDE_BATCH = ["core", "genbundle", "commutation"]


def chunked(monkeypatch, n, length):
    """Make runs at dimension n use chunks of ``length`` samples."""
    monkeypatch.setattr(suites, "_STACK_ENTRIES", length * (2 * n) ** 2)
    monkeypatch.setattr(suites, "_CHUNK_BYTES", length * suites._sample_bytes(n))
    assert suites._chunk_length(n) == length


def one_chunk_and_chunked(monkeypatch, scenario, length, samples, selected=None) -> tuple:
    n = scenario.chart.dim
    reports = []
    for size in (samples, length):
        with monkeypatch.context() as patch:
            chunked(patch, n, size)
            reports.append(run_suites(scenario, suites=selected, samples=samples).to_json())
    return tuple(reports)


def test_the_corpus_runs_as_one_chunk_and_n_2_to_4_in_chunks_of_one_128_kib_stack():
    for name in CORPUS:
        scenario = load_scenario(scenario_path(name))
        assert scenario.samples <= suites._chunk_length(scenario.chart.dim), name
    # a stack of 2n x 2n matrices of 16,384 entries caps n = 2 to 4; the
    # byte budget sets n = 5 and 6
    assert [suites._chunk_length(n) for n in range(2, 7)] == [1024, 455, 256, 157, 75]


@pytest.mark.parametrize("name", CORPUS)
def test_chunks_of_7_samples_give_the_one_chunk_report(monkeypatch, name):
    # 64 samples: nine chunks of 7 and a last chunk of 1
    scenario = load_scenario(scenario_path(name))
    whole, parts = one_chunk_and_chunked(monkeypatch, scenario, 7, 64)
    assert parts == whole


@pytest.mark.parametrize("name", ["warped-mixing", "product-decomposable", "sphere-diagJ"])
def test_the_shipped_chunks_at_4096_samples_give_the_one_chunk_report(monkeypatch, name):
    scenario = load_scenario(scenario_path(name))
    whole, parts = one_chunk_and_chunked(
        monkeypatch, scenario, suites._chunk_length(scenario.chart.dim), 4096, WIDE_BATCH
    )
    assert parts == whole


def test_an_error_in_a_later_chunk_decides_the_checks_that_read_it(monkeypatch, tmp_path):
    # omega is infinite at sample 40 only, in the sixth chunk of 7: every
    # check reading it fails there as it does in one chunk, the others pass
    scenario = load_scenario(scenario_path("flat-golden"))
    payload = json.loads(scenario_path("flat-golden").read_text())
    point = scenario.chart.sample_points(64, seed=scenario.seed)[40]
    payload["omega"][0] = f"1/(x1 - {float(point[0])!r})"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    scenario = load_scenario(path)
    whole, parts = one_chunk_and_chunked(monkeypatch, scenario, 7, 64)
    assert parts == whole
    report = json.loads(parts)
    assert [c["id"] for c in report["checks"]] == [
        check.cid for suite in scenario.suites for check in suites._declared(suite, scenario)
    ]
    failed = {c["id"]: c for c in report["checks"] if not c["passed"]}
    karaman = [cid for cid in failed if cid.startswith("karaman/")]
    assert len(karaman) == 10 and "karaman/random-omega-sweep" not in failed
    for cid in karaman + ["genconn/covariant-nijenhuis-identity-karaman"]:
        assert failed[cid]["residual"] == "inf", cid  # the report's spelling of inf
        assert failed[cid]["witness"] == [float(v) for v in point], cid


def traced_peak(scenario, samples, selected=WIDE_BATCH) -> int:
    tracemalloc.start()
    try:
        run_suites(scenario, suites=selected, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_all_suites_of_product_decomposable_at_4096_samples_stay_below_6_mib_traced():
    # nine chunks of 455 and a last one of 1 peak near 5.4 MiB: the omega
    # sweep reads no Levi-Civita tensor, so the run drops them after genconn;
    # near 6.3 MiB while the sweep read them and they were held through karaman
    scenario = load_scenario(scenario_path("product-decomposable"))
    peak = traced_peak(scenario, 4096, scenario.suites)
    assert peak < 6.0 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_four_chunks_peak_near_one_chunk():
    scenario = load_scenario(scenario_path("warped-mixing"))
    length = suites._chunk_length(3)
    one, four = traced_peak(scenario, length), traced_peak(scenario, 4 * length)
    assert four <= 1.25 * one, (one / 1e6, four / 1e6)


def test_all_seven_suites_at_n_2_and_2048_samples_stay_below_16_mb_traced():
    # flat-golden declares all seven suites; two chunks of 1024 peak near
    # 11 MB, where one chunk of all 2048 samples peaked near 45 MB
    scenario = load_scenario(scenario_path("flat-golden"))
    peak = traced_peak(scenario, 2048, scenario.suites)
    assert peak < 16e6, f"{peak / 1e6:.1f} MB"


def test_a_fold_keeps_the_first_worst_sample_and_the_first_error():
    metallic = next(c for c in suites.CHECKS if c.cid == "core/metallic-equation")
    first = suites.Measured({"residual": (1.0, 3)}, (0.1,))
    tie = suites.Measured({"residual": (1.0, 600)}, (0.2,))
    error = suites.Measured({"residual": (math.inf, math.inf)}, (0.3,), raised=True)
    assert suites._fold(metallic, first, tie).witness == (0.1,)
    assert suites._fold(metallic, first, error) is error
    later_error = suites.Measured({"residual": (math.inf, math.inf)}, (0.4,), raised=True)
    assert suites._fold(metallic, error, later_error) is error
    assert suites._fold(metallic, error, suites.Measured({"residual": (2.0, 900)}, (0.5,))) is error


def test_each_detail_folds_by_its_declared_rule():
    calibration = next(c for c in suites.CHECKS if c.cid == "genbundle/calibration")
    assert calibration.rules == {"jp_anti_invariance": suites.MAX, "jc_invariance": suites.MAX}
    before = suites.Measured({"residual": (1.0, 2), "jc_invariance": (1.0, 2)}, (0.1,))
    after = suites.Measured({"residual": (3.0, 700), "jc_invariance": (3.0, 700)}, (0.2,))
    folded = suites._fold(calibration, before, after)
    got = (folded.residual, folded.witness, folded.details)
    assert got == (3.0, (0.2,), {"jc_invariance": 3.0})
    # a list takes the maximum entry by entry
    conditions = next(c for c in suites.CHECKS if c.cid == "genconn/jp-integrability-conditions")
    before = suites.Measured({"residual": (4.0, 1), "per_condition": ([1.0, 4.0], [5, 1])})
    after = suites.Measured({"residual": (3.0, 600), "per_condition": ([2.0, 3.0], [600, 512])})
    assert suites._fold(conditions, before, after).details == {"per_condition": [2.0, 4.0]}
    # a detail no rule is declared for has none
    with pytest.raises(KeyError):
        calibration.rule("per_condition")
