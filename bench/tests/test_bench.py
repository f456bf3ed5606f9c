"""Self-tests of the benchmark's own code: python3 -m pytest -q bench/tests"""

import json
import subprocess
import sys

import pytest

import child
import run
import tracing
import workloads
from conftest import BENCH


def test_generator_same_seed_same_bytes():
    assert workloads.dim4_bytes(7) == workloads.dim4_bytes(7)
    assert workloads.dim4_bytes(7) != workloads.dim4_bytes(8)


@pytest.mark.parametrize("seed", [1, 2, 3, 1234])
def test_generated_scenario_is_accepted(tmp_path, seed):
    import metalliclab as ml

    (job,) = workloads.jobs("dim4-deep", seed, tmp_path)
    data = workloads.dim4_scenario(seed)
    scenario = ml.load_scenario(job.scenario)
    assert scenario.chart.dim == 4
    assert data["domain"] == [[0.2, 1.1]] * 4
    assert scenario.omega is not None
    metric, projection = data["metric"], data["J"]["projection"]
    assert all(metric[i][j] == "0" for i in range(4) for j in range(4) if i != j)
    rank = sum(projection[i][i] == "1" for i in range(4))
    assert 0 < rank < 4  # both eigenspaces of J are non-empty


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    value, percentile, beyond = run.tail([float(x) for x in range(21)])
    assert (value, beyond) == (10.0, 10)
    assert percentile == pytest.approx(100 * 11 / 21)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    # never below the median: of 14 samples the 8th, not the 4th
    value, percentile, beyond = run.tail([float(x) for x in range(14)])
    assert (value, beyond) == (7.0, 6)
    assert percentile == pytest.approx(100 * 8 / 14)


def test_self_times_on_a_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    names = ["suites.run_suites", "chart.christoffel", "chart.riemann", "expr.eval_batch"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    # chart.riemann nests in chart.christoffel: its time is not counted twice
    assert tracing.outermost_time(names, parents, starts, ends, lambda n: n.startswith("chart.")) == (3.0, 2)

    tracer = tracing.Tracer()
    tracer.names, tracer.parents, tracer.starts, tracer.ends = names, parents, starts, ends
    tracer.hooked = set(names)
    metrics = tracing.layer_metrics(tracer, 0, run_s=10.5)
    assert metrics["suites.self_s"] == (3.0, "s")
    assert metrics["chart.self_s"] == (3.0, "s")
    assert metrics["expr.self_s"] == (4.0, "s")
    assert metrics["chart.build_s"] == (3.0, "s")
    assert metrics["trace.unaccounted_s"] == (0.5, "s")
    # a metric whose hook point was never installed is absent, not zero
    assert "report.render_s" not in metrics and "expr.nodes_built" not in metrics


def test_score_counts_missing_collapsed_duplicate_and_wrong_checks():
    expected = {"core/a": "pass", "core/b": "fail", "core/c": "any", "genconn/d": "pass"}
    good = [["core/a", True], ["core/b", False], ["core/c", False], ["genconn/d", True]]
    assert workloads.score(expected, good) == (4, 0, [])
    bad = [["core/a", False], ["core/b", False], ["core/b", False], ["genconn/evaluation", False]]
    attempted, failed, problems = workloads.score(expected, bad)
    assert (attempted, failed) == (4, 4)  # a wrong, b twice, c and d missing
    assert workloads.score(expected, None)[:2] == (4, 4)


def _corpus_job(tmp_path, name, broken):
    data = json.loads((BENCH.parent / "scenarios" / f"{name}.json").read_text())
    if broken:
        data["metric"][0][0] = "1 + 1/(x1-x1)"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return workloads.Job(str(path), name, None, None, 3)


@pytest.mark.parametrize("broken", [False, True])
def test_failed_share_of_a_broken_metric(tmp_path, broken):
    import metalliclab as ml

    job = _corpus_job(tmp_path, "flat-silver", broken)
    scenario, error = child.load_job(ml, job)
    record = {"error": error} if scenario is None else child.run_job(ml, scenario, job)
    passes = [run.Child(1.0, 0, [{"job": 0, **record}]) for _ in range(2)]
    answers = workloads.load_answers(BENCH / "answers.json")
    expected = [workloads.expected_checks(answers, job)]
    attempted, failed, problems = run.score_passes([job], expected, passes)
    assert attempted == 2 * len(expected[0])
    if broken:
        assert failed == attempted and problems
    else:
        assert failed == 0 and problems == []


def test_reports_that_differ_between_passes_are_a_problem(tmp_path):
    job = _corpus_job(tmp_path, "flat-silver", False)
    answers = workloads.load_answers(BENCH / "answers.json")
    expected = [workloads.expected_checks(answers, job)]
    checks = [[cid, verdict != "fail"] for cid, verdict in expected[0].items()]
    passes = [
        run.Child(1.0, 0, [{"job": 0, "checks": checks, "digest": digest}])
        for digest in ("a", "b")
    ]
    _, failed, problems = run.score_passes([job], expected, passes)
    assert failed == 0
    assert problems == [f"{job.scenario}: reports differ between passes of one seed"]


_TRACED_TWICE = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import numpy, child, tracing, workloads
import metalliclab as ml
tracer = tracing.Tracer()
tracer.install(numpy)
job = workloads.Job({scenario!r}, "flat-silver", None, None, 3)
scenario, _ = child.load_job(ml, job)
out = []
for _ in range(2):
    first = tracer.start_pass()
    record = child.run_job(ml, scenario, job)
    tracer.end_job()
    metrics = tracing.layer_metrics(tracer, first, record["verdict_s"])
    out.append({{"digest": record["digest"], "metrics": metrics, "missing": tracer.missing}})
print(json.dumps(out))
"""


def test_tracer_on_the_program_repeats_counts_and_accounts_for_time():
    # in a subprocess: installing the tracer rebinds the program's functions
    script = _TRACED_TWICE.format(
        bench=str(BENCH),
        src=str(BENCH.parent / "src"),
        scenario=str(BENCH.parent / "scenarios" / "flat-silver.json"),
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout)
    assert first["missing"] == []
    assert first["digest"] == second["digest"]
    for name in ("expr.nodes_built", "expr.nodes_evaluated", "expr.eval_batch_calls", "genbundle.calls", "trace.spans"):
        assert first["metrics"][name] == second["metrics"][name]
        assert first["metrics"][name][0] > 0
    metrics = first["metrics"]
    # the layers' self times cover the pass: little is left outside every span
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert 0 <= metrics["trace.unaccounted_s"][0] < 0.05 * self_total
    assert metrics["suites.genconn_s"][0] > 0 and metrics["suites.karaman_s"][0] == 0
