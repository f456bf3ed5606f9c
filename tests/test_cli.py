import json
import math
import subprocess
import sys

import pytest

from metalliclab import report as rp
from metalliclab import suites as suites_module
from metalliclab.cli import main
from metalliclab.errors import ParseError, SchemaError, ValidationError
from metalliclab.scenario import load_scenario
from metalliclab.suites import run_suites

from conftest import scenario_path


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def golden_payload():
    return json.loads(scenario_path("flat-golden").read_text())


def test_load_golden_scenario():
    scenario = load_scenario(scenario_path("flat-golden"))
    assert scenario.chart.dim == 2
    assert scenario.params.sigma == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
    assert scenario.j_from_projection
    assert "core" in scenario.suites


def test_schema_error_on_bad_shape(tmp_path):
    payload = golden_payload()
    payload["J"] = [["1", "0", "0"], ["0", "1", "0"]]
    with pytest.raises(SchemaError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    assert "J" in str(err.value)


def test_schema_error_on_unknown_field(tmp_path):
    payload = golden_payload()
    payload["unexpected"] = 1
    with pytest.raises(SchemaError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    assert "unexpected" in str(err.value)


def test_schema_error_reports_all_problems(tmp_path):
    payload = golden_payload()
    del payload["metric"]
    payload["extra1"] = 1
    payload["extra2"] = 2
    with pytest.raises(SchemaError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    text = str(err.value)
    assert "metric" in text and "extra1" in text and "extra2" in text


def test_parse_error_aggregates_cells(tmp_path):
    payload = golden_payload()
    payload["metric"] = [["1", "0"], ["0", "si n(x1)"]]
    payload["omega"] = ["x9", "x1"]
    with pytest.raises(ParseError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    text = str(err.value)
    assert "metric" in text and "omega" in text


def test_schema_error_on_bad_chart(tmp_path):
    payload = golden_payload()
    payload["coordinates"] = ["x1", "x1"]
    with pytest.raises(SchemaError):
        load_scenario(write_scenario(tmp_path, payload))
    payload = golden_payload()
    payload["domain"] = [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(SchemaError):
        load_scenario(write_scenario(tmp_path, payload))


def test_validation_error_karaman_with_zero_q(tmp_path):
    payload = golden_payload()
    payload["p"] = 1.0
    payload["q"] = 0.0
    with pytest.raises(ValidationError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    assert "q != 0" in str(err.value)


def test_validation_error_non_spd_metric(tmp_path):
    payload = golden_payload()
    payload["metric"] = [["x1", "0"], ["0", "1"]]  # changes sign on the box
    with pytest.raises(ValidationError):
        load_scenario(write_scenario(tmp_path, payload))


def test_run_suites_deterministic():
    scenario = load_scenario(scenario_path("flat-golden"))
    a = run_suites(scenario).to_json()
    b = run_suites(scenario).to_json()
    assert a == b
    # a different seed keeps the verdicts
    shifted = run_suites(scenario, seed=12345)
    baseline = run_suites(scenario)
    va = rp.verdicts(json.loads(a))
    vb = rp.verdicts(shifted.to_dict())
    assert va == vb
    assert baseline.to_dict()["seed"] != shifted.to_dict()["seed"]


def test_machine_report_round_trip(corpus_reports):
    report = corpus_reports["sphere-diagJ"]
    parsed = json.loads(report.to_json())
    assert rp.verdicts(parsed) == {c.check_id: c.satisfied for c in report.checks}
    assert parsed["overall_pass"] == report.overall_pass
    assert parsed["schema_version"] == rp.REPORT_SCHEMA_VERSION
    summary = parsed["suite_summary"]
    assert summary["core"]["checks"] == summary["core"]["satisfied"]
    assert summary["genconn"]["informative"] == 2


def test_cross_process_determinism():
    argv = [
        sys.executable,
        "-m",
        "metalliclab",
        "check",
        str(scenario_path("sphere-scalarJ")),
        "--suite",
        "core",
        "--suite",
        "genbundle",
        "--format",
        "machine",
    ]
    outputs = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_human_report_table(corpus_reports):
    text = corpus_reports["sphere-diagJ"].to_table()
    assert "core/locally-metallic" in text
    assert "expected-fail met" in text
    assert "overall: PASS" in text
    # failures print a 17-significant-digit witness
    failing = next(
        c for c in corpus_reports["sphere-diagJ"].checks if not c.passed and c.witness
    )
    rendered = f"{failing.witness[0]:.17g}"
    assert rendered in text


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["check", str(scenario_path("flat-golden")), "--suite", "core"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out

    # a failing gate: negative control declared passing
    payload = json.loads(scenario_path("sphere-diagJ").read_text())
    payload["expected_failures"] = []
    payload["suites"] = ["core"]
    path = write_scenario(tmp_path, payload)
    assert main(["check", str(path)]) == 1

    # input errors exit 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad = golden_payload()
    del bad["metric"]
    assert main(["check", str(write_scenario(tmp_path, bad, "bad.json"))]) == 2
    capsys.readouterr()


def test_cli_machine_format_deterministic(capsys):
    argv = [
        "check",
        str(scenario_path("flat-golden")),
        "--suite",
        "core",
        "--format",
        "machine",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["scenario"] == "flat-golden"


def test_cli_suite_not_declared(capsys):
    code = main(["check", str(scenario_path("flat-silver")), "--suite", "karaman"])
    assert code == 2
    assert "not declared" in capsys.readouterr().err


def test_cli_derive_christoffel(capsys):
    code = main(
        ["derive", str(scenario_path("polar-plane")), "--what", "christoffel", "--at", "1.0,0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Gamma" in out
    assert "-1." in out  # Gamma^1_22 = -x1 = -1 at x1 = 1


def test_cli_derive_gen_nijenhuis(capsys):
    code = main(
        [
            "derive",
            str(scenario_path("flat-golden")),
            "--what",
            "gen-nijenhuis",
            "--at",
            "0.2,0.3",
        ]
    )
    assert code == 0
    assert "N^A_(B C)" in capsys.readouterr().out


def test_cli_derive_validates_point(capsys):
    code = main(
        ["derive", str(scenario_path("flat-golden")), "--what", "curvature", "--at", "0.1"]
    )
    assert code == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "metalliclab",
            "check",
            str(scenario_path("flat-golden")),
            "--suite",
            "core",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


def test_explicit_connection_matches_levi_civita(tmp_path):
    # supplying the polar-plane Levi-Civita coefficients explicitly must give
    # the same verdicts as the "levi-civita" keyword
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["suites"] = ["core", "genconn"]
    zero = "0"
    gamma = [[[zero, zero], [zero, "-x1"]], [[zero, "1/x1"], ["1/x1", zero]]]
    explicit = dict(payload)
    explicit["connection"] = gamma
    baseline = run_suites(load_scenario(write_scenario(tmp_path, payload, "lc.json")))
    supplied = run_suites(load_scenario(write_scenario(tmp_path, explicit, "exp.json")))
    assert rp.verdicts(baseline.to_dict()) == rp.verdicts(supplied.to_dict())
    assert supplied.overall_pass


def test_cli_sample_and_tol_overrides(capsys):
    argv = [
        "check",
        str(scenario_path("flat-golden")),
        "--suite",
        "core",
        "--samples",
        "12",
        "--tol",
        "1e-7",
        "--format",
        "machine",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 12
    geometric = next(
        c for c in payload["checks"] if c["id"] == "core/levi-civita-metric-parallel"
    )
    assert geometric["tolerance"] == 1e-7


def test_cli_derive_curvature_and_nijenhuis(capsys):
    for what, marker in (("curvature", "R^l_"), ("nijenhuis", "N^k_")):
        code = main(
            ["derive", str(scenario_path("sphere-scalarJ")), "--what", what, "--at", "1.0,0.5"]
        )
        assert code == 0
        assert marker in capsys.readouterr().out


def test_every_check_carries_an_anchor(corpus_reports):
    for report in corpus_reports.values():
        for check in report.checks:
            assert check.anchor.strip(), check.check_id


def test_evaluation_error_becomes_failed_check_with_witness(tmp_path):
    # a singular expression inside a check aborts that check with a witness
    # point instead of crashing or being skipped
    payload = golden_payload()
    payload["omega"] = ["1/(x1 - x1)", "0"]
    payload["suites"] = ["karaman"]
    scenario = load_scenario(write_scenario(tmp_path, payload))
    report = run_suites(scenario)
    assert not report.overall_pass
    failed = [c for c in report.checks if not c.passed]
    assert failed
    assert any(c.residual == float("inf") for c in failed)
    assert any(c.witness is not None for c in failed)


def test_corpus_overall_verdicts(corpus_reports):
    for name, report in corpus_reports.items():
        assert report.overall_pass, f"{name} has unsatisfied gates"
    # negative controls really are failing checks, not vacuous passes
    diag = corpus_reports["sphere-diagJ"]
    assert not diag.find("core/locally-metallic").passed
    assert diag.find("core/locally-metallic").satisfied
    assert not diag.find("genconn/dhat-jm").passed
    assert diag.find("genconn/dhat-ghat").passed


def test_non_finite_metric_entry_is_an_input_error(tmp_path, capsys):
    payload = json.loads(scenario_path("flat-silver").read_text())
    payload["metric"][0][0] = "1/(x1-x1)"
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert "J.projection" in str(err.value)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_out_of_memory_in_a_suite_becomes_a_failed_check(monkeypatch):
    def exhausted(ctx):
        raise MemoryError

    monkeypatch.setitem(suites_module._SUITE_FUNCS, "core", exhausted)
    scenario = load_scenario(scenario_path("flat-golden"))
    report = run_suites(scenario, suites=["core", "genbundle"])
    failed = report.find("core/evaluation")
    assert not failed.passed and failed.details == {"error": "out of memory"}
    later = [c for c in report.checks if c.check_id.startswith("genbundle/")]
    assert later and all(c.passed for c in later)


def test_a_typo_in_expected_failures_is_an_input_error(tmp_path, capsys):
    payload = json.loads(scenario_path("sphere-diagJ").read_text())
    payload["expected_failures"][0] = "core/locally-metalic"
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ValidationError, match="core/locally-metalic"):
        run_suites(load_scenario(path))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "core/locally-metalic" in err


def test_expected_failures_of_suites_that_did_not_run_are_exempt(corpus_reports):
    # the benchmark's wide batch runs core, genbundle and commutation only:
    # the genconn and lifts controls of sphere-diagJ did not run, so they stand
    assert all(report.overall_pass for report in corpus_reports.values())
    for name in corpus_reports:
        scenario = load_scenario(scenario_path(name))
        report = run_suites(scenario, suites=["core", "genbundle", "commutation"])
        assert report.overall_pass, name
    scenario = load_scenario(scenario_path("sphere-diagJ"))
    report = run_suites(scenario, suites=["genbundle"])
    assert {check.check_id.split("/")[0] for check in report.checks} == {"genbundle"}
