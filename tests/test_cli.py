import json
import math
import subprocess
import sys

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import genconn as gc
from metalliclab import report as rp
from metalliclab import suites as suites_module
from metalliclab.cli import main
from metalliclab.errors import DomainError, ParseError, SchemaError, ValidationError
from metalliclab.expr import parse
from metalliclab.scenario import load_scenario
from metalliclab.suites import MAX_TOLERANCE, run_suites

import cli_cases
from conftest import scenario_path


def _verdicts(report_dict):
    return {c["id"]: c["satisfied"] for c in report_dict["checks"]}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def golden_payload():
    return json.loads(scenario_path("flat-golden").read_text())


def test_load_golden_scenario():
    scenario = load_scenario(scenario_path("flat-golden"))
    assert scenario.chart.dim == 2
    sigma = (1 + math.sqrt(5)) / 2
    assert scenario.params.sigma == pytest.approx(sigma, abs=1e-15)
    # J from the file's projection P = diag(1, 0): sigma P + (p - sigma)(I - P)
    P = np.diag([1.0, 0.0])
    expected = sigma * P + (1.0 - sigma) * (np.eye(2) - P)
    pts = scenario.chart.sample_points(4)
    assert np.abs(ch.eval_exprs(scenario.J, pts) - expected).max() < 1e-15
    assert "core" in scenario.suites


def test_schema_error_reports_all_problems(tmp_path):
    payload = golden_payload()
    del payload["metric"]
    payload["extra1"] = 1
    payload["extra2"] = 2
    with pytest.raises(SchemaError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    text = str(err.value)
    assert "metric" in text and "extra1" in text and "extra2" in text


@pytest.mark.parametrize("case", cli_cases.REFUSALS, ids=lambda case: case.name)
def test_each_refused_invocation_exits_2_naming_its_problem(tmp_path, capsys, case):
    code = main(cli_cases.write(case, tmp_path))
    out, err = capsys.readouterr()
    assert not cli_cases.problems(case, code, out, err), err


# the class of what load_scenario raises, by row of tests/cli_cases.py
LOAD_ERRORS = {
    SchemaError: ["not-utf8", "json-nested-100000-deep", "unknown-field", "repeated-coordinate",
                  "reversed-domain", "J-of-3-columns"],
    ParseError: ["unparsable-entries", "metric-entry-nested-300-deep"],
    ValidationError: ["q-0-with-karaman", "metric-changes-sign", "metric-entry-not-finite",
                      "asymmetric-metric", "complex-metallic-number", "control-typo",
                      "control-of-a-check-that-does-not-apply", "control-of-an-informative-check"],
}


@pytest.mark.parametrize("name, error", [(n, e) for e, names in LOAD_ERRORS.items() for n in names])
def test_load_scenario_raises_the_class_of_each_refusal(tmp_path, name, error):
    case = cli_cases.BY_NAME[name]
    with pytest.raises(error) as raised:
        load_scenario(cli_cases.write(case, tmp_path)[1])
    assert all(word in str(raised.value) for word in case.named)


def test_the_parser_takes_128_levels_and_a_sum_of_50000_terms():
    # every nesting recurses in the parser: past 128 levels the input is
    # refused at the offset of its first token that deep (the row
    # metric-entry-nested-300-deep), before the recursion outgrows Python's stack
    assert parse("(" * 127 + "-x1" + ")" * 127, ["x1"]) is not None
    assert parse(" + ".join(["x1"] * 50_000), ["x1"]) is not None


def test_run_suites_deterministic():
    scenario = load_scenario(scenario_path("flat-golden"))
    a = run_suites(scenario).to_json()
    b = run_suites(scenario).to_json()
    assert a == b
    # a different seed keeps the verdicts
    shifted = run_suites(scenario, seed=12345)
    baseline = run_suites(scenario)
    va = _verdicts(json.loads(a))
    vb = _verdicts(shifted.to_dict())
    assert va == vb
    assert baseline.to_dict()["seed"] != shifted.to_dict()["seed"]


def test_machine_report_round_trip(corpus_reports):
    report = corpus_reports["sphere-diagJ"]
    parsed = json.loads(report.to_json())
    assert _verdicts(parsed) == {c.check_id: c.satisfied for c in report.checks}
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


def test_run_suites_refuses_a_suite_with_no_check_for_the_scenario():
    # flat-silver has no 1-form, so the karaman suite declares no check for it
    with pytest.raises(ValidationError, match="karaman"):
        run_suites(load_scenario(scenario_path("flat-silver")), suites=["karaman"])


def test_run_suites_refuses_a_repeated_suite():
    scenario = load_scenario(scenario_path("flat-silver"))
    with pytest.raises(ValidationError, match="'core'"):
        run_suites(scenario, suites=["core", "genbundle", "core"])


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


def test_values_that_overflow_fail_their_checks_without_a_numpy_warning(tmp_path):
    # x1 up to 1e154 on polar-plane: g = diag(1, x1^2) reaches 1e308, and
    # the products of the checks overflow; each such check fails with inf or
    # a huge residual and a witness, and numpy prints nothing
    case = cli_cases.BY_NAME["polar-plane-x1-up-to-1e154"]
    argv = [sys.executable, "-W", "default", "-m", "metalliclab", *cli_cases.write(case, tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert not cli_cases.problems(case, proc.returncode, proc.stdout, proc.stderr), proc.stderr
    report = json.loads(proc.stdout)
    failed = {c["id"]: c for c in report["checks"] if not c["passed"]}
    assert failed["genconn/nabla-bracket-antisymmetry"]["residual"] == "inf"  # JSON has no inf
    assert failed["genconn/nabla-bracket-antisymmetry"]["witness"][0] > 1e153


def test_explicit_connection_matches_levi_civita(tmp_path):
    # supplying the polar-plane Levi-Civita coefficients explicitly must give
    # the same verdicts as the "levi-civita" keyword
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["suites"] = ["core", "genconn"]
    explicit = {**payload, "connection": cli_cases.POLAR_GAMMA}
    baseline = run_suites(load_scenario(write_scenario(tmp_path, payload, "lc.json")))
    supplied = run_suites(load_scenario(write_scenario(tmp_path, explicit, "exp.json")))
    assert _verdicts(baseline.to_dict()) == _verdicts(supplied.to_dict())
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


def test_non_finite_first_partials_fail_every_check_that_reads_them(tmp_path):
    # (x1 - x1)^0.5 is 0 everywhere, but its partial 0.5 * 0^-0.5 * 0 is NaN:
    # the values of g are finite, so the scenario loads and the checks that
    # read values only pass; every other check fails with a witness
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["metric"][1][1] = "x1^2 + (x1 - x1)^0.5"
    scenario = load_scenario(write_scenario(tmp_path, payload))
    report = run_suites(scenario)
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids)) == 49
    passed = [c.check_id.split("/")[0] for c in report.checks if c.passed]
    assert (passed.count("core"), passed.count("genbundle"), len(passed)) == (3, 9, 12)
    first = tuple(scenario.chart.sample_points(scenario.samples, seed=scenario.seed)[0])
    for check in report.checks:
        if not check.passed:
            assert check.residual == float("inf") and check.witness == first, check.check_id


def test_corpus_overall_verdicts(corpus_reports):
    for name, report in corpus_reports.items():
        assert report.overall_pass, f"{name} has unsatisfied gates"
    # negative controls really are failing checks, not vacuous passes
    diag = corpus_reports["sphere-diagJ"]
    assert not diag.find("core/locally-metallic").passed
    assert diag.find("core/locally-metallic").satisfied
    assert not diag.find("genconn/dhat-jm").passed
    assert diag.find("genconn/dhat-ghat").passed


def test_out_of_memory_in_a_suite_becomes_a_failed_check(monkeypatch):
    # a MemoryError in one context input fails each check that reads it under
    # the check's own id; the suite's other checks and later suites still run
    def exhausted(ctx, *arrays):
        raise MemoryError

    reads = suites_module.ARRAYS["gamma[lc]"][1]
    monkeypatch.setitem(suites_module.ARRAYS, "gamma[lc]", (exhausted, reads))
    scenario = load_scenario(scenario_path("flat-golden"))
    report = run_suites(scenario, suites=["core", "genbundle"])
    ids = [check.check_id for check in report.checks]
    assert [cid for cid in ids if cid.startswith("core/")] == [
        "core/metric-spd",
        "core/metallic-equation",
        "core/compatibility",
        "core/levi-civita-metric-parallel",
        "core/bianchi-first",
        "core/locally-metallic",
        "core/nijenhuis-covariant-identity",
    ]
    readers = {
        "core/levi-civita-metric-parallel",
        "core/bianchi-first",
        "core/locally-metallic",
        "core/nijenhuis-covariant-identity",
    }
    for check in report.checks:
        if check.check_id in readers:
            assert not check.passed and check.details == {"error": "out of memory"}
        else:
            assert check.passed, check.check_id
    assert any(cid.startswith("genbundle/") for cid in ids)
    assert not any(cid.endswith("/evaluation") for cid in ids)


def test_the_report_lists_each_declared_check_once_in_table_order(corpus_reports):
    for name, report in corpus_reports.items():
        scenario = load_scenario(scenario_path(name))
        declared = [
            check.cid
            for suite in report.suites
            for check in suites_module.CHECKS
            if check.suite == suite and check.applies(scenario)
        ]
        assert len(set(declared)) == len(declared)
        assert [check.check_id for check in report.checks] == declared, name


def test_an_error_in_an_informative_check_keeps_its_anchor_and_does_not_gate(monkeypatch):
    def raising(*arrays):
        raise DomainError("injected", (0.25, 0.5))

    monkeypatch.setattr(gc, "jp_reduced_residuals", raising)
    report = run_suites(load_scenario(scenario_path("flat-golden")), suites=["genconn"])
    check = report.find("genconn/jp-reduced-conditions")
    assert not check.passed and check.witness == (0.25, 0.5)
    assert not check.gating
    assert check.anchor == "torsion-free reduction of the jp conditions (informative)"
    assert report.overall_pass


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


def test_a_lower_triangle_equal_in_value_loads_as_the_upper_ones_nodes(tmp_path):
    # one written differently from the upper triangle is refused (asymmetric-metric)
    payload = golden_payload()
    payload["metric"] = [["1", "0.5*x1"], ["x1*0.5", "1"]]
    payload["J"] = [["1", "0"], ["0", "1"]]
    scenario = load_scenario(write_scenario(tmp_path, payload))
    assert scenario.metric[1, 0] is scenario.metric[0, 1]


def test_a_bad_control_is_listed_with_the_other_validation_problems(tmp_path):
    payload = golden_payload()
    payload["samples"] = -1
    payload["expected_failures"] = ["core/no-such-check"]
    with pytest.raises(ValidationError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    problems = err.value.problems
    assert any("samples" in p for p in problems)
    assert any("core/no-such-check" in p for p in problems)


def test_controls_whose_suite_did_not_run_are_listed(capsys):
    path = str(scenario_path("sphere-diagJ"))
    controls = json.loads(scenario_path("sphere-diagJ").read_text())["expected_failures"]
    assert main(["check", path, "--suite", "genbundle", "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_pass"]
    assert payload["controls_not_run"] == controls and len(controls) == 9
    assert main(["check", path, "--suite", "core", "--suite", "genbundle"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "controls not run" in l]
    assert len(lines) == 1
    assert "core/locally-metallic" not in lines[0]
    assert all(cid in lines[0] for cid in controls if not cid.startswith("core/"))
    # a full run leaves the key out, so its machine report keeps its bytes
    assert main(["check", path, "--format", "machine"]) == 0
    assert "controls_not_run" not in json.loads(capsys.readouterr().out)


def test_run_suites_refuses_a_bad_override():
    scenario = load_scenario(scenario_path("flat-silver"))
    for override in ({"samples": 0}, {"samples": True}, {"seed": -1}, {"tolerance": math.inf}):
        with pytest.raises(ValidationError, match=next(iter(override))):
            run_suites(scenario, **override)


def test_the_largest_tolerance_fails_every_shipped_control():
    # MAX_TOLERANCE sits below the smallest residual of a shipped control
    for name in ("sphere-diagJ", "warped-mixing"):
        report = run_suites(load_scenario(scenario_path(name)), tolerance=MAX_TOLERANCE)
        controls = [check for check in report.checks if check.expected_fail]
        assert controls and all(not check.passed for check in controls), name
