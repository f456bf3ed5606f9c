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


def test_a_deeply_nested_expression_is_an_input_error(tmp_path, capsys):
    # every nesting recurses in the parser: past 128 levels the input is
    # refused at the offset of its first token that deep, before the
    # recursion outgrows Python's stack
    payload = golden_payload()
    payload["metric"][0][0] = "(" * 300 + "1" + ")" * 300
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ParseError, match="offset 129: nesting deeper than 128 levels"):
        load_scenario(path)
    assert main(["check", str(path), "--suite", "core"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    # 128 levels parse, and so does a flat sum of 50,000 terms
    assert parse("(" * 127 + "-x1" + ")" * 127, ["x1"]) is not None
    assert parse(" + ".join(["x1"] * 50_000), ["x1"]) is not None


def refused(path, capsys) -> str:
    """The stderr of a check of ``path``, which must exit 2 with an input error."""
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    return err


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    # RFC 8259 JSON is UTF-8: the loader hands json the bytes to decode
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"name": "\xff\xfe"}')
    with pytest.raises(SchemaError, match="not valid JSON: 'utf-8' codec"):
        load_scenario(path)
    refused(path, capsys)


def test_a_json_file_nested_past_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SchemaError, match="not valid JSON: maximum recursion depth"):
        load_scenario(path)
    refused(path, capsys)


@pytest.mark.parametrize(
    "fields, named",
    [
        ('{"name": ', "not valid JSON"),
        ("[]", "JSON object"),
        ({"schema_version": 2}, "schema_version"),
        ({"dimension": 7}, "dimension"),
        ({"coordinates": ["x1"]}, "coordinates"),
        ({"domain": [[-1.0, 1.0], [-1.0]]}, "domain"),
        ({"J": {"projection": [["1", "0"], ["0", "0"]], "scale": 2}}, "J object"),
        ({"suites": []}, "suites"),
        ({"suites": ["core", "lifts"]}, "unknown suite 'lifts'"),
        ({"q": -1.0}, "p^2 + 4q"),
        # each end is finite, but hi - lo overflows to inf
        ({"domain": [[-1e308, 1e308], [0, 1]]}, "positive, finite width"),
        # a repeated negative control is named once
        ({"expected_failures": ["core/metallic-equation"] * 2}, "core/metallic-equation"),
        # a function name would shadow the function in every entry
        ({"coordinates": ["sin", "x2"]}, "sin"),
        # JSON true and 1.0 equal 1 in Python, but neither is the integer 1
        ({"schema_version": True}, "schema_version"),
        ({"schema_version": 1.0}, "schema_version"),
        # a report name or description is the file's string, never a repr
        ({"name": ["a"]}, "name"),
        ({"description": 5}, "description"),
        # a coordinate name that is not a string, and a connection that is
        # neither "levi-civita" nor an n x n x n array
        ({"coordinates": [1, 2]}, "coordinates"),
        ({"connection": "foo"}, "levi-civita"),
    ],
)
def test_each_rejection_of_the_loader_is_an_input_error(tmp_path, capsys, fields, named):
    # ``fields`` is the file's text, or the fields that replace flat-golden's
    path = tmp_path / "scenario.json"
    path.write_text(fields if isinstance(fields, str) else json.dumps({**golden_payload(), **fields}))
    assert refused(path, capsys).count(named) == 1


def test_a_complex_discriminant_is_reported_once(tmp_path):
    # a J given by its projection is not built from a complex metallic number
    payload = golden_payload()
    payload["q"] = -1.0
    with pytest.raises(ValidationError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    assert err.value.problems == ["p^2 + 4q = -3.0 < 0: metallic number is not real"]


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


def test_run_suites_refuses_a_suite_with_no_check_for_the_scenario():
    # flat-silver has no 1-form, so the karaman suite declares no check for it
    with pytest.raises(ValidationError, match="karaman"):
        run_suites(load_scenario(scenario_path("flat-silver")), suites=["karaman"])


def test_cli_a_repeated_suite_is_an_input_error(capsys):
    # run twice, a suite would report each of its checks twice
    argv = ["check", str(scenario_path("flat-silver")), "--suite", "core", "--suite", "core"]
    assert main(argv) == 2
    assert "suite 'core' is selected more than once" in capsys.readouterr().err


def test_run_suites_refuses_a_repeated_suite():
    scenario = load_scenario(scenario_path("flat-silver"))
    with pytest.raises(ValidationError, match="'core'"):
        run_suites(scenario, suites=["core", "genbundle", "core"])


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_a_sample_count_below_1_is_an_input_error(capsys, samples):
    assert main(["check", str(scenario_path("flat-golden")), "--samples", samples]) == 2
    assert "samples must be a positive integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("at", ["nan,0.5", "inf,0.5"])
def test_cli_derive_refuses_a_non_finite_point(capsys, at):
    argv = ["derive", str(scenario_path("flat-golden")), "--what", "christoffel", "--at", at]
    assert main(argv) == 2
    assert "--at must be a finite number" in capsys.readouterr().err


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


def _not_json(constant):
    raise ValueError(f"the machine report holds {constant}, which JSON has no number for")


def test_values_that_overflow_fail_their_checks_without_a_numpy_warning(tmp_path):
    # x1 up to 1e154 on polar-plane: g = diag(1, x1^2) reaches 1e308, and
    # the products of the checks overflow; each such check fails with inf or
    # a huge residual and a witness, and numpy prints nothing
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["domain"][0] = [0.5, 1e154]
    argv = [sys.executable, "-W", "default", "-m", "metalliclab", "check"]
    argv += [str(write_scenario(tmp_path, payload)), "--format", "machine"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    report = json.loads(proc.stdout, parse_constant=_not_json)
    failed = {c["id"]: c for c in report["checks"] if not c["passed"]}
    assert failed["genconn/nabla-bracket-antisymmetry"]["residual"] == "inf"  # JSON has no inf
    assert failed["genconn/nabla-bracket-antisymmetry"]["witness"][0] > 1e153


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


def test_a_control_of_a_check_the_scenario_cannot_run_is_an_input_error(tmp_path, capsys):
    payload = golden_payload()
    # a typo in the id of a declared suite's check, whatever --suite selects
    payload["expected_failures"] = ["genconn/jm-gen-nijenhuiss"]
    path = write_scenario(tmp_path, payload)
    assert main(["check", str(path), "--suite", "core"]) == 2
    assert "genconn/jm-gen-nijenhuiss" in capsys.readouterr().err
    # a real check of a suite that the scenario does not declare
    payload["suites"] = ["core"]
    payload["expected_failures"] = ["karaman/metric-parallel"]
    assert main(["check", str(write_scenario(tmp_path, payload))]) == 2
    assert "karaman/metric-parallel" in capsys.readouterr().err
    # a check whose suite is declared but which does not apply: no 1-form
    payload["suites"] = ["core", "karaman"]
    del payload["omega"]
    with pytest.raises(ValidationError, match="karaman/metric-parallel"):
        load_scenario(write_scenario(tmp_path, payload))
    # and without a control: the declared karaman suite has no 1-form to run on
    payload["expected_failures"] = []
    assert main(["check", str(write_scenario(tmp_path, payload))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'omega'" in err


def test_a_control_of_an_informative_check_is_an_input_error(tmp_path, capsys):
    # an informative check never fails a run, so such a control could never be met
    payload = golden_payload()
    payload["expected_failures"] = ["genbundle/fhat-with-df-equal-j"]
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ValidationError, match="informative check"):
        load_scenario(path)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "genbundle/fhat-with-df-equal-j" in err


def test_an_asymmetric_metric_is_an_input_error(tmp_path, capsys):
    # the lower triangle is read, not overwritten by the upper one
    payload = golden_payload()
    payload["metric"][1][0] = "5 + x1"
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ValidationError, match=r"metric\[1\]\[0\] differs from metric\[0\]\[1\]"):
        load_scenario(path)
    assert main(["check", str(path), "--suite", "core"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "metric[1][0]" in err and "Traceback" not in err
    # a lower triangle written differently but equal in value loads, as the
    # upper triangle's nodes
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


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tol", "inf", "tolerance"),
        ("--tol", "1e300", "tolerance"),
        ("--tol", "nan", "tolerance"),
        ("--tol", "0", "tolerance"),
        ("--tol", "-1", "tolerance"),
        ("--seed", "-1", "seed"),
    ],
)
def test_cli_a_numeric_flag_out_of_range_is_an_input_error(capsys, flag, value, field):
    # an infinite or huge --tol would pass every check, the negative controls too
    assert main(["check", str(scenario_path("flat-golden")), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{field} must be" in err


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


@pytest.mark.parametrize(
    "fields",
    [
        {"samples": "true"},
        {"samples": "2.5"},
        {"seed": "-1"},
        {"seed": "false"},
        {"tolerance": "Infinity"},
        {"tolerance": "1e300"},
        {"p": "NaN"},
        {"q": "-Infinity"},
        {"q": "1e400"},
        {"domain": "[[-1.0, 1e400], [-1.0, 1.0]]"},
        # p^2 + 4q overflows to inf, or to NaN as inf - inf
        {"p": "1e200"},
        {"q": "1e308"},
        {"p": "1e200", "q": "-1e308"},
    ],
    ids=lambda fields: "-".join(f"{field}-{text}" for field, text in fields.items()),
)
def test_a_numeric_field_out_of_range_is_an_input_error(tmp_path, capsys, fields):
    # the file is written as text: json.dumps cannot write NaN or 1e400 as such
    text = json.dumps({**golden_payload(), **{field: f"@{field}" for field in fields}})
    for field, value in fields.items():
        text = text.replace(f'"@{field}"', value)
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert all(field in err.removeprefix("input error:") for field in fields), err


def test_an_input_error_prints_its_point_as_plain_floats(tmp_path):
    payload = golden_payload()
    payload["metric"] = [["x1", "0"], ["0", "1"]]  # changes sign on the box
    with pytest.raises(ValidationError) as err:
        load_scenario(write_scenario(tmp_path, payload))
    text = str(err.value)
    assert "not positive definite" in text and "np." not in text


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("omega", [5, "x1"], "omega[0]"),
        ("expected_failures", [["x"]], "expected_failures"),
        ("expected_failures", [3], "expected_failures"),
    ],
)
def test_a_non_string_entry_is_an_input_error(tmp_path, capsys, field, value, named):
    payload = golden_payload()
    payload[field] = value
    assert main(["check", str(write_scenario(tmp_path, payload))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and named in err
