"""Reach guard: every function in src/ is called by some CLI path, and every
error type is raised somewhere in src/.

The CLI paths below run under ``sys.setprofile``; a function of the package
that none of them calls fails the test unless ``ALLOWED`` gives the reason.
"""

import ast
import io
import json
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import metalliclab
from metalliclab import chart
from metalliclab.cli import main

import cli_cases
from conftest import CORPUS, scenario_path

SRC = pathlib.Path(metalliclab.__file__).resolve().parent
IMPORT_TIME = "builds CHECKS while suites is imported, before any path runs"
ALLOWED = {
    "cli.console_main": "the installed entry point; it calls main, which the paths run",
    "expr.Expr.__setattr__": "refuses a write to a node; no path writes to one",
    "report.ScenarioReport.find": "the tests' lookup of a check in a report",
    "suites.Check.suite": IMPORT_TIME,
    "suites._lift_arrays": IMPORT_TIME,
    "suites._lift_checks": IMPORT_TIME,
    "suites._lift_checks.check": IMPORT_TIME,
}


def _functions():
    """(file, first line) -> module.qualname of every def in the package; a
    decorated function's code starts at its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return out


def _cli_paths(tmp_path):
    """Argument lists: every check format and derive tensor, a run over two
    chunks, an explicit connection over two chunks, a curved metric and a
    metric whose partials are not finite, each of which exits 0 or 1."""
    polar = json.loads(scenario_path("polar-plane").read_text())
    golden = json.loads(scenario_path("flat-golden").read_text())
    # second partials of g through each arithmetic form of the jets, and the
    # ln of a literal base, which folds
    g22 = "x1 + x1^2 + (x1 - x1^2/4) + 1/(1 + x1) + cos(x1) + ln(x1) + 2^x1"
    payloads = {
        "explicit": {**polar, "suites": ["core", "genconn"], "connection": cli_cases.POLAR_GAMMA},
        "rich-metric": {**polar, "suites": ["core"], "metric": [["1", "0"], ["0", g22]]},
        # finite values but NaN partials: 1/0 is a node of constants alone,
        # whose jets take the rule at zero partials; every check that reads dg fails
        "nan-partials": {**golden, "metric": [["1 + 1/(1/0)", "0"], ["0", "1"]]},
    }
    paths = {name: tmp_path / f"{name}.json" for name in payloads}
    for name, payload in payloads.items():
        paths[name].write_text(json.dumps(payload))
    runs = [["check", str(scenario_path(name)), "--format", "machine"] for name in CORPUS]
    runs.append(["check", str(scenario_path("flat-golden")), "--samples", "1100"])
    for what in ("christoffel", "curvature", "nijenhuis", "gen-nijenhuis"):
        runs.append(["derive", str(scenario_path("polar-plane")), "--what", what, "--at", "1,0.5"])
    # genconn's checks read the samples on this chart: their lists fold over the chunks
    runs.append(["check", str(paths["explicit"]), "--samples", "1100"])
    runs.append(["check", str(paths["rich-metric"])])
    runs.append(["check", str(paths["nan-partials"])])
    return runs


def test_every_function_is_reached_by_a_cli_path(tmp_path):
    """The paths above, then every refused invocation of tests/cli_cases.py,
    each with its own exit code."""
    runs = _cli_paths(tmp_path)
    runs += [cli_cases.write(case, tmp_path) for case in cli_cases.REFUSALS]
    called, codes = set(), []
    # the Halton tables are cached for the process, and a hit calls no Python
    # function: the paths start from an empty cache, as a fresh process does
    chart._digit_permutations.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in runs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(main(argv))
    finally:
        sys.setprofile(None)
    accepted = len(runs) - len(cli_cases.REFUSALS)
    assert set(codes[:accepted]) <= {0, 1}, codes
    assert codes[accepted:] == [case.code for case in cli_cases.REFUSALS], codes
    functions = _functions()
    assert set(ALLOWED) <= set(functions.values()), "the allow-list names a missing function"
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    missing = sorted(
        name for key, name in functions.items() if key not in reached and name not in ALLOWED
    )
    assert not missing, "no CLI path calls " + ", ".join(missing)


def test_every_error_class_is_raised_by_the_package():
    # an error type that no `raise` names is one no caller can meet
    tree = ast.parse((SRC / "errors.py").read_text())
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    unraised = sorted(declared - raised - {"MetallicLabError"})
    assert not unraised, "no raise names " + ", ".join(unraised)
