"""Every ``metalliclab`` invocation that the tests and CI run, declared once.

A row (``Case``) names the file to check: a corpus scenario with a patch to
its fields, raw text or bytes, or no file at all.  It names the arguments
after the file, the exit code, the words stderr must hold (each exactly
once), and whether stdout must be byte-identical over two runs.  Every run
must also keep ``problems``: no ``Traceback``, ``RuntimeWarning`` or numpy
repr on stderr, an exit-2 message first, and a ``--format machine`` report
that is JSON with no NaN or Infinity.  tests/test_cli.py runs the exit-2 rows
in-process through ``cli.main``, tests/test_reach.py under its profiler, and

    python tests/cli_cases.py

runs every row through the installed ``metalliclab`` console script, prints
one line per row and exits 1 if any row breaks its declaration.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
ABSENT = object()  # a patch value that deletes its field


@dataclass(frozen=True)
class Raw:
    """A field value written as this JSON text, which json.dumps cannot
    write as such: NaN, Infinity or a number that overflows, like 1e400."""

    text: str


@dataclass(frozen=True)
class Case:
    name: str
    named: str | tuple = ()  # what stderr must hold, one phrase or several
    # field -> value, or (field, index, ...) -> value for a nested entry
    patch: dict = field(default_factory=dict)
    args: tuple = ()
    code: int = 2
    scenario: str | None = "flat-golden"  # None: the file does not exist
    text: str | bytes | None = None  # the whole file, in place of scenario and patch
    command: str = "check"
    twice: bool = False

    def __post_init__(self):
        if isinstance(self.named, str):
            object.__setattr__(self, "named", (self.named,))


def _accepted(scenario, *args, name=None, code=0, patch=None):
    """A run with a machine report, byte-identical on a second run where it passes."""
    return Case(name or scenario, (), patch or {}, ("--format", "machine", *args), code,
                scenario, twice=code == 0)


# polar-plane's Levi-Civita coefficients Gamma^k_ij, written out
POLAR_GAMMA = [[["0", "0"], ["0", "-x1"]], [["0", "1/x1"], ["1/x1", "0"]]]
NOT_AN_ARRAY = "must be a 2 x 2 array of expression strings, got"

CASES = [
    # accepted: the corpus, and runs over several chunks with a partial last chunk
    *map(_accepted, ("flat-golden", "flat-silver", "polar-plane", "sphere-scalarJ",
                     "sphere-diagJ", "product-decomposable", "warped-mixing")),
    _accepted("warped-mixing", "--suite", "core", "--suite", "genbundle", "--suite",
              "commutation", "--samples", "16384", name="warped-mixing-at-16384-samples"),
    # all seven suites at n = 2 in chunks of 1024, 1024, 1024 and 928: the lifts'
    # fibre points and the commutation draws cross the chunk boundaries, and the
    # checks that read only the constant g and J (the omega sweep among them) run
    # once on the first sample and stand for all 4000
    _accepted("flat-golden", "--samples", "4000", name="flat-golden-at-4000-samples"),
    # both lifts at n = 3 over 9 chunks of 455 and a last one of 1: the arrays
    # they share live across suite boundaries and are dropped after their last use
    _accepted("warped-mixing", "--samples", "4096", name="warped-mixing-at-4096-samples"),
    # both lifts alone in chunks of 455, 455, 455 and 135: the base arrays
    # broadcast over the fibre points, on a partial last chunk too
    _accepted("warped-mixing", "--suite", "lifts-tangent", "--suite", "lifts-cotangent",
              "--samples", "1500", name="warped-mixing-lifts-at-1500-samples"),
    # values overflow inside the checks, which fail with a witness, and an
    # infinite residual is the string "inf"
    _accepted("polar-plane", name="polar-plane-x1-up-to-1e154", code=1,
              patch={("domain", 0): [0.5, 1e154]}),
    # the file
    Case("missing-file", "No such file or directory", scenario=None),
    Case("not-json", "not valid JSON", text='{"name": '),
    Case("not-an-object", "must hold a JSON object", text="[]"),
    Case("not-utf8", "not valid JSON: 'utf-8' codec", text=b'{"name": "\xff\xfe"}'),
    Case("json-nested-100000-deep", "not valid JSON: maximum recursion depth",
         text="[" * 100_000 + "]" * 100_000),
    # the schema
    Case("missing-field", "missing field 'metric'", {"metric": ABSENT}),
    Case("unknown-field", "unknown field 'unexpected'", {"unexpected": 1}),
    Case("schema-version-2", "schema_version 2", {"schema_version": 2}),
    # JSON true and 1.0 equal 1 in Python, but neither is the integer 1
    Case("schema-version-true", "schema_version True", {"schema_version": True}),
    Case("schema-version-1.0", "schema_version 1.0", {"schema_version": 1.0}),
    # a report's name or description is the file's string, never a repr
    Case("name-not-a-string", "name must be a string", {"name": ["a"]}),
    Case("description-not-a-string", "description must be a string", {"description": 5}),
    Case("dimension-7", "dimension must be an integer in 2..6", {"dimension": 7}),
    Case("one-coordinate", "coordinates must list 2 names", {"coordinates": ["x1"]}),
    Case("coordinate-not-a-string", "coordinates[0] must be a name", {"coordinates": [1, 2]}),
    Case("repeated-coordinate", "must be distinct", {"coordinates": ["x1", "x1"]}),
    # a function name would shadow the function in every entry
    Case("coordinate-named-sin", "coordinate 'sin' is the name of a function",
         {"coordinates": ["sin", "x2"]}),
    Case("one-domain-pair", "domain must list 2 [lo, hi] pairs", {"domain": [[0, 1]]}),
    Case("domain-pair-of-one", "domain must list 2 [lo, hi] pairs",
         {"domain": [[-1.0, 1.0], [-1.0]]}),
    Case("reversed-domain", "positive, finite width", {"domain": [[1.0, -1.0], [-1.0, 1.0]]}),
    # each end is finite, but hi - lo overflows to inf
    Case("domain-width-overflows", "positive, finite width",
         {"domain": [[-1e308, 1e308], [0, 1]]}),
    Case("J-object-with-a-scale", "J object form",
         {"J": {"projection": [["1", "0"], ["0", "0"]], "scale": 2}}),
    Case("empty-suites", "suites must be a non-empty list", {"suites": []}),
    Case("unknown-suite", "unknown suite 'lifts'", {"suites": ["core", "lifts"]}),
    Case("connection-foo", '"levi-civita" or a 2x2x2 array', {"connection": "foo"}),
    Case("metric-not-an-array", f"metric {NOT_AN_ARRAY} {{'a': 1}}", {"metric": {"a": 1}}),
    Case("J-not-an-array", f"J {NOT_AN_ARRAY} 'x1'", {"J": "x1"}),
    Case("J-of-3-columns", f"J {NOT_AN_ARRAY} [['1', '0', '0'], ['0', '1', '0']]",
         {"J": [["1", "0", "0"], ["0", "1", "0"]]}),
    Case("omega-not-an-array", "omega must be an array of 2 expression strings, got 'x1'",
         {"omega": "x1"}),
    Case("omega-entry-a-number", "omega[0]", {"omega": [5, "x1"]}),
    Case("control-a-list", "expected_failures must be a list", {"expected_failures": [["x"]]}),
    Case("control-a-number", "expected_failures must be a list", {"expected_failures": [3]}),
    # numbers out of range; json reads NaN and 1e400, RFC 8259 has neither
    Case("samples-true", "samples must be a positive integer, got True", {"samples": True}),
    Case("samples-2.5", "samples must be a positive integer, got 2.5", {"samples": 2.5}),
    Case("seed-minus-1", "seed must be a non-negative integer, got -1", {"seed": -1}),
    Case("seed-false", "seed must be a non-negative integer, got False", {"seed": False}),
    Case("tolerance-Infinity", "field 'tolerance' holds NaN or Infinity",
         {"tolerance": Raw("Infinity")}),
    Case("tolerance-1e300", "tolerance must be positive and at most", {"tolerance": 1e300}),
    Case("p-NaN", "field 'p' holds NaN or Infinity", {"p": Raw("NaN")}),
    Case("q-minus-Infinity", "field 'q' holds NaN or Infinity", {"q": Raw("-Infinity")}),
    Case("q-1e400", "q must be a finite number, got inf", {"q": Raw("1e400")}),
    Case("domain-end-1e400", "domain[0] must be a finite number, got inf",
         {"domain": Raw("[[-1.0, 1e400], [-1.0, 1.0]]")}),
    Case("complex-metallic-number", "p^2 + 4q = -3.0 < 0", {"q": -1.0}),
    # named once: J's projection does not report it again; p^2 + 4q overflows
    # to inf, or to NaN as inf - inf
    Case("p-1e200", "p^2 + 4q = inf", {"p": 1e200}),
    Case("q-1e308", "p^2 + 4q = inf", {"q": 1e308}),
    Case("p-1e200-q-minus-1e308", "p^2 + 4q = nan", {"p": 1e200, "q": -1e308}),
    Case("q-0-with-karaman", "needs q != 0", {"p": 1.0, "q": 0.0}),
    # the fields' entries
    Case("metric-entry-nested-300-deep", "offset 129: nesting deeper than 128 levels",
         {("metric", 0, 0): "(" * 300 + "1" + ")" * 300}, ("--suite", "core")),
    Case("unparsable-entries", ("metric[1, 1]: parse error", "omega[0]: parse error"),
         {"metric": [["1", "0"], ["0", "si n(x1)"]], "omega": ["x9", "x1"]}),
    Case("metric-entry-ends-in-plus", "metric[1, 1]: parse error at offset 4",
         {("metric", 1, 1): "x1 +"}),
    # the lower triangle is read, not overwritten by the upper one
    Case("asymmetric-metric", "metric[1][0] differs from metric[0][1]",
         {("metric", 1, 0): "5 + x1"}),
    Case("metric-changes-sign", "not positive definite", {("metric", 0, 0): "x1"}),
    Case("metric-entry-not-finite", "J.projection", {("metric", 0, 0): "1/(x1-x1)"},
         scenario="flat-silver"),
    Case("not-a-projection", "J.projection: P^2 != P",
         {"J": {"projection": [["2", "0"], ["0", "0"]]}}),
    # a probe whose values overflow refuses the field, and numpy prints no warning
    Case("metric-probe-overflows", "metric[1][0] differs from metric[0][1] by inf",
         {"metric": [["1", "1e308"], ["-1e308", "1"]]}),
    Case("projection-probe-overflows", "J.projection: P^2 != P",
         {"J": {"projection": [["1e308", "0"], ["0", "0"]]}}),
    # negative controls: each names a gating check that the declared suites run, once
    Case("repeated-control", "'core/metallic-equation' is repeated",
         {"expected_failures": ["core/metallic-equation"] * 2}),
    Case("control-typo", "core/locally-metalic",
         {("expected_failures", 0): "core/locally-metalic"}, scenario="sphere-diagJ"),
    Case("control-typo-of-a-suite-not-run", "genconn/jm-gen-nijenhuiss",
         {"expected_failures": ["genconn/jm-gen-nijenhuiss"]}, ("--suite", "core")),
    Case("control-of-an-undeclared-suite", "karaman/metric-parallel",
         {"suites": ["core"], "expected_failures": ["karaman/metric-parallel"]}),
    Case("control-of-a-check-that-does-not-apply", "karaman/metric-parallel",
         {"suites": ["core", "karaman"], "omega": ABSENT,
          "expected_failures": ["karaman/metric-parallel"]}),
    Case("karaman-without-omega", "declare 'omega'",
         {"suites": ["core", "karaman"], "omega": ABSENT}),
    # an informative check never fails a run, so such a control could never be met
    Case("control-of-an-informative-check",
         "'genbundle/fhat-with-df-equal-j' names an informative check",
         {"expected_failures": ["genbundle/fhat-with-df-equal-j"]}),
    # the flags; an infinite or huge --tol would pass every check, the controls too
    *(Case(f"tol-{value}", "tolerance must be", args=("--tol", value))
      for value in ("inf", "1e300", "nan", "0", "-1")),
    Case("seed-flag-minus-1", "seed must be", args=("--seed", "-1")),
    *(Case(f"samples-flag-{value}", "samples must be a positive integer",
           args=("--samples", value)) for value in ("0", "-3")),
    Case("suite-not-declared", "suite 'karaman' not declared", args=("--suite", "karaman"),
         scenario="flat-silver"),
    # run twice, a suite would report each of its checks twice
    Case("suite-selected-twice", "suite 'core' is selected more than once",
         args=("--suite", "core", "--suite", "core"), scenario="flat-silver"),
    Case("derive-at-1-coordinate", "--at must supply 2 coordinates, got 1",
         args=("--what", "curvature", "--at", "0.1"), command="derive"),
    *(Case(f"derive-at-{at}", "--at must be a finite number",
           args=("--what", "christoffel", "--at", at), command="derive")
      for at in ("nan,0.5", "inf,0.5")),
    # the explicit connection is not finite at x1 = 0
    Case("derive-where-the-connection-is-singular",
         "field evaluation is not finite at point (0.0, 0.5)",
         {"suites": ["core", "genconn"], "connection": POLAR_GAMMA},
         ("--what", "gen-nijenhuis", "--at", "0,0.5"), scenario="polar-plane", command="derive"),
]
BY_NAME = {case.name: case for case in CASES}
REFUSALS = [case for case in CASES if case.code == 2]


def _not_json(constant):
    raise ValueError(f"{constant}, which JSON has no number for")


def write(case: Case, directory) -> list:
    """The arguments after ``metalliclab`` that run ``case``, with its file
    written to ``directory``; an unpatched corpus scenario is read in place."""
    path = pathlib.Path(directory) / f"{case.name}.json"
    if case.text is not None:
        path.write_bytes(case.text if isinstance(case.text, bytes) else case.text.encode())
    elif case.scenario is not None and not case.patch:
        path = SCENARIOS / f"{case.scenario}.json"
    elif case.scenario is not None:
        payload = json.loads((SCENARIOS / f"{case.scenario}.json").read_text())
        for key, value in case.patch.items():
            *outer, last = key if isinstance(key, tuple) else (key,)
            target = functools.reduce(operator.getitem, outer, payload)
            if value is ABSENT:
                del target[last]
            else:
                target[last] = value
        text = json.dumps(payload, default=lambda raw: f"@raw:{raw.text}")
        path.write_text(re.sub(r'"@raw:([^"]*)"', r"\1", text))
    return [case.command, str(path), *case.args]


def problems(case: Case, code: int, out: str, err: str) -> list:
    """What one run of ``case``, which exited ``code`` and printed ``out``
    and ``err``, breaks of its declaration; empty when it keeps it."""
    found = [] if code == case.code else [f"exit {code}, not {case.code}"]
    # "np." is a numpy repr, np.float64(0.5) say, where a message prints a number
    found += [f"stderr holds {word!r}" for word in ("Traceback", "RuntimeWarning", "np.")
              if word in err]
    if code == 2 and not err.startswith(("input error: ", "error: ")):
        found.append("stderr does not open with the input error")
    found += [f"stderr names {word!r} {err.count(word)} times, not once"
              for word in case.named if err.count(word) != 1]
    if "machine" in case.args:
        try:
            json.loads(out, parse_constant=_not_json)
        except ValueError as error:
            found.append(f"the machine report is not JSON: {error}")
    return found


def main() -> int:
    """Run every row through the installed console script, twice where the
    row asks for the same stdout."""
    broken = 0
    env = {**os.environ, "PYTHONWARNINGS": "default"}
    with tempfile.TemporaryDirectory() as directory:
        for case in CASES:
            argv = ["metalliclab", *write(case, directory)]
            runs = [subprocess.run(argv, capture_output=True, env=env)
                    for _ in range(1 + case.twice)]
            found = [problem for run in runs for problem in problems(
                case, run.returncode, run.stdout.decode(errors="replace"),
                run.stderr.decode(errors="replace"))]
            if runs[0].stdout != runs[-1].stdout:
                found.append("stdout differs between two runs")
            print(f"{case.name}: {'; '.join(found) or f'exit {case.code} as declared'}")
            broken += bool(found)
    print(f"{len(CASES) - broken} of {len(CASES)} rows as declared")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
