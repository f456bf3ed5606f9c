"""Command-line surface: `check` runs suites, `derive` prints tensors."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import MetallicLabError, ParseError, SchemaError, ValidationError
from .report import ScenarioReport
from .scenario import load_scenario
from .suites import KNOWN_SUITES, MAX_TOLERANCE, ScenarioContext, finite_number, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalliclab",
        description="Numerical checks for metallic Riemannian structures and "
        "the generalized structures they induce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a scenario's verification suites")
    check.add_argument("scenario", help="path to a scenario file")
    check.add_argument(
        "--suite",
        action="append",
        choices=KNOWN_SUITES,
        help="run only this suite (repeatable; default: the scenario's list)",
    )
    check.add_argument(
        "--samples",
        type=int,
        default=None,
        help="sample-point count; the checks run over chunks of samples, each "
        "drawn from its index range alone, so peak memory is bounded by one "
        "chunk whatever the count",
    )
    check.add_argument("--seed", type=int, default=None, help="sampling seed, at least 0")
    check.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"base tolerance for geometric checks, above 0 and at most {MAX_TOLERANCE:g}",
    )
    check.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="report format (machine is stable JSON)",
    )

    derive = sub.add_parser("derive", help="evaluate a derived tensor at a point")
    derive.add_argument("scenario", help="path to a scenario file")
    derive.add_argument(
        "--what",
        required=True,
        choices=("christoffel", "curvature", "nijenhuis", "gen-nijenhuis"),
    )
    derive.add_argument(
        "--at", required=True, help="comma-separated coordinates of the point"
    )
    return parser


def emit_report(report: ScenarioReport, fmt: str) -> str:
    if fmt == "machine":
        return report.to_json()
    return report.to_table()


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.suite:
        unknown = [s for s in args.suite if s not in scenario.suites]
        if unknown:
            raise ValidationError(
                [f"suite {s!r} not declared by scenario {scenario.name!r}" for s in unknown]
            )
    report = run_suites(
        scenario,
        suites=args.suite,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tol,
    )
    sys.stdout.write(emit_report(report, args.format))
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


def _cmd_derive(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        point = np.array([finite_number(float(v), "--at") for v in args.at.split(",")])
    except ValueError as err:
        raise ValidationError([f"--at must be comma-separated numbers: {err}"]) from err
    if point.shape != (scenario.chart.dim,):
        raise ValidationError(
            [f"--at must supply {scenario.chart.dim} coordinates, got {point.shape[0]}"]
        )
    name, title = {
        "christoffel": ("gamma[lc]", "Gamma^k_(i j) [k, i, j]"),
        "curvature": ("riemann[lc]", "R^l_(i j k) [l, i, j, k]"),
        "nijenhuis": ("NJ", "N^k_(i j) [k, i, j]"),
        "gen-nijenhuis": (
            "gen_nij[scenario,jm]",
            "N^A_(B C) of the generalized metallic structure [A, B, C]",
        ),
    }[args.what]
    values = ScenarioContext(scenario, points=point.reshape(1, -1))[name][0]
    text = np.array2string(values, precision=12, suppress_small=False, separator=", ")
    sys.stdout.write(f"{title}:\n{text}\n")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_derive(args)
    except (SchemaError, ParseError, ValidationError, FileNotFoundError, OSError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR
    except MetallicLabError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
