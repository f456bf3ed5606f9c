"""Check results and scenario reports, with human and machine renderings."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

REPORT_SCHEMA_VERSION = 1


def _json_value(value):
    """A residual, a detail or an entry of a detail list as the machine report
    writes it: a non-finite float as the string "inf", "-inf" or "nan", which
    JSON has no number for."""
    if isinstance(value, list):
        return [_json_value(entry) for entry in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


@dataclass
class CheckResult:
    """Outcome of a single named check over the sample set."""

    check_id: str
    anchor: str  # which identity or claim the check verifies
    residual: float
    tolerance: float
    witness: tuple | None = None  # sample point realising the max residual
    expected_fail: bool = False
    gating: bool = True
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def satisfied(self) -> bool:
        """Gate verdict: expected-fail checks must actually fail."""
        if self.expected_fail:
            return not self.passed
        return self.passed

    def to_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "anchor": self.anchor,
            "residual": _json_value(self.residual),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "expected_fail": self.expected_fail,
            "gating": self.gating,
            "satisfied": self.satisfied,
        }
        if not self.passed and self.witness is not None:
            out["witness"] = list(self.witness)
        if self.details:
            out["details"] = {name: _json_value(v) for name, v in self.details.items()}
        return out


def largest_entry(a: np.ndarray) -> tuple:
    """The largest absolute entry of a per-sample array (any trailing shape)
    and the index of its sample, the first on a tie; NaN reads as infinite,
    and an empty array gives (0.0, None).

    One argmax over all the entries: in row-major order the first largest
    entry lies in the first sample that holds it.
    """
    a = np.abs(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0, None
    k = int(a.argmax())
    largest = float(a.flat[k])
    if largest != largest:  # NaN: argmax stops at the first one
        a[np.isnan(a)] = np.inf
        k, largest = int(a.argmax()), np.inf
    return largest, k // (a.size // len(a))


@dataclass
class ScenarioReport:
    scenario_name: str
    seed: int
    samples: int
    suites: list
    checks: list  # list[CheckResult]
    # expected failures of suites that were not selected: they do not gate
    controls_not_run: list = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.satisfied for c in self.checks if c.gating)

    def find(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def suite_summary(self) -> dict:
        """Per-suite gate counts, keyed by the check-id prefix."""
        out: dict = {}
        for c in self.checks:
            suite = c.check_id.split("/", 1)[0]
            entry = out.setdefault(
                suite, {"checks": 0, "satisfied": 0, "informative": 0}
            )
            if not c.gating:
                entry["informative"] += 1
                continue
            entry["checks"] += 1
            entry["satisfied"] += int(c.satisfied)
        return out

    def to_dict(self) -> dict:
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario_name,
            "seed": self.seed,
            "samples": self.samples,
            "suites": list(self.suites),
            "overall_pass": self.overall_pass,
            "suite_summary": self.suite_summary(),
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.controls_not_run:
            out["controls_not_run"] = list(self.controls_not_run)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"

    def to_table(self) -> str:
        lines = []
        lines.append(f"scenario: {self.scenario_name}")
        lines.append(f"suites:   {', '.join(self.suites)}")
        lines.append(f"samples:  {self.samples}   seed: {self.seed}")
        lines.append("")
        width = max((len(c.check_id) for c in self.checks), default=10)
        header = f"{'check':<{width}}  {'residual':>12}  {'tol':>8}  verdict"
        lines.append(header)
        lines.append("-" * len(header))
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            if c.expected_fail:
                verdict += " (expected-fail " + ("unmet!)" if c.passed else "met)")
            if not c.gating:
                verdict += " [informative]"
            lines.append(
                f"{c.check_id:<{width}}  {c.residual:>12.3e}  {c.tolerance:>8.1e}  {verdict}"
            )
            if not c.passed and c.witness is not None:
                witness = ", ".join(f"{v:.17g}" for v in c.witness)
                lines.append(f"{'':<{width}}  witness: ({witness})")
        lines.append("")
        for suite, entry in self.suite_summary().items():
            extra = (
                f" (+{entry['informative']} informative)" if entry["informative"] else ""
            )
            lines.append(
                f"{suite}: {entry['satisfied']}/{entry['checks']} gates satisfied{extra}"
            )
        if self.controls_not_run:
            not_run = ", ".join(self.controls_not_run)
            lines.append(f"controls not run (suite not selected): {not_run}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"
