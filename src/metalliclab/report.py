"""Check results and scenario reports, with human and machine renderings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

REPORT_SCHEMA_VERSION = 1


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
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "expected_fail": self.expected_fail,
            "gating": self.gating,
            "satisfied": self.satisfied,
        }
        if not self.passed and self.witness is not None:
            out["witness"] = list(self.witness)
        if self.details:
            out["details"] = _plain(self.details)
        return out


def _per_sample_max(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry at each sample, NaN read as infinite."""
    # max propagates NaN, so only the per-sample maxima need the mapping
    out = np.abs(a).reshape(a.shape[0], -1).max(axis=1)
    out[np.isnan(out)] = np.inf
    return out


def worst_sample(residuals: np.ndarray, points: np.ndarray) -> tuple:
    """The largest entry of per-sample residuals (any trailing shape) and the
    point of its sample; (0.0, None) when there are no entries."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        return 0.0, None
    per_point = _per_sample_max(residuals)
    worst = int(np.argmax(per_point))
    return float(per_point[worst]), tuple(float(v) for v in np.asarray(points, dtype=float)[worst])


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    return value


@dataclass
class ScenarioReport:
    scenario_name: str
    seed: int
    samples: int
    suites: list
    checks: list  # list[CheckResult]
    resolved_curvature_convention: str | None = None
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
        if self.resolved_curvature_convention is not None:
            out["resolved_curvature_convention"] = self.resolved_curvature_convention
        if self.controls_not_run:
            out["controls_not_run"] = list(self.controls_not_run)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = []
        lines.append(f"scenario: {self.scenario_name}")
        lines.append(f"suites:   {', '.join(self.suites)}")
        lines.append(f"samples:  {self.samples}   seed: {self.seed}")
        if self.resolved_curvature_convention is not None:
            lines.append(f"curvature convention: {self.resolved_curvature_convention}")
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
