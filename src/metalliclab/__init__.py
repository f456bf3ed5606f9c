"""Numerical verification of metallic Riemannian structures, the generalized
metallic/product/complex structures they induce on TM + T*M, and their lifts
to tangent and cotangent bundle charts."""

from . import chart, expr, genbundle, genconn, lifts, metallic, report
from .chart import Chart
from .expr import differentiate, parse
from .metallic import MetallicParams, metallic_number
from .report import CheckResult, ScenarioReport
from .scenario import ChartScenario, load_scenario
from .suites import run_suites

__version__ = "0.1.0"

__all__ = [
    "chart",
    "expr",
    "genbundle",
    "genconn",
    "lifts",
    "metallic",
    "report",
    "Chart",
    "differentiate",
    "parse",
    "MetallicParams",
    "metallic_number",
    "CheckResult",
    "ScenarioReport",
    "ChartScenario",
    "load_scenario",
    "run_suites",
    "__version__",
]
