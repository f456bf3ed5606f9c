"""Scenario files: schema, loading, and aggregated validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chart as ch
from . import expr as ex
from .errors import (
    ComplexDiscriminant,
    DomainError,
    NotAProjection,
    ParseError,
    SchemaError,
    SingularMetric,
    ValidationError,
)
from .metallic import MetallicParams, from_projection

SCENARIO_SCHEMA_VERSION = 1

KNOWN_SUITES = (
    "core",
    "genbundle",
    "genconn",
    "karaman",
    "lifts-tangent",
    "lifts-cotangent",
    "commutation",
)

_REQUIRED = {
    "schema_version",
    "name",
    "dimension",
    "coordinates",
    "domain",
    "p",
    "q",
    "metric",
    "J",
    "suites",
}
_OPTIONAL = {
    "omega",
    "connection",
    "samples",
    "seed",
    "tolerance",
    "expected_failures",
    "description",
}


@dataclass
class ChartScenario:
    name: str
    chart: ch.Chart
    params: MetallicParams
    metric: ch.MetricField
    J: ch.EndoField
    j_from_projection: bool
    omega: ch.OneFormField | None
    connection: ch.ConnectionField | None  # None means Levi-Civita
    suites: list
    samples: int
    seed: int
    tolerance: float
    expected_failures: list = field(default_factory=list)
    description: str = ""
    # the interning table the fields were parsed into (see expr.fresh_table)
    table: dict = field(default_factory=dict, repr=False, compare=False)


def _parse_matrix(raw, shape, coords, where, parse_problems):
    arr = np.asarray(raw, dtype=object)
    if arr.shape != shape:
        raise SchemaError([f"{where}: expected shape {shape}, got {arr.shape}"])
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        cell = arr[idx]
        if not isinstance(cell, str):
            raise SchemaError([f"{where}{list(idx)}: expected an expression string"])
        try:
            out[idx] = ex.parse(cell, coords)
        except ParseError as err:
            parse_problems.append(f"{where}{list(idx)}: {err}")
            out[idx] = ex.const(0.0)
    return out


def load_scenario(path) -> ChartScenario:
    """Load and validate a scenario file, reporting every problem found.

    The fields are interned into a table of the scenario's own, which runs
    on the scenario start from; the module-level table is left as it was.
    """
    with ex.fresh_table() as table:
        scenario = _load(Path(path))
    scenario.table = table
    return scenario


def _load(path: Path) -> ChartScenario:
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError([f"not valid JSON: {err}"]) from err
    if not isinstance(data, dict):
        raise SchemaError(["scenario file must hold a JSON object"])

    schema_problems: list = []
    missing = _REQUIRED - data.keys()
    extra = data.keys() - (_REQUIRED | _OPTIONAL)
    if missing:
        schema_problems += [f"missing field {name!r}" for name in sorted(missing)]
    if extra:
        schema_problems += [f"unknown field {name!r}" for name in sorted(extra)]
    if schema_problems:
        raise SchemaError(schema_problems)
    if data["schema_version"] != SCENARIO_SCHEMA_VERSION:
        raise SchemaError(
            [f"unsupported schema_version {data['schema_version']!r}"]
        )

    validation_problems: list = []
    parse_problems: list = []

    n = data["dimension"]
    if not isinstance(n, int) or not 2 <= n <= 6:
        raise SchemaError([f"dimension must be an integer in 2..6, got {n!r}"])
    coords = data["coordinates"]
    if not isinstance(coords, list) or len(coords) != n:
        raise SchemaError([f"coordinates must list {n} names"])
    domain = data["domain"]
    if not isinstance(domain, list) or len(domain) != n or any(
        not isinstance(iv, list) or len(iv) != 2 for iv in domain
    ):
        raise SchemaError(["domain must list n [lo, hi] pairs"])

    seed = data.get("seed", 0)
    samples = data.get("samples", 32)
    tolerance = data.get("tolerance", 1e-9)
    if not isinstance(samples, int) or samples <= 0:
        validation_problems.append(f"samples must be a positive integer, got {samples!r}")
        samples = 32
    if not isinstance(seed, int):
        validation_problems.append(f"seed must be an integer, got {seed!r}")
        seed = 0
    if not isinstance(tolerance, (int, float)) or tolerance <= 0:
        validation_problems.append(f"tolerance must be positive, got {tolerance!r}")
        tolerance = 1e-9

    try:
        chart = ch.Chart(tuple(coords), tuple(tuple(iv) for iv in domain), seed=seed)
    except Exception as err:  # noqa: BLE001 - surfaced as a schema problem
        raise SchemaError([f"chart: {err}"]) from err

    p, q = data["p"], data["q"]
    if not isinstance(p, (int, float)) or not isinstance(q, (int, float)):
        raise SchemaError(["p and q must be numbers"])
    params = MetallicParams(float(p), float(q))

    metric_comps = _parse_matrix(data["metric"], (n, n), coords, "metric", parse_problems)

    j_raw = data["J"]
    j_from_projection = isinstance(j_raw, dict)
    if j_from_projection:
        if set(j_raw.keys()) != {"projection"}:
            raise SchemaError(["J object form must have exactly the 'projection' key"])
        proj_comps = _parse_matrix(
            j_raw["projection"], (n, n), coords, "J.projection", parse_problems
        )
    else:
        j_comps = _parse_matrix(j_raw, (n, n), coords, "J", parse_problems)

    omega = None
    if "omega" in data:
        omega_raw = np.asarray(data["omega"], dtype=object)
        if omega_raw.shape != (n,):
            raise SchemaError([f"omega: expected {n} expression strings"])
        omega_comps = np.empty(n, dtype=object)
        for i in range(n):
            try:
                omega_comps[i] = ex.parse(omega_raw[i], coords)
            except ParseError as err:
                parse_problems.append(f"omega[{i}]: {err}")
                omega_comps[i] = ex.const(0.0)
        omega = ch.OneFormField(chart, omega_comps)

    connection = None
    conn_raw = data.get("connection", "levi-civita")
    if conn_raw != "levi-civita":
        conn_comps = _parse_matrix(
            conn_raw, (n, n, n), coords, "connection", parse_problems
        )
        connection = ch.ConnectionField(chart, conn_comps)

    suites = data["suites"]
    if not isinstance(suites, list) or not suites:
        raise SchemaError(["suites must be a non-empty list"])
    unknown = [s for s in suites if s not in KNOWN_SUITES]
    if unknown:
        raise SchemaError([f"unknown suite {s!r}" for s in unknown])

    expected_failures = data.get("expected_failures", [])
    if not isinstance(expected_failures, list):
        raise SchemaError(["expected_failures must be a list of check ids"])

    if parse_problems:
        raise ParseError(0, "; ".join(parse_problems))

    # semantic validation against the parsed fields
    if params.q == 0 and ("karaman" in suites or omega is not None):
        validation_problems.append(
            "the semi-symmetric connection inverts J via (1/q)J - (p/q)I and "
            "needs q != 0"
        )
    if params.discriminant < 0:
        validation_problems.append(
            f"p^2 + 4q = {params.discriminant} < 0: metallic number is not real"
        )

    metric = ch.MetricField(chart, metric_comps)
    probe = chart.sample_points(min(8, samples))
    try:
        metric.check_positive_definite(probe)
    except Exception as err:  # noqa: BLE001
        validation_problems.append(f"metric: {err}")

    if j_from_projection:
        try:
            structure = from_projection(
                chart, ch.EndoField(chart, proj_comps), params, metric, probe
            )
            J = structure.J
        except (NotAProjection, ComplexDiscriminant, DomainError, SingularMetric) as err:
            validation_problems.append(f"J.projection: {err}")
            J = ch.EndoField(chart, ch.constant_matrix(np.eye(n)))
    else:
        J = ch.EndoField(chart, j_comps)

    if validation_problems:
        raise ValidationError(validation_problems)

    return ChartScenario(
        name=str(data["name"]),
        chart=chart,
        params=params,
        metric=metric,
        J=J,
        j_from_projection=j_from_projection,
        omega=omega,
        connection=connection,
        suites=list(suites),
        samples=samples,
        seed=seed,
        tolerance=float(tolerance),
        expected_failures=list(expected_failures),
        description=str(data.get("description", "")),
    )
