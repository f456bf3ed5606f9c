"""Scenario files: schema, loading, and aggregated validation."""

from __future__ import annotations

import json
from collections import Counter
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
    ValidationError,
)
from .metallic import PROBE_TOL, MetallicParams, from_projection
from .suites import CHECKS, KNOWN_SUITES, finite_number, valid_tolerance, whole_number

SCENARIO_SCHEMA_VERSION = 1

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
    # the leaf fields: object arrays of Exprs, g_ij [n, n] (its lower triangle
    # the same nodes as its upper), J^i_j [n, n], omega_i [n] and
    # Gamma^k_ij [n, n, n]; connection None means Levi-Civita
    metric: np.ndarray
    J: np.ndarray
    omega: np.ndarray | None
    connection: np.ndarray | None
    suites: list
    samples: int
    seed: int
    tolerance: float
    expected_failures: list = field(default_factory=list)
    description: str = ""


class _NonFinite(str):
    """NaN or Infinity in a file: Python's json reads them, RFC 8259 does not."""


def _finite_object(pairs: list) -> dict:
    def holds(value):
        return isinstance(value, _NonFinite) or isinstance(value, list) and any(map(holds, value))

    if bad := [key for key, value in pairs if holds(value)]:
        raise SchemaError([f"field {key!r} holds NaN or Infinity, not a JSON number" for key in bad])
    return dict(pairs)


def _parse_matrix(raw, shape, coords, where, parse_problems, shared):
    arr = np.asarray(raw, dtype=object)
    if arr.shape != shape:
        size = " x ".join(map(str, shape))
        kind = f"an array of {size}" if len(shape) == 1 else f"a {size} array of"
        raise SchemaError([f"{where} must be {kind} expression strings, got {raw!r}"])
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        cell = arr[idx]
        if not isinstance(cell, str):
            raise SchemaError([f"{where}{list(idx)}: expected an expression string"])
        try:
            out[idx] = ex.parse(cell, coords, shared)
        except ParseError as err:
            parse_problems.append(f"{where}{list(idx)}: {err}")
            out[idx] = ex.const(0.0)
    return out


# a probe whose values overflow fails with inf (P^2 != P, say): numpy need not warn
@np.errstate(all="ignore")
def load_scenario(path) -> ChartScenario:
    """Load and validate a scenario file, reporting every problem found."""
    path = Path(path)
    try:  # json decodes the bytes: a UnicodeDecodeError is a ValueError too
        data = json.loads(
            path.read_bytes(), parse_constant=_NonFinite, object_pairs_hook=_finite_object
        )
    except (ValueError, RecursionError) as err:
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
    # True and 1.0 equal 1 in Python, but neither is the JSON integer 1
    version = data["schema_version"]
    if type(version) is not int or version != SCENARIO_SCHEMA_VERSION:
        raise SchemaError([f"unsupported schema_version {version!r}"])
    texts = [key for key in ("name", "description") if not isinstance(data.get(key, ""), str)]
    if texts:
        raise SchemaError([f"{key} must be a string, got {data[key]!r}" for key in texts])

    validation_problems: list = []
    parse_problems: list = []

    n = data["dimension"]
    if not isinstance(n, int) or not 2 <= n <= 6:
        raise SchemaError([f"dimension must be an integer in 2..6, got {n!r}"])
    coords = data["coordinates"]
    if not isinstance(coords, list) or len(coords) != n:
        raise SchemaError([f"coordinates must list {n} names"])
    for i, name in enumerate(coords):
        if not isinstance(name, str):
            raise SchemaError([f"coordinates[{i}] must be a name (a string), got {name!r}"])
    domain = data["domain"]
    if not isinstance(domain, list) or len(domain) != n or any(
        not isinstance(iv, list) or len(iv) != 2 for iv in domain
    ):
        raise SchemaError([f"domain must list {n} [lo, hi] pairs"])
    shared: dict = {}  # one node per structure across the fields

    def optional(key, default, validate, *args):
        try:
            return validate(data.get(key, default), key, *args)
        except ValidationError as err:
            validation_problems.extend(err.problems)
            return default

    seed = optional("seed", 0, whole_number)
    samples = optional("samples", 32, whole_number, 1)
    tolerance = optional("tolerance", 1e-9, valid_tolerance)
    box = [[finite_number(v, f"domain[{i}]") for v in iv] for i, iv in enumerate(domain)]

    try:
        chart = ch.Chart(tuple(coords), tuple(map(tuple, box)), seed=seed)
    except Exception as err:  # noqa: BLE001 - surfaced as a schema problem
        raise SchemaError([f"chart: {err}"]) from err

    params = MetallicParams(finite_number(data["p"], "p"), finite_number(data["q"], "q"))

    metric = _parse_matrix(data["metric"], (n, n), coords, "metric", parse_problems, shared)

    j_raw = data["J"]
    projection = None
    if isinstance(j_raw, dict):
        if set(j_raw.keys()) != {"projection"}:
            raise SchemaError(["J object form must have exactly the 'projection' key"])
        projection = _parse_matrix(
            j_raw["projection"], (n, n), coords, "J.projection", parse_problems, shared
        )
    else:
        J = _parse_matrix(j_raw, (n, n), coords, "J", parse_problems, shared)

    omega = None
    if "omega" in data:
        omega = _parse_matrix(data["omega"], (n,), coords, "omega", parse_problems, shared)

    connection = None
    conn_raw = data.get("connection", "levi-civita")
    if conn_raw != "levi-civita":
        if not isinstance(conn_raw, list):
            raise SchemaError([
                f'connection must be "levi-civita" or a {n}x{n}x{n} array of '
                f"expression strings, got {conn_raw!r}"
            ])
        connection = _parse_matrix(
            conn_raw, (n, n, n), coords, "connection", parse_problems, shared
        )

    suites = data["suites"]
    if not isinstance(suites, list) or not suites:
        raise SchemaError(["suites must be a non-empty list"])
    unknown = [s for s in suites if s not in KNOWN_SUITES]
    if unknown:
        raise SchemaError([f"unknown suite {s!r}" for s in unknown])

    expected_failures = data.get("expected_failures", [])
    if not isinstance(expected_failures, list) or not all(
        isinstance(cid, str) for cid in expected_failures
    ):
        raise SchemaError(["expected_failures must be a list of check ids (strings)"])

    if parse_problems:
        raise ParseError(0, "; ".join(parse_problems))

    # semantic validation against the parsed fields
    if params.q == 0 and ("karaman" in suites or omega is not None):
        validation_problems.append(
            "the semi-symmetric connection inverts J via (1/q)J - (p/q)I and "
            "needs q != 0"
        )
    if "karaman" in suites and omega is None:
        validation_problems.append("the karaman suite needs a 1-form: declare 'omega'")
    if params.discriminant < 0:
        validation_problems.append(
            f"p^2 + 4q = {params.discriminant} < 0: metallic number is not real"
        )
    elif not np.isfinite(params.discriminant):  # inf, or NaN from inf - inf
        validation_problems.append(
            f"p^2 + 4q = {params.discriminant} is not finite, so neither is the metallic number"
        )

    probe = chart.sample_points(min(8, samples))
    rows, cols = np.triu_indices(n, 1)
    try:
        values = ch.eval_exprs(metric, probe)
    except DomainError as err:
        validation_problems.append(f"metric: {err}")
    else:
        # the lower triangle must equal the upper within the projection probes' bound
        gaps = np.abs(values[:, cols, rows] - values[:, rows, cols])
        for pair in np.flatnonzero(gaps.max(axis=0) > PROBE_TOL):
            i, j, worst = rows[pair], cols[pair], int(np.argmax(gaps[:, pair]))
            validation_problems.append(
                f"metric[{j}][{i}] differs from metric[{i}][{j}] by "
                f"{gaps[worst, pair]:.3e} at {tuple(float(v) for v in probe[worst])}: "
                "the metric must be symmetric"
            )
        # positive definite as a run reads g: from its upper triangle
        values[:, cols, rows] = values[:, rows, cols]
        eigmin = np.linalg.eigvalsh(values).min(axis=1)
        if (eigmin <= PROBE_TOL).any():
            witness = probe[int(np.argmin(eigmin))]
            validation_problems.append(
                f"metric: metric not positive definite (min eigenvalue {eigmin.min():.3e}) "
                f"at {tuple(float(v) for v in witness)}"
            )
    # a run reads the upper triangle's nodes on both sides: g is exactly symmetric
    metric[cols, rows] = metric[rows, cols]

    if projection is not None:
        try:
            J = from_projection(projection, params, metric, probe)
        except (NotAProjection, ComplexDiscriminant, DomainError) as err:
            if not isinstance(err, ComplexDiscriminant):  # reported with p and q above
                validation_problems.append(f"J.projection: {err}")
            J = ch.constant_matrix(np.eye(n))

    scenario = ChartScenario(
        name=data["name"],
        chart=chart,
        params=params,
        metric=metric,
        J=J,
        omega=omega,
        connection=connection,
        suites=list(suites),
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        expected_failures=list(expected_failures),
        description=data.get("description", ""),
    )
    # a negative control must name a gating check that the declared suites run
    # here, once: an informative check never fails a run, so it could never be met
    repeated = [cid for cid, count in Counter(expected_failures).items() if count > 1]
    validation_problems += [f"expected failure {cid!r} is repeated" for cid in repeated]
    declared = {c.cid: c.gating for c in CHECKS if c.suite in suites and c.applies(scenario)}
    validation_problems += [
        f"expected failure {cid!r} names "
        + ("an informative check, which never gates" if cid in declared
           else "no check that the scenario's suites run")
        for cid in expected_failures
        if not declared.get(cid)
    ]
    if validation_problems:
        raise ValidationError(validation_problems)
    return scenario
