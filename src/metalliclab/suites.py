"""Suite orchestration: turns a scenario into a deterministic CheckReport.

Every check is declared once, in the table ``CHECKS``: its id, anchor,
tolerance, gating flag, the scenarios it applies to, the named arrays it
reads and its residual; every array once, in ``ARRAYS``, with its producer
and the arrays that producer reads.  One guarded loop runs the checks of
each selected suite in table order, so every declared id appears in the
report exactly once.  Each output of a check (its residual and each detail)
is reduced by one rule declared with the check, the maximum where it
declares none: the loop applies it within a chunk of samples, across
chunks, and to stand a check whose arrays are the same at every sample,
evaluated once on the run's first sample, for all of them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import chart as ch
from . import draws as dr
from . import expr as ex
from . import genbundle as gb
from . import genconn as gc
from . import lifts as lf
from .errors import DomainError, IncompatiblePair, MetallicLabError, ValidationError
from .report import CheckResult, ScenarioReport, largest_entry

if TYPE_CHECKING:
    from .scenario import ChartScenario

# Tolerances pinned per check family; GEOMETRIC (derivative-level
# identities) reads the scenario tolerance, which --tol overrides.
GEOMETRIC = None
TOL_ALGEBRAIC = 1e-10
TOL_NIJ_IDENTITY = 1e-8
TOL_CURVATURE_DISPLAY = 1e-7
TOL_COUNT = 0.5  # the residual counts failures, so a single one fails the check
TOL_COMPATIBLE = 1e-8  # the largest gJ asymmetry the derived family accepts

# The largest tolerance a scenario file or --tol may set.  The smallest
# residual of a shipped negative control is 2.88 at the declared 32 samples
# (seeds 1-3) and 0.052 at a single sample (seeds 0-39), so no tolerance
# that is accepted passes a control.
MAX_TOLERANCE = 1e-2

FIBRE_PER_BASE = 4
_SHARP_SIGN = {"jp": 1.0, "jc": -1.0}  # upper block (sign I - J^2) g^-1


# One validator per numeric input, shared by the scenario file and the
# overrides of run_suites, which the CLI flags set: each returns the value
# or raises a ValidationError naming ``field``.


def finite_number(value, field: str) -> float:
    # a bool is an int to isinstance; NaN, the infinities and ints beyond the
    # float range fail the comparison
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def valid_tolerance(value, field: str = "tolerance") -> float:
    if not 0 < finite_number(value, field) <= MAX_TOLERANCE:
        rule = f"positive and at most {MAX_TOLERANCE:g}"
        raise ValidationError(f"{field} must be {rule}, got {value!r}")
    return float(value)


def whole_number(value, field: str, least: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        rule = "a positive" if least else "a non-negative"
        raise ValidationError(f"{field} must be {rule} integer, got {value!r}")
    return value


class ScenarioContext(dict):
    """The memo of one index range of a scenario's samples: name -> array.

    The samples are the sample points first .. first + samples - 1 of
    ``seed``, or ``points`` given outright.  ``ctx[name]`` is the array
    ``name`` of ``ARRAYS`` at them, made on first use by its producer from
    the arrays that producer reads, and held until a run drops it (see
    _plan).  Every random draw is addressed by sample index too, so a
    context holds the arrays of its own samples only, whichever range of a
    run it is.

    A chunk of a run takes each array that is the same at every sample
    (see _varies) from ``once``, the context of the run's first sample, as a
    view broadcast over its samples; ``varies`` is the memo of _varies.
    """

    def __init__(
        self,
        scenario: ChartScenario,
        samples: int | None = None,
        seed: int | None = None,
        first: int = 0,
        points: np.ndarray | None = None,
        once: ScenarioContext | None = None,
    ):
        super().__init__()
        self.scenario = scenario
        self.seed = seed if seed is not None else scenario.seed
        self.first = first
        self.chart = scenario.chart
        self.params = scenario.params
        if points is None:
            count = samples if samples is not None else scenario.samples
            points = self.chart.sample_points(count, seed=self.seed, first=first)
        self.points = points
        self.once = once
        self.varies: dict = {}

    def __missing__(self, name: str):
        once = self.once
        if once is not None and not _varies(self.scenario, (name,), once.varies):
            held = once[name]
            value = np.broadcast_to(held, (len(self.points), *held.shape[1:]))
        else:
            make, reads = _producer(self.scenario, name)
            value = make(self, *[self[read] for read in reads])
        self[name] = value
        return value


# ------------------------------------------------------------------
# the named arrays: producers (ctx, *the arrays they read) -> array
# ------------------------------------------------------------------


def _producer(scenario: ChartScenario, name: str) -> tuple:
    """(make, reads) of the array ``name``.  Without an explicit connection
    the scenario's connection is the Levi-Civita one, and each of its arrays
    is the Levi-Civita array itself.  A leaf field's array reads ``points``
    unless every entry of the field is a constant."""
    if scenario.connection is None and "[scenario" in name:
        return _same, (name.replace("[scenario", "[lc"),)
    if name in _LEAVES:
        comps = getattr(scenario, _LEAVES[name][0])
        if all(isinstance(entry, ex.Const) for entry in comps.flat):
            return ARRAYS[name][0], ()
    return ARRAYS[name]


def _varies(scenario: ChartScenario, names, memo: dict) -> bool:
    """Whether any of the arrays ``names`` is or reads ``points``, through
    the producers of what it reads: whether it can differ between samples."""
    for name in names:
        if name not in memo:
            memo[name] = name == "points" or _varies(scenario, _producer(scenario, name)[1], memo)
        if memo[name]:
            return True
    return False


def _same(ctx, array):
    """An alias's producer, and the residual of a check that reads its residual array."""
    return array


def _leaf(ctx, *points, field: str, order: int = 0) -> np.ndarray:
    """The scenario's ``field`` (metric, J, omega, connection), or its partials
    to ``order``, at the context's samples."""
    return ch.eval_exprs(getattr(ctx.scenario, field), ctx.points, order)


def _lc_dgamma(ctx, d2g, dg, gamma, ginv) -> np.ndarray:
    """d_a Gamma^l_{jk} of the Levi-Civita connection, [m, a, l, j, k]."""
    m, n = ctx.points.shape
    dg_gamma = dg @ gamma.reshape(m, 1, n, n * n)
    return ch.christoffel(ginv[:, None], d2g, dg_gamma)


def _karaman_gamma(ctx, g, ginv, J, omega, gamma) -> np.ndarray:
    """D = Levi-Civita + F for the 1-form omega."""
    return gamma + gc.karaman_connection(g, ginv, J, ctx.params, omega)


def _diagonal(ctx, A, D=None) -> np.ndarray:
    """blockdiag(A, D), D = A* by default: Jm and ghat, and their partials."""
    return gb.blocks(A, 0.0, 0.0, np.swapaxes(A, -1, -2) if D is None else D)


def _gen(ctx, J, g, K, ginv, label: str) -> np.ndarray:
    """Jp or Jc (``label`` "jp" or "jc") at the samples."""
    upper = gb.sharp_block(_SHARP_SIGN[label], K, ginv)
    return gb.blocks(J, upper, g, -np.swapaxes(J, -1, -2))


def _gen_jet(ctx, dJ, dg, K, dginv, dK, ginv, label: str) -> np.ndarray:
    """The first partials [m, k, 2n, 2n] of Jp or Jc."""
    # d_k (s I - K) g^-1 = (s I - K) d_k g^-1 - (d_k K) g^-1
    upper = gb.sharp_block(_SHARP_SIGN[label], K[:, None], dginv)
    upper -= dK @ ginv[:, None]
    return gb.blocks(dJ, upper, dg, -np.swapaxes(dJ, -1, -2))


def _f_plus(ctx, g, J) -> np.ndarray:
    """F^+ = (2J - pI) / (2 sigma - p) of a compatible pair.

    IncompatiblePair names the first sample whose gJ is not symmetric, unless
    the metric is singular at or before it: SingularMetric names that one.
    """
    asymmetry = np.abs(_skew(g @ J)).max(axis=(-2, -1))
    incompatible = asymmetry > TOL_COMPATIBLE
    if incompatible.any():
        first = int(incompatible.argmax())
        gb.metric_inverse(g[: first + 1], ctx.points[: first + 1])
        worst, point = asymmetry[first], ctx.points[first]
        raise IncompatiblePair(f"gJ asymmetry {worst:.3e} exceeds {TOL_COMPATIBLE:g}", point)
    params = ctx.params
    return (2.0 * J - params.p * np.eye(J.shape[-1])) / (2.0 * params.sigma - params.p)


# ------------------------------------------------------------------
# the check table and its loop
# ------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """How a check reduces one of its outputs: ``reduce(value, rows, first)``
    takes an array whose leading axis is ``rows`` rows, or an iterable of
    such arrays, to (value, row), row the first that holds the value,
    numbered from ``first``, or inf; ``fold(before, after)`` gives the pair
    over the rows of both, ``before`` the earlier or two arrays over the same
    rows; ``repeat(pair, count)`` gives the pair over ``count`` copies."""

    reduce: Callable
    fold: Callable
    repeat: Callable = lambda pair, count: pair


def _by_row(a, rows: int) -> np.ndarray:
    """One row per point: a lifted [m, F, ...] array has m * F rows."""
    return a.reshape(rows, a.size // max(rows, 1))


def _first_largest(before: tuple, after: tuple) -> tuple:
    return after if (after[0], -after[1]) > (before[0], -before[1]) else before


def _largest(value, rows: int, first: int = 0) -> tuple:
    """(largest |entry|, its first row) of an array, or over arrays reduced one
    at a time (``map`` holds none); (0.0, inf) without entries; see largest_entry."""
    if not isinstance(value, np.ndarray):
        pairs = map(lambda a: _largest(a, rows, first), value)
        return functools.reduce(_first_largest, pairs, (0.0, math.inf))
    largest, row = largest_entry(_by_row(value, rows))
    return largest, math.inf if row is None else first + row


def _unzipped(pairs) -> tuple:
    pairs = list(pairs)
    return [value for value, _ in pairs], [row for _, row in pairs]


def _count(a, rows: int, first: int = 0) -> tuple:
    """The sum of the entries, and the first row that holds a non-zero one."""
    a = _by_row(a, rows)
    nonzero = (a != 0).any(axis=1)
    return float(a.sum()), (first + int(nonzero.argmax()) if nonzero.any() else math.inf)


# The largest |entry|, NaN read as inf, the first row on a tie: the default.
MAX = Rule(_largest, _first_largest)
# ([the largest entry of each entry, ...], [its row, ...]) of a list whose
# entries are arrays or iterables of arrays.
MAX_EACH = Rule(
    lambda value, rows, first=0: _unzipped(map(lambda e: _largest(e, rows, first), value)),
    lambda before, after: _unzipped(map(_first_largest, zip(*before), zip(*after))),
)
# The smallest entry, a NaN winning as in numpy; + 0.0 reads a zero as
# +0.0, as numpy's minimum of 0.0 and -0.0 depends on their order.
MIN = Rule(
    lambda a, rows, first=0: (float(np.min(a)) + 0.0 if np.size(a) else math.inf, math.inf),
    lambda before, after: (float(np.minimum(before[0], after[0])), math.inf),
)
# A count, its row the first that holds a non-zero entry.
SUM = Rule(
    _count,
    lambda before, after: (before[0] + after[0], min(before[1], after[1])),
    lambda pair, count: (pair[0] * count, pair[1]),
)
# The last row, as a list.
LAST = Rule(
    lambda a, rows, first=0: (_by_row(a, rows)[-1].tolist() if np.size(a) else None, math.inf),
    lambda before, after: before if after[0] is None else after,
)


@dataclass(frozen=True)
class Check:
    """One declared check.

    ``residual(ctx, *arrays)`` takes the arrays of ``ARRAYS`` named in
    ``reads``, in that order.  A plain check gives its residual: an array
    whose leading axis is the rows of the array named ``points``, or a list
    of such arrays.  Any other gives a dict of its outputs by name, a value
    such an array or a list or generator of them; ``rules`` names the Rule
    of each, the residual's MAX by default.
    Without a residual output the residual is the largest entry of them all.
    ``details`` are constant details.  ``applies(scenario)`` reads the
    scenario's params and 1-form: a check it rejects is not declared for it.
    """

    cid: str
    anchor: str
    residual: Callable
    tol: float | None = GEOMETRIC
    gating: bool = True
    applies: Callable = lambda scenario: True
    reads: tuple = ()
    points: str = "points"
    rules: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @cached_property
    def suite(self) -> str:
        return self.cid.split("/", 1)[0]

    def rule(self, name: str) -> Rule:
        """The rule of the output ``name``; a detail has one only if declared."""
        return self.rules.get(name, MAX) if name == "residual" else self.rules[name]


@dataclass
class Measured:
    """A check's outputs over some rows of a run: output name -> (value, row)
    of its rule, each row numbered from the run's first; the point of the
    residual's row; and the check's constant details, or its error."""

    outputs: dict
    witness: tuple | None = None
    notes: dict = field(default_factory=dict)
    raised: bool = False  # the evaluation raised; see _fold

    @property
    def residual(self) -> float:
        return self.outputs["residual"][0]

    @property
    def details(self) -> dict:
        return {**{k: p[0] for k, p in self.outputs.items() if k != "residual"}, **self.notes}


def _reduce(check: Check, out, rows: int, first: int) -> dict:
    """Each output of ``out`` reduced by its rule: name -> (value, row)."""
    named = {"residual": out} if isinstance(out, (np.ndarray, list)) else out
    outputs = {name: check.rule(name).reduce(value, rows, first) for name, value in named.items()}
    if "residual" not in outputs:  # the largest entry of all the outputs
        pairs = [
            entry
            for name, pair in outputs.items()
            for entry in (zip(*pair) if check.rule(name) is MAX_EACH else [pair])
        ]
        outputs["residual"] = functools.reduce(_first_largest, pairs, (0.0, math.inf))
    return outputs


def _evaluate(check: Check, ctx: ScenarioContext) -> Measured:
    """Run one check on the arrays it reads, made inside its guard, reduce its
    outputs there, and name the point of the residual's row; an error fails it."""
    try:
        out = check.residual(ctx, *[ctx[name] for name in check.reads])
        points = ctx[check.points]
        first = ctx.first * (len(points) // len(ctx.points))
        outputs = _reduce(check, out, len(points), first)
    except DomainError as err:
        witness, notes = err.point, {}
    except MetallicLabError as err:
        witness, notes = err.point, {"error": str(err)}
    except MemoryError:
        witness, notes = None, {"error": "out of memory"}
    else:
        row = outputs["residual"][1]
        witness = None if row == math.inf else tuple(float(v) for v in points[row - first])
        return Measured(outputs, witness, check.details)
    return Measured({"residual": (math.inf, math.inf)}, witness, notes, raised=True)


def _fold(check: Check, before: Measured, after: Measured) -> Measured:
    """The result over ``before``'s rows, then ``after``'s: the first that raised, or the rules."""
    if before.raised or after.raised:
        return before if before.raised else after
    outputs = {
        name: check.rule(name).fold(pair, after.outputs[name])
        for name, pair in before.outputs.items()
    }
    earlier = outputs["residual"][1] == before.outputs["residual"][1]
    return Measured(outputs, before.witness if earlier else after.witness, before.notes)


def _result(check: Check, out: Measured, tol: float) -> CheckResult:
    tol = tol if check.tol is GEOMETRIC else check.tol
    fields = (check.cid, check.anchor, out.residual, tol, out.witness)
    return CheckResult(*fields, gating=check.gating, details=out.details)


def _declared(suite: str, scenario: ChartScenario) -> list:
    return [check for check in CHECKS if check.suite == suite and check.applies(scenario)]


def _plan(scenario: ChartScenario, checks: list) -> dict:
    """cid -> the arrays whose last use is the check's, for ``checks`` run in
    that order.  One forward walk holds each array from its first use: a
    check uses what it reads, and an array not yet held is built there, its
    producer using what it reads.  So an input goes right after the array it
    feeds is built, unless a later check or build uses it."""
    last = {}
    for check in checks:
        pending = [*check.reads, check.points]
        while pending:
            name = pending.pop()
            if name not in last:  # built here, from what its producer reads
                pending += _producer(scenario, name)[1]
            last[name] = check.cid
    plan = {check.cid: [] for check in checks}
    for name, cid in last.items():
        plan[cid].append(name)
    return plan


def _run_suite(ctx: ScenarioContext, checks: list, last: dict) -> list:
    """(check, Measured) for ``checks`` of one suite, in table order; after
    each check the context drops the arrays whose last use is that check."""
    results = []
    for check in checks:
        results.append((check, _evaluate(check, ctx)))
        for name in last[check.cid]:
            ctx.pop(name, None)
    return results


# ------------------------------------------------------------------
# core, and residuals that several suites share
# ------------------------------------------------------------------


def _skew(a: np.ndarray) -> np.ndarray:
    return a - np.swapaxes(a, -1, -2)


def _eye2(ctx: ScenarioContext) -> np.ndarray:
    return np.eye(2 * ctx.chart.dim)


def _metallic(ctx: ScenarioContext, X: np.ndarray) -> np.ndarray:
    """X^2 - p X - q I for a stack of 2n x 2n structures."""
    out = X @ X
    out -= ctx.params.p * X
    diagonal = np.arange(X.shape[-1])
    out[..., diagonal, diagonal] -= ctx.params.q
    return out


def _nijenhuis_identity(ctx, DJ, T, J, NJ) -> np.ndarray:
    """Bracket N_J minus its covariant expansion plus Phi(T) for a connection."""
    return NJ - gc.covariant_nijenhuis_rhs(DJ, T, J)


def _dhat(ctx, gamma, X, dX, label: str) -> np.ndarray:
    """Dhat of Jm, Jp, Jc or ghat for the connection gamma, in every direction."""
    dhat = gc.dhat_metric if label == "ghat" else gc.dhat_endo
    return dhat(gamma, X, dX)


def _real_roots(scenario: ChartScenario) -> bool:
    return scenario.params.discriminant > 0


def _invertible(scenario: ChartScenario) -> bool:
    return scenario.params.q != 0


def _has_karaman(scenario: ChartScenario) -> bool:
    """The D = nabla + F system needs a 1-form and q != 0."""
    return scenario.omega is not None and scenario.params.q != 0


def _metric_spd(ctx: ScenarioContext, g: np.ndarray) -> dict:
    eigmin = np.linalg.eigvalsh(g).min(axis=-1)
    return {"residual": ~(eigmin > 1e-10), "min_eigenvalue": eigmin}


def _bianchi(ctx: ScenarioContext, R: np.ndarray) -> np.ndarray:
    out = R + np.einsum("mljki->mlijk", R)
    out += np.einsum("mlkij->mlijk", R)
    return out


# ------------------------------------------------------------------
# genbundle (matrix algebra on the stacks of samples)
# ------------------------------------------------------------------


def _neutral_signature(ctx: ScenarioContext, eigenvalues: np.ndarray) -> dict:
    n = ctx.chart.dim
    n_plus, n_minus = gb.neutral_signature(eigenvalues, ctx.points)
    return {
        "residual": (n_plus != n) | (n_minus != n),
        "signature": np.stack([n_plus, n_minus], axis=-1),
    }


def _calibration(ctx: ScenarioContext, jp, jc, eigenvalues) -> dict:
    """Jp anti-invariant and Jc invariant under the natural pairing, the form
    (., Jp .) non-degenerate and (., Jc .) positive definite: a form that
    fails reads 2 tol at its sample, NaN included."""
    M = gb.pairing_matrix(ctx.chart.dim)
    flag = TOL_ALGEBRAIC * 2.0
    min_eig = np.abs(eigenvalues).min(axis=-1)
    positive = gb.pairing_positive_definite(jc, TOL_ALGEBRAIC)
    return {
        "jp_anti_invariance": [
            np.swapaxes(jp, -1, -2) @ M @ jp + M,
            np.where(min_eig > TOL_ALGEBRAIC, 0.0, flag),
        ],
        "jc_invariance": [
            np.swapaxes(jc, -1, -2) @ M @ jc - M,
            np.where(positive, 0.0, flag),
        ],
    }


def _converted(ctx: ScenarioContext, sign: float, X: np.ndarray) -> np.ndarray:
    """The product conversion sign (2 sigma - p)/2 X + p/2 I of a structure X."""
    gap = 2.0 * ctx.params.sigma - ctx.params.p
    return sign * (gap / 2.0) * X + ctx.params.p / 2.0 * np.eye(X.shape[-1])


def _derived_family(ctx: ScenarioContext, f_plus, J, jp, ginv, jm) -> dict:
    """The metallic and block identities of Jm^+- (the conversions of Jp) and
    of J^+-(Fhat^+), Fhat^+ = blockdiag(F^+, F^+*) for F^+ = (2J - pI) / (2 sigma - p).

    Each member is built once, and each residual array in turn as its rule
    reduces it, so one is held at a time.  F^- = -F^+ and negation is exact, so
    J^-(Fhat^-) is J^+(Fhat^+) and J^+(Fhat^-) is J^-(Fhat^+) bit for bit:
    the F^- members are not built.
    """
    n = ctx.chart.dim
    params = ctx.params
    eye = np.eye(n)
    gap = 2.0 * params.sigma - params.p
    pjqi = params.p * J + (params.q - 1.0) * eye
    mirror = params.p * eye - J
    jm_plus, jm_minus = _converted(ctx, 1.0, jp), _converted(ctx, -1.0, jp)
    fhat_plus = gb.blocks(f_plus, 0.0, 0.0, np.swapaxes(f_plus, -1, -2))
    j_plus, j_minus = _converted(ctx, 1.0, fhat_plus), _converted(ctx, -1.0, fhat_plus)

    def blocks():
        # corrected reading: the off-diagonal blocks carry (2s-p)/2
        yield jm_plus[:, :n, n:] + gap / 2.0 * pjqi @ ginv
        yield fhat_plus @ fhat_plus - _eye2(ctx)
        yield j_plus - jm
        yield j_minus - gb.blocks(mirror, 0.0, 0.0, np.swapaxes(mirror, -1, -2))

    return {
        "metallic_residual": map(partial(_metallic, ctx), (jm_plus, jm_minus, j_plus)),
        "block_residual": blocks(),
    }


def _fhat(ctx: ScenarioContext, J, jm) -> np.ndarray:
    """0 at the samples where Df = J is singular: they have no push-forward."""
    keep = np.abs(np.linalg.det(J)) >= 1e-12
    fhat, kept = gb.fhat_matrix(J[keep]), jm[keep]
    out = np.zeros(jm.shape)
    out[keep] = fhat @ kept - kept @ fhat
    return out


# ------------------------------------------------------------------
# genconn
# ------------------------------------------------------------------


def _random_sections(coefficients, points):
    """Values (m, count, 2n) and partials (m, count, n, 2n) at the ``points``
    of sections whose components are c0 + c1 . x, one row [c0, c1 ...] of
    ``coefficients`` [count, 2n, n + 1] per component."""
    c0, c1 = coefficients[..., 0], coefficients[..., 1:]
    values = c0 + np.einsum("saj,mj->msa", c1, points)
    dc = c1.transpose(0, 2, 1)
    return values, np.broadcast_to(dc, (len(points), *dc.shape))


def _bracket_leibniz(ctx: ScenarioContext, gamma: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """[s, f t] - f [s, t] - X(f) t for pairs of random sections s, t, X the
    vector part of s and f = c0 + c1 . x, each coefficient uniform in [-1, 1):
    the draws of stream 2 of the seed, the sections' in the order of their
    components, then f's.

    Antisymmetry is not checked: [s, t] is a - b and [t, s] is b - a with
    the same a and b, so [s, t] + [t, s] is exactly 0.0 on any input.
    """
    n = ctx.chart.dim
    rows = dr.uniform((8 * n + 1) * (n + 1), ctx.seed, stream=2).reshape(8 * n + 1, n + 1)
    values, partials = _random_sections(rows[:-1].reshape(4, 2 * n, n + 1), pts)
    a, b = np.triu_indices(4, 1)
    s, ds, t, dt = values[:, a], partials[:, a], values[:, b], partials[:, b]
    st = gc.nabla_bracket(gamma, s, ds, t, dt)
    c0, c1 = rows[-1, 0], rows[-1, 1:]
    f = (c0 + pts @ c1)[:, None, None]
    ft = f * t
    dft = c1[:, None] * t[:, :, None] + f[..., None] * dt
    xf = (s[..., :n] @ c1)[..., None]
    return gc.nabla_bracket(gamma, s, ds, ft, dft) - f * st - xf * t


def _jm_mixed(ctx: ScenarioContext, DJ, nij, J) -> np.ndarray:
    n = ctx.chart.dim
    gap = nij[:, :, :n, n:].copy()
    # N(d_i, dx^j) against beta((nabla_{J d_i} J) - (nabla_i J) J) with
    # beta = dx^j: covector_c = J^a_i DJ[a, j, c] - DJ[i, j, s] J^s_c
    along_J = (np.swapaxes(J, -1, -2) @ DJ.reshape(len(J), n, -1)).reshape(DJ.shape)
    gap[:, n:] -= (along_J - DJ @ J[:, None]).transpose(0, 3, 1, 2)
    return gap


# ------------------------------------------------------------------
# karaman
# ------------------------------------------------------------------


def _torsion_gap(ctx: ScenarioContext, T, J, omega) -> np.ndarray:
    return T - gc.torsion_closed_form_values(J, ctx.params, omega)


def _torsion_lemma(ctx: ScenarioContext, T, J) -> np.ndarray:
    """T(J d_i, d_j) and T(d_i, J d_j) against J T(d_i, d_j), [m, k, i, j]."""
    JT = (J @ T.reshape(T.shape[:2] + (-1,))).reshape(T.shape)
    lemma1 = np.swapaxes(J[:, None], -1, -2) @ T - JT
    lemma2 = T @ J[:, None] - JT
    return np.concatenate([lemma1.reshape(len(J), -1), lemma2.reshape(len(J), -1)], axis=1)


def _omega_sweep(ctx: ScenarioContext, g, ginv, J, dg, gamma, jm, djm):
    """The residual arrays of the sweep, one tuple for each 1-form in turn.

    Every array the sweep reads is affine in the value of omega at a sample,
    so it vanishes for every 1-form if and only if it vanishes for omega = 0
    and for the n coordinate 1-forms e_k.  Each form's D and its tensors are
    the table's [karaman] arrays, built in a context of the sweep's samples
    that holds what the sweep reads and that form as ``omega``.
    """
    for row in np.eye(ctx.chart.dim + 1, ctx.chart.dim, -1):  # 0, then e_1 ... e_n
        omega = np.broadcast_to(row, ctx.points.shape)
        form = ScenarioContext(ctx.scenario, seed=ctx.seed, first=ctx.first, points=ctx.points)
        form.update(g=g, ginv=ginv, J=J, dg=dg, omega=omega)
        form.update({"gamma[lc]": gamma, "gen[jm]": jm, "gen_jet[jm]": djm})
        T, nij = form["torsion[karaman]"], form["gen_nij[karaman,jm]"]
        gap, lemma = _torsion_gap(ctx, T, J, omega), _torsion_lemma(ctx, T, J)
        yield form["nablag[karaman]"], gap, lemma, gc.phi_of_torsion(T, J), nij


# ------------------------------------------------------------------
# lifts (one set of residuals for both flavours)
# ------------------------------------------------------------------


def _fibre_points(ctx: ScenarioContext, points: np.ndarray) -> np.ndarray:
    """The fibre points y [m, FIBRE_PER_BASE, n] over the context's m ``points``."""
    (m, n), F = points.shape, FIBRE_PER_BASE
    return lf.fibre_points(n, m * F, ctx.seed, ctx.first * F).reshape(m, F, n)


def _lift_points(ctx: ScenarioContext, y: np.ndarray) -> np.ndarray:
    """The bundle points (x, y), one row per lifted sample."""
    x = np.broadcast_to(ctx.points[:, None], y.shape)
    return np.concatenate([x, y], axis=-1).reshape(-1, 2 * y.shape[-1])


def _lift_arrays(f: str, metric: tuple) -> dict:
    """The arrays of the ``f`` lift; ``metric`` names g and g^-1 where D = V J^T W
    reads them (tangent).  Only the lifted Nijenhuis tensor reads the partials."""
    L, jet = f"horizontal[{f}]", (*metric, *(f"d{name}" for name in metric))
    return {
        L: (lambda ctx, *a: lf.horizontal(f, *a), ("fibre", "gamma[scenario]")),
        f"frame[{f}]": (lambda ctx, L: lf.frame(L), (L,)),
        f"jbar[{f}]": (lambda ctx, *a: lf.jbar(f, *a), (L, "J", *metric)),
        f"gbar[{f}]": (lambda ctx, *a: lf.gbar(f, *a), (L, "g", "ginv")),
        f"lift_nij[{f}]": (
            lambda ctx, jbar, *a: lf.nijenhuis_values(jbar, lf.djbar(f, *a)),
            (f"jbar[{f}]", "fibre", L, "gamma[scenario]", "J", "dJ", "dgamma[scenario]", *jet),
        ),
    }


# The lifts residuals take the arrays they read, then the flavour.


def _mixed_display(ctx, frame, N_at, J, DJ, flavor) -> dict:
    residual, literal = lf.mixed_display_residual(N_at, frame, J, DJ, flavor)
    if flavor == lf.TANGENT:  # the printed form is the corrected one
        return {"residual": residual}
    return {"residual": residual, "literal_display_residual": literal}


def _horizontal_display(ctx, frame, y, N_at, J, NJ, R, flavor) -> dict:
    """N on horizontal pairs against the displayed formula, the displayed
    curvature read in the house convention.  The detail ``curvature``, the
    largest curvature entry, tells a chart that exercises the curvature term
    from a flat one; R is read over the fibre points of its sample."""
    gap = lf.horizontal_display_match(N_at, frame, J, NJ, R, y, ctx.params, flavor)
    return {"residual": gap, "curvature": np.broadcast_to(R[:, None], y.shape[:2] + R.shape[1:])}


def _lift_checks(flavor: str) -> list:
    """The lifts suite of one flavour, at FIBRE_PER_BASE fibre points per sample.
    Its metric displays read the metric of the fibre, g (tangent) or g^-1
    (cotangent), as ``fibre_g``."""
    fibre_g = "g" if flavor == lf.TANGENT else "ginv"

    def check(name, anchor, residual, reads, tol=GEOMETRIC, gating=True, **rules):
        cid = f"lifts-{flavor}/{name}"
        reads = tuple(read.format(flavor) for read in reads)
        residual = partial(residual, flavor=flavor)
        return Check(cid, anchor, residual, tol, gating, reads=reads, points="lift_points", **rules)

    return [
        check(
            "metallic-equation",
            "lifted structure satisfies J^2 = p J + q I",
            lambda ctx, jbar, flavor: _metallic(ctx, jbar),
            ("jbar[{}]",),
        ),
        check(
            "compatibility",
            "lifted metric is compatible with the lifted structure",
            lambda ctx, gbar, jbar, flavor: _skew(gbar @ jbar),
            ("gbar[{}]", "jbar[{}]"),
        ),
        check(
            "frame-endo-display",
            "lifted structure acts on the horizontal/vertical frame as displayed",
            lambda ctx, *a, flavor: lf.frame_endo_residuals(*a, flavor),
            ("jbar[{}]", "frame[{}]", "J"),
        ),
        check(
            "coordinate-endo-display",
            "lifted structure acts on the coordinate fields as displayed",
            lambda ctx, *a, flavor: lf.coordinate_endo_residuals(*a, flavor),
            ("jbar[{}]", "J", "gamma[scenario]", "fibre"),
        ),
        check(
            "metric-frame-components",
            "lifted metric has the displayed frame components",
            lambda ctx, *a, flavor: lf.frame_metric_residuals(*a),
            ("gbar[{}]", "frame[{}]", "g", fibre_g),
        ),
        check(
            "metric-coordinate-displays",
            "corrected reading of the coordinate metric displays (informative)",
            lambda ctx, *a, flavor: lf.coordinate_metric_residuals(*a, flavor),
            ("gbar[{}]", "g", fibre_g, "gamma[scenario]", "fibre"),
            gating=False,
        ),
        check(
            "nijenhuis-vertical-vertical",
            "N vanishes on pairs of vertical fields",
            lambda ctx, N_at, flavor: N_at[..., ctx.chart.dim :, ctx.chart.dim :],
            ("lift_nij[{}]",),
        ),
        check(
            "nijenhuis-mixed-display",
            "N on horizontal/vertical pairs matches the displayed formula",
            _mixed_display,
            ("frame[{}]", "lift_nij[{}]", "J", "nablaJ[scenario]"),
            rules={"literal_display_residual": MAX},
        ),
        check(
            "nijenhuis-horizontal-display",
            "N on horizontal pairs matches the displayed curvature formula, "
            "its R^l_(a b c) read as the house R^l_(a b c)",
            _horizontal_display,
            ("frame[{}]", "fibre", "lift_nij[{}]", "J", "NJ", "riemann[scenario]"),
            TOL_CURVATURE_DISPLAY,
            rules={"curvature": MAX},
        ),
        check(
            "nijenhuis-vanishes",
            "the lifted structure is integrable (N = 0)",
            lambda ctx, N_at, flavor: N_at,
            ("lift_nij[{}]",),
        ),
    ]


# ------------------------------------------------------------------
# commutation
# ------------------------------------------------------------------


def _commutation_fibre(ctx: ScenarioContext, points: np.ndarray) -> np.ndarray:
    """Fibre points y, one over each of the context's ``points``: those of
    ``lf.fibre_points`` in stream 1, apart from the lifts' own stream 0."""
    return lf.fibre_points(ctx.chart.dim, len(points), ctx.seed, ctx.first, stream=1)


def _commutation(ctx: ScenarioContext, g, ginv, J, gamma, y) -> np.ndarray:
    """The tangent lift at the fibre points y over the samples against the
    cotangent lift at the matching eta = g y."""
    eta = np.einsum("mij,mj->mi", g, y)
    t = lf.horizontal(lf.TANGENT, y[:, None], gamma)
    c = lf.horizontal(lf.COTANGENT, eta[:, None], gamma)
    psi, phi_inverse = lf.forward(lf.TANGENT, t, ginv), lf.backward(lf.COTANGENT, c)
    jbar, jtilde = lf.jbar(lf.TANGENT, t, J, g, ginv), lf.jbar(lf.COTANGENT, c, J)
    return lf.commutation_residual(psi, phi_inverse, jbar, jtilde)


# ------------------------------------------------------------------
# the table: report order, suite by suite
# ------------------------------------------------------------------

CHECKS = (
    Check(
        "core/metric-spd",
        "metric is symmetric positive definite at samples",
        _metric_spd,
        TOL_COUNT,
        reads=("g",),
        rules={"min_eigenvalue": MIN},
    ),
    Check(
        "core/metallic-equation",
        "J^2 = p J + q I",
        lambda ctx, K, J: K - ctx.params.p * J - ctx.params.q * np.eye(ctx.chart.dim),
        TOL_ALGEBRAIC,
        reads=("K", "J"),
    ),
    Check(
        "core/compatibility",
        "g(JX,Y) = g(X,JY)",
        lambda ctx, g, J: _skew(g @ J),
        TOL_ALGEBRAIC,
        reads=("g", "J"),
    ),
    Check(
        "core/levi-civita-metric-parallel",
        "nabla g = 0 for the Levi-Civita connection (Koszul)",
        _same,
        reads=("nablag[lc]",),
    ),
    Check(
        "core/bianchi-first",
        "R^l_(ijk) + R^l_(jki) + R^l_(kij) = 0 (torsion-free)",
        _bianchi,
        reads=("riemann[lc]",),
    ),
    Check(
        "core/locally-metallic",
        "nabla J = 0 for the Levi-Civita connection",
        _same,
        reads=("nablaJ[lc]",),
    ),
    Check(
        "core/nijenhuis-covariant-identity",
        "bracket N_J equals its covariant expansion plus Phi(T)",
        _nijenhuis_identity,
        TOL_NIJ_IDENTITY,
        reads=("nablaJ[scenario]", "torsion[scenario]", "J", "NJ"),
    ),
    Check(
        "genbundle/jm-ghat-symmetric",
        "ghat Jm is symmetric",
        lambda ctx, ghat, jm: _skew(ghat @ jm),
        TOL_ALGEBRAIC,
        reads=("gen[ghat]", "gen[jm]"),
    ),
    Check(
        "genbundle/jm-metallic",
        "Jm^2 = p Jm + q I",
        _metallic,
        TOL_ALGEBRAIC,
        reads=("gen[jm]",),
    ),
    Check(
        "genbundle/jp-squares-to-identity",
        "Jp^2 = I",
        lambda ctx, jp: jp @ jp - _eye2(ctx),
        TOL_ALGEBRAIC,
        reads=("gen[jp]",),
    ),
    Check(
        "genbundle/jc-squares-to-minus-identity",
        "Jc^2 = -I",
        lambda ctx, jc: jc @ jc + _eye2(ctx),
        TOL_ALGEBRAIC,
        reads=("gen[jc]",),
    ),
    Check(
        "genbundle/jc-jp-anticommute",
        "Jc Jp = -Jp Jc",
        lambda ctx, jc, jp: jc @ jp + jp @ jc,
        TOL_ALGEBRAIC,
        reads=("gen[jc]", "gen[jp]"),
    ),
    Check(
        "genbundle/neutral-signature",
        "G(s,t) = (s, Jp t) has signature (n, n)",
        _neutral_signature,
        TOL_COUNT,
        reads=("jp_eigenvalues",),
        rules={"residual": SUM, "signature": LAST},
    ),
    Check(
        "genbundle/calibration",
        "Jp anti-pseudo-calibrated; Jc calibrated for the natural pairing",
        _calibration,
        TOL_ALGEBRAIC,
        reads=("gen[jp]", "gen[jc]", "jp_eigenvalues"),
        rules={"jp_anti_invariance": MAX, "jc_invariance": MAX},
    ),
    Check(
        "genbundle/derived-family",
        "structures derived through the product conversions satisfy "
        "their block and metallic identities",
        _derived_family,
        TOL_ALGEBRAIC,
        applies=_real_roots,
        reads=("f_plus", "J", "gen[jp]", "ginv", "gen[jm]"),
        rules={"metallic_residual": MAX, "block_residual": MAX},
    ),
    Check(
        "genbundle/fhat-with-df-equal-j",
        "blockdiag(Df, (Df^T)^-1) intertwines Jm with itself for Df = J",
        _fhat,
        TOL_ALGEBRAIC,
        gating=False,
        applies=_invertible,
        reads=("J", "gen[jm]"),
        details={
            "informative": "blockdiag(J, (J^T)^-1) commutes with Jm = blockdiag(J, J^T) for "
            "every invertible J, so the residual is rounding only and no scenario input can "
            "make it fail"
        },
    ),
    Check(
        "genconn/nabla-bracket-antisymmetry",
        "[s, f t] = f [s, t] + X(f) t for the connection bracket; "
        "[s, t] = -[t, s] holds exactly by construction and is not checked",
        _bracket_leibniz,
        reads=("gamma[scenario]", "points"),
    ),
    Check(
        "genconn/jm-gen-nijenhuis-mixed-identity",
        "N(X, beta) equals beta((nabla_{JX}J) - (nabla_X J)J)",
        _jm_mixed,
        TOL_NIJ_IDENTITY,
        reads=("nablaJ[scenario]", "gen_nij[scenario,jm]", "J"),
    ),
    *(
        Check(
            f"genconn/{label}-gen-nijenhuis",
            f"generalized Nijenhuis tensor of {label} vanishes on basis sections",
            _same,
            reads=(f"gen_nij[scenario,{label}]",),
        )
        for label in ("jm", "jp", "jc")
    ),
    *(
        Check(
            f"genconn/{label}-integrability-conditions",
            f"the six displayed integrability conditions for {label}",
            conditions,
            reads=(
                *("g", "ginv", "J", "K", "nablag[scenario]", "nablaJ[scenario]"),
                *("nablaK[scenario]", "torsion[scenario]", "NJ"),
            ),
            rules={"per_condition": MAX_EACH},
        )
        for label, conditions in (
            ("jp", lambda ctx, *a: {"per_condition": gc.jp_condition_residuals(*a)}),
            ("jc", lambda ctx, *a: {"per_condition": gc.jc_condition_residuals(*a)}),
        )
    ),
    *(
        Check(
            f"genconn/{label}-reduced-conditions",
            f"torsion-free reduction of the {label} conditions (informative)",
            conditions,
            gating=False,
            reads=("g", "J", "K", "nablaJ[scenario]", "nablaK[scenario]", "NJ"),
            rules={"per_condition": MAX_EACH},
        )
        for label, conditions in (
            ("jp", lambda ctx, *a: {"per_condition": gc.jp_reduced_residuals(*a)}),
            ("jc", lambda ctx, *a: {"per_condition": gc.jc_reduced_residuals(*a)}),
        )
    ),
    Check(
        "genconn/covariant-nijenhuis-identity-levi-civita",
        "N_J expansion holds for the Levi-Civita connection",
        _nijenhuis_identity,
        TOL_NIJ_IDENTITY,
        reads=("nablaJ[lc]", "torsion[lc]", "J", "NJ"),
    ),
    Check(
        "genconn/covariant-nijenhuis-identity-karaman",
        "N_J expansion holds for the semi-symmetric metric connection",
        _nijenhuis_identity,
        TOL_NIJ_IDENTITY,
        applies=_has_karaman,
        reads=("nablaJ[karaman]", "torsion[karaman]", "J", "NJ"),
    ),
    Check(
        "genconn/dhat-jm",
        "Dhat Jm = 0 (tracks nabla J = 0)",
        partial(_dhat, label="jm"),
        reads=("gamma[scenario]", "gen[jm]", "gen_jet[jm]"),
    ),
    Check(
        "genconn/dhat-ghat",
        "Dhat ghat = 0 (tracks nabla g = 0)",
        partial(_dhat, label="ghat"),
        reads=("gamma[scenario]", "gen[ghat]", "gen_jet[ghat]"),
    ),
    *(
        Check(f"karaman/{name}", anchor, residual, applies=_has_karaman, reads=reads)
        for name, anchor, residual, reads in (
            ("metric-parallel", "D g = 0 for every 1-form", _same, ("nablag[karaman]",)),
            (
                "endo-parallel",
                "D J = 0 on a locally decomposable base",
                _same,
                ("nablaJ[karaman]",),
            ),
            (
                "torsion-closed-form",
                "T^D matches its closed form in omega and J",
                _torsion_gap,
                ("torsion[karaman]", "J", "omega"),
            ),
            (
                "torsion-j-commutation",
                "T^D(JX,Y) = J T^D(X,Y) = T^D(X,JY)",
                _torsion_lemma,
                ("torsion[karaman]", "J"),
            ),
            (
                "phi-torsion-vanishes",
                "Phi(T^D) = 0",
                lambda ctx, T, J: gc.phi_of_torsion(T, J),
                ("torsion[karaman]", "J"),
            ),
            (
                "jm-d-integrable",
                "the generalized Nijenhuis tensor of Jm vanishes for D",
                _same,
                ("gen_nij[karaman,jm]",),
            ),
        )
    ),
    *(
        Check(
            f"karaman/dhat-{label}-parallel",
            f"Dhat {label} = 0 for the semi-symmetric connection",
            partial(_dhat, label=label),
            applies=_has_karaman,
            reads=("gamma[karaman]", f"gen[{label}]", f"gen_jet[{label}]"),
        )
        for label in ("jm", "jp", "jc", "ghat")
    ),
    Check(
        "karaman/random-omega-sweep",
        "for every 1-form (omega = 0 and the coordinate 1-forms, by affinity): Dg = 0, "
        "T^D closed form, the torsion commutation, Phi(T^D) = 0 and D-integrability of Jm",
        lambda ctx, *a: {"per_form_max": _omega_sweep(ctx, *a)},
        applies=_has_karaman,
        reads=("g", "ginv", "J", "dg", "gamma[lc]", "gen[jm]", "gen_jet[jm]"),
        rules={"per_form_max": MAX_EACH},
    ),
    *_lift_checks(lf.TANGENT),
    *_lift_checks(lf.COTANGENT),
    Check(
        "commutation/jm-lift-intertwine",
        "the tangent and cotangent lifts are intertwined by Psi Phi^{-1}",
        _commutation,
        reads=("g", "ginv", "J", "gamma[scenario]", "commutation_fibre"),
        points="commutation_points",
    ),
)

KNOWN_SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))

_CONNECTIONS = ("lc", "scenario", "karaman")

# The arrays of the leaf fields: name -> (field, order of the partials).
_LEAVES = {
    "g": ("metric", 0),
    "dg": ("metric", 1),
    "d2g": ("metric", 2),
    "J": ("J", 0),
    "dJ": ("J", 1),
    "omega": ("omega", 0),
    "gamma[scenario]": ("connection", 0),
    "dgamma[scenario]": ("connection", 1),
}

# Every named array once: name -> (producer, the names it reads).  A
# producer takes the context and those arrays, in that order.  One that
# reads sample coordinates or draws by sample index reads ``points``.
ARRAYS = {
    "points": (lambda ctx: ctx.points, ()),
    **{
        name: (partial(_leaf, field=field, order=order), ("points",))
        for name, (field, order) in _LEAVES.items()
    },
    "K": (lambda ctx, J: J @ J, ("J",)),
    "dK": (lambda ctx, J, dJ: dJ @ J[:, None] + J[:, None] @ dJ, ("J", "dJ")),
    "ginv": (lambda ctx, g: gb.metric_inverse(g, ctx.points), ("g",)),
    "dginv": (lambda ctx, ginv, dg: -(ginv[:, None] @ dg @ ginv[:, None]), ("ginv", "dg")),
    "NJ": (lambda ctx, J, dJ: ch.nijenhuis(J, dJ), ("J", "dJ")),
    "gamma[lc]": (lambda ctx, ginv, dg: ch.christoffel(ginv, dg), ("ginv", "dg")),
    "dgamma[lc]": (_lc_dgamma, ("d2g", "dg", "gamma[lc]", "ginv")),
    "gamma[karaman]": (_karaman_gamma, ("g", "ginv", "J", "omega", "gamma[lc]")),
    **{
        f"riemann[{c}]": (lambda ctx, *a: ch.riemann(*a), (f"gamma[{c}]", f"dgamma[{c}]"))
        for c in ("lc", "scenario")
    },
    **{
        f"{name}[{c}]": (make, (f"gamma[{c}]", *reads))
        for c in _CONNECTIONS
        for name, make, reads in (
            ("nablaJ", lambda ctx, *a: gc.nabla_endo(*a), ("J", "dJ")),
            ("nablag", lambda ctx, *a: gc.nabla_metric(*a), ("g", "dg")),
            ("nablaK", lambda ctx, *a: gc.nabla_endo(*a), ("K", "dK")),
            ("torsion", lambda ctx, gamma: gc.torsion(gamma), ()),
        )
    },
    "gen[jm]": (_diagonal, ("J",)),
    "gen_jet[jm]": (_diagonal, ("dJ",)),
    "gen[ghat]": (_diagonal, ("g", "ginv")),
    "gen_jet[ghat]": (_diagonal, ("dg", "dginv")),
    **{f"gen[{s}]": (partial(_gen, label=s), ("J", "g", "K", "ginv")) for s in _SHARP_SIGN},
    **{
        f"gen_jet[{s}]": (partial(_gen_jet, label=s), ("dJ", "dg", "K", "dginv", "dK", "ginv"))
        for s in _SHARP_SIGN
    },
    **{
        f"gen_nij[{c},{s}]": (
            lambda ctx, *a: gc.gen_nijenhuis(*a),
            (f"gamma[{c}]", f"gen[{s}]", f"gen_jet[{s}]"),
        )
        for c in _CONNECTIONS
        for s in ("jm", "jp", "jc")
    },
    "jp_eigenvalues": (lambda ctx, jp: gb.pairing_eigenvalues(jp), ("gen[jp]",)),
    "f_plus": (_f_plus, ("g", "J")),
    # the lifts: FIBRE_PER_BASE fibre points over each sample, shared by both flavours
    "fibre": (_fibre_points, ("points",)),
    "lift_points": (_lift_points, ("fibre",)),
    **_lift_arrays(lf.TANGENT, ("g", "ginv")),
    **_lift_arrays(lf.COTANGENT, ()),
    # the commutation check's fibre points, one over each sample, and (x, y)
    "commutation_fibre": (_commutation_fibre, ("points",)),
    "commutation_points": (lambda ctx, x, y: np.hstack([x, y]), ("points", "commutation_fibre")),
}

# suite name -> callable(ctx, checks, last) -> [(Check, Measured)] over the context's
# samples; one entry per suite, so each suite's time can be measured apart
_SUITE_FUNCS = dict.fromkeys(KNOWN_SUITES, _run_suite)

# A run evaluates its checks over chunks of at most _chunk_length(n) samples,
# each drawn from its index range alone, so its memory is that of one chunk
# whatever the sample count.  The arrays of a sample grow as n^4: one (2n)^4
# float64 tensor sets the bytes per sample.
# _STACK_ENTRIES caps the small n, where the bytes of one tensor say least about
# what all seven suites hold per sample: one 2n x 2n matrix per row of a chunk
# fills at most 128 KiB of float64, 1,024 rows at n = 2, 455 at n = 3 and 256
# at n = 4.  Each chunk pays a fixed cost of about 1-1.5 ms; light n = 2 runs
# were fastest near 1,024 rows, and n = 3 runs about as fast from 384 to 1,024.
_CHUNK_BYTES = 12 * 2**20
_STACK_ENTRIES = 16384


def _sample_bytes(n: int) -> int:
    return 8 * (2 * n) ** 4


def _chunk_length(n: int) -> int:
    return max(1, min(_STACK_ENTRIES // (2 * n) ** 2, _CHUNK_BYTES // _sample_bytes(n)))


def run_suites(
    scenario: ChartScenario,
    suites: list | None = None,
    samples: int | None = None,
    seed: int | None = None,
    tolerance: float | None = None,
) -> ScenarioReport:
    """Run the selected suites (default: the scenario's) in order; deterministic in the seed.

    Each suite runs the checks of ``CHECKS`` declared for the scenario, each
    under one guard, so every declared id is reported exactly once and an
    evaluation error fails only the checks that read the failing input; a
    selected suite that declares no check for the scenario, or that is
    selected twice, is a ValidationError.  ``expected_failures`` ids were
    validated against the table at load; those of suites not selected are
    listed in ``controls_not_run`` and do not gate.

    Every check is pointwise.  A check whose arrays are the same at every
    sample (see _varies) runs once, in a context of the run's first sample,
    and each of its outputs stands for every sample by the closed form of
    its rule (see Rule.repeat).  The others run on each chunk of the samples
    in turn (see _chunk_length), each in a context of its own index range
    that shares the invariant arrays of the first sample's and drops each
    array after its last use (see _plan); each check's results are folded
    by its rules (see _fold): the report is the one a single chunk gives.
    The overrides obey the rules of the scenario file's fields, so the CLI
    flags that set them do too; a bad one is a ValidationError.
    """
    samples = scenario.samples if samples is None else whole_number(samples, "samples", 1)
    seed = scenario.seed if seed is None else whole_number(seed, "seed")
    tolerance = scenario.tolerance if tolerance is None else valid_tolerance(tolerance)
    selected = suites if suites else scenario.suites
    declared = {}
    for k, suite in enumerate(selected):
        if suite not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {suite!r}")
        if suite in selected[:k]:
            raise ValidationError(f"suite {suite!r} is selected more than once")
        declared[suite] = _declared(suite, scenario)
        if not declared[suite]:
            raise ValidationError(
                f"suite {suite!r} declares no check for scenario {scenario.name!r}"
            )
    length = _chunk_length(scenario.chart.dim)
    points = scenario.chart.sample_points(min(length, samples), seed=seed)
    once = ScenarioContext(scenario, seed=seed, points=points[:1])
    invariant, varying = {}, {}  # suite -> its checks of each kind
    for suite, checks in declared.items():
        for check in checks:
            kind = varying if _varies(scenario, check.reads, once.varies) else invariant
            kind.setdefault(suite, []).append(check)
    # the invariant checks run first, and keep in ``once`` what the chunks read
    runs = [check for kind in (invariant, varying) for checks in kind.values() for check in checks]
    last = _plan(scenario, runs)
    folded = {}
    # a value that overflows fails its check with inf and a witness: numpy need not warn
    with np.errstate(all="ignore"):
        for suite, checks in invariant.items():
            for check, out in _SUITE_FUNCS[suite](once, checks, last):
                if not out.raised:  # the result of one sample stands for every sample
                    outputs = out.outputs.items()
                    out.outputs = {k: check.rule(k).repeat(p, samples) for k, p in outputs}
                folded[check.cid] = out
        for start in range(0, samples, length) if varying else ():
            count = min(length, samples - start)
            chunk = points if start == 0 else None
            ctx = ScenarioContext(scenario, count, seed, start, chunk, once)
            for suite, checks in varying.items():
                for check, after in _SUITE_FUNCS[suite](ctx, checks, last):
                    before = folded.get(check.cid)
                    folded[check.cid] = after if before is None else _fold(check, before, after)
    checks = [
        _result(check, folded[check.cid], tolerance)
        for suite in selected
        for check in declared[suite]
    ]
    expected = set(scenario.expected_failures)
    for check in checks:
        if check.check_id in expected:
            check.expected_fail = True
    return ScenarioReport(
        scenario_name=scenario.name,
        seed=seed,
        samples=samples,
        suites=list(selected),
        checks=checks,
        controls_not_run=[
            cid for cid in scenario.expected_failures if cid.split("/")[0] not in selected
        ],
    )
