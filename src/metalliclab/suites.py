"""Suite orchestration: turns a scenario into a deterministic CheckReport.

Every check is declared once, in the table ``CHECKS``: its id, anchor,
tolerance, gating flag, the scenarios it applies to and its residual.  One
guarded loop runs the checks of each selected suite in table order, so
every declared id appears in the report exactly once.  A run goes over
chunks of its samples and folds each check's results over them by the
merge rules declared with the check, the maximum where it declares none.
"""

from __future__ import annotations

import operator
import sys
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import chart as ch
from . import genbundle as gb
from . import genconn as gc
from . import lifts as lf
from .errors import DomainError, IncompatiblePair, MetallicLabError, ValidationError
from .report import CheckResult, ScenarioReport, largest_entry, worst_of, worst_sample

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
_FHAT_INFORMATIVE = (
    "blockdiag(J, (J^T)^-1) commutes with Jm = blockdiag(J, J^T) for every invertible "
    "J, so the residual is rounding only and no scenario input can make it fail"
)
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


class ConnBundle:
    """Tensors of one connection at the samples, from its values Gamma_at."""

    def __init__(self, ctx: "ScenarioContext", gamma: np.ndarray):
        # the context owns its bundles; a strong reference back would make a
        # cycle that keeps the context's arrays alive until the cyclic GC runs
        self.ctx = weakref.proxy(ctx)
        self.gamma = gamma
        self._gen_nijenhuis: dict = {}

    @cached_property
    def nabla_J_at(self):
        return gc.nabla_endo(self.gamma, self.ctx.J_at, self.ctx.dJ_at)

    @cached_property
    def nabla_g_at(self):
        return gc.nabla_metric(self.gamma, self.ctx.g_at, self.ctx.dg_at)

    @cached_property
    def nabla_K_at(self):
        return gc.nabla_endo(self.gamma, self.ctx.K_at, self.ctx.dK_at)

    @cached_property
    def torsion_at(self):
        return gc.torsion(self.gamma)

    def gen_nijenhuis(self, label: str) -> np.ndarray:
        """N(e_a, e_b) of the generalized structure ``label``, [m, A, a, b]."""
        if label not in self._gen_nijenhuis:
            self._gen_nijenhuis[label] = gc.gen_nijenhuis(
                self.gamma, *self.ctx.gen_jet(label)
            )
        return self._gen_nijenhuis[label]

    @cached_property
    def condition_inputs(self) -> gc.ConditionInputs:
        ctx = self.ctx
        return gc.ConditionInputs(
            g=ctx.g_at,
            ginv=ctx.ginv_at,
            J=ctx.J_at,
            K=ctx.K_at,
            Dg=self.nabla_g_at,
            DJ=self.nabla_J_at,
            DK=self.nabla_K_at,
            T=self.torsion_at,
            NJ=ctx.NJ_at,
        )


class ScenarioContext:
    """Caches everything the suites share for one index range of a
    scenario's samples.

    The samples are the sample points first .. first + samples - 1 of
    ``seed``, or ``points`` given outright.  The leaf fields (g, J, omega
    and an explicit connection) and their partials, g to second order, are
    evaluated at them on first use.  Everything else is built at most
    once, on first use, from those arrays: g^-1 and its partials, the
    Levi-Civita connection and its partials, the generalized structures and
    their partials, and every tensor of the suites.  Every random draw is
    addressed by sample index too, so a context holds the arrays of its own
    samples only, whichever range of a run it is.
    """

    def __init__(
        self,
        scenario: ChartScenario,
        samples: int | None = None,
        seed: int | None = None,
        first: int = 0,
        points: np.ndarray | None = None,
    ):
        self.scenario = scenario
        self.seed = seed if seed is not None else scenario.seed
        self.first = first
        self.chart = scenario.chart
        self.params = scenario.params
        if points is None:
            count = samples if samples is not None else scenario.samples
            points = self.chart.sample_points(count, seed=self.seed, first=first)
        self.points = points
        self.suite_inputs: dict = {}

    def at(self, comps: np.ndarray, order: int = 0) -> np.ndarray:
        return ch.eval_exprs(comps, self.points, order)

    # keyed caches: ConnBundles by id of their Gamma, generalized structures and
    # jets by label
    _bundles = cached_property(lambda self: {})
    _gen_at = cached_property(lambda self: {})
    _gen_jets = cached_property(lambda self: {})

    @cached_property
    def g_at(self):
        return self.at(self.scenario.metric)

    @cached_property
    def J_at(self):
        return self.at(self.scenario.J)

    @cached_property
    def K_at(self):
        return self.J_at @ self.J_at

    @cached_property
    def dJ_at(self):
        return self.at(self.scenario.J, 1)

    @cached_property
    def dg_at(self):
        return self.at(self.scenario.metric, 1)

    @cached_property
    def dK_at(self):
        J = self.J_at[:, None]
        return self.dJ_at @ J + J @ self.dJ_at

    @cached_property
    def ginv_at(self):
        """g^-1; SingularMetric names the first sample where g is singular."""
        return gb.metric_inverse(self.g_at, self.points)

    @cached_property
    def dginv_at(self):
        """d_a g^-1 = -g^-1 (d_a g) g^-1, [m, a, i, j]."""
        ginv = self.ginv_at[:, None]
        return -(ginv @ self.dg_at @ ginv)

    @cached_property
    def lc_gamma_at(self) -> np.ndarray:
        return ch.christoffel(self.ginv_at, self.dg_at)

    @cached_property
    def lc_dgamma_at(self) -> np.ndarray:
        """d_a Gamma^l_{jk} of the Levi-Civita connection, [m, a, l, j, k]; d2g is not kept."""
        m, n = self.points.shape
        d2g = self.at(self.scenario.metric, 2)
        dg_gamma = self.dg_at @ self.lc_gamma_at.reshape(m, 1, n, n * n)
        return ch.christoffel(self.ginv_at[:, None], d2g, dg_gamma)

    @cached_property
    def gamma_at(self) -> np.ndarray:
        """Values of the scenario connection; the Levi-Civita array when it is one."""
        if self.scenario.connection is None:
            return self.lc_gamma_at
        return self.at(self.scenario.connection)

    def shared(self, make: Callable, *args):
        """``make(self, *args)``, made once per suite on first use.

        The inputs that several checks of a suite read (the lift and its
        Nijenhuis tensor, the karaman parts, the Jp eigenvalues) are made
        inside the guard of the first check that reads them, so an error in
        one fails each such check; the loop drops them after the suite.
        """
        key = (make, args)
        if key not in self.suite_inputs:
            self.suite_inputs[key] = make(self, *args)
        return self.suite_inputs[key]

    def bundle(self, gamma: np.ndarray) -> ConnBundle:
        key = id(gamma)
        if key not in self._bundles:
            self._bundles[key] = ConnBundle(self, gamma)
        return self._bundles[key]

    @cached_property
    def dgamma_at(self) -> np.ndarray:
        """Partials of the scenario connection; the Levi-Civita array when it is one."""
        if self.scenario.connection is None:
            return self.lc_dgamma_at
        return self.at(self.scenario.connection, 1)

    @cached_property
    def lc_riemann_at(self) -> np.ndarray:
        return ch.riemann(self.lc_gamma_at, self.lc_dgamma_at)

    @cached_property
    def riemann_at(self) -> np.ndarray:
        """Curvature of the scenario connection; the Levi-Civita array when it is one."""
        if self.scenario.connection is None:
            return self.lc_riemann_at
        return ch.riemann(self.gamma_at, self.dgamma_at)

    @cached_property
    def NJ_at(self):
        return ch.nijenhuis(self.J_at, self.dJ_at)

    def gen_at(self, label: str) -> np.ndarray:
        """Jm, Jp, Jc or ghat (``label`` "jm", "jp", "jc" or "ghat") at the samples."""
        if label not in self._gen_at:
            J, g = self.J_at, self.g_at
            Jt = np.swapaxes(J, -1, -2)
            if label == "jm":
                parts = (J, 0.0, 0.0, Jt)
            elif label == "ghat":
                parts = (g, 0.0, 0.0, self.ginv_at)
            else:
                upper = gb.sharp_block(_SHARP_SIGN[label], self.K_at, self.ginv_at)
                parts = (J, upper, g, -Jt)
            self._gen_at[label] = gb.blocks(*parts)
        return self._gen_at[label]

    def gen_jet(self, label: str) -> tuple:
        """The values and first partials [m, k, 2n, 2n] of a generalized structure."""
        if label not in self._gen_jets:
            dJ, dg = self.dJ_at, self.dg_at
            dJt = np.swapaxes(dJ, -1, -2)
            if label == "jm":
                parts = (dJ, 0.0, 0.0, dJt)
            elif label == "ghat":
                parts = (dg, 0.0, 0.0, self.dginv_at)
            else:
                # d_k (s I - K) g^-1 = (s I - K) d_k g^-1 - (d_k K) g^-1
                upper = gb.sharp_block(_SHARP_SIGN[label], self.K_at[:, None], self.dginv_at)
                upper -= self.dK_at @ self.ginv_at[:, None]
                parts = (dJ, upper, dg, -dJt)
            self._gen_jets[label] = (self.gen_at(label), gb.blocks(*parts))
        return self._gen_jets[label]

    @cached_property
    def omega_at(self) -> np.ndarray:
        return self.at(self.scenario.omega)

    @cached_property
    def karaman_gamma_at(self) -> np.ndarray:
        """D = Levi-Civita + F for the scenario's 1-form, at the samples."""
        F = gc.karaman_connection(
            self.g_at, self.ginv_at, self.J_at, self.params, self.omega_at
        )
        return self.lc_gamma_at + F


# ------------------------------------------------------------------
# the check table and its loop
# ------------------------------------------------------------------


@dataclass
class Measured:
    """What a residual function gives when it is more than per-sample arrays."""

    residual: float
    witness: tuple | None = None
    details: dict = field(default_factory=dict)
    raised: bool = False  # the evaluation raised; see _fold


# Merge rules of the Measured details over chunks of samples: each takes the
# value over the earlier samples and the value over the later ones.  The
# minimum and maximum are numpy's, so a NaN wins as it does in the reductions
# that made the values, and lists merge entry by entry.  A detail with no
# declared rule takes the maximum.
def _last(before, after):
    return after


def _min(before, after):
    return np.minimum(before, after).tolist()


def _max(before, after):
    return np.maximum(before, after).tolist()


@dataclass(frozen=True)
class Check:
    """One declared check.

    ``residual(ctx)`` gives per-sample residual arrays (one array, or a list
    of them) taken at ``points(ctx)``, or a ``Measured``.  ``applies(scenario)``
    reads the scenario's params and 1-form: a check it rejects is not
    declared for that scenario.  ``merge`` names the rule of a detail of the
    ``Measured`` over chunks of samples that does not take the maximum, and
    under "residual" the rule of a residual that counts failures rather than
    takes a maximum (see _fold).
    """

    cid: str
    anchor: str
    residual: Callable
    tol: float | None = GEOMETRIC
    gating: bool = True
    applies: Callable = lambda scenario: True
    points: Callable = lambda ctx: ctx.points
    merge: dict = field(default_factory=dict)

    @cached_property
    def suite(self) -> str:
        return self.cid.split("/", 1)[0]


def _worst(residuals, points: np.ndarray, **details) -> Measured:
    """The largest entry over per-sample residual arrays, and its sample."""
    return Measured(*worst_sample(residuals, points), details)


def _evaluate(check: Check, ctx: ScenarioContext) -> Measured:
    """Run one check; an evaluation error becomes its failed result."""
    try:
        out = check.residual(ctx)
        if not isinstance(out, Measured):
            out = _worst(out, check.points(ctx))
    except DomainError as err:
        out = Measured(float("inf"), err.point, raised=True)
    except MetallicLabError as err:
        out = Measured(float("inf"), details={"error": str(err)}, raised=True)
    except MemoryError:
        out = Measured(float("inf"), details={"error": "out of memory"}, raised=True)
    return out


def _fold(check: Check, before: Measured, after: Measured) -> Measured:
    """The check's result over the samples of ``before`` and then of ``after``.

    The first result that raised decides.  A residual takes the maximum
    with its first worst sample as the witness, or a count its rule in
    ``merge["residual"]`` with the first witness; each detail takes its
    rule in ``merge``, the maximum by default.
    """
    if before.raised or after.raised:
        return before if before.raised else after
    rules = check.merge
    if "residual" in rules:
        residual = rules["residual"](before.residual, after.residual)
        witness = before.witness if before.witness is not None else after.witness
    elif after.residual > before.residual:
        residual, witness = after.residual, after.witness
    else:
        residual, witness = before.residual, before.witness
    details = {
        key: rules.get(key, _max)(value, after.details[key])
        for key, value in before.details.items()
    }
    return Measured(residual, witness, details)


def _result(check: Check, out: Measured, tol: float) -> CheckResult:
    tol = tol if check.tol is GEOMETRIC else check.tol
    fields = (check.cid, check.anchor, out.residual, tol, out.witness)
    return CheckResult(*fields, gating=check.gating, details=out.details)


def _declared(suite: str, scenario: ChartScenario) -> list:
    return [check for check in CHECKS if check.suite == suite and check.applies(scenario)]


def _run_suite(ctx: ScenarioContext, checks: list) -> list:
    """(check, Measured) for the checks of one suite, in table order."""
    results = [(check, _evaluate(check, ctx)) for check in checks]
    ctx.suite_inputs.clear()
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


def _nijenhuis_identity(ctx: ScenarioContext, gamma: np.ndarray) -> np.ndarray:
    """Bracket N_J minus its covariant expansion plus Phi(T) for the connection gamma."""
    b = ctx.bundle(gamma)
    rhs = gc.covariant_nijenhuis_rhs(b.nabla_J_at, b.torsion_at, ctx.J_at)
    return ctx.NJ_at - rhs


def _dhat(ctx: ScenarioContext, gamma: np.ndarray, label: str) -> np.ndarray:
    """Dhat of Jm, Jp, Jc or ghat for the connection gamma, in every direction."""
    dhat = gc.dhat_metric if label == "ghat" else gc.dhat_endo
    return dhat(gamma, *ctx.gen_jet(label))


def _real_roots(scenario: ChartScenario) -> bool:
    return scenario.params.discriminant > 0


def _invertible(scenario: ChartScenario) -> bool:
    return scenario.params.q != 0


def _has_karaman(scenario: ChartScenario) -> bool:
    """The D = nabla + F system needs a 1-form and q != 0."""
    return scenario.omega is not None and scenario.params.q != 0


def _first_point(ctx: ScenarioContext, failing: np.ndarray) -> tuple | None:
    """The point of the first sample flagged in ``failing``, or None."""
    return tuple(float(v) for v in ctx.points[failing.argmax()]) if failing.any() else None


def _metric_spd(ctx: ScenarioContext) -> Measured:
    eigmin = np.linalg.eigvalsh(ctx.g_at).min(axis=-1)
    failing = ~(eigmin > 1e-10)
    return Measured(
        float(failing.any()), _first_point(ctx, failing), {"min_eigenvalue": float(eigmin.min())}
    )


def _bianchi(ctx: ScenarioContext) -> np.ndarray:
    R = ctx.lc_riemann_at
    out = R + np.einsum("mljki->mlijk", R)
    out += np.einsum("mlkij->mlijk", R)
    return out


# ------------------------------------------------------------------
# genbundle (matrix algebra on the stacks of samples)
# ------------------------------------------------------------------


def _jp_eigenvalues(ctx: ScenarioContext) -> np.ndarray:
    """One eigensolve of (., Jp .), read by the signature and calibration checks."""
    return gb.pairing_eigenvalues(ctx.gen_at("jp"))


def _neutral_signature(ctx: ScenarioContext) -> Measured:
    n = ctx.chart.dim
    n_plus, n_minus = gb.neutral_signature(ctx.shared(_jp_eigenvalues))
    mismatched = (n_plus != n) | (n_minus != n)
    signature = [int(n_plus[-1]), int(n_minus[-1])]
    witness = _first_point(ctx, mismatched)
    return Measured(float(mismatched.sum()), witness, {"signature": signature})


def _calibration(ctx: ScenarioContext) -> Measured:
    """Jp anti-invariant and Jc invariant under the natural pairing, the form
    (., Jp .) non-degenerate and (., Jc .) positive definite: a form that
    fails reads 2 tol at its sample, NaN included."""
    jp, jc = ctx.gen_at("jp"), ctx.gen_at("jc")
    M = gb.pairing_matrix(ctx.chart.dim)
    flag = TOL_ALGEBRAIC * 2.0
    min_eig = np.abs(ctx.shared(_jp_eigenvalues)).min(axis=-1)
    jp_half = [
        largest_entry(np.swapaxes(jp, -1, -2) @ M @ jp + M),
        largest_entry(np.where(min_eig > TOL_ALGEBRAIC, 0.0, flag)),
    ]
    positive = gb.pairing_positive_definite(jc, TOL_ALGEBRAIC)
    jc_half = [
        largest_entry(np.swapaxes(jc, -1, -2) @ M @ jc - M),
        largest_entry(np.where(positive, 0.0, flag)),
    ]
    details = {
        "jp_anti_invariance": max(value for value, _ in jp_half),
        "jc_invariance": max(value for value, _ in jc_half),
    }
    return Measured(*worst_of(jp_half + jc_half, ctx.points), details)


def _converted(ctx: ScenarioContext, sign: float, X: np.ndarray) -> np.ndarray:
    """The product conversion sign (2 sigma - p)/2 X + p/2 I of a structure X."""
    gap = 2.0 * ctx.params.sigma - ctx.params.p
    return sign * (gap / 2.0) * X + ctx.params.p / 2.0 * np.eye(X.shape[-1])


def _derived_family(ctx: ScenarioContext) -> Measured:
    """The metallic and block identities of Jm^+- (the conversions of Jp) and
    of J^+-(Fhat^+), Fhat^+ = blockdiag(F^+, F^+*) for F^+ = (2J - pI) / (2 sigma - p).

    Each member is built once and reduced to its largest entry at once;
    besides Fhat^+, one member stack is held at a time.  F^- = -F^+ and
    negation is exact, so J^-(Fhat^-) is J^+(Fhat^+) and J^+(Fhat^-) is
    J^-(Fhat^+) bit for bit: the F^- members are not built.
    """
    n = ctx.chart.dim
    params, J = ctx.params, ctx.J_at
    eye, eye2 = np.eye(n), _eye2(ctx)
    gap = 2.0 * params.sigma - params.p
    asymmetry = np.abs(_skew(ctx.g_at @ J)).max(axis=(-2, -1))
    incompatible = asymmetry > TOL_COMPATIBLE
    if incompatible.any():
        first = int(incompatible.argmax())
        # a singular metric up to the first incompatible sample is named first
        gb.metric_inverse(ctx.g_at[: first + 1], ctx.points[: first + 1])
        worst = asymmetry[first]
        raise IncompatiblePair(f"gJ asymmetry {worst:.3e} exceeds {TOL_COMPATIBLE:g}")
    jp = ctx.gen_at("jp")
    f_plus = (2.0 * J - params.p * eye) / gap
    pjqi = params.p * J + (params.q - 1.0) * eye
    mirror = params.p * eye - J
    jm_plus = _converted(ctx, 1.0, jp)
    metallic = [largest_entry(_metallic(ctx, jm_plus))]
    # corrected reading: the off-diagonal blocks carry (2s-p)/2
    block = [largest_entry(jm_plus[:, :n, n:] + gap / 2.0 * pjqi @ ctx.ginv_at)]
    del jm_plus
    metallic.append(largest_entry(_metallic(ctx, _converted(ctx, -1.0, jp))))
    fhat_plus = gb.blocks(f_plus, 0.0, 0.0, np.swapaxes(f_plus, -1, -2))
    block.append(largest_entry(fhat_plus @ fhat_plus - eye2))
    j_plus_of_fplus = _converted(ctx, 1.0, fhat_plus)
    metallic.append(largest_entry(_metallic(ctx, j_plus_of_fplus)))
    block.append(largest_entry(j_plus_of_fplus - ctx.gen_at("jm")))
    del j_plus_of_fplus
    expected_mp = gb.blocks(mirror, 0.0, 0.0, np.swapaxes(mirror, -1, -2))
    block.append(largest_entry(_converted(ctx, -1.0, fhat_plus) - expected_mp))
    details = {
        "metallic_residual": max(value for value, _ in metallic),
        "block_residual": max(value for value, _ in block),
    }
    return Measured(*worst_of(metallic + block, ctx.points), details)


def _fhat(ctx: ScenarioContext) -> Measured:
    # samples where Df = J is singular have no push-forward
    keep = np.abs(np.linalg.det(ctx.J_at)) >= 1e-12
    fhat, jm = gb.fhat_matrix(ctx.J_at[keep]), ctx.gen_at("jm")[keep]
    return _worst(fhat @ jm - jm @ fhat, ctx.points[keep], informative=_FHAT_INFORMATIVE)


# ------------------------------------------------------------------
# genconn
# ------------------------------------------------------------------


def _scenario_bundle(ctx: ScenarioContext) -> ConnBundle:
    return ctx.bundle(ctx.gamma_at)


def _random_sections(ctx, count, seed_shift):
    """Values (m, count, 2n) and partials (m, count, n, 2n) of sections whose
    components are c0 + c1 . x with coefficients drawn uniformly in [-1, 1]."""
    n = ctx.chart.dim
    # one row [c0, c1 . . .] per component, drawn in the order of the components
    draws = np.random.default_rng(ctx.seed + seed_shift).uniform(-1, 1, size=(count, 2 * n, n + 1))
    c0, c1 = draws[..., 0], draws[..., 1:]
    values = c0 + np.einsum("saj,mj->msa", c1, ctx.points)
    partials = np.broadcast_to(c1.transpose(0, 2, 1), (len(ctx.points), count, n, 2 * n))
    return values, partials


def _bracket_leibniz(ctx: ScenarioContext) -> np.ndarray:
    """[s, f t] - f [s, t] - X(f) t for pairs of random sections s, t, X the
    vector part of s and f = c0 + c1 . x.

    Antisymmetry is not checked: [s, t] is a - b and [t, s] is b - a with
    the same a and b, so [s, t] + [t, s] is exactly 0.0 on any input.
    """
    n, pts = ctx.chart.dim, ctx.points
    gamma = ctx.gamma_at
    values, partials = _random_sections(ctx, 4, seed_shift=101)
    a, b = np.triu_indices(4, 1)
    s, ds, t, dt = values[:, a], partials[:, a], values[:, b], partials[:, b]
    st = gc.nabla_bracket(gamma, s, ds, t, dt)
    rng = np.random.default_rng(ctx.seed + 102)
    c0, c1 = rng.uniform(-1, 1), rng.uniform(-1, 1, size=n)
    f = (c0 + pts @ c1)[:, None, None]
    ft = f * t
    dft = c1[:, None] * t[:, :, None] + f[..., None] * dt
    xf = (s[..., :n] @ c1)[..., None]
    return gc.nabla_bracket(gamma, s, ds, ft, dft) - f * st - xf * t


def _jm_mixed(ctx: ScenarioContext) -> np.ndarray:
    n = ctx.chart.dim
    DJ = _scenario_bundle(ctx).nabla_J_at
    gap = _scenario_bundle(ctx).gen_nijenhuis("jm")[:, :, :n, n:].copy()
    # N(d_i, dx^j) against beta((nabla_{J d_i} J) - (nabla_i J) J) with
    # beta = dx^j: covector_c = J^a_i DJ[a, j, c] - DJ[i, j, s] J^s_c
    J = ctx.J_at
    along_J = (np.swapaxes(J, -1, -2) @ DJ.reshape(len(J), n, -1)).reshape(DJ.shape)
    gap[:, n:] -= (along_J - DJ @ J[:, None]).transpose(0, 3, 1, 2)
    return gap


def _conditions(ctx: ScenarioContext, label: str, kind: str) -> Measured:
    """The jp or jc integrability ("condition") or torsion-free ("reduced")
    residual list, with the worst entry of each in the details."""
    residuals = getattr(gc, f"{label}_{kind}_residuals")
    entries = [largest_entry(c) for c in residuals(_scenario_bundle(ctx).condition_inputs)]
    per = [value for value, _ in entries]
    return Measured(*worst_of(entries, ctx.points), {"per_condition": per})


# ------------------------------------------------------------------
# karaman
# ------------------------------------------------------------------


def _karaman_checks(ctx, b: ConnBundle, omega_at: np.ndarray):
    """Residual arrays for one choice of omega (shared by suite and sweep)."""
    pts = ctx.points
    closed = gc.torsion_closed_form_values(ctx.J_at, ctx.params, omega_at)
    T_at = b.torsion_at
    J = ctx.J_at[:, None]
    # T(J d_i, d_j) and T(d_i, J d_j) against J T(d_i, d_j), [m, k, i, j]
    JT = (ctx.J_at @ T_at.reshape(T_at.shape[:2] + (-1,))).reshape(T_at.shape)
    lemma1 = np.swapaxes(J, -1, -2) @ T_at - JT
    lemma2 = T_at @ J - JT
    phi = gc.phi_of_torsion(T_at, ctx.J_at)
    return {
        "dg": b.nabla_g_at,
        "torsion_gap": T_at - closed,
        "lemma": np.concatenate(
            [lemma1.reshape(pts.shape[0], -1), lemma2.reshape(pts.shape[0], -1)], axis=1
        ),
        "phi": phi,
    }


def _karaman_parts(ctx: ScenarioContext) -> dict:
    b = ctx.bundle(ctx.karaman_gamma_at)
    return {"dj": b.nabla_J_at, **_karaman_checks(ctx, b, ctx.omega_at)}


def _karaman_part(ctx: ScenarioContext, key: str) -> np.ndarray:
    return ctx.shared(_karaman_parts)[key]


def _omega_sweep(ctx: ScenarioContext) -> Measured:
    """The residuals of the sweep for every 1-form, with the worst sample.

    Every array the sweep reads is affine in the value of omega at a sample,
    so it vanishes for every 1-form if and only if it vanishes for omega = 0
    and for the n coordinate 1-forms e_k.  omega = 0 makes F = 0, so D is
    the Levi-Civita connection, whose bundle genconn reads too.
    """
    pts = ctx.points
    entries, per_form = [], []
    for k in range(-1, ctx.chart.dim):
        omega_at = np.zeros_like(pts)
        if k < 0:
            b = ctx.bundle(ctx.lc_gamma_at)
        else:
            omega_at[:, k] = 1.0
            F = gc.karaman_connection(ctx.g_at, ctx.ginv_at, ctx.J_at, ctx.params, omega_at)
            b = ConnBundle(ctx, ctx.lc_gamma_at + F)
        arrays = [*_karaman_checks(ctx, b, omega_at).values(), b.gen_nijenhuis("jm")]
        form = [largest_entry(a) for a in arrays]
        per_form.append(max(value for value, _ in form))
        entries += form
    return Measured(*worst_of(entries, pts), {"per_form_max": per_form})


# ------------------------------------------------------------------
# lifts (one set of residuals for both flavours)
# ------------------------------------------------------------------


_LIFT_VALUES = ("g", "ginv", "J", "gamma")


def _lift_inputs(
    ctx: ScenarioContext, names: tuple = _LIFT_VALUES + ("dg", "dJ", "dgamma", "dginv")
) -> dict:
    """The arrays at the base samples that lf.lift takes, by its parameter names."""
    return {name: getattr(ctx, f"{name}_at") for name in names}


def _repeated(values: np.ndarray) -> np.ndarray:
    """Base values at each of the FIBRE_PER_BASE fibre points over a sample."""
    return np.repeat(values, FIBRE_PER_BASE, axis=0)


def _fibre_points(ctx: ScenarioContext) -> np.ndarray:
    """The fibre points y of the context's samples, FIBRE_PER_BASE over each."""
    count, first = len(ctx.points) * FIBRE_PER_BASE, ctx.first * FIBRE_PER_BASE
    return lf.fibre_points(ctx.chart.dim, count, ctx.seed, first)


def _lift(ctx: ScenarioContext, flavor: str) -> tuple:
    """Fibre points y, FIBRE_PER_BASE over each sample, the base values
    repeated to match, and the lift at the points (x, y)."""
    y = _fibre_points(ctx)
    base = {name: _repeated(values) for name, values in _lift_inputs(ctx).items()}
    return y, base, lf.lift(flavor, y, **base)


def _lift_points(ctx: ScenarioContext, flavor: str) -> np.ndarray:
    return np.hstack([_repeated(ctx.points), ctx.shared(_lift, flavor)[0]])


def _lifted_nijenhuis(ctx: ScenarioContext, flavor: str) -> np.ndarray:
    return lf.nijenhuis_values(ctx.shared(_lift, flavor)[2])


# The lifts residuals take (ctx, y, base, lifted, flavor), the shared lift unpacked.


def _frame(ctx, lifted):
    return lifted.forward[:, :, : ctx.chart.dim]


def _frame_endo(ctx, y, base, lifted, flavor):
    return lf.frame_endo_residuals(lifted.jbar, _frame(ctx, lifted), base["J"], flavor)


def _coordinate_endo(ctx, y, base, lifted, flavor):
    return lf.coordinate_endo_residuals(lifted.jbar, base["J"], base["gamma"], y, flavor)


def _metric_frame(ctx, y, base, lifted, flavor):
    frame = _frame(ctx, lifted)
    return lf.frame_metric_residuals(lifted.gbar, frame, base["g"], base["ginv"], flavor)


def _metric_coordinate(ctx, y, base, lifted, flavor):
    g, ginv, gamma = base["g"], base["ginv"], base["gamma"]
    return lf.coordinate_metric_residuals(lifted.gbar, g, ginv, gamma, y, flavor)


def _vertical_vertical(ctx, y, base, lifted, flavor):
    n = ctx.chart.dim
    return ctx.shared(_lifted_nijenhuis, flavor)[:, :, n:, n:]


def _mixed_display(ctx, y, base, lifted, flavor) -> Measured:
    DJ_at = _repeated(_scenario_bundle(ctx).nabla_J_at)
    N_at = ctx.shared(_lifted_nijenhuis, flavor)
    args = (N_at, _frame(ctx, lifted), base["J"], DJ_at, flavor)
    details = {}
    if flavor == lf.COTANGENT:
        literal = lf.mixed_display_residual(*args, literal=True)
        details["literal_display_residual"] = largest_entry(literal)[0]
    return _worst(lf.mixed_display_residual(*args), _lift_points(ctx, flavor), **details)


def _horizontal_display(ctx, y, base, lifted, flavor) -> Measured:
    """N on horizontal pairs against the displayed formula, the displayed
    curvature read in the house convention.  The detail ``curvature``, the
    largest curvature entry, tells a chart that exercises the curvature term
    from a flat one."""
    gap = lf.horizontal_display_match(
        ctx.shared(_lifted_nijenhuis, flavor),
        _frame(ctx, lifted),
        base["J"],
        _repeated(ctx.NJ_at),
        _repeated(ctx.riemann_at),
        y,
        ctx.params,
        flavor,
    )
    curvature = largest_entry(ctx.riemann_at)[0]
    return _worst(gap, _lift_points(ctx, flavor), curvature=curvature)


def _lift_checks(flavor: str) -> list:
    """The lifts suite of one flavour, at FIBRE_PER_BASE fibre points per sample."""

    def check(name, anchor, residual, tol=GEOMETRIC, gating=True, **merging):
        def on_lift(ctx):
            return residual(ctx, *ctx.shared(_lift, flavor), flavor)

        points = partial(_lift_points, flavor=flavor)
        cid = f"lifts-{flavor}/{name}"
        return Check(cid, anchor, on_lift, tol, gating, points=points, **merging)

    return [
        check(
            "metallic-equation",
            "lifted structure satisfies J^2 = p J + q I",
            lambda ctx, y, base, lifted, flavor: _metallic(ctx, lifted.jbar),
        ),
        check(
            "compatibility",
            "lifted metric is compatible with the lifted structure",
            lambda ctx, y, base, lifted, flavor: _skew(lifted.gbar @ lifted.jbar),
        ),
        check(
            "frame-endo-display",
            "lifted structure acts on the horizontal/vertical frame as displayed",
            _frame_endo,
        ),
        check(
            "coordinate-endo-display",
            "lifted structure acts on the coordinate fields as displayed",
            _coordinate_endo,
        ),
        check(
            "metric-frame-components",
            "lifted metric has the displayed frame components",
            _metric_frame,
        ),
        check(
            "metric-coordinate-displays",
            "corrected reading of the coordinate metric displays (informative)",
            _metric_coordinate,
            gating=False,
        ),
        check(
            "nijenhuis-vertical-vertical",
            "N vanishes on pairs of vertical fields",
            _vertical_vertical,
        ),
        check(
            "nijenhuis-mixed-display",
            "N on horizontal/vertical pairs matches the displayed formula",
            _mixed_display,
        ),
        check(
            "nijenhuis-horizontal-display",
            "N on horizontal pairs matches the displayed curvature formula, "
            "its R^l_(a b c) read as the house R^l_(a b c)",
            _horizontal_display,
            TOL_CURVATURE_DISPLAY,
        ),
        check(
            "nijenhuis-vanishes",
            "the lifted structure is integrable (N = 0)",
            lambda ctx, y, base, lifted, flavor: ctx.shared(_lifted_nijenhuis, flavor),
        ),
    ]


# ------------------------------------------------------------------
# commutation
# ------------------------------------------------------------------


def _commutation_fibre(ctx: ScenarioContext) -> np.ndarray:
    """Fibre points y uniform in [-1, 1]^n, one over each of the context's
    samples; the generator skips the n draws of each earlier sample."""
    rng = np.random.default_rng(ctx.seed + 404)
    rng.bit_generator.advance(ctx.first * ctx.chart.dim)
    return rng.uniform(-1.0, 1.0, size=ctx.points.shape)


def _commutation_lifts(ctx: ScenarioContext):
    """The tangent lift at random fibre points y over the samples, the
    cotangent lift at the matching eta = g y, and the points (x, y)."""
    yv = _commutation_fibre(ctx)
    eta = np.einsum("mij,mj->mi", ctx.g_at, yv)
    # the intertwining reads no partials of the lifts: dJ, d2g and dGamma stay unevaluated
    inputs = _lift_inputs(ctx, _LIFT_VALUES)
    tangent = lf.lift(lf.TANGENT, yv, **inputs)
    cotangent = lf.lift(lf.COTANGENT, eta, **inputs)
    return tangent, cotangent, np.hstack([ctx.points, yv])


def _commutation(ctx: ScenarioContext) -> Measured:
    tangent, cotangent, points = _commutation_lifts(ctx)
    res = lf.commutation_residual(tangent.forward, cotangent.backward, tangent.jbar, cotangent.jbar)
    return _worst(res, points)


# ------------------------------------------------------------------
# the table: report order, suite by suite
# ------------------------------------------------------------------

CHECKS = (
    Check(
        "core/metric-spd",
        "metric is symmetric positive definite at samples",
        _metric_spd,
        TOL_COUNT,
        merge={"min_eigenvalue": _min},
    ),
    Check(
        "core/metallic-equation",
        "J^2 = p J + q I",
        lambda ctx: ctx.K_at - ctx.params.p * ctx.J_at - ctx.params.q * np.eye(ctx.chart.dim),
        TOL_ALGEBRAIC,
    ),
    Check(
        "core/compatibility",
        "g(JX,Y) = g(X,JY)",
        lambda ctx: _skew(ctx.g_at @ ctx.J_at),
        TOL_ALGEBRAIC,
    ),
    Check(
        "core/levi-civita-metric-parallel",
        "nabla g = 0 for the Levi-Civita connection (Koszul)",
        lambda ctx: ctx.bundle(ctx.lc_gamma_at).nabla_g_at,
    ),
    Check("core/bianchi-first", "R^l_(ijk) + R^l_(jki) + R^l_(kij) = 0 (torsion-free)", _bianchi),
    Check(
        "core/locally-metallic",
        "nabla J = 0 for the Levi-Civita connection",
        lambda ctx: ctx.bundle(ctx.lc_gamma_at).nabla_J_at,
    ),
    Check(
        "core/nijenhuis-covariant-identity",
        "bracket N_J equals its covariant expansion plus Phi(T)",
        lambda ctx: _nijenhuis_identity(ctx, ctx.gamma_at),
        TOL_NIJ_IDENTITY,
    ),
    Check(
        "genbundle/jm-ghat-symmetric",
        "ghat Jm is symmetric",
        lambda ctx: _skew(ctx.gen_at("ghat") @ ctx.gen_at("jm")),
        TOL_ALGEBRAIC,
    ),
    Check(
        "genbundle/jm-metallic",
        "Jm^2 = p Jm + q I",
        lambda ctx: _metallic(ctx, ctx.gen_at("jm")),
        TOL_ALGEBRAIC,
    ),
    Check(
        "genbundle/jp-squares-to-identity",
        "Jp^2 = I",
        lambda ctx: ctx.gen_at("jp") @ ctx.gen_at("jp") - _eye2(ctx),
        TOL_ALGEBRAIC,
    ),
    Check(
        "genbundle/jc-squares-to-minus-identity",
        "Jc^2 = -I",
        lambda ctx: ctx.gen_at("jc") @ ctx.gen_at("jc") + _eye2(ctx),
        TOL_ALGEBRAIC,
    ),
    Check(
        "genbundle/jc-jp-anticommute",
        "Jc Jp = -Jp Jc",
        lambda ctx: ctx.gen_at("jc") @ ctx.gen_at("jp") + ctx.gen_at("jp") @ ctx.gen_at("jc"),
        TOL_ALGEBRAIC,
    ),
    Check(
        "genbundle/neutral-signature",
        "G(s,t) = (s, Jp t) has signature (n, n)",
        _neutral_signature,
        TOL_COUNT,
        merge={"residual": operator.add, "signature": _last},
    ),
    Check(
        "genbundle/calibration",
        "Jp anti-pseudo-calibrated; Jc calibrated for the natural pairing",
        _calibration,
        TOL_ALGEBRAIC,
    ),
    Check(
        "genbundle/derived-family",
        "structures derived through the product conversions satisfy "
        "their block and metallic identities",
        _derived_family,
        TOL_ALGEBRAIC,
        applies=_real_roots,
    ),
    Check(
        "genbundle/fhat-with-df-equal-j",
        "blockdiag(Df, (Df^T)^-1) intertwines Jm with itself for Df = J",
        _fhat,
        TOL_ALGEBRAIC,
        gating=False,
        applies=_invertible,
        merge={"informative": _last},
    ),
    Check(
        "genconn/nabla-bracket-antisymmetry",
        "[s, f t] = f [s, t] + X(f) t for the connection bracket; "
        "[s, t] = -[t, s] holds exactly by construction and is not checked",
        _bracket_leibniz,
    ),
    Check(
        "genconn/jm-gen-nijenhuis-mixed-identity",
        "N(X, beta) equals beta((nabla_{JX}J) - (nabla_X J)J)",
        _jm_mixed,
        TOL_NIJ_IDENTITY,
    ),
    *(
        Check(
            f"genconn/{label}-gen-nijenhuis",
            f"generalized Nijenhuis tensor of {label} vanishes on basis sections",
            lambda ctx, label=label: _scenario_bundle(ctx).gen_nijenhuis(label),
        )
        for label in ("jm", "jp", "jc")
    ),
    *(
        Check(
            f"genconn/{label}-integrability-conditions",
            f"the six displayed integrability conditions for {label}",
            lambda ctx, label=label: _conditions(ctx, label, "condition"),
        )
        for label in ("jp", "jc")
    ),
    *(
        Check(
            f"genconn/{label}-reduced-conditions",
            f"torsion-free reduction of the {label} conditions (informative)",
            lambda ctx, label=label: _conditions(ctx, label, "reduced"),
            gating=False,
        )
        for label in ("jp", "jc")
    ),
    Check(
        "genconn/covariant-nijenhuis-identity-levi-civita",
        "N_J expansion holds for the Levi-Civita connection",
        lambda ctx: _nijenhuis_identity(ctx, ctx.lc_gamma_at),
        TOL_NIJ_IDENTITY,
    ),
    Check(
        "genconn/covariant-nijenhuis-identity-karaman",
        "N_J expansion holds for the semi-symmetric metric connection",
        lambda ctx: _nijenhuis_identity(ctx, ctx.karaman_gamma_at),
        TOL_NIJ_IDENTITY,
        applies=_has_karaman,
    ),
    Check(
        "genconn/dhat-jm",
        "Dhat Jm = 0 (tracks nabla J = 0)",
        lambda ctx: _dhat(ctx, ctx.gamma_at, "jm"),
    ),
    Check(
        "genconn/dhat-ghat",
        "Dhat ghat = 0 (tracks nabla g = 0)",
        lambda ctx: _dhat(ctx, ctx.gamma_at, "ghat"),
    ),
    *(
        Check(f"karaman/{name}", anchor, partial(_karaman_part, key=key), applies=_has_karaman)
        for key, name, anchor in (
            ("dg", "metric-parallel", "D g = 0 for every 1-form"),
            ("dj", "endo-parallel", "D J = 0 on a locally decomposable base"),
            ("torsion_gap", "torsion-closed-form", "T^D matches its closed form in omega and J"),
            ("lemma", "torsion-j-commutation", "T^D(JX,Y) = J T^D(X,Y) = T^D(X,JY)"),
            ("phi", "phi-torsion-vanishes", "Phi(T^D) = 0"),
        )
    ),
    Check(
        "karaman/jm-d-integrable",
        "the generalized Nijenhuis tensor of Jm vanishes for D",
        lambda ctx: ctx.bundle(ctx.karaman_gamma_at).gen_nijenhuis("jm"),
        applies=_has_karaman,
    ),
    *(
        Check(
            f"karaman/dhat-{label}-parallel",
            f"Dhat {label} = 0 for the semi-symmetric connection",
            lambda ctx, label=label: _dhat(ctx, ctx.karaman_gamma_at, label),
            applies=_has_karaman,
        )
        for label in ("jm", "jp", "jc", "ghat")
    ),
    Check(
        "karaman/random-omega-sweep",
        "for every 1-form (omega = 0 and the coordinate 1-forms, by affinity): Dg = 0, "
        "T^D closed form, the torsion commutation, Phi(T^D) = 0 and D-integrability of Jm",
        _omega_sweep,
        applies=_has_karaman,
    ),
    *_lift_checks(lf.TANGENT),
    *_lift_checks(lf.COTANGENT),
    Check(
        "commutation/jm-lift-intertwine",
        "the tangent and cotangent lifts are intertwined by Psi Phi^{-1}",
        _commutation,
    ),
)

KNOWN_SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))

# suite name -> callable(ctx, checks) -> [(Check, Measured)] over the context's
# samples; one entry per suite, so each suite's time can be measured apart
_SUITE_FUNCS = dict.fromkeys(KNOWN_SUITES, _run_suite)

# A run evaluates its checks over chunks of at most _chunk_length(n) samples,
# each drawn from its index range alone, so its memory is that of one chunk
# whatever the sample count.  The arrays of a sample grow as n^4: one (2n)^4
# float64 tensor sets the bytes per sample.
# _CHUNK_ROWS caps the small n, where the bytes of one tensor say least about
# what all seven suites hold per sample; 512 samples spread the per-chunk
# work well enough.
_CHUNK_BYTES = 12 * 2**20
_CHUNK_ROWS = 512


def _sample_bytes(n: int) -> int:
    return 8 * (2 * n) ** 4


def _chunk_length(n: int) -> int:
    return max(1, min(_CHUNK_ROWS, _CHUNK_BYTES // _sample_bytes(n)))


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

    Every check is pointwise, so the suites run on each chunk of the samples
    in turn (see _chunk_length), each in a context of its own index range,
    and each check's results are folded by its merge rules (see _fold): the
    report is the one a single chunk gives.
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
    folded = None
    for start in range(0, samples, length):
        ctx = ScenarioContext(scenario, min(length, samples - start), seed, first=start)
        measured = [
            pair for suite in selected for pair in _SUITE_FUNCS[suite](ctx, declared[suite])
        ]
        if folded is None:
            folded = measured
        else:
            folded = [
                (check, _fold(check, before, after))
                for (check, before), (_, after) in zip(folded, measured)
            ]
    checks = [_result(check, out, tolerance) for check, out in folded]
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
