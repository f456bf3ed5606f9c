"""Suite orchestration: turns a scenario into a deterministic CheckReport."""

from __future__ import annotations

import weakref
from functools import cache, cached_property, partial

import numpy as np

from . import chart as ch
from . import expr as ex
from . import genbundle as gb
from . import genconn as gc
from . import lifts as lf
from .errors import DomainError, MetallicLabError, ValidationError
from .report import CheckResult, ScenarioReport, _per_sample_max, from_residuals
from .scenario import KNOWN_SUITES, ChartScenario

# Tolerances pinned per check family; the scenario tolerance is the default
# for geometric (derivative-level) identities.
TOL_ALGEBRAIC = 1e-10
TOL_NIJ_IDENTITY = 1e-8
TOL_CONVENTION = 1e-7

FIBRE_PER_BASE = 4
_FHAT_INFORMATIVE = (
    "blockdiag(J, (J^T)^-1) commutes with Jm = blockdiag(J, J^T) for every invertible "
    "J, so the residual is rounding only and no scenario input can make it fail"
)
_SHARP_SIGN = {"jp": 1.0, "jc": -1.0}  # upper block (sign I - J^2) g^-1


class ConnBundle:
    """Tensors of one connection at the samples, from its values Gamma_at."""

    def __init__(self, ctx: "ScenarioContext", gamma: np.ndarray):
        # the context owns its bundles; a strong reference back would make a
        # cycle that keeps the run's arrays alive until the cyclic GC runs
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
    """Caches everything the suites share for one scenario run.

    The leaf fields (g, J, omega and an explicit connection) are evaluated
    at the samples with their first partials, and g with its second
    partials.  Everything else is built once, on first use, from those
    arrays: g^-1 and its partials, the Levi-Civita connection and its
    partials, the generalized structures and their partials, and every
    tensor of the suites.
    """

    def __init__(
        self,
        scenario: ChartScenario,
        samples: int | None = None,
        seed: int | None = None,
        tolerance: float | None = None,
        points: np.ndarray | None = None,
    ):
        self.scenario = scenario
        self.samples = samples if samples is not None else scenario.samples
        self.seed = seed if seed is not None else scenario.seed
        self.tol = tolerance if tolerance is not None else scenario.tolerance
        self.chart = scenario.chart
        self.params = scenario.params
        if points is None:
            points = self.chart.sample_points(self.samples, seed=self.seed)
        self.points = points
        self._bundles: dict = {}
        self._gen_at: dict = {}
        self._gen_jets: dict = {}

    def at(self, comps: np.ndarray) -> np.ndarray:
        return ch.eval_exprs(comps, self.points, self.memo)

    @cached_property
    def memo(self) -> dict:
        return {}

    @cached_property
    def g_at(self):
        return self.at(self.scenario.metric.comps)

    @cached_property
    def J_at(self):
        return self.at(self.scenario.J.comps)

    @cached_property
    def K_at(self):
        return self.J_at @ self.J_at

    @cached_property
    def dJ_at(self):
        return self.at(ch.partials(self.scenario.J.comps, self.chart.dim))

    @cached_property
    def dg_exprs(self) -> np.ndarray:
        return ch.partials(self.scenario.metric.comps, self.chart.dim)

    @cached_property
    def dg_at(self):
        return self.at(self.dg_exprs)

    @cached_property
    def d2g_at(self) -> np.ndarray:
        """d_b d_a g_{ij}, [m, b, a, i, j]."""
        return self.at(ch.partials(self.dg_exprs, self.chart.dim))

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
        """d_a Gamma^l_{jk} of the Levi-Civita connection, [m, a, l, j, k]."""
        return ch.christoffel(self.ginv_at[:, None], self.d2g_at) + ch.christoffel(
            self.dginv_at, self.dg_at[:, None]
        )

    @cached_property
    def gamma_at(self) -> np.ndarray:
        """Values of the scenario connection; the Levi-Civita array when it is one."""
        if self.scenario.connection is None:
            return self.lc_gamma_at
        return self.at(self.scenario.connection.comps)

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
        return self.at(ch.partials(self.scenario.connection.comps, self.chart.dim))

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

    @property
    def has_karaman(self) -> bool:
        return self.scenario.omega is not None and self.params.q != 0

    @cached_property
    def omega_at(self) -> np.ndarray:
        return self.at(self.scenario.omega.comps)

    @cached_property
    def karaman_gamma_at(self) -> np.ndarray:
        """D = Levi-Civita + F for the scenario's 1-form, at the samples."""
        F = gc.karaman_connection(
            self.g_at, self.ginv_at, self.J_at, self.params, self.omega_at
        )
        return self.lc_gamma_at + F


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix of a stack."""
    return np.abs(a).max(axis=(-2, -1))


def _skew(a: np.ndarray) -> np.ndarray:
    return a - np.swapaxes(a, -1, -2)


def _check(cid, anchor, residuals, points, tol, **kw) -> CheckResult:
    if isinstance(residuals, (list, tuple)):
        m = np.asarray(residuals[0]).shape[0]
        residuals = np.concatenate(
            [np.abs(np.asarray(r, dtype=float)).reshape(m, -1) for r in residuals],
            axis=1,
        )
    return from_residuals(cid, anchor, residuals, points, tol, **kw)


def _guard(checks: list, cid: str, anchor: str, tol: float, fn):
    """Run one check; evaluation blow-ups become failed checks with a witness."""
    try:
        checks.append(fn())
    except DomainError as err:
        checks.append(
            CheckResult(cid, anchor, float("inf"), tol, witness=err.point)
        )
    except MetallicLabError as err:
        checks.append(
            CheckResult(
                cid, anchor, float("inf"), tol, details={"error": str(err)}
            )
        )


# ------------------------------------------------------------------
# core suite
# ------------------------------------------------------------------


def suite_core(ctx: ScenarioContext) -> list:
    checks: list = []
    pts = ctx.points
    tol = ctx.tol

    def metric_spd():
        eigmin = float(np.linalg.eigvalsh(ctx.g_at).min())
        return CheckResult(
            "core/metric-spd",
            "metric is symmetric positive definite at samples",
            0.0 if eigmin > 1e-10 else 1.0,
            0.5,
            details={"min_eigenvalue": eigmin},
        )

    _guard(checks, "core/metric-spd", "metric SPD", 0.5, metric_spd)

    def metallic_eq():
        eye = np.eye(ctx.chart.dim)
        res = ctx.K_at - ctx.params.p * ctx.J_at - ctx.params.q * eye
        return _check(
            "core/metallic-equation", "J^2 = p J + q I", res, pts, TOL_ALGEBRAIC
        )

    _guard(checks, "core/metallic-equation", "J^2 = pJ + qI", TOL_ALGEBRAIC, metallic_eq)

    def compat():
        gj = ctx.g_at @ ctx.J_at
        return _check(
            "core/compatibility",
            "g(JX,Y) = g(X,JY)",
            gj - np.swapaxes(gj, -1, -2),
            pts,
            TOL_ALGEBRAIC,
        )

    _guard(checks, "core/compatibility", "gJ symmetric", TOL_ALGEBRAIC, compat)

    def koszul():
        lc = ctx.bundle(ctx.lc_gamma_at)
        return _check(
            "core/levi-civita-metric-parallel",
            "nabla g = 0 for the Levi-Civita connection (Koszul)",
            lc.nabla_g_at,
            pts,
            tol,
        )

    _guard(checks, "core/levi-civita-metric-parallel", "nabla g = 0", tol, koszul)

    def bianchi():
        R = ctx.lc_riemann_at
        cyc = R + np.einsum("mljki->mlijk", R) + np.einsum("mlkij->mlijk", R)
        return _check(
            "core/bianchi-first",
            "R^l_(ijk) + R^l_(jki) + R^l_(kij) = 0 (torsion-free)",
            cyc,
            pts,
            tol,
        )

    _guard(checks, "core/bianchi-first", "first Bianchi identity", tol, bianchi)

    def locally_metallic():
        lc = ctx.bundle(ctx.lc_gamma_at)
        return _check(
            "core/locally-metallic",
            "nabla J = 0 for the Levi-Civita connection",
            lc.nabla_J_at,
            pts,
            tol,
        )

    _guard(checks, "core/locally-metallic", "nabla J = 0", tol, locally_metallic)

    def nij_identity():
        b = ctx.bundle(ctx.gamma_at)
        rhs = gc.covariant_nijenhuis_rhs(b.nabla_J_at, b.torsion_at, ctx.J_at)
        return _check(
            "core/nijenhuis-covariant-identity",
            "bracket N_J equals its covariant expansion plus Phi(T)",
            ctx.NJ_at - rhs,
            pts,
            TOL_NIJ_IDENTITY,
        )

    _guard(
        checks,
        "core/nijenhuis-covariant-identity",
        "covariant Nijenhuis identity",
        TOL_NIJ_IDENTITY,
        nij_identity,
    )

    return checks


# ------------------------------------------------------------------
# genbundle suite (matrix algebra on the stacks of samples)
# ------------------------------------------------------------------


def suite_genbundle(ctx: ScenarioContext) -> list:
    checks: list = []
    pts = ctx.points
    n = ctx.chart.dim
    m = pts.shape[0]
    params = ctx.params
    jm, jp, jc, ghat = (partial(ctx.gen_at, label) for label in ("jm", "jp", "jc", "ghat"))
    eye, eye2 = np.eye(n), np.eye(2 * n)

    def algebraic(cid, anchor, residual):
        def check():
            return _check(cid, anchor, residual(), pts, TOL_ALGEBRAIC)

        _guard(checks, cid, anchor, TOL_ALGEBRAIC, check)

    algebraic(
        "genbundle/jm-ghat-symmetric",
        "ghat Jm is symmetric",
        lambda: _skew(ghat() @ jm()),
    )
    algebraic(
        "genbundle/jm-metallic",
        "Jm^2 = p Jm + q I",
        lambda: jm() @ jm() - params.p * jm() - params.q * eye2,
    )
    algebraic("genbundle/jp-squares-to-identity", "Jp^2 = I", lambda: jp() @ jp() - eye2)
    algebraic("genbundle/jc-squares-to-minus-identity", "Jc^2 = -I", lambda: jc() @ jc() + eye2)
    algebraic("genbundle/jc-jp-anticommute", "Jc Jp = -Jp Jc", lambda: jc() @ jp() + jp() @ jc())

    # one eigensolve of (., Jp .) for both checks below, made inside their
    # guards so that an error in it fails each of them
    @cache
    def jp_eigenvalues() -> np.ndarray:
        return gb.pairing_eigenvalues(jp())

    def signature():
        n_plus, n_minus = gb.neutral_signature(jp_eigenvalues())
        mismatched = np.flatnonzero((n_plus != n) | (n_minus != n))
        witness = tuple(float(v) for v in pts[mismatched[0]]) if mismatched.size else None
        return CheckResult(
            "genbundle/neutral-signature",
            "G(s,t) = (s, Jp t) has signature (n, n)",
            float(mismatched.size),
            0.5,
            witness,
            details={"signature": [int(n_plus[-1]), int(n_minus[-1])]},
        )

    _guard(checks, "genbundle/neutral-signature", "signature (n,n)", 0.5, signature)

    def calibrations():
        anti = gb.check_anti_pseudo_calibrated(jp(), jp_eigenvalues(), points=pts)
        cal = gb.check_calibrated(jc(), points=pts)
        worst = max(anti, cal, key=lambda result: result.residual)
        return CheckResult(
            "genbundle/calibration",
            "Jp anti-pseudo-calibrated; Jc calibrated for the natural pairing",
            worst.residual,
            TOL_ALGEBRAIC,
            worst.witness,
            details={"jp_anti_invariance": anti.residual, "jc_invariance": cal.residual},
        )

    _guard(checks, "genbundle/calibration", "calibration", TOL_ALGEBRAIC, calibrations)

    if params.discriminant > 0:

        def family():
            gap = 2.0 * params.sigma - params.p
            fam = gb.derived_family(ctx.J_at, ctx.g_at, jp(), params)

            def metallic_gap(cand):
                return _max_abs(cand @ cand - params.p * cand - params.q * eye2)

            pjqi = params.p * ctx.J_at + (params.q - 1.0) * eye
            mirror = params.p * eye - ctx.J_at
            expected_mp = np.zeros((m, 2 * n, 2 * n))
            expected_mp[:, :n, :n] = mirror
            expected_mp[:, n:, n:] = np.swapaxes(mirror, -1, -2)
            # each member is built once and reduced to one value per sample
            # at once; besides Fhat^+, one member stack is held at a time.
            # J^-(Fhat^-) is J^+(Fhat^+) and J^+(Fhat^-) is J^-(Fhat^+).
            jm_plus = fam.jm_plus
            metallic = [metallic_gap(jm_plus)]
            # corrected reading: the off-diagonal blocks carry (2s-p)/2
            block = [_max_abs(jm_plus[:, :n, n:] + gap / 2.0 * pjqi @ ctx.ginv_at)]
            del jm_plus
            metallic.append(metallic_gap(fam.jm_minus))
            block.append(_max_abs(fam.fhat_plus @ fam.fhat_plus - eye2))
            j_plus_of_fplus = fam.j_plus_of_fplus
            metallic.append(metallic_gap(j_plus_of_fplus))
            block.append(_max_abs(j_plus_of_fplus - jm()))
            del j_plus_of_fplus
            block.append(_max_abs(fam.j_minus_of_fplus - expected_mp))
            metallic = np.max(metallic, axis=0)
            block = np.max(block, axis=0)
            return _check(
                "genbundle/derived-family",
                "structures derived through the product conversions satisfy "
                "their block and metallic identities",
                np.maximum(metallic, block),
                pts,
                TOL_ALGEBRAIC,
                details={
                    "metallic_residual": float(metallic.max()),
                    "block_residual": float(block.max()),
                },
            )

        _guard(checks, "genbundle/derived-family", "derived family", TOL_ALGEBRAIC, family)

    if params.q != 0:

        def fhat():
            # samples where Df = J is singular have no push-forward
            keep = np.abs(np.linalg.det(ctx.J_at)) >= 1e-12
            jm_kept = jm()[keep]
            res = gb.fhat_conjugation(ctx.J_at[keep], jm_kept, jm_kept, points=pts[keep])
            return CheckResult(
                "genbundle/fhat-with-df-equal-j",
                "blockdiag(Df, (Df^T)^-1) intertwines Jm with itself for Df = J",
                res.residual,
                TOL_ALGEBRAIC,
                res.witness,
                gating=False,
                details={"informative": _FHAT_INFORMATIVE},
            )

        _guard(checks, "genbundle/fhat-with-df-equal-j", "fhat", TOL_ALGEBRAIC, fhat)

    return checks


# ------------------------------------------------------------------
# genconn suite
# ------------------------------------------------------------------


def _random_sections(ctx, count, seed_shift):
    """Values (m, count, 2n) and partials (m, count, n, 2n) of sections whose
    components are c0 + c1 . x with coefficients drawn uniformly in [-1, 1]."""
    rng = np.random.default_rng(ctx.seed + seed_shift)
    n = ctx.chart.dim
    c0 = np.empty((count, 2 * n))
    c1 = np.empty((count, 2 * n, n))
    for s in range(count):
        for a in range(2 * n):
            c0[s, a] = rng.uniform(-1, 1)
            c1[s, a] = rng.uniform(-1, 1, size=n)
    values = c0 + np.einsum("saj,mj->msa", c1, ctx.points)
    partials = np.broadcast_to(c1.transpose(0, 2, 1), (len(ctx.points), count, n, 2 * n))
    return values, partials


def suite_genconn(ctx: ScenarioContext) -> list:
    checks: list = []
    pts = ctx.points
    tol = ctx.tol

    def bundle() -> ConnBundle:
        return ctx.bundle(ctx.gamma_at)

    def bracket_antisymmetry():
        n = ctx.chart.dim
        gamma = ctx.gamma_at
        values, partials = _random_sections(ctx, 4, seed_shift=101)
        a, b = np.triu_indices(4, 1)
        s, ds, t, dt = values[:, a], partials[:, a], values[:, b], partials[:, b]
        st = gc.nabla_bracket(gamma, s, ds, t, dt)
        antisymmetry = st + gc.nabla_bracket(gamma, t, dt, s, ds)
        # [s, t] + [t, s] cancels by construction; the Leibniz rule
        # [s, f t] = f [s, t] + X(f) t, X the vector part of s and
        # f = c0 + c1 . x, is the side that can fail
        rng = np.random.default_rng(ctx.seed + 102)
        c0, c1 = rng.uniform(-1, 1), rng.uniform(-1, 1, size=n)
        f = (c0 + pts @ c1)[:, None, None]
        ft = f * t
        dft = c1[:, None] * t[:, :, None] + f[..., None] * dt
        xf = (s[..., :n] @ c1)[..., None]
        leibniz = gc.nabla_bracket(gamma, s, ds, ft, dft) - f * st - xf * t
        return _check(
            "genconn/nabla-bracket-antisymmetry",
            "[s, t] = -[t, s] and [s, f t] = f [s, t] + X(f) t for the connection bracket",
            [antisymmetry, leibniz],
            pts,
            tol,
            details={
                "antisymmetry": float(np.abs(antisymmetry).max()),
                "leibniz": float(np.abs(leibniz).max()),
            },
        )

    _guard(
        checks,
        "genconn/nabla-bracket-antisymmetry",
        "bracket antisymmetry",
        tol,
        bracket_antisymmetry,
    )

    def jm_mixed():
        n = ctx.chart.dim
        DJ = bundle().nabla_J_at
        gap = bundle().gen_nijenhuis("jm")[:, :, :n, n:].copy()
        # N(d_i, dx^j) against beta((nabla_{J d_i} J) - (nabla_i J) J) with
        # beta = dx^j: covector_c = J^a_i DJ[a, j, c] - DJ[i, j, s] J^s_c
        J = ctx.J_at
        along_J = (np.swapaxes(J, -1, -2) @ DJ.reshape(len(J), n, -1)).reshape(DJ.shape)
        gap[:, n:] -= (along_J - DJ @ J[:, None]).transpose(0, 3, 1, 2)
        return _check(
            "genconn/jm-gen-nijenhuis-mixed-identity",
            "N(X, beta) equals beta((nabla_{JX}J) - (nabla_X J)J)",
            gap,
            pts,
            TOL_NIJ_IDENTITY,
        )

    _guard(
        checks,
        "genconn/jm-gen-nijenhuis-mixed-identity",
        "mixed-slot identity",
        TOL_NIJ_IDENTITY,
        jm_mixed,
    )

    for label in ("jm", "jp", "jc"):
        cid = f"genconn/{label}-gen-nijenhuis"

        def gen_nij(cid=cid, label=label):
            return _check(
                cid,
                f"generalized Nijenhuis tensor of {label} vanishes on basis sections",
                bundle().gen_nijenhuis(label),
                pts,
                tol,
            )

        _guard(checks, cid, "generalized Nijenhuis", tol, gen_nij)

    for label, fn in (("jp", gc.jp_condition_residuals), ("jc", gc.jc_condition_residuals)):
        cid = f"genconn/{label}-integrability-conditions"

        def conditions(fn=fn, cid=cid, label=label):
            conds = fn(bundle().condition_inputs)
            per = [float(np.abs(c).max()) for c in conds]
            result = _check(
                cid,
                f"the six displayed integrability conditions for {label}",
                conds,
                pts,
                tol,
            )
            result.details["per_condition"] = per
            return result

        _guard(checks, cid, "integrability conditions", tol, conditions)

    for label, fn in (("jp", gc.jp_reduced_residuals), ("jc", gc.jc_reduced_residuals)):
        cid = f"genconn/{label}-reduced-conditions"

        def reduced(fn=fn, cid=cid, label=label):
            conds = fn(bundle().condition_inputs)
            per = [float(np.abs(c).max()) for c in conds]
            result = _check(
                cid,
                f"torsion-free reduction of the {label} conditions (informative)",
                conds,
                pts,
                tol,
                gating=False,
            )
            result.details["per_condition"] = per
            return result

        _guard(checks, cid, "reduced conditions", tol, reduced)

    def identity_lc():
        b = ctx.bundle(ctx.lc_gamma_at)
        rhs = gc.covariant_nijenhuis_rhs(b.nabla_J_at, b.torsion_at, ctx.J_at)
        return _check(
            "genconn/covariant-nijenhuis-identity-levi-civita",
            "N_J expansion holds for the Levi-Civita connection",
            ctx.NJ_at - rhs,
            pts,
            TOL_NIJ_IDENTITY,
        )

    _guard(
        checks,
        "genconn/covariant-nijenhuis-identity-levi-civita",
        "covariant identity (LC)",
        TOL_NIJ_IDENTITY,
        identity_lc,
    )

    if ctx.has_karaman:

        def identity_karaman():
            b = ctx.bundle(ctx.karaman_gamma_at)
            rhs = gc.covariant_nijenhuis_rhs(b.nabla_J_at, b.torsion_at, ctx.J_at)
            return _check(
                "genconn/covariant-nijenhuis-identity-karaman",
                "N_J expansion holds for the semi-symmetric metric connection",
                ctx.NJ_at - rhs,
                pts,
                TOL_NIJ_IDENTITY,
            )

        _guard(
            checks,
            "genconn/covariant-nijenhuis-identity-karaman",
            "covariant identity (D)",
            TOL_NIJ_IDENTITY,
            identity_karaman,
        )

    def dhat_jm():
        return _check(
            "genconn/dhat-jm",
            "Dhat Jm = 0 (tracks nabla J = 0)",
            gc.dhat_endo(ctx.gamma_at, *ctx.gen_jet("jm")),
            pts,
            tol,
        )

    _guard(checks, "genconn/dhat-jm", "Dhat Jm", tol, dhat_jm)

    def dhat_ghat():
        return _check(
            "genconn/dhat-ghat",
            "Dhat ghat = 0 (tracks nabla g = 0)",
            gc.dhat_metric(ctx.gamma_at, *ctx.gen_jet("ghat")),
            pts,
            tol,
        )

    _guard(checks, "genconn/dhat-ghat", "Dhat ghat", tol, dhat_ghat)

    return checks


# ------------------------------------------------------------------
# karaman suite
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
        "dj": b.nabla_J_at,
        "torsion_gap": T_at - closed,
        "lemma": np.concatenate(
            [lemma1.reshape(pts.shape[0], -1), lemma2.reshape(pts.shape[0], -1)], axis=1
        ),
        "phi": phi,
    }


def suite_karaman(ctx: ScenarioContext) -> list:
    checks: list = []
    pts = ctx.points
    tol = ctx.tol
    if not ctx.has_karaman:
        checks.append(
            CheckResult(
                "karaman/missing-omega",
                "the semi-symmetric suite needs a 1-form and q != 0",
                float("inf"),
                tol,
            )
        )
        return checks

    def bundle() -> ConnBundle:
        return ctx.bundle(ctx.karaman_gamma_at)

    @cache
    def parts() -> dict:
        return _karaman_checks(ctx, bundle(), ctx.omega_at)

    for key, cid, anchor in (
        ("dg", "karaman/metric-parallel", "D g = 0 for every 1-form"),
        ("dj", "karaman/endo-parallel", "D J = 0 on a locally decomposable base"),
        (
            "torsion_gap",
            "karaman/torsion-closed-form",
            "T^D matches its closed form in omega and J",
        ),
        ("lemma", "karaman/torsion-j-commutation", "T^D(JX,Y) = J T^D(X,Y) = T^D(X,JY)"),
        ("phi", "karaman/phi-torsion-vanishes", "Phi(T^D) = 0"),
    ):

        def part(key=key, cid=cid, anchor=anchor):
            return _check(cid, anchor, parts()[key], pts, tol)

        _guard(checks, cid, anchor, tol, part)

    def jm_d_integrable():
        return _check(
            "karaman/jm-d-integrable",
            "the generalized Nijenhuis tensor of Jm vanishes for D",
            bundle().gen_nijenhuis("jm"),
            pts,
            tol,
        )

    _guard(checks, "karaman/jm-d-integrable", "Jm D-integrable", tol, jm_d_integrable)

    n = ctx.chart.dim
    for label, dhat in (
        ("jm", gc.dhat_endo),
        ("jp", gc.dhat_endo),
        ("jc", gc.dhat_endo),
        ("ghat", gc.dhat_metric),
    ):
        cid = f"karaman/dhat-{label}-parallel"

        def dhat_parallel(dhat=dhat, cid=cid, label=label):
            return _check(
                cid,
                f"Dhat {label} = 0 for the semi-symmetric connection",
                dhat(ctx.karaman_gamma_at, *ctx.gen_jet(label)),
                pts,
                tol,
            )

        _guard(checks, cid, f"Dhat {label}", tol, dhat_parallel)

    def omega_sweep():
        rng = np.random.default_rng(ctx.seed + 2024)
        per_trial = []
        worst_trial, worst_per_sample = 0, None
        for trial in range(20):
            c0 = rng.uniform(-1.0, 1.0, size=n)
            c1 = rng.uniform(-1.0, 1.0, size=(n, n))
            omega_at = c0 + pts @ c1.T
            F = gc.karaman_connection(ctx.g_at, ctx.ginv_at, ctx.J_at, ctx.params, omega_at)
            b = ConnBundle(ctx, ctx.lc_gamma_at + F)
            parts = _karaman_checks(ctx, b, omega_at)
            arrays = [parts[k] for k in ("dg", "torsion_gap", "lemma", "phi")]
            arrays.append(b.gen_nijenhuis("jm"))
            per_sample = np.max([_per_sample_max(a) for a in arrays], axis=0)
            per_trial.append(float(per_sample.max()))
            if worst_per_sample is None or per_trial[-1] > per_trial[worst_trial]:
                worst_trial, worst_per_sample = trial, per_sample
        return CheckResult(
            "karaman/random-omega-sweep",
            "for 20 random 1-forms: Dg = 0, T^D closed form, the torsion "
            "commutation, Phi(T^D) = 0 and D-integrability of Jm",
            max(per_trial),
            tol,
            tuple(float(v) for v in pts[int(np.argmax(worst_per_sample))]),
            details={"per_trial_max": per_trial, "worst_trial": worst_trial},
        )

    _guard(checks, "karaman/random-omega-sweep", "omega sweep", tol, omega_sweep)

    return checks


# ------------------------------------------------------------------
# lifts suites
# ------------------------------------------------------------------


_LIFT_VALUES = ("g", "ginv", "J", "gamma")


def _lift_inputs(
    ctx: ScenarioContext, names: tuple = _LIFT_VALUES + ("dg", "dJ", "dgamma", "dginv")
) -> dict:
    """The arrays at the base samples that lf.lift takes, by its parameter names."""
    return {name: getattr(ctx, f"{name}_at") for name in names}


def _horizontal_display(cid: str, match: dict, R_at: np.ndarray) -> CheckResult:
    """Resolve the curvature index convention from the candidate residuals."""
    flat = float(np.abs(R_at).max()) < 1e-10
    matching = [c for c in match["candidates"] if c["residual"] <= TOL_CONVENTION]
    classes: list = []
    for cand in matching:
        for cls in classes:
            if np.allclose(cand["expected"], cls["expected"], rtol=0.0, atol=1e-13):
                cls["labels"].append(cand["label"])
                break
        else:
            classes.append(
                {
                    "labels": [cand["label"]],
                    "expected": cand["expected"],
                    "residual": cand["residual"],
                }
            )
    best = min(match["candidates"], key=lambda c: c["residual"])
    slots = sorted({c["argument_slot"] for c in matching})
    # a full resolution is a single matching class holding just the
    # antisymmetry-equivalent pair; when the displayed curvature
    # combination vanishes on the scenario the sign is undecidable and
    # only the argument-slot placement can be pinned down
    if flat:
        convention = "indeterminate (flat connection)"
    elif not classes:
        convention = "none matched"
    elif len(classes) == 1 and len(classes[0]["labels"]) <= 2:
        convention = next(
            (l for l in sorted(classes[0]["labels"]) if "= +" in l),
            sorted(classes[0]["labels"])[0],
        )
    elif slots == [3]:
        convention = (
            "argument slot 3 (pair first); sign undetermined here "
            "(curvature combination vanishes)"
        )
    else:
        convention = "indeterminate (curvature term vanishes)"
    residual = float(max(match["horizontal_residual"], best["residual"]))
    return CheckResult(
        cid,
        "N on horizontal pairs matches the displayed curvature formula "
        "for a resolved index convention",
        residual,
        TOL_CONVENTION,
        details={
            "resolved_convention": convention,
            "matching_classes": [sorted(c["labels"]) for c in classes],
            "matching_argument_slots": slots,
            "candidate_residuals": {
                c["label"]: c["residual"] for c in match["candidates"]
            },
        },
    )


def suite_lifts(ctx: ScenarioContext, flavor: str) -> list:
    """The lifted structure at FIBRE_PER_BASE fibre points over each base sample.

    Every check is guarded on its own, and the lift and its Nijenhuis tensor
    are computed on first use, so an error in either fails each check that
    needs it and no declared id goes missing.
    """
    checks: list = []
    tol = ctx.tol
    prefix = f"lifts-{flavor}"
    n = ctx.chart.dim
    params = ctx.params
    y = lf.LiftedChart(ctx.chart, flavor).fibre_points(
        ctx.points.shape[0] * FIBRE_PER_BASE, ctx.seed
    )
    pts2 = np.hstack([np.repeat(ctx.points, FIBRE_PER_BASE, axis=0), y])
    eye2 = np.eye(2 * n)

    def repeated(values: np.ndarray) -> np.ndarray:
        return np.repeat(values, FIBRE_PER_BASE, axis=0)

    @cache
    def base() -> dict:
        return {name: repeated(values) for name, values in _lift_inputs(ctx).items()}

    @cache
    def lifted() -> lf.Lift:
        return lf.lift(flavor, y, **base())

    @cache
    def N_at() -> np.ndarray:
        return lf.nijenhuis_values(lifted())

    def frame() -> np.ndarray:
        return lifted().forward[:, :, :n]

    def metallic():
        jbar = lifted().jbar
        return _check(
            f"{prefix}/metallic-equation",
            "lifted structure satisfies J^2 = p J + q I",
            jbar @ jbar - params.p * jbar - params.q * eye2,
            pts2,
            tol,
        )

    def compatibility():
        gj = lifted().gbar @ lifted().jbar
        return _check(
            f"{prefix}/compatibility",
            "lifted metric is compatible with the lifted structure",
            gj - np.swapaxes(gj, -1, -2),
            pts2,
            tol,
        )

    def frame_endo():
        return _check(
            f"{prefix}/frame-endo-display",
            "lifted structure acts on the horizontal/vertical frame as displayed",
            lf.frame_endo_residuals(lifted().jbar, frame(), base()["J"], flavor),
            pts2,
            tol,
        )

    def coordinate_endo():
        b = base()
        return _check(
            f"{prefix}/coordinate-endo-display",
            "lifted structure acts on the coordinate fields as displayed",
            lf.coordinate_endo_residuals(lifted().jbar, b["J"], b["gamma"], y, flavor),
            pts2,
            tol,
        )

    def metric_frame():
        b = base()
        return _check(
            f"{prefix}/metric-frame-components",
            "lifted metric has the displayed frame components",
            lf.frame_metric_residuals(lifted().gbar, frame(), b["g"], b["ginv"], flavor),
            pts2,
            tol,
        )

    def metric_coordinate():
        b = base()
        return _check(
            f"{prefix}/metric-coordinate-displays",
            "corrected reading of the coordinate metric displays (informative)",
            lf.coordinate_metric_residuals(
                lifted().gbar, b["g"], b["ginv"], b["gamma"], y, flavor
            ),
            pts2,
            tol,
            gating=False,
        )

    def vertical_vertical():
        return _check(
            f"{prefix}/nijenhuis-vertical-vertical",
            "N vanishes on pairs of vertical fields",
            N_at()[:, :, n:, n:],
            pts2,
            tol,
        )

    def mixed_display():
        DJ_at = repeated(ctx.bundle(ctx.gamma_at).nabla_J_at)
        args = (N_at(), frame(), base()["J"], DJ_at, flavor)
        mixed = _check(
            f"{prefix}/nijenhuis-mixed-display",
            "N on horizontal/vertical pairs matches the displayed formula",
            lf.mixed_display_residual(*args),
            pts2,
            tol,
        )
        if flavor == lf.COTANGENT:
            literal = lf.mixed_display_residual(*args, literal=True)
            mixed.details["literal_display_residual"] = float(np.abs(literal).max())
        return mixed

    def horizontal_display():
        R_at = repeated(ctx.riemann_at)
        match = lf.horizontal_display_match(
            N_at(), frame(), base()["J"], repeated(ctx.NJ_at), R_at, y, params, flavor
        )
        return _horizontal_display(f"{prefix}/nijenhuis-horizontal-display", match, R_at)

    def vanishes():
        return _check(
            f"{prefix}/nijenhuis-vanishes",
            "the lifted structure is integrable (N = 0)",
            N_at(),
            pts2,
            tol,
        )

    for name, anchor, check_tol, fn in (
        ("metallic-equation", "lifted J^2 = pJ + qI", tol, metallic),
        ("compatibility", "lifted compatibility", tol, compatibility),
        ("frame-endo-display", "frame action", tol, frame_endo),
        ("coordinate-endo-display", "coordinate action", tol, coordinate_endo),
        ("metric-frame-components", "metric frame components", tol, metric_frame),
        ("metric-coordinate-displays", "metric coordinate displays", tol, metric_coordinate),
        ("nijenhuis-vertical-vertical", "N on vertical pairs", tol, vertical_vertical),
        ("nijenhuis-mixed-display", "N on mixed pairs", tol, mixed_display),
        (
            "nijenhuis-horizontal-display",
            "N on horizontal pairs",
            TOL_CONVENTION,
            horizontal_display,
        ),
        ("nijenhuis-vanishes", "N of the lifted structure", tol, vanishes),
    ):
        _guard(checks, f"{prefix}/{name}", anchor, check_tol, fn)

    return checks


# ------------------------------------------------------------------
# commutation suite
# ------------------------------------------------------------------


def _commutation_lifts(ctx: ScenarioContext):
    """The tangent lift at random fibre points y over the samples, the
    cotangent lift at the matching eta = g y, and the points (x, y)."""
    rng = np.random.default_rng(ctx.seed + 404)
    yv = rng.uniform(-1.0, 1.0, size=ctx.points.shape)
    eta = np.einsum("mij,mj->mi", ctx.g_at, yv)
    # the intertwining reads no partials of the lifts: dJ, d2g and dGamma stay unevaluated
    inputs = _lift_inputs(ctx, _LIFT_VALUES)
    tangent = lf.lift(lf.TANGENT, yv, **inputs)
    cotangent = lf.lift(lf.COTANGENT, eta, **inputs)
    return tangent, cotangent, np.hstack([ctx.points, yv])


def suite_commutation(ctx: ScenarioContext) -> list:
    checks: list = []
    tol = ctx.tol

    def commutation():
        tangent, cotangent, points = _commutation_lifts(ctx)
        res = lf.commutation_residual(
            tangent.forward, cotangent.backward, tangent.jbar, cotangent.jbar
        )
        return _check(
            "commutation/jm-lift-intertwine",
            "the tangent and cotangent lifts are intertwined by Psi Phi^{-1}",
            res,
            points,
            tol,
        )

    _guard(
        checks,
        "commutation/jm-lift-intertwine",
        "lift commutation",
        tol,
        commutation,
    )
    return checks


# ------------------------------------------------------------------
# entry point
# ------------------------------------------------------------------

_SUITE_FUNCS = {
    "core": suite_core,
    "genbundle": suite_genbundle,
    "genconn": suite_genconn,
    "karaman": suite_karaman,
    "lifts-tangent": lambda ctx: suite_lifts(ctx, lf.TANGENT),
    "lifts-cotangent": lambda ctx: suite_lifts(ctx, lf.COTANGENT),
    "commutation": suite_commutation,
}


def run_suites(
    scenario: ChartScenario,
    suites: list | None = None,
    samples: int | None = None,
    seed: int | None = None,
    tolerance: float | None = None,
) -> ScenarioReport:
    """Run the scenario's suites in declared order; deterministic in the seed.

    Expression nodes are interned in a copy of the scenario's table that
    lasts for this call only.  An ``expected_failures`` id that names no
    check of a suite that ran raises ValidationError; the ids of suites not
    selected, or that ended in an evaluation error, are not checked.
    """
    ctx = ScenarioContext(scenario, samples=samples, seed=seed, tolerance=tolerance)
    selected = suites if suites else scenario.suites
    checks: list = []
    with ex.fresh_table(scenario.table):
        for suite in selected:
            if suite not in _SUITE_FUNCS:
                raise ValueError(f"unknown suite {suite!r}")
            try:
                checks.extend(_SUITE_FUNCS[suite](ctx))
            except DomainError as err:
                # a singular evaluation poisons the whole suite: record it as a
                # failed check with the witness point and move on
                checks.append(
                    CheckResult(
                        f"{suite}/evaluation",
                        "suite inputs evaluate to finite values at every sample",
                        float("inf"),
                        ctx.tol,
                        witness=err.point,
                    )
                )
            except MetallicLabError as err:
                checks.append(
                    CheckResult(
                        f"{suite}/evaluation",
                        "suite inputs satisfy their preconditions",
                        float("inf"),
                        ctx.tol,
                        details={"error": str(err)},
                    )
                )
            except MemoryError:
                checks.append(
                    CheckResult(
                        f"{suite}/evaluation",
                        "suite runs within the available memory",
                        float("inf"),
                        ctx.tol,
                        details={"error": "out of memory"},
                    )
                )
    ran = {check.check_id for check in checks}
    unknown = []
    for cid in scenario.expected_failures:
        suite = cid.split("/")[0]
        exempt = suite in KNOWN_SUITES and (
            suite not in selected or f"{suite}/evaluation" in ran
        )
        if cid not in ran and not exempt:
            unknown.append(f"expected failure {cid!r} names no check of the suites that ran")
    if unknown:
        raise ValidationError(unknown)
    expected = set(scenario.expected_failures)
    for check in checks:
        if check.check_id in expected:
            check.expected_fail = True
    convention = None
    for check in checks:
        resolved = check.details.get("resolved_convention")
        if resolved and "indeterminate" not in resolved and resolved != "none matched":
            convention = resolved
            break
        if resolved and convention is None:
            convention = resolved
    return ScenarioReport(
        scenario_name=scenario.name,
        seed=ctx.seed,
        samples=ctx.samples,
        suites=list(selected),
        checks=checks,
        resolved_curvature_convention=convention,
    )
