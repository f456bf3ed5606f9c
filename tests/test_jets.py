"""The partials of the leaf fields, from ``expr.differentiate``'s forward-mode
jets, against oracles that share no code with it: sympy's symbolic
derivatives of random expressions, and central differences of the values of
the corpus fields."""

import numpy as np
import pytest

from metalliclab import chart as ch
from metalliclab import expr as ex
from metalliclab.scenario import load_scenario
from metalliclab.suites import ScenarioContext

from conftest import CORPUS, scenario_path
from helpers import fd_partial

FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "ln", "sqrt")
COORDS = ("x1", "x2", "x3")


# each arithmetic form of a jet of jets, with a constant on either side
FIXED = (
    "x1 - x2^2/4",
    "x1 + x1*x2",
    "2 - x1*x3",
    "3/(x1*x2) + x3/2",
    "2^x1 * x2^x3",
    "-(x1*x2) - -x3",
    "ln(x1) + sqrt(x2 + 1)",
)


def _random_source(rng, depth, positive=False):
    """A random expression over x1..x3 in [0.2, 1.2]; with ``positive`` its
    value is > 0, as the argument of ln and sqrt, a divisor and the base of
    a power need."""
    if depth == 0 or rng.random() < 0.15:
        return str(rng.choice(COORDS)) if rng.random() < 0.7 else f"{rng.uniform(0.5, 2.0):.3f}"
    kinds = ("+", "*", "/", "^lit", "^var", "exp", "cosh", "sqrt")
    if not positive:
        kinds += ("neg", "-") + FUNCTIONS
    kind = str(rng.choice(kinds))

    def sub(positive=False):
        return _random_source(rng, depth - 1, positive)

    if kind == "neg":
        return f"-({sub()})"
    if kind == "tan":  # an argument inside (-pi/2, pi/2)
        return f"tan(tanh({sub()}))"
    if kind in ("exp", "sinh", "cosh"):  # bounded growth under nesting
        return f"{kind}(sin({sub()}))"
    if kind in FUNCTIONS:
        return f"{kind}({sub(positive=kind in ('ln', 'sqrt'))})"
    if kind == "^lit":
        return f"({sub(positive=True)})^{rng.choice(['2', '3', '0.5', '-1.5'])}"
    if kind == "^var":
        return f"({sub(positive=True)})^({sub()})"
    return f"({sub(positive)}) {kind} ({sub(positive or kind == '/')})"


def test_jets_match_sympy_on_random_expressions():
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    symbols = [sp.Symbol(name) for name in COORDS]
    points = rng.uniform(0.2, 1.2, size=(6, 3))
    sources = FIXED + tuple(_random_source(rng, depth=3) for _ in range(24))
    # every function, division, subtraction and both kinds of power are drawn
    assert all(any(kind in source for source in sources) for kind in FUNCTIONS + ("^", "/", "-"))
    for source in sources:
        # sympy reads the source itself; the value, d_k and d_l d_k at 30 digits
        oracle = sp.sympify(source.replace("^", "**"), locals={"ln": sp.log})
        exprs = [oracle] + [sp.diff(oracle, x) for x in symbols]
        exprs += [sp.diff(d, x) for d in exprs[1:] for x in symbols]
        at = sp.lambdify(symbols, exprs, "mpmath")
        with mpmath.workdps(30):
            want = np.array([[float(v) for v in at(*map(mpmath.mpf, point))] for point in points])
        comps = np.array([ex.parse(source, COORDS)])
        got = np.hstack([
            ch.eval_exprs(comps, points),
            ex.differentiate(comps, points, 1)[..., 0],
            ex.differentiate(comps, points, 2)[..., 0].reshape(len(points), 9),
        ])
        assert (np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all(), source


def _second_difference(f, x, k, l, h=1e-3):
    return fd_partial(lambda y: fd_partial(f, y, l, h=h), x, k, h=h)


@pytest.mark.parametrize("name", CORPUS)
def test_jets_of_the_corpus_fields_match_central_differences(name):
    scenario = load_scenario(scenario_path(name))
    ctx = ScenarioContext(scenario, samples=4)
    n = ctx.chart.dim
    fields = {"metric": scenario.metric, "J": scenario.J}
    if scenario.omega is not None:
        fields["omega"] = scenario.omega
    for label, field in fields.items():
        grad = ch.eval_exprs(field, ctx.points, 1)
        hessian = ch.eval_exprs(field, ctx.points, 2)

        def f(x, field=field):
            return ch.eval_exprs(field, x.reshape(1, -1))[0]

        for m, x in enumerate(ctx.points):
            for k in range(n):
                assert np.abs(grad[m, k] - fd_partial(f, x, k)).max() < 1e-8, (label, k)
                for l in range(n):
                    oracle = _second_difference(f, x, k, l)
                    assert np.abs(hessian[m, k, l] - oracle).max() < 1e-6, (label, k, l)
    # the run's arrays are the pass's
    assert np.array_equal(ctx["dg"], ch.eval_exprs(scenario.metric, ctx.points, 1))
    assert np.array_equal(ctx["dJ"], ch.eval_exprs(scenario.J, ctx.points, 1))
