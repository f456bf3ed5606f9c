import gc
import json
import math
import types
import warnings

import numpy as np
import pytest

from metalliclab import expr as ex
from metalliclab.errors import DomainError, ParseError
from metalliclab.scenario import load_scenario
from metalliclab.suites import ScenarioContext, run_suites

from conftest import CORPUS, scenario_path
from helpers import evaluate, fd_gradient

COORDS = ["x1", "x2"]

GOLDEN_CORPUS = [
    "sin(x1)^2",
    "1/(x1*x2) - exp(x2)",
    "x1^3 - 2*x1",
    "sqrt(x1 + 2)",
    "tanh(x1*x2)",
    "cos(x1)/x2",
    "ln(x1 + 3)",
    "x1^x2",
    "sinh(x2)^2 - cosh(x2)^2",
    "tan(x1/4)",
    "exp(-x1^2)",
    "2^x2",
    "(x1 + x2)*(x1 - x2)/(1 + x1^2)",
    "sqrt(x1^2 + x2^2 + 0.5)",
]

# strictly positive box, away from the 1/(x1*x2) and cos(x1)/x2 singularities
LO, HI = 0.3, 1.4


def sample_points(count=100, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(LO, HI, size=(count, 2))


def test_parse_power_of_sin():
    e = ex.parse("sin(x1)^2", COORDS)
    assert isinstance(e, ex.Bin) and e.op == "^"
    assert isinstance(e.left, ex.Func) and e.left.name == "sin"
    assert isinstance(e.left.arg, ex.Coord) and e.left.arg.index == 0
    assert isinstance(e.right, ex.Const) and e.right.value == 2.0


def test_parse_arithmetic_example():
    # 0.5 - 1 = -0.5
    e = ex.parse("1/x1 - exp(x2)", COORDS)
    assert evaluate(e, [2.0, 0.0]) == pytest.approx(-0.5, abs=1e-15)
    e2 = ex.parse("1/ (x1*x2) - exp(x2)", COORDS)
    assert evaluate(e2, [2.0, 0.25]) == pytest.approx(
        1.0 / 0.5 - math.exp(0.25), abs=1e-15
    )


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as err:
        ex.parse("x3", COORDS)
    assert err.value.offset == 0
    assert "x3" in str(err.value)


def test_parse_errors_carry_offsets():
    cases = ["", "(x1", "x1 + ", "sin x1", "x1 $ x2", "1..2"]
    for source in cases:
        with pytest.raises(ParseError) as err:
            ex.parse(source, COORDS)
        assert 0 <= err.value.offset <= len(source)


def test_power_is_right_associative():
    assert evaluate(ex.parse("2^3^2", COORDS), [0, 0]) == 512.0


def test_unary_minus_binds_below_power():
    assert evaluate(ex.parse("-x1^2", COORDS), [3.0, 0.0]) == -9.0
    assert evaluate(ex.parse("(-x1)^2", COORDS), [3.0, 0.0]) == 9.0
    assert evaluate(ex.parse("2^-3", COORDS), [0, 0]) == 0.125


def test_evaluate_examples():
    assert evaluate(ex.parse("sqrt(x1)", COORDS), [4.0, 0.0]) == 2.0
    assert evaluate(ex.parse("x1^3 - 2*x1", COORDS), [1.5, 0.0]) == 0.375
    with pytest.raises(DomainError):
        evaluate(ex.parse("1/x1", COORDS), [0.0, 0.0])
    with pytest.raises(DomainError):
        evaluate(ex.parse("ln(x1)", COORDS), [-1.0, 0.0])


def test_a_function_of_a_node_of_constants_alone_takes_numpy_value():
    # 1/(1/0) + c stays a node; tanh and cosh at it are numpy's, as at every
    # node, not math's, which differ in the last bit at these constants
    pts = np.array([[0.5, 0.7], [1.2, 0.3]])
    for source, value in (("x1*tanh(1/(1/0) + 0.7)", np.tanh(0.7)),
                          ("x1*cosh(1/(1/0) + 0.9)", np.cosh(0.9))):
        assert (ex.eval_batch(ex.parse(source, COORDS), pts) == pts[:, 0] * value).all(), source


def test_evaluation_deterministic():
    e = ex.parse("sin(x1)*exp(x2) - x1^2/(x2 + 2)", COORDS)
    pts = sample_points(16, seed=5)
    a = ex.eval_batch(e, pts)
    b = ex.eval_batch(e, pts)
    assert (a == b).all()


def partials(source, points, order=1):
    """The partials of one expression at the points, [m, k] or [m, k, l]."""
    return ex.differentiate(np.array([ex.parse(source, COORDS)]), np.atleast_2d(points), order)[..., 0]


def test_differentiate_examples():
    assert partials("sin(x1)^2", [math.pi / 4, 0.0])[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert partials("x1", [2.0, 3.0])[0, 1] == 0.0

    value = partials("ln(x1*x1)", [3.0, 1.0])[0, 0]
    assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
    fd = fd_gradient(ex.parse("ln(x1*x1)", COORDS), [3.0, 1.0])[0]
    assert value == pytest.approx(fd, abs=1e-8)
    with pytest.raises(ValueError):
        partials("x1", [1.0, 2.0], order=3)


def test_derivatives_match_finite_differences_on_corpus():
    pts = sample_points(20, seed=1)
    for source in GOLDEN_CORPUS:
        e = ex.parse(source, COORDS)
        got = partials(source, pts)
        for k in range(2):
            for p, d in zip(pts, got[:, k]):
                expected = fd_gradient(e, p)[k]
                scale = max(1.0, abs(expected))
                assert abs(d - expected) / scale < 1e-6, (source, k, p)


def test_nodes_of_constants_alone_make_the_partials_nan():
    # 1/0 and ln(0) stay nodes, since they do not fold to a finite constant;
    # their partials are their rules at the constants' partials 0.0, which is
    # NaN, and a sum's second partials hold no jet, so they read 0
    pts = [[0.5, 0.7], [1.2, 0.3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source, second in (("x1*ln(0)", np.nan), ("x2*(1/0)^2", np.nan),
                               ("x2 + 1/0", 0.0), ("(1/0 - 1/0) + x2", 0.0)):
            assert np.isnan(partials(source, pts)).all(), source
            assert np.array_equal(partials(source, pts, 2), np.full((2, 2, 2), second),
                                  equal_nan=True), source
        # a node class applied to constants, which the smart constructors fold
        for node in (ex.Neg(ex.Const(1.0)), ex.Func("sin", ex.Const(0.5))):
            for order in (1, 2):
                assert not ex.differentiate(np.array([node]), np.array(pts), order).any()


def test_second_derivatives_commute():
    pts = sample_points(25, seed=2)
    for source in GOLDEN_CORPUS:
        hessian = partials(source, pts, order=2)
        a, b = hessian[:, 0, 1], hessian[:, 1, 0]
        scale = np.maximum(1.0, np.abs(a))
        assert (np.abs(a - b) / scale < 1e-10).all(), source


def test_constant_folding_is_literal_only():
    e = ex.parse("2*3 + x1", COORDS)
    assert isinstance(e, ex.Bin) and e.op == "+"
    assert isinstance(e.left, ex.Const) and e.left.value == 6.0
    # x1 * 0 must stay a node: no algebraic rewriting beyond literals
    e2 = ex.parse("x1*0", COORDS)
    assert isinstance(e2, ex.Bin) and e2.op == "*"


def test_variable_exponent_derivative():
    # d/dx2 x1^x2 = x1^x2 ln(x1)
    assert partials("x1^x2", [1.7, 0.8])[0, 1] == pytest.approx(1.7**0.8 * math.log(1.7), rel=1e-12)


def test_evaluation_against_python_eval_oracle():
    # independent reference: translate to Python syntax and let the
    # interpreter evaluate with math functions
    env = {
        "sin": math.sin, "cos": math.cos, "tan": math.tan,
        "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
        "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
    }
    pts = sample_points(25, seed=7)
    for source in GOLDEN_CORPUS:
        e = ex.parse(source, COORDS)
        py = source.replace("^", "**")
        for p in pts:
            expected = eval(py, {"__builtins__": {}}, {**env, "x1": p[0], "x2": p[1]})
            got = evaluate(e, p)
            assert got == pytest.approx(expected, rel=1e-14), (source, p)


def test_equal_subexpressions_parsed_with_one_dict_are_one_node():
    shared = {}
    e = ex.parse("sin(x1)*x2 + sin(x1)*x2", COORDS, shared)
    assert e.left is e.right
    assert ex.parse("1 - sin(x1)*x2", COORDS, shared).right is e.left
    # equal value, not equal structure: the operands' order and the sign of zero are kept
    assert ex.parse("x2*sin(x1)", COORDS, shared) is not e.left
    assert ex.parse("x1*0", COORDS, shared) is not ex.parse("x1*-0", COORDS, shared)
    # without a dict, sharing stops at the source
    assert ex.parse("sin(x1)*x2", COORDS) is not e.left


def test_the_entries_of_a_scenario_share_their_subexpressions(tmp_path):
    payload = json.loads(scenario_path("polar-plane").read_text())
    payload["metric"] = [["1 + x1^2", "0"], ["0", "1 + x1^2"]]
    payload["J"] = {"projection": [["1 + x1^2 - x1^2", "0"], ["0", "1"]]}
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(payload))
    scenario = load_scenario(path)
    assert scenario.metric[0, 0] is scenario.metric[1, 1]
    assert scenario.metric[0, 0] in _subexpressions(scenario.J[0, 0])


def _subexpressions(node):
    out, stack = [], [node]
    while stack:
        out.append(stack.pop())
        stack.extend(out[-1].children())
    return out


def test_signed_zero_is_its_own_node():
    assert math.copysign(1.0, ex.neg(ex.const(0.0)).value) == -1.0
    assert math.copysign(1.0, ex.const(-0.0).value) == -1.0
    assert math.copysign(1.0, ex.const(0.0).value) == 1.0


def test_a_run_builds_no_node(monkeypatch):
    # the fields are parsed at load, and a run computes their partials per
    # chunk as arrays (expr.differentiate's jets), so it only evaluates
    # nodes, whatever its suites and chunks
    built = []
    for cls in (ex.Const, ex.Coord, ex.Neg, ex.Bin, ex.Func):
        init = cls.__init__

        def recording(node, *args, _init=init):
            built.append(type(node).__name__)
            _init(node, *args)

        monkeypatch.setattr(cls, "__init__", recording)
    scenarios = [load_scenario(scenario_path(name)) for name in CORPUS]
    assert built  # the hook sees the nodes a load builds
    built.clear()
    for scenario in scenarios:
        run_suites(scenario, samples=600)
    assert built == []


def test_runs_are_identical_and_leave_the_table_as_they_found_it():
    # the table: the scenario's arrays of expressions, which a run only reads
    scenario = load_scenario(scenario_path("warped-mixing"))
    fields = [scenario.metric.copy(), scenario.J.copy()]
    texts = [run_suites(scenario).to_json() for _ in range(2)]
    assert texts[0] == texts[1]
    for before, after in zip(fields, (scenario.metric, scenario.J)):
        assert all(a is b for a, b in zip(before.flat, after.flat))


def test_a_run_leaves_no_reference_cycles_behind():
    # objects of a run that only the cyclic collector could free would keep
    # its sample arrays and eval memo alive until it runs
    scenario = load_scenario(scenario_path("flat-golden"))
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_suites(scenario)
        gc.collect()
        kinds = {type(obj) for obj in gc.garbage}
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    assert not [k for k in kinds if issubclass(k, (ScenarioContext, ex.Expr))]
    assert types.FunctionType not in kinds
