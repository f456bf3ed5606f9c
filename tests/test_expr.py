import gc
import math
import types

import numpy as np
import pytest

from metalliclab import expr as ex
from metalliclab.errors import DomainError, ParseError
from metalliclab.scenario import load_scenario
from metalliclab.suites import ConnBundle, ScenarioContext, run_suites

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


def test_evaluation_deterministic():
    e = ex.parse("sin(x1)*exp(x2) - x1^2/(x2 + 2)", COORDS)
    pts = sample_points(16, seed=5)
    a = ex.eval_batch(e, pts)
    b = ex.eval_batch(e, pts)
    assert (a == b).all()


def test_differentiate_examples():
    e = ex.parse("sin(x1)^2", COORDS)
    d = ex.differentiate(e, 0)
    assert evaluate(d, [math.pi / 4, 0.0]) == pytest.approx(1.0, abs=1e-15)

    zero = ex.differentiate(ex.parse("x1", COORDS), 1)
    assert evaluate(zero, [2.0, 3.0]) == 0.0

    e2 = ex.parse("ln(x1*x1)", COORDS)
    d2 = ex.differentiate(e2, 0)
    value = evaluate(d2, [3.0, 1.0])
    assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
    fd = fd_gradient(e2, [3.0, 1.0])[0]
    assert value == pytest.approx(fd, abs=1e-8)


def test_derivatives_match_finite_differences_on_corpus():
    pts = sample_points(20, seed=1)
    for source in GOLDEN_CORPUS:
        e = ex.parse(source, COORDS)
        for k in range(2):
            d = ex.differentiate(e, k)
            for p in pts:
                expected = fd_gradient(e, p)[k]
                got = evaluate(d, p)
                scale = max(1.0, abs(expected))
                assert abs(got - expected) / scale < 1e-6, (source, k, p)


def test_second_derivatives_commute():
    pts = sample_points(25, seed=2)
    for source in GOLDEN_CORPUS:
        e = ex.parse(source, COORDS)
        d01 = ex.differentiate(ex.differentiate(e, 0), 1)
        d10 = ex.differentiate(ex.differentiate(e, 1), 0)
        a = ex.eval_batch(d01, pts)
        b = ex.eval_batch(d10, pts)
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
    e = ex.parse("x1^x2", COORDS)
    d = ex.differentiate(e, 1)  # d/dx2 = x1^x2 ln(x1)
    x = [1.7, 0.8]
    assert evaluate(d, x) == pytest.approx(1.7**0.8 * math.log(1.7), rel=1e-12)


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


def test_equal_constructor_calls_return_one_node():
    with ex.fresh_table():
        x1, x2 = ex.coord(0), ex.coord(1)
        assert ex.coord(0) is x1 and ex.const(2) is ex.const(2.0)
        assert ex.add(x1, x2) is ex.add(x1, x2)
        assert ex.mul(x1, 3) is ex.mul(ex.coord(0), ex.const(3.0))
        assert ex.func("sin", x1) is ex.func("sin", x1)
        assert ex.neg(x1) is ex.neg(ex.coord(0))
        assert ex.parse("sin(x1)^2 - x2/3", COORDS) is ex.parse("sin(x1)^2 - x2/3", COORDS)
        # equal structure, not equal value: the operands' order is kept
        assert ex.add(x1, x2) is not ex.add(x2, x1)


def test_derivatives_are_cached_per_node_and_coordinate():
    with ex.fresh_table():
        e = ex.parse("x1^x2 * exp(x1*x2)", COORDS)
        d1 = ex.differentiate(e, 0)
        assert ex.differentiate(e, 0) is d1
        assert ex.differentiate(e, 1) is not d1
        # a structurally equal node built separately shares the derivative
        assert ex.differentiate(ex.parse("x1^x2 * exp(x1*x2)", COORDS), 0) is d1


def test_signed_zero_is_its_own_node():
    with ex.fresh_table():
        assert ex.const(0.0) is not ex.const(-0.0)
        assert ex.const(-0.0) is ex.neg(ex.const(0.0))
        assert math.copysign(1.0, ex.const(-0.0).value) == -1.0
        assert math.copysign(1.0, ex.const(0.0).value) == 1.0


def test_nan_constants_are_never_interned():
    with ex.fresh_table():
        a, b = ex.const(math.nan), ex.const(math.nan)
        assert a is not b
        pts = sample_points(4)
        for e in (a, b, ex.add(ex.coord(0), a)):
            assert not np.isfinite(ex.eval_batch(e, pts)).any()


def test_fresh_table_restores_the_previous_table():
    outer = ex._table
    size = len(outer)
    with ex.fresh_table():
        assert ex._table is not outer
        ex.parse("x1*x2 + cos(x1)", COORDS)
    assert ex._table is outer and len(outer) == size
    with pytest.raises(RuntimeError):
        with ex.fresh_table():
            ex.parse("x1 - 7", COORDS)
            raise RuntimeError("inside the block")
    assert ex._table is outer and len(outer) == size


def _structure(node, numbers, shapes):
    """Number ``node`` by its structure, read from its public fields only.

    ``numbers`` maps node ids to numbers and ``shapes`` structural keys to
    numbers; a key holds its children's numbers, so it stays flat.
    """
    hit = numbers.get(id(node))
    if hit is None:
        if isinstance(node, ex.Const):
            data = repr(node.value)  # tells -0.0 from 0.0
        elif isinstance(node, ex.Coord):
            data = (node.index, node.name)
        elif isinstance(node, ex.Bin):
            data = node.op
        elif isinstance(node, ex.Func):
            data = node.name
        else:
            data = None
        kids = tuple(_structure(k, numbers, shapes) for k in node.children())
        key = (type(node).__name__, data, kids)
        hit = numbers[id(node)] = shapes.setdefault(key, len(shapes))
    return hit


def test_tensors_of_a_scenario_hold_no_duplicate_structure():
    # the scenario's fields and the partials it built of them (g to second
    # order) share the scenario's table, so the nodes reachable from them count too
    total = 0
    for name in CORPUS:
        scenario = load_scenario(scenario_path(name))
        roots = list(scenario.dg.flat) + list(scenario.d2g.flat) + list(scenario.dJ.flat)
        roots += list(scenario.metric.flat) + list(scenario.J.flat)
        nodes, stack = {}, roots
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.children())
        numbers: dict = {}
        shapes: dict = {}
        for node in nodes.values():
            _structure(node, numbers, shapes)
        assert len(shapes) == len(nodes), name
        total += len(nodes)
    assert total > 100


def test_loading_a_scenario_leaves_the_module_table_alone():
    size = len(ex._table)
    load_scenario(scenario_path("product-decomposable"))
    assert len(ex._table) == size


def test_a_run_builds_no_node(monkeypatch):
    # the partials of the leaf fields are built at load, so a run only
    # evaluates nodes, whatever its suites and chunks
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
    scenario = load_scenario(scenario_path("warped-mixing"))
    size = len(ex._table)
    texts = []
    for _ in range(2):
        texts.append(run_suites(scenario).to_json())
        assert len(ex._table) == size
    assert texts[0] == texts[1]


def test_a_run_leaves_no_reference_cycles_behind():
    # objects of a run that only the cyclic collector could free would keep
    # its sample arrays, eval memo and interning table alive until it runs
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
    assert not [k for k in kinds if issubclass(k, (ScenarioContext, ConnBundle, ex.Expr))]
    assert types.FunctionType not in kinds
