"""The rules that reduce a check's outputs (suites.Rule).

For each rule and any split of an output's rows into chunks, reducing all
the rows at once equals folding the reductions of the chunks in order, each
numbering its rows from its first, and it equals the closed-form repeat of
the reduction of one copy of the rows.  Outputs hold NaN, infinities, -0.0,
ties, empty arrays and lifted [m, F, ...] rows.
"""

import functools
import math

import numpy as np
import pytest

from metalliclab import suites

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RULES = {
    "max": suites.MAX,
    "max_each": suites.MAX_EACH,
    "min": suites.MIN,
    "sum": suites.SUM,
    "last": suites.LAST,
}
SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 0.0)
TRAILING = ((), (3,), (2, 2), (0,), (2, 0))


def _array(rng, m, fibre, trailing):
    """Small integers, so that ties are common, or in a third of the arrays
    0.0, -0.0 and 1.0 alone, so that a minimum is often a zero of either
    sign; with a few special values; [m, fibre, ...] when the rows are lifted."""
    shape = (m, fibre, *trailing) if fibre > 1 else (m, *trailing)
    if rng.integers(0, 3):
        a = rng.integers(-3, 4, size=shape).astype(float)
    else:
        a = rng.choice([0.0, -0.0, 1.0], size=shape)
    for _ in range(rng.integers(0, 4) if a.size else 0):
        a.flat[rng.integers(0, a.size)] = SPECIALS[rng.integers(0, len(SPECIALS))]
    return a


def _output(rng, name, m, fibre):
    """An output of the rule ``name``: one array, or for max a list of
    arrays, or for max_each a list of entries, each an array or a tuple."""

    def array():
        return _array(rng, m, fibre, TRAILING[rng.integers(0, len(TRAILING))])

    if name == "max" and rng.integers(0, 2):
        return [array() for _ in range(rng.integers(0, 4))]
    if name == "max_each":
        entries = [array() for _ in range(rng.integers(0, 4))]
        return [tuple(array() for _ in range(2)) if rng.integers(0, 2) else a for a in entries]
    return array()


def _mapped(value, f):
    """``value`` with ``f`` applied to each of its arrays, its lists and tuples kept."""
    if isinstance(value, np.ndarray):
        return f(value)
    return type(value)(_mapped(v, f) for v in value)


def _same(a, b) -> bool:
    """Equal, NaN equal to NaN and the sign of a zero compared."""
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (
            isinstance(a, (list, tuple))
            and isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


@st.composite
def _cases(draw, name):
    """(value, m, fibre, the chunk bounds over the m samples, copies)."""
    m = draw(st.integers(1, 9))
    fibre = draw(st.sampled_from((1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = draw(st.sets(st.integers(1, m - 1), max_size=m - 1)) if m > 1 else set()
    bounds = [0, *sorted(cuts), m]
    return _output(rng, name, m, fibre), m, fibre, bounds, draw(st.integers(1, 5))


@pytest.mark.parametrize("name", sorted(RULES))
def test_the_whole_is_the_fold_of_its_chunks_and_the_repeat_of_its_copies(name):
    rule = RULES[name]

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(_cases(name))
    @np.errstate(invalid="ignore")  # a sum of inf and -inf is NaN
    def check(case):
        value, m, fibre, bounds, copies = case
        whole = rule.reduce(value, m * fibre)
        chunks = [
            rule.reduce(_mapped(value, lambda a: a[s:e]), (e - s) * fibre, s * fibre)
            for s, e in zip(bounds, bounds[1:])
        ]
        assert _same(functools.reduce(rule.fold, chunks), whole), (chunks, whole)
        repeated = rule.reduce(
            _mapped(value, lambda a: np.concatenate([a] * copies)), copies * m * fibre
        )
        assert _same(rule.repeat(whole, copies), repeated), (whole, repeated)
        # a generator of the arrays reduces as the list of them does
        if name == "max" and isinstance(value, list):
            assert _same(rule.reduce(iter(value), m * fibre), whole)

    check()


def test_a_minimum_of_zeros_of_both_signs_is_the_same_over_any_chunks():
    # numpy's minimum of 0.0 and -0.0 depends on where they lie in the array
    # (its vectorised loops take lanes in blocks), so the rule reads a zero as
    # +0.0; arrays past the width of a block show it
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.choice([0.0, -0.0, 1.0], size=rng.integers(2, 120))
        cut = rng.integers(1, len(a))
        whole = suites.MIN.reduce(a, len(a))
        parts = suites.MIN.reduce(a[:cut], cut), suites.MIN.reduce(a[cut:], len(a) - cut, cut)
        assert _same(suites.MIN.fold(*parts), whole), (a.tolist(), cut)
        assert _same(whole, (0.0, math.inf)) or whole == (1.0, math.inf)


def test_every_detail_of_the_corpus_reports_has_a_declared_rule(corpus_reports):
    checks = {check.cid: check for check in suites.CHECKS}
    seen = set()
    for name, report in corpus_reports.items():
        for result in report.checks:
            check = checks[result.check_id]
            for key in result.details:
                declared = key in check.rules or key in check.details or key == "error"
                assert declared, (name, result.check_id, key)
                seen.add(key)
    assert len(seen) >= 10, seen
