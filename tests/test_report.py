"""The MAX rule of a check's outputs, one argmax per array through
report.largest_entry, against the per-sample oracle."""

import math

import numpy as np
import pytest

from metalliclab import suites
from metalliclab.report import largest_entry

from helpers import per_sample_worst

M = 9
POINTS = np.arange(2.0 * M).reshape(M, 2)
TRAILING = ((), (3,), (2, 2), (2, 3, 2))


def max_rule(residuals, points):
    """The MAX rule's reduction of one array or a list of them over the rows
    of ``points``, its row read as the point of that row."""
    value, row = suites.MAX.reduce(residuals, len(points))
    return value, None if row == math.inf else tuple(float(v) for v in points[row])


def _same(got, expected):
    """Equal residual bits (the sign of a zero included) and equal witness."""
    assert got[1] == expected[1]
    assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes(), (got, expected)


def _array(rng, trailing, specials):
    """Small integers, so that ties are common, with NaN, -inf, inf or -0.0
    put at random entries when ``specials`` is set."""
    a = rng.integers(-3, 4, size=(M,) + trailing).astype(float)
    if specials:
        for _ in range(rng.integers(0, 3)):
            a.flat[rng.integers(0, a.size)] = rng.choice([np.nan, np.inf, -np.inf, -0.0])
    return a


@pytest.mark.parametrize("specials", (False, True))
def test_one_array_equals_the_per_sample_path(specials):
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = _array(rng, TRAILING[rng.integers(0, len(TRAILING))], specials)
        _same(max_rule(a, POINTS), per_sample_worst(a, POINTS))


@pytest.mark.parametrize("specials", (False, True))
def test_a_list_of_mixed_shapes_equals_the_per_sample_path(specials):
    rng = np.random.default_rng(32)
    for _ in range(200):
        shapes = [TRAILING[k] for k in rng.integers(0, len(TRAILING), size=rng.integers(1, 5))]
        arrays = [_array(rng, shape, specials) for shape in shapes]
        _same(max_rule(arrays, POINTS), per_sample_worst(arrays, POINTS))


def test_a_tie_across_samples_gives_the_first():
    a = np.zeros((M, 2, 2))
    a[6, 1, 0], a[3, 1, 1], a[5, 0, 0] = 2.0, 2.0, -2.0
    _same(max_rule(a, POINTS), (2.0, tuple(POINTS[3])))
    _same(per_sample_worst(a, POINTS), (2.0, tuple(POINTS[3])))
    # a negative entry ties with a positive one by its absolute value
    a[1, 0, 1] = -2.0
    _same(max_rule(a, POINTS), (2.0, tuple(POINTS[1])))


def test_a_tie_across_the_arrays_of_a_list_gives_the_first_sample():
    first, second = np.zeros(M), np.zeros((M, 3, 3))
    first[5], second[2, 2, 1] = 4.0, -4.0
    for arrays in ([first, second], [second, first]):
        _same(max_rule(arrays, POINTS), (4.0, tuple(POINTS[2])))
        _same(per_sample_worst(arrays, POINTS), (4.0, tuple(POINTS[2])))
    # the larger value wins over an earlier sample
    first[0] = 5.0
    _same(max_rule([second, first], POINTS), (5.0, tuple(POINTS[0])))


def test_nan_reads_as_infinite_and_the_first_such_sample_is_the_witness():
    a = np.ones((M, 2))
    a[4, 1] = np.nan
    _same(max_rule(a, POINTS), (math.inf, tuple(POINTS[4])))
    # an infinite entry before a NaN: argmax alone would stop at the NaN
    a[2, 0] = -np.inf
    _same(max_rule(a, POINTS), (math.inf, tuple(POINTS[2])))
    # a NaN before an infinite entry
    a[1, 1] = np.nan
    _same(max_rule(a, POINTS), (math.inf, tuple(POINTS[1])))
    # across a list: an infinite entry in the first array after a NaN in the second
    first, second = np.zeros((M, 2)), np.zeros(M)
    first[6, 0], second[3] = np.inf, np.nan
    _same(max_rule([first, second], POINTS), (math.inf, tuple(POINTS[3])))
    for arrays in (a, [first, second]):
        _same(max_rule(arrays, POINTS), per_sample_worst(arrays, POINTS))


def test_negative_zero_reads_as_zero_at_the_first_sample():
    a = np.full((M, 3), -0.0)
    got = max_rule(a, POINTS)
    _same(got, (0.0, tuple(POINTS[0])))
    assert math.copysign(1.0, got[0]) == 1.0
    _same(got, per_sample_worst(a, POINTS))


def test_empty_arrays_give_zero_and_no_witness():
    for shape in ((0,), (0, 3, 3), (M, 0), (M, 2, 0)):
        a = np.zeros(shape)
        _same(max_rule(a, POINTS), (0.0, None))
        _same(per_sample_worst(a, POINTS), (0.0, None))
        assert largest_entry(a) == (0.0, None)
    # an empty array in a list adds nothing
    b = np.zeros((M, 2))
    b[7, 1] = 1.5
    _same(max_rule([np.zeros((M, 0)), b, np.zeros((M, 3, 0))], POINTS), (1.5, tuple(POINTS[7])))
    _same(max_rule([np.zeros((0, 2)), np.zeros(0)], POINTS), (0.0, None))
    _same(max_rule([], POINTS), (0.0, None))


def test_the_entry_names_the_sample_and_leaves_the_array_alone():
    a = np.zeros((M, 2, 3))
    a[4, 1, 2] = np.nan
    a[8, 0, 0] = -7.0
    before = a.copy()
    assert largest_entry(a) == (math.inf, 4)
    assert np.array_equal(a, before, equal_nan=True)
