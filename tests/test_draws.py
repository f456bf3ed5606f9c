"""The program's draws: numpy's shuffles replayed without numpy.random, the
counter stream of the uniform draws, and a run that imports neither
numpy.random nor hashlib."""

import math
import subprocess
import sys

import numpy as np
import pytest

from metalliclab import draws
from metalliclab import lifts as lf

from conftest import CORPUS, SCENARIO_DIR, scenario_path

# every shuffle of a d = 6 Halton table, in the order the sampler draws them
HALTON_SIZES = [b for b in (2, 3, 5, 7, 11, 13) for _ in range(math.ceil(54 / math.log2(b)) - 1)]


@pytest.mark.parametrize("seed", [*range(51), 2**32 + 5, 2**70 + 3, 2**130])
def test_the_shuffles_are_numpys_default_rng_shuffles(seed):
    rng = np.random.default_rng(seed)
    expected = []
    for size in HALTON_SIZES:
        perm = np.arange(size)
        rng.shuffle(perm)
        expected.append(perm.tolist())
    shuffle = draws.shuffler(seed)
    assert [shuffle(size) for size in HALTON_SIZES] == expected


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1, 2**64, 2**200 + 9])
def test_a_range_of_draws_is_that_range_of_a_longer_draw(seed):
    for stream in (0, 1, 2):
        whole = draws.uniform(5000, seed, stream)
        assert whole.dtype == np.float64
        assert (whole >= -1.0).all() and (whole < 1.0).all()
        for first, count in ((0, 1), (1, 7), (455, 910), (4999, 1)):
            part = draws.uniform(count, seed, stream, first)
            assert np.array_equal(part, whole[first : first + count])


def test_streams_and_seeds_that_differ_above_64_bits_draw_apart():
    assert not np.array_equal(draws.uniform(64, 5, 0), draws.uniform(64, 5, 1))
    assert not np.array_equal(lf.fibre_points(3, 64, 5), lf.fibre_points(3, 64, 5 + 2**64))


def test_a_run_imports_neither_numpy_random_nor_hashlib():
    # numpy.random's import pulls in hashlib through secrets, and both cost
    # every process memory and start-up time that the draws do not need
    assert sorted(CORPUS) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
    paths = [str(scenario_path(name)) for name in CORPUS]
    code = f"""
import contextlib, io, sys
from metalliclab import cli
for path in {paths!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", path]) == 0, path
loaded = [name for name in ("numpy.random", "hashlib") if name in sys.modules]
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
