"""Seeded fuzzing of the scenario file: a corpus file mutated in one to three
places either runs (exit 0 or 1) or is an input error (exit 2), and nothing
escapes ``cli.main``.

A mutation replaces a field, or an entry nested in one, with a JSON value of
any type, or deletes it.  Under ``coordinates`` it draws names, most of them
not identifiers; under the expression fields it draws expression strings
from a grammar over the parser's functions.  ``derandomize=True`` makes the
cases the same on every run.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from metalliclab.cli import main
from metalliclab.expr import FUNCTION_NAMES

from conftest import CORPUS, scenario_path

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EXAMPLES = 200
DELETE = object()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# coordinate names, most of them not identifiers
NAMES = st.sampled_from(["", "1x", "x 1", "x-1", "_x", "xé", "x1", "sin"]) | st.text(max_size=4)


def expressions(coords):
    """Expression strings over ``coords``: numbers, the coordinates and
    stray names, joined by the parser's operators and functions."""
    leaves = st.sampled_from([*coords, "z", "0", "1", "2.5", "1e308", "1e-320"])
    return st.recursive(
        leaves,
        lambda e: st.builds("{} {} {}".format, e, st.sampled_from("+-*/^"), e)
        | st.builds("{}({})".format, st.sampled_from(FUNCTION_NAMES), e)
        | st.builds("-({})".format, e),
        max_leaves=8,
    )


def _children(node):
    """The indices or keys of a list or object, none of anything else."""
    if isinstance(node, list):
        return list(range(len(node)))
    return sorted(node) if isinstance(node, dict) else []


@st.composite
def mutated_scenarios(draw):
    payload = json.loads(scenario_path(draw(st.sampled_from(CORPUS))).read_text())
    coords = [name for name in payload["coordinates"] if isinstance(name, str)]
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(sorted(payload)))
        target, key = payload, field
        while _children(target[key]) and draw(st.booleans()):
            target, key = target[key], draw(st.sampled_from(_children(target[key])))
        values = JSON_VALUES | st.just(DELETE)
        if field == "coordinates":
            values = NAMES | values
        elif field in ("metric", "J", "omega", "connection"):
            values = expressions(coords) | values
        value = draw(values)
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
    return json.dumps(payload)


def test_no_mutation_of_a_corpus_file_escapes_main(tmp_path):
    path = tmp_path / "scenario.json"

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(mutated_scenarios())
    def run(text):
        path.write_text(text)
        # a mutation may ask for 10^12 samples, which loads: --samples 8 bounds the run
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["check", str(path), "--samples", "8"]) in (0, 1, 2)

    run()
