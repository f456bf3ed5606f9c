"""The benchmark's workloads: which scenarios each runs, and how.

A pass of a workload is a list of jobs, one ``run_suites`` call each.
``corpus`` and ``wide-batch`` run the shipped scenarios; ``dim4-deep`` runs
one n=4 chart written by :func:`dim4_scenario` from the workload seed.  The
known answers that every report is checked against are in answers.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CORPUS = (
    "flat-golden",
    "flat-silver",
    "polar-plane",
    "product-decomposable",
    "sphere-diagJ",
    "sphere-scalarJ",
    "warped-mixing",
)

DIM4_SUITES = ("core", "genbundle", "genconn", "commutation")
DIM4_SAMPLES = 16
WIDE_SUITES = ("core", "genbundle", "commutation")
WIDE_SAMPLES = 4096

# Diagonal metric entries: every template has the same expression shape, so
# the symbolic DAG, and with it the cost of a run, hardly depends on the seed.
# Each is positive on the domain box [0.2, 1.1]^4 for the coefficient ranges
# drawn below.
_METRIC_TEMPLATES = (
    "{a} + {b}*sin(x{j})*x{k}",
    "{a} + {b}*cos(x{j})*x{k}",
    "{a} + {b}*exp(x{j})*x{k}",
)
_OMEGA_TEMPLATES = (
    "{c}*x{j} + x{k}",
    "{c}*x{j}*x{k}",
    "sin({c}*x{j}) + x{k}",
)
_PQ = ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 2.0))
DIM4_DOMAIN = (0.2, 1.1)


@dataclass(frozen=True)
class Job:
    """One ``run_suites`` call: a scenario file and the overrides it runs with."""

    scenario: str  # path relative to the checkout
    answers: str  # key of the scenario's known answers in answers.json
    suites: tuple | None  # None runs the scenario's declared suites
    samples: int | None  # None keeps the scenario's sample count
    seed: int


def dim4_scenario(seed: int) -> dict:
    """A 4-dimensional scenario drawn from ``seed``; same seed, same dict."""
    rng = random.Random(seed)
    n = 4

    def other(j):
        return rng.choice([k for k in range(1, n + 1) if k != j])

    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        j = rng.randint(1, n)
        metric[i][i] = rng.choice(_METRIC_TEMPLATES).format(
            a=f"{rng.uniform(1.0, 2.0):.3f}",
            b=f"{rng.uniform(0.2, 0.9):.3f}",
            j=j,
            k=other(j),
        )
    rank = rng.randint(1, n - 1)
    ones = set(rng.sample(range(n), rank))
    projection = [["1" if i == j and i in ones else "0" for j in range(n)] for i in range(n)]
    omega = []
    for _ in range(n):
        j = rng.randint(1, n)
        omega.append(
            rng.choice(_OMEGA_TEMPLATES).format(c=f"{rng.uniform(0.5, 1.5):.3f}", j=j, k=other(j))
        )
    p, q = rng.choice(_PQ)
    return {
        "schema_version": 1,
        "name": f"dim4-deep-{seed}",
        "description": "synthetic diagonal metric with a constant projection J",
        "dimension": n,
        "coordinates": [f"x{i}" for i in range(1, n + 1)],
        "domain": [list(DIM4_DOMAIN) for _ in range(n)],
        "p": p,
        "q": q,
        "metric": metric,
        "J": {"projection": projection},
        "omega": omega,
        "connection": "levi-civita",
        "suites": list(DIM4_SUITES),
        "samples": DIM4_SAMPLES,
        "seed": seed,
        "tolerance": 1e-9,
    }


def dim4_bytes(seed: int) -> bytes:
    return (json.dumps(dim4_scenario(seed), indent=2) + "\n").encode()


def jobs(workload: str, seed: int, scratch: Path) -> list:
    """The ``run_suites`` calls of one pass, in order.

    Shipped scenarios are named relative to the checkout root, which must be
    the current directory; generated ones are written under ``scratch``.
    """
    if workload == "corpus":
        return [Job(f"scenarios/{name}.json", name, None, None, seed) for name in CORPUS]
    if workload == "wide-batch":
        return [
            Job(f"scenarios/{name}.json", name, WIDE_SUITES, WIDE_SAMPLES, seed)
            for name in CORPUS
        ]
    if workload == "dim4-deep":
        scratch.mkdir(parents=True, exist_ok=True)
        path = scratch / f"dim4-deep-{seed}.json"
        path.write_bytes(dim4_bytes(seed))
        return [Job(str(path), "dim4-deep", None, None, seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("corpus", "dim4-deep", "wide-batch")

# Wall time of one pass, set-up included, on a 2-core x86-64 machine at the
# commit that defined the benchmark.  A run of S seconds makes S // this many
# passes (at least two), so the number of samples per run does not depend on
# how fast the code under test is.  At 44 s that is four passes on corpus and
# wide-batch: the pass-to-pass spread on that machine is about 8%, and with
# 28 verdict samples the corpus median and tail each fall inside a cluster of
# like scenarios rather than on the step between two of them.
NOMINAL_PASS_S = {"corpus": 10.5, "dim4-deep": 20.0, "wide-batch": 10.5}


def load_answers(path: Path) -> dict:
    """Known answers: scenario key -> suite -> check id -> pass | fail | any."""
    return json.loads(path.read_text())


def expected_checks(answers: dict, job: Job) -> dict:
    """Check id -> known verdict, for the suites the job runs."""
    table = answers[job.answers]
    suites = job.suites if job.suites is not None else tuple(table)
    return {cid: verdict for suite in suites for cid, verdict in table[suite].items()}


def score(expected: dict, checks: list | None) -> tuple:
    """Attempted and failed checks of one report, and what went wrong.

    ``checks`` holds (id, passed) pairs read from the machine report, or is
    None when the run raised, hit the memory cap or timed out.  An expected
    check fails when it is missing (a suite collapsed into
    ``<suite>/evaluation`` misses all of its checks), appears more than once,
    or passes where the known answer is a failing control, or the reverse.
    """
    if checks is None:
        return len(expected), len(expected), ["no report"]
    seen: dict = {}
    for cid, passed in checks:
        seen.setdefault(cid, []).append(passed)
    attempted, failed, problems = len(expected), 0, []
    for cid, answer in expected.items():
        verdicts = seen.get(cid, [])
        if len(verdicts) != 1:
            failed += 1
            problems.append(f"{cid} appears {len(verdicts)} times")
        elif answer != "any" and verdicts[0] != (answer == "pass"):
            failed += 1
            problems.append(f"{cid} {'passed' if verdicts[0] else 'failed'}, expected {answer}")
    for cid, verdicts in seen.items():
        if cid not in expected:
            problems.append(f"{cid} is not a known check")
            if len(verdicts) > 1:
                attempted += len(verdicts) - 1
                failed += len(verdicts) - 1
    return attempted, failed, problems
