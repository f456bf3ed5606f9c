"""Benchmark of metalliclab's ``run_suites``: set-up, verdict latency, memory.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 44 --trace 0

Workloads (see workloads.py):

* ``corpus``: the 7 shipped scenarios with their declared suites; this is
  what users and the acceptance tests run.  Light n=2 scenarios set the
  median verdict time, the DAG-heavy n=3 ones the tail.
* ``dim4-deep``: one n=4 chart generated from the seed, where symbolic DAG
  size dominates time and memory.
* ``wide-batch``: the corpus with core, genbundle and commutation at 4096
  samples: few DAG nodes over long arrays, and one genbundle call per sample.
* ``all``: the three in turn, metrics prefixed by the workload name.

Each pass runs in a fresh child process (child.py) with an address-space cap
and a wall-clock budget: one closed-loop client running its scenarios one
after another, single-threaded BLAS.  The first pass of a process is the one
timed, as every ``metalliclab check`` invocation pays it.  A run makes
``--seconds`` divided by the workload's nominal pass time (at least two)
passes, then set-up-only processes until it has four set-up times, and
reports medians.  Every report is checked against the known answers in
answers.json, and its digest must match across the passes of the run.
A call that raised still gives a verdict sample: the time to its failure.

With ``--trace 1`` the run makes one untraced pass and one traced pass and
prints the per-layer metrics of tracing.py instead; ``trace.overhead_s`` is the
traced pass's time minus the untraced one's.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, each metric a value with its unit.  ``attempted`` counts the known
checks over all passes and ``failed`` those that were missing, duplicated,
gave the wrong verdict or whose run raised, hit the memory cap or timed out;
``failed_share`` is failed over attempted, printed with the other metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
MIN_PASSES = 2
SETUP_SAMPLES = 4
BUDGET_S = 160.0  # all children of one run end within this; the run within 180 s
TAIL_BEYOND = 10
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class NoProgram(Exception):
    """The checkout holds no program to benchmark."""


@dataclass
class Child:
    """What one child process printed, and how it ended."""

    wall_s: float
    code: int | None  # None: killed at the budget
    records: list = field(default_factory=list)
    stderr: str = ""

    def first(self, key):
        return next((r for r in self.records if key in r), None)

    @property
    def jobs(self) -> dict:
        return {r["job"]: r for r in self.records if "job" in r}

    @property
    def complete(self) -> bool:
        return self.code == 0 and self.first("run_s") is not None


def tail(samples: list, beyond: int = TAIL_BEYOND) -> tuple:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond).  Percentiles are nearest
    rank: the k-th smallest of n samples is the 100*k/n-th percentile.  A
    tail is never taken below the median (rank n//2 + 1 at least); with
    ``beyond`` samples or fewer no percentile qualifies and the maximum is
    returned, none beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    k = max(n - beyond, n // 2 + 1)  # rank of the value, counted from 1
    return xs[k - 1], 100.0 * k / n, n - k


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Child:
    spawned = time.monotonic()
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--spawned", repr(spawned),
        "--mode", mode,
    ]
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - spawned),
        )
        stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the child
        stdout, stderr, code = err.stdout or "", err.stderr or "", None
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
    wall_s = time.monotonic() - spawned
    if code == 3:
        raise NoProgram(stderr.strip())
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return Child(wall_s, code, records, stderr)


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    problems: list
    metrics: dict  # name -> (value, unit)
    notes: list


def score_passes(jobs: list, expected: list, passes: list) -> tuple:
    """Attempted and failed checks over all passes, problems, and digest agreement."""
    attempted = failed = 0
    problems = []
    digests: dict = {}
    for child in passes:
        records = child.jobs
        for i, job in enumerate(jobs):
            record = records.get(i)
            checks = None if record is None or "error" in record else record["checks"]
            if record is None:
                problems.append(f"{job.scenario}: no result ({child_status(child)})")
            elif "error" in record:
                problems.append(f"{job.scenario}: {record['error']}")
            a, f, p = workloads.score(expected[i], checks)
            attempted += a
            failed += f
            problems += [f"{job.scenario}: {x}" for x in p if x != "no report"]
            if checks is not None:
                digests.setdefault(i, set()).add(record["digest"])
    for i, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{jobs[i].scenario}: reports differ between passes of one seed")
    return attempted, failed, problems


def child_status(child: Child) -> str:
    if child.code is None:
        return "timed out"
    last = child.stderr.strip().splitlines()[-1:] or [""]
    return f"exit code {child.code} {last[0]}".strip()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    deadline = time.monotonic() + BUDGET_S
    jobs = workloads.jobs(workload, seed, BENCH / "out")
    answers = workloads.load_answers(BENCH / "answers.json")
    expected = [workloads.expected_checks(answers, job) for job in jobs]

    passes: list = []
    if trace:
        passes.append(spawn(workload, seed, "full", deadline))
        if passes[-1].complete:
            passes.append(spawn(workload, seed, "trace", deadline))
    else:
        count = max(MIN_PASSES, int(seconds // workloads.NOMINAL_PASS_S[workload]))
        for _ in range(count):
            passes.append(spawn(workload, seed, "full", deadline))
            if not passes[-1].complete or time.monotonic() + passes[-1].wall_s > deadline:
                break
    attempted, failed, problems = score_passes(jobs, expected, passes)
    complete = [c for c in passes if c.complete]
    reports = complete[0].jobs if complete else {}
    notes = [
        "report digests: "
        + ", ".join(
            f"{Path(job.scenario).stem} {reports[i]['digest'][:12]}"
            for i, job in enumerate(jobs)
            if "digest" in reports.get(i, {})
        )
    ]
    metrics: dict = {}
    if trace:
        found = complete[1].first("trace") if len(complete) == 2 else None
        if found:
            untraced = complete[0].first("run_s")["run_s"]
            traced = complete[1]
            metrics = {k: tuple(v) for k, v in found["trace"].items()}
            metrics["trace.overhead_s"] = (traced.first("run_s")["run_s"] - untraced, "s")
            rendered = [r for r in traced.jobs.values() if "checks" in r]
            metrics["suites.checks"] = (sum(len(r["checks"]) for r in rendered), "count")
            metrics["report.bytes"] = (sum(r["bytes"] for r in rendered), "B")
            if found["missing"]:
                notes.append("hooks not found, their metrics absent: " + ", ".join(found["missing"]))
        return Result(workload, attempted, failed, problems, metrics, notes)

    setups = [c.first("setup_s")["setup_s"] for c in passes if c.first("setup_s")]
    if complete:
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            child = spawn(workload, seed, "setup", deadline)
            if child.code != 0 or child.first("setup_s") is None:
                problems.append(f"set-up process failed: {child_status(child)}")
                break
            setups.append(child.first("setup_s")["setup_s"])
    verdicts = [r["verdict_s"] for c in complete for r in c.jobs.values() if "verdict_s" in r]
    if not complete or not verdicts or not setups:
        return Result(workload, attempted, failed, problems, {}, notes)
    value, percentile, beyond = tail(verdicts)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(c.first("run_s")["run_s"] for c in complete), "s"),
        "verdict_s_p50": (statistics.median(verdicts), "s"),
        "verdict_s_tail": (value, "s"),
        "peak_rss_mb": (statistics.median(c.first("run_s")["peak_rss_mb"] for c in complete), "MB"),
    }
    notes.append(
        f"{len(complete)} passes, {len(setups)} set-ups, {len(verdicts)} verdict samples; "
        f"tail is p{percentile:.1f} with {beyond} samples beyond it"
    )
    return Result(workload, attempted, failed, problems, metrics, notes)


def print_result(result: Result) -> None:
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"workload {result.workload}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_share':<32} {share:>14.6g} ratio ({result.failed} of {result.attempted} checks)")
    for note in result.notes:
        print(f"  {note}")
    for problem in result.problems[:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "metalliclab" / "__init__.py").is_file():
        print("no src/metalliclab here: run from the root of a metalliclab checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_result(results[-1])
    except NoProgram as err:
        print(f"the program could not be imported: {err}", file=sys.stderr)
        return 2
    if any(not r.metrics for r in results):
        print("no pass completed: nothing to report", file=sys.stderr)
        return 1
    metrics = {}
    for r in results:
        prefix = f"{r.workload}." if args.workload == "all" else ""
        for name, (value, unit) in r.metrics.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r.failed for r in results)
    correct = failed == 0 and not any(r.problems for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.attempted for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
