"""One fresh process of the benchmark: set up, then time one cold pass.

Run from the checkout root by ``run.py``; prints one JSON object per line:
the set-up time, one record per ``run_suites`` call, and the pass totals.
Under ``--mode trace`` it also wraps the program's modules (see tracing.py)
and prints the per-layer metrics.  An exception raised by a call (a traceback,
or ``MemoryError`` under the address-space cap) is reported in that call's
record and the pass goes on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads

EXIT_NO_PROGRAM = 3
MEMORY_CAP_MB = 4096  # address space; the seed peaks near 1 GiB RSS on dim4-deep
OUT = Path(__file__).resolve().parent / "out"


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def import_program(root: Path):
    """Import metalliclab from the checkout's src/, never an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import metalliclab

    if not Path(metalliclab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"metalliclab was imported from {metalliclab.__file__}, not {src}")
    return metalliclab


def load_job(ml, job):
    """The job's scenario, or the error that rejected it."""
    try:
        return ml.load_scenario(job.scenario), None
    except Exception as err:  # noqa: BLE001 - a rejected scenario fails its checks
        return None, f"{type(err).__name__}: {err}"


def run_job(ml, scenario, job) -> dict:
    """One ``run_suites`` call and its machine report, timed."""
    start = time.perf_counter()
    try:
        report = ml.run_suites(
            scenario,
            suites=list(job.suites) if job.suites is not None else None,
            samples=job.samples,
            seed=job.seed,
        )
        text = report.to_json()
    except Exception as err:  # noqa: BLE001 - a failed call becomes failed checks
        return {"error": f"{type(err).__name__}: {err}", "verdict_s": time.perf_counter() - start}
    verdict_s = time.perf_counter() - start
    data = json.loads(text)
    return {
        "verdict_s": verdict_s,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
        "checks": [[c["id"], c["passed"]] for c in data["checks"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--mode", choices=("full", "setup", "trace"), default="full")
    args = parser.parse_args(argv)

    cap = MEMORY_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        ml = import_program(Path.cwd())
    except ImportError as err:
        print(f"cannot import the program: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    tracer = None
    if args.mode == "trace":
        import numpy

        import tracing

        tracer = tracing.Tracer()
        tracer.install(numpy)

    jobs = workloads.jobs(args.workload, args.seed, OUT)
    load_start = time.perf_counter()
    loaded = [load_job(ml, job) for job in jobs]
    load_s = time.perf_counter() - load_start
    emit({"setup_s": time.monotonic() - args.spawned, "load_s": load_s})
    if args.mode == "setup":
        return 0

    first = tracer.start_pass() if tracer else 0
    run_s = 0.0
    for i, (job, (scenario, error)) in enumerate(zip(jobs, loaded)):
        if scenario is None:
            record = {"error": error}
        else:
            record = run_job(ml, scenario, job)
            run_s += record["verdict_s"]
        if tracer:
            tracer.end_job()
        emit({"job": i, **record})
    emit({"run_s": run_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})

    if tracer:
        metrics = tracing.layer_metrics(tracer, first, run_s)
        metrics["scenario.load_s"] = (load_s, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.json", first)
        emit({"trace": metrics, "missing": tracer.missing})
    return 0


if __name__ == "__main__":
    sys.exit(main())
