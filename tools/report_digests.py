"""Print the sha256 of every report a change must keep byte for byte.

Run from anywhere:  python3 tools/report_digests.py > digests.txt

It imports the program from this checkout's src/ and prints one line per
report, "<sha256>  <label>":

- the machine reports of the benchmark's workloads (corpus, dim4-deep and
  wide-batch, from bench/workloads.py) at seeds 1-3;
- the multi-chunk ``metalliclab check`` runs of the CI, machine and human;
- the four ``derive`` outputs on polar-plane at 1.3,0.7.

Two checkouts keep their reports when their outputs are equal:
``diff <(python3 a/tools/report_digests.py) <(python3 b/tools/report_digests.py)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from metalliclab import cli, load_scenario, run_suites  # noqa: E402

SEEDS = (1, 2, 3)

# Multi-chunk check runs, as the CI first ran them: scenario, then the check's
# other flags.  They stay as they were, so that two checkouts print the same
# labels; the CI now runs flat-golden at 4000 samples.
CHECK_RUNS = (
    ("warped-mixing", "--suite core --suite genbundle --suite commutation --samples 16384"),
    ("flat-golden", "--samples 4096"),
    ("warped-mixing", "--samples 4096"),
    ("warped-mixing", "--suite lifts-tangent --suite lifts-cotangent --samples 1500"),
)
DERIVED = ("christoffel", "curvature", "nijenhuis", "gen-nijenhuis")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_output(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def lines(workdir: Path):
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.jobs(workload, seed, workdir):
                report = run_suites(
                    load_scenario(ROOT / job.scenario),
                    suites=list(job.suites) if job.suites is not None else None,
                    samples=job.samples,
                    seed=job.seed,
                )
                yield digest(report.to_json()), f"{workload} seed {seed} {job.answers}"
    for name, flags in CHECK_RUNS:
        for fmt in ("machine", "human"):
            argv = ["check", str(ROOT / f"scenarios/{name}.json"), *flags.split(), "--format", fmt]
            yield digest(cli_output(argv)), f"check {name} {flags} --format {fmt}"
    for what in DERIVED:
        argv = ["derive", str(ROOT / "scenarios/polar-plane.json"), "--what", what]
        yield digest(cli_output([*argv, "--at", "1.3,0.7"])), f"derive polar-plane {what}"


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for sha, label in lines(Path(workdir)):
            print(f"{sha}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
