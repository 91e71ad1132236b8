"""Regenerate bench/reference.json from the sources in src/.

    python3 bench/freeze.py

A reference is the summary (jobs.summarize) of a job's exact twin, so
float jobs are judged against exact arithmetic.  The eval jobs have no
frozen reference: they are checked against y = x^2 and against branch
agreement for whatever abscissae the seed picks.

Freezing from defective sources would make every check pass
vacuously.  The checked-in references come from sources whose exact
verdicts agree with the brute-force oracle in tests/conftest.py;
re-freeze only when an output is meant to change, and say why.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = jobs.Context(seed=0, workdir=workdir)
        refs = {}
        for size in ("full", "tiny"):
            refs[size] = {}
            for workload in jobs.WORKLOADS.values():
                for job in workload[size]:
                    if job.kind == "eval":
                        continue
                    twin = job.exact_twin
                    refs[size][job.name] = jobs.summarize(twin, jobs.run(twin, ctx), ctx)
                    print(size, job.name, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(jobs.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
