"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload scan --size full --seed 1 \
        --spawned <time.monotonic() of the parent just before the spawn>

A fresh process per pass matters: `attractor_ybox` is cached on the
system's value, so a second pass in one process would skip work, and
CLI users pay the cold cost on every invocation.  Prints one JSON line:
the pass record of `jobs.run_pass`, or with --setup-only just
`setup_s`, the time from the spawn through imports, system parsing and
reference loading.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fifkit

    if Path(fifkit.__file__).resolve().parent != ROOT / "src" / "fifkit":
        print(f"fifkit imported from {fifkit.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import jobs
    import tracer

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = jobs.Context(args.seed, workdir)
        refs = jobs.load_references(args.size)
        job_list = jobs.WORKLOADS[args.workload][args.size]
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            record = {"setup_s": setup_s}
        else:
            record = jobs.run_pass(job_list, ctx, refs,
                                   tracer.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
