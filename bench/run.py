"""fifkit benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload scan --seed 1 --seconds 60 --trace 0

Runs whole passes of the workload's jobs (bench/jobs.py), each pass in
a fresh interpreter (bench/worker.py), one at a time, for as many
passes as fit in --seconds (at least one); then prints a report and,
as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}.  With --trace 0
the metrics are the end-to-end ones, medians over untraced passes.
With --trace 1, traced and untraced passes alternate and the metrics
are the per-layer ones (bench/tracer.py), with trace.overhead_s the
difference of the two kinds' median pass times.  Every time in the JSON
is rescaled to a reference machine speed measured during the pass, or
just around the set-up (bench/speed.py; see bench/NOTES.md).

Workloads: scan, graph and float (see bench/NOTES.md).  The seed picks
only the evaluate_f abscissae; it never changes job sizes.  --size tiny
runs the small variant used by bench/tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "separation.wsp_check_1d.calls": "count",
    "separation.wsp_check_1d.self_s": "s",
    "separation.wsp_check_2d.calls": "count",
    "separation.wsp_check_2d.self_s": "s",
    "separation.words": "count",
    "separation.words_per_s": "1/s",
    "separation.coincidences": "count",
    "affine.compose_word.calls": "count",
    "affine.compose_word.self_s": "s",
    "affine.compose.calls": "count",
    "attractor.sample_attractor.calls": "count",
    "attractor.sample_attractor.self_s": "s",
    "attractor.sample_points": "count",
    "attractor.modulus_of_continuity.calls": "count",
    "attractor.modulus_of_continuity.self_s": "s",
    "attractor.evaluate_f.calls": "count",
    "attractor.evaluate_f.self_s": "s",
    "orbits.suggest_eps.self_s": "s",
    "orbits.epsilon_net.self_s": "s",
    "orbits.iterate_orbit.self_s": "s",
    "orbits.orbit_points": "count",
    "orbits.detect_parabola.self_s": "s",
    "specfile.parse_ifs_file.self_s": "s",
    "cli.main.self_s": "s",
    "svg.graph_svg.self_s": "s",
    "trace.overhead_s": "s",
}

# job-group metrics, reported on the workloads that have the group
GROUPS = ("wsp_s", "net_s", "render_s", "parabola_s", "eval_s")

# set-up-only processes per pass
SETUP_PROBES = 3
# every run, its build included, must end well within 180 s
RUN_LIMIT_S = 170.0


class PassFailed(Exception):
    pass


def _spawn(workload, size, seed, timeout, trace=False, setup_only=False):
    env = dict(os.environ)
    env.pop("FIFKIT_WORD_BUDGET", None)  # reports print the word budget
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--size", size, "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _group_values(passes, group):
    out = []
    for p in passes:
        secs = [j["seconds"] for j in p["jobs"] if j["group"] == group]
        if secs:
            out.append(sum(secs))
    return out


def _eval_rates(passes):
    out = []
    for p in passes:
        for j in p["jobs"]:
            if j["group"] == "eval_s" and j.get("calls"):
                out.append(j["calls"] / j["seconds"])
    return out


def _norm_wall(passes):
    return _median([p["wall_s"] * p["speed"] for p in passes])


def _layer_metrics(traced, untraced, report):
    """Per-layer metrics; times are rescaled by each pass's speed, as
    the end-to-end times are."""
    snaps = [{k: v * p["speed"] if k.endswith("_s") else v for k, v in p["trace"].items()}
             for p in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = _norm_wall(traced) - _norm_wall(untraced)
        elif name == "separation.words_per_s":
            rates = []
            for s in snaps:
                busy = (s["separation.wsp_check_1d.total_s"]
                        + s["separation.wsp_check_2d.total_s"])
                rates.append(s["separation.words"] / busy if busy > 0 else 0.0)
            value = _median(rates)
        elif unit == "count":
            seen = sorted({s[name] for s in snaps})
            if len(seen) > 1:
                report.append(f"warning: {name} differs across traced passes: {seen}")
            value = snaps[0][name]
        else:
            value = _median([s[name] for s in snaps])
        metrics[name] = {"value": value, "unit": unit}
    for key in sorted(snaps[0]):
        report.append(f"layer {key} {_median([s[key] for s in snaps]):.6g}")
    for layer in traced[0]["absent"]:
        report.append(f"layer {layer} absent")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "graph", "float"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fifkit" / "__init__.py").is_file():
        print(f"error: no fifkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.monotonic()

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - t0)

    report = [f"workload {args.workload} size {args.size} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}"]
    setups, untraced, traced, crashed, rounds = [], [], [], [], []
    try:
        while True:
            started = time.monotonic()
            # set-up probes between passes sample set-up time across the
            # run, each rescaled by the machine speed just around it
            for _ in range(SETUP_PROBES):
                samples = speed.measure()
                setup = _spawn(args.workload, args.size, args.seed, remaining(),
                               setup_only=True)["setup_s"]
                samples += speed.measure()
                setups.append((setup, setup * speed.speed_of(samples)))
            trace = bool(args.trace) and len(traced) < len(untraced)
            try:
                record = _spawn(args.workload, args.size, args.seed, remaining(),
                                trace=trace)
                (traced if trace else untraced).append(record)
            except PassFailed as exc:
                crashed.append(str(exc))
                if len(crashed) > 2:
                    raise
            rounds.append(time.monotonic() - started)
            # start another round only if it should end within --seconds
            ends = time.monotonic() - t0 + statistics.median(rounds)
            if untraced and (traced or not args.trace) and ends > args.seconds:
                break
    except subprocess.TimeoutExpired:
        report.append("warning: run limit reached; the last pass was dropped")
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not untraced or (args.trace and not traced):
        print("error: no complete pass within the run limit", file=sys.stderr)
        return 1

    passes = untraced + traced
    jobs_per_pass = len(passes[0]["jobs"])
    attempted = sum(len(p["jobs"]) for p in passes) + jobs_per_pass * len(crashed)
    failed = (sum(1 for p in passes for j in p["jobs"] if j["error"])
              + jobs_per_pass * len(crashed))
    errors = sorted({(j["job"], j["error"]) for p in passes for j in p["jobs"] if j["error"]})
    report += [f"failed {job}: {err}" for job, err in errors]
    report += [f"crashed pass: {msg}" for msg in crashed]

    if args.trace:
        metrics = _layer_metrics(traced, untraced, report)
    else:
        series = {"setup_s": [norm for _, norm in setups],
                  "wall_norm_s": [p["wall_s"] * p["speed"] for p in untraced],
                  "cpu_norm_s": [p["cpu_s"] * p["speed"] for p in untraced],
                  "peak_rss_mb": [p["peak_rss_mb"] for p in untraced]}
        metrics = {name: {"value": _median(series[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        series.update(setup_raw_s=[raw for raw, _ in setups],
                      wall_s=[p["wall_s"] for p in untraced],
                      cpu_s=[p["cpu_s"] for p in untraced],
                      speed=[p["speed"] for p in untraced])
        units = dict(END_TO_END, setup_raw_s="s", wall_s="s", cpu_s="s", speed="x")
        for name, values in series.items():
            report.append(f"metric {name} {_median(values):.6g} {units[name]} "
                          f"({_spread(values)})")
        for group in GROUPS:
            values = _group_values(untraced, group)
            if values:
                report.append(f"metric {group} {_median(values):.6g} s ({_spread(values)})")
        rates = _eval_rates(untraced)
        if rates:
            report.append(f"metric eval_per_s {_median(rates):.6g} 1/s ({_spread(rates)})")
        for name in sorted({j["job"] for p in untraced for j in p["jobs"]}):
            secs = [j["seconds"] for p in untraced for j in p["jobs"] if j["job"] == name]
            report.append(f"job {name} {_median(secs):.6g} s ({_spread(secs)})")
    report.append(f"metric fail_frac {failed / attempted:.6g} ({failed}/{attempted} jobs)")

    print("\n".join(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
