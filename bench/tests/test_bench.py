"""Tests of the benchmark itself, on the tiny variant of each workload.

    python3 -m pytest bench/tests -q

They are kept out of the repository's tier-1 suite (pytest's testpaths
names only tests/), so benchmark timing can never make that gate flaky.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

WORKDIR = ROOT / ".bench_work" / "tests"


@pytest.fixture
def ctx():
    WORKDIR.mkdir(parents=True, exist_ok=True)
    yield jobs.Context(seed=7, workdir=WORKDIR)
    shutil.rmtree(WORKDIR, ignore_errors=True)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, names):
    res = _result(_bench("--workload", "scan", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_layer_counts_repeat_across_fresh_processes():
    def counts():
        res = _result(_bench("--workload", "graph", "--seed", "5", "--seconds", "0",
                             "--trace", "1", "--size", "tiny"))
        return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["orbits.orbit_points"] == 32


def test_exact_net_job_samples_the_attractor_23_times(ctx):
    refs = jobs.load_references("full")
    net = [jobs.Job("net", "mixed", 12)]
    calls = []
    for _ in range(2):
        t = tracer.Tracer()
        record = jobs.run_pass(net, ctx, refs, t)
        assert record["jobs"][0]["error"] is None
        calls.append(record["trace"]["attractor.sample_attractor.calls"])
    assert calls == [23, 23]


def _corrupt(ref: dict) -> dict:
    ref = copy.deepcopy(ref)
    if "verdicts" in ref:
        ref["verdicts"][0]["gaps"][-1][1] = "1/1000"
    elif "csv_sha256" in ref:
        ref["csv_sha256"] = "0" * 64
    elif "M" in ref:
        ref["M"] += 1
    elif "fit" in ref:
        ref["fit"][-1] = "1"
    else:
        ref["points"] += 1
    return ref


@pytest.mark.parametrize("workload", ["scan", "graph", "float"])
def test_a_corrupted_reference_fails_its_job(workload, ctx):
    refs = jobs.load_references("tiny")
    job_list = [j for j in jobs.WORKLOADS[workload]["tiny"] if j.kind != "eval"]
    clean = jobs.run_pass(job_list, ctx, refs)
    bad_refs = {name: _corrupt(ref) for name, ref in refs.items()}
    corrupted = jobs.run_pass(job_list, ctx, bad_refs)
    for job, ok, bad in zip(job_list, clean["jobs"], corrupted["jobs"]):
        assert bad["error"], job.name
        if not (job.floating and job.kind == "wsp"):
            assert ok["error"] is None, (job.name, ok["error"])


def test_eval_check_is_not_vacuous():
    job = jobs.Job("eval", "both", n=4)
    good = {"calls": 12, "branch_gap": 0.0, "parabola_err": 1e-14}
    assert jobs.check(job, good, None) is None
    assert jobs.check(job, dict(good, branch_gap=1e-6), None)
    assert jobs.check(job, dict(good, parabola_err=1e-6), None)


def test_float_scan_defect_is_reported_as_failures():
    """At the commit that added the benchmark the float scanner collapses
    delta* to rounding noise; the float workload must show it.  When the
    scanner is fixed this test is expected to fail and should go."""
    res = _result(_bench("--workload", "float", "--seed", "1", "--seconds", "0",
                         "--size", "tiny"))
    assert not res["correct"] and res["failed"] >= 2
    assert res["attempted"] == len(jobs.WORKLOADS["float"]["tiny"])


def test_seed_picks_only_the_abscissae():
    assert jobs._abscissae(4, 6, False) == jobs._abscissae(4, 6, False)
    assert jobs._abscissae(4, 6, False) != jobs._abscissae(5, 6, False)
    assert [float(x) for x in jobs._abscissae(4, 6, False)[1]] == jobs._abscissae(4, 6, True)[1]


def test_without_sources_it_exits_nonzero_and_prints_no_result():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "scan", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
