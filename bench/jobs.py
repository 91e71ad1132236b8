"""Workload jobs: what each pass runs, and how its output is checked.

A job's `run` is the timed part and goes only through public fifkit
entry points (`fifkit.cli.main` in-process, or library calls where the
CLI does not reach).  `summarize` and `check` run after the timed part:
`summarize` reduces the output to the fields frozen in reference.json,
and `check` compares them.  Every name is looked up on its module at
call time, so the tracer's wrappers see the benchmark's own calls.

Float jobs run the same work on float-coefficient copies of the bundled
systems and are checked against the references of their exact twins
(the same job on the exact system) within FLOAT_RTOL.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import resource
import time
from fractions import Fraction
from pathlib import Path

import fifkit.attractor
import fifkit.cli
import fifkit.orbits
import fifkit.separation
import fifkit.specfile
from fifkit.scalars import format_scalar

import speed

BENCH = Path(__file__).resolve().parent
SYSTEMS = BENCH / "systems"
REFERENCES = BENCH / "reference.json"

WSP_TOL = "1e-3"
EVAL_TOL = 1e-12
# float jobs against their exact twins; float rounding moves the
# bundled systems' values by about 1e-15 relative
FLOAT_RTOL = 1e-9
# float evaluate_f against the closed form y = x^2 and across branches:
# EVAL_TOL plus rounding of the recurrences
FLOAT_EVAL_SLACK = 1e-13

# witness words (j, i) of the mixed-ratio system, by witness depth
NET_WORDS = {
    12: ((1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1), (2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2)),
    11: ((2, 1, 1, 1, 2, 2, 2, 2, 2, 1, 2), (1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 1)),
}

# where the four-piece strips 2 and 3 overlap
OVERLAP = (Fraction(7, 15), Fraction(8, 15))
EVAL_GRID = 10 ** 6


@dataclasses.dataclass(frozen=True)
class Job:
    """One unit of timed work.

    kind is wsp | render | sample | net | parabola | eval; depth is the
    word depth (for net, the witness depth); mode is the wsp mode; n is
    the number of seeded abscissae per system for eval, whose system is
    "both" (the two bundled systems) or "both_float".
    """

    kind: str
    system: str
    depth: int = 0
    mode: str = ""
    n: int = 0

    @property
    def name(self) -> str:
        parts = [self.kind, self.system]
        if self.mode:
            parts.append(self.mode)
        if self.depth:
            parts.append(f"d{self.depth}")
        if self.n:
            parts.append(f"n{self.n}")
        return ":".join(parts)

    @property
    def floating(self) -> bool:
        return self.system.endswith("_float")

    @property
    def exact_twin(self) -> "Job":
        return dataclasses.replace(self, system=self.system.removesuffix("_float"))

    @property
    def group(self) -> str:
        """End-to-end metric the job's time counts toward."""
        return {"wsp": "wsp_s", "net": "net_s", "render": "render_s",
                "sample": "render_s", "parabola": "parabola_s",
                "eval": "eval_s"}[self.kind]


def _wsp(system, depth, mode):
    return Job("wsp", system, depth, mode)


WORKLOADS = {
    # exact separation verdicts through the CLI: the scanner and Fraction
    # arithmetic, the sampler reached only through attractor_ybox
    "scan": {
        "full": [_wsp("four_piece", 7, "1d"), _wsp("four_piece", 5, "2d"),
                 _wsp("mixed", 12, "both"), _wsp("mixed", 14, "1d")],
        "tiny": [_wsp("four_piece", 4, "1d"), _wsp("four_piece", 3, "2d"),
                 _wsp("mixed", 6, "both"), _wsp("mixed", 7, "1d")],
    },
    # the exact attractor side, where the scanner does no work
    "graph": {
        "full": [Job("net", "mixed", 12), Job("render", "four_piece", 7),
                 Job("parabola", "mixed", 10), Job("eval", "both", n=300)],
        "tiny": [Job("net", "mixed", 11), Job("render", "four_piece", 3),
                 Job("parabola", "mixed", 5), Job("eval", "both", n=8)],
    },
    # the same code paths without Fraction
    "float": {
        "full": [_wsp("four_piece_float", 8, "1d"), _wsp("four_piece_float", 6, "2d"),
                 _wsp("mixed_float", 16, "1d"), _wsp("mixed_float", 14, "2d"),
                 Job("sample", "four_piece_float", 8), Job("eval", "both_float", n=3000),
                 Job("net", "mixed_float", 12)],
        "tiny": [_wsp("four_piece_float", 4, "1d"), _wsp("four_piece_float", 3, "2d"),
                 _wsp("mixed_float", 7, "1d"), _wsp("mixed_float", 6, "2d"),
                 Job("sample", "four_piece_float", 4), Job("eval", "both_float", n=8),
                 Job("net", "mixed_float", 11)],
    },
}


class Context:
    """Inputs shared by a pass's jobs: parsed systems, seed, scratch dir."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.systems = {
            path.stem: fifkit.specfile.parse_ifs_file(path)
            for path in sorted(SYSTEMS.glob("*.ifs"))
        }

    @staticmethod
    def path(system: str) -> str:
        return str(SYSTEMS / f"{system}.ifs")


def load_references(size: str) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[size]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fifkit.cli.main(argv)
    return rc, out.getvalue()


def _abscissae(seed: int, n: int, floating: bool):
    """Seeded points: n in the four-piece overlap, n in [0, 1]."""
    rng = random.Random(seed)
    lo, hi = OVERLAP
    overlap = [lo + (hi - lo) * Fraction(rng.randrange(EVAL_GRID + 1), EVAL_GRID)
               for _ in range(n)]
    unit = [Fraction(rng.randrange(EVAL_GRID + 1), EVAL_GRID) for _ in range(n)]
    if floating:
        return [float(x) for x in overlap], [float(x) for x in unit]
    return overlap, unit


def run(job: Job, ctx: Context):
    """The timed work of one job; returns its raw output."""
    suffix = "_float" if job.floating else ""
    if job.kind == "wsp":
        return _cli(["wsp", ctx.path(job.system), "--depth", str(job.depth),
                     "--tol", WSP_TOL, "--mode", job.mode])
    if job.kind == "render":
        # relative output names keep the report bytes independent of the
        # scratch directory
        with contextlib.chdir(ctx.workdir):
            return _cli(["render", ctx.path(job.system), "--depth", str(job.depth),
                         "--out", "render.csv", "--svg", "render.svg"])
    system = ctx.systems.get(job.system)
    if job.kind == "sample":
        return fifkit.attractor.sample_attractor(system, job.depth)
    if job.kind == "net":
        j_word, i_word = NET_WORDS[job.depth]
        element = fifkit.separation.FamilyElement.from_words(system, j_word, i_word)
        eps = fifkit.orbits.suggest_eps(system, element.map2)
        return eps, fifkit.orbits.epsilon_net(system, element.map2, eps)
    if job.kind == "parabola":
        sample = fifkit.attractor.sample_attractor(system, job.depth)
        return len(sample.points), fifkit.orbits.detect_parabola(sample, 0.0)
    if job.kind == "eval":
        four, mixed = ctx.systems["four_piece" + suffix], ctx.systems["mixed" + suffix]
        overlap, unit = _abscissae(ctx.seed, job.n, job.floating)
        evaluate = fifkit.attractor.evaluate_f
        branches = [(evaluate(four, x, EVAL_TOL, first_branch=2),
                     evaluate(four, x, EVAL_TOL, first_branch=3)) for x in overlap]
        values = [(x, evaluate(mixed, x, EVAL_TOL)) for x in unit]
        return branches, values
    raise ValueError(f"unknown job kind {job.kind!r}")


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def parse_wsp_report(text: str) -> list:
    """The verdict blocks of a `fifkit wsp` report."""
    verdicts = []
    section = None
    for line in text.splitlines():
        if line.startswith("mode: "):
            cur = {"mode": line[6:], "gaps": [], "witnesses": []}
            verdicts.append(cur)
            section = None
        elif not verdicts:
            continue
        elif line.startswith("status: "):
            cur["status"] = line[8:]
        elif line.startswith("delta-star: "):
            cur["delta"] = line[12:]
        elif line in ("gap-by-depth:", "witnesses:"):
            section = line[:-1]
        elif line.startswith("coincidences: "):
            cur["coincidences"] = int(line[14:])
            section = None
        elif line.startswith("  ") and section == "gap-by-depth":
            d, gap = line.split()
            cur["gaps"].append([int(d), gap])
        elif line.startswith("  ") and section == "witnesses":
            cur["witnesses"].append(line.strip())
    return verdicts


def _report_field(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return ""


def summarize(job: Job, output, ctx: Context) -> dict:
    """The checked fields of a job's output (the reference.json form)."""
    if job.kind == "wsp":
        rc, text = output
        return {"rc": rc, "report_sha256": _sha256(text),
                "verdicts": parse_wsp_report(text)}
    if job.kind == "render":
        rc, text = output
        return {"rc": rc, "report_sha256": _sha256(text),
                "csv_sha256": _sha256((ctx.workdir / "render.csv").read_bytes()),
                "svg_sha256": _sha256((ctx.workdir / "render.svg").read_bytes()),
                "points": int(_report_field(text, "points") or -1)}
    if job.kind == "sample":
        return {"points": len(output.points),
                "resolution": format_scalar(output.resolution)}
    if job.kind == "net":
        eps, trace = output
        return {"M": trace.M, "eps": eps, "covered": trace.covering_radius <= eps}
    if job.kind == "parabola":
        points, fit = output
        if fit is None:
            return {"points": points, "fit": None}
        return {"points": points, "is_line": fit.is_line,
                "fit": [format_scalar(v) for v in (fit.A, fit.B, fit.C, fit.max_residual)]}
    if job.kind == "eval":
        branches, values = output
        return {"calls": 3 * job.n,
                "branch_gap": max(float(abs(y2 - y3)) for y2, y3 in branches),
                "parabola_err": max(float(abs(y - x * x)) for x, y in values)}
    raise ValueError(f"unknown job kind {job.kind!r}")


def _close(value, exact: str) -> bool:
    ref = Fraction(exact)
    return abs(Fraction(value) - ref) <= FLOAT_RTOL * abs(ref)


def _diff(summary: dict, ref: dict, keys) -> list:
    return [f"{k}: got {summary.get(k)!r}, want {ref.get(k)!r}"
            for k in keys if summary.get(k) != ref.get(k)]


def _diff_float_wsp(summary: dict, ref: dict) -> list:
    bad = _diff(summary, ref, ["rc"])
    got, want = summary["verdicts"], ref["verdicts"]
    if len(got) != len(want):
        return bad + [f"{len(got)} verdicts, want {len(want)}"]
    for g, w in zip(got, want):
        mode = w["mode"]
        bad += [f"{mode} {m}" for m in _diff(g, w, ["mode", "status", "coincidences"])]
        if [d for d, _ in g["gaps"]] != [d for d, _ in w["gaps"]]:
            bad.append(f"{mode} gap depths differ")
            continue
        for (d, gap), (_, want_gap) in zip(g["gaps"], w["gaps"]):
            if not _close(float(gap), want_gap):
                bad.append(f"{mode} delta*({d}) = {gap}, want {want_gap}")
    return bad


def check(job: Job, summary: dict, ref) -> str | None:
    """None when the output matches its reference, else what differs."""
    if job.kind == "eval":
        slack = FLOAT_EVAL_SLACK if job.floating else 0.0
        bad = []
        if summary["branch_gap"] > 2 * EVAL_TOL + slack:
            bad.append(f"branches 2 and 3 differ by {summary['branch_gap']:.3e}")
        if summary["parabola_err"] > EVAL_TOL + slack:
            bad.append(f"|f(x) - x^2| reaches {summary['parabola_err']:.3e}")
        return "; ".join(bad) or None
    if ref is None:
        return "no reference"
    if job.kind == "net":
        bad = _diff(summary, ref, ["M", "covered"])
        if not math.isclose(summary["eps"], ref["eps"], rel_tol=FLOAT_RTOL):
            bad.append(f"eps: got {summary['eps']!r}, want {ref['eps']!r}")
    elif not job.floating:
        bad = _diff(summary, ref, sorted(set(summary) | set(ref)))
    elif job.kind == "wsp":
        bad = _diff_float_wsp(summary, ref)
    else:  # sample
        bad = _diff(summary, ref, ["points"])
        if not _close(float(summary["resolution"]), ref["resolution"]):
            bad.append(f"resolution {summary['resolution']}, want {ref['resolution']}")
    return "; ".join(bad) or None


def run_pass(jobs, ctx: Context, refs: dict, tracer=None) -> dict:
    """Run the jobs one after another, then check them.

    Only `run` is timed; `peak_rss_mb` is the process's peak resident
    set at the end of the timed part, and `speed` the machine speed
    `speed.Sampler` saw during it.  With a tracer, its wrappers are in place for
    exactly the timed part.
    """
    records, outputs = [], []
    sampler = speed.Sampler()
    if tracer is not None:
        tracer.install()
    try:
        with sampler:
            for job in jobs:
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    out, error = run(job, ctx), None
                except Exception as exc:  # a failing job is a measured outcome
                    out, error = None, f"{type(exc).__name__}: {exc}"
                records.append({"job": job.name, "group": job.group,
                                "seconds": time.perf_counter() - t0,
                                "cpu_s": time.process_time() - c0, "error": error})
                outputs.append(out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
    for job, rec, out in zip(jobs, records, outputs):
        if rec["error"] is not None:
            continue
        try:
            summary = summarize(job, out, ctx)
            rec["error"] = check(job, summary, refs.get(job.name))
        except Exception as exc:  # an output too malformed to compare
            rec["error"] = f"check raised {type(exc).__name__}: {exc}"
            continue
        if job.kind == "eval":
            rec["calls"] = summary["calls"]
    return {"jobs": records,
            "wall_s": sum(r["seconds"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": peak_rss_mb,
            "speed": sampler.speed,
            "trace": tracer.snapshot() if tracer is not None else None,
            "absent": tracer.absent if tracer is not None else []}
