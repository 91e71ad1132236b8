import argparse
import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import fifkit
from fifkit import (emit_ifs_text, four_piece_overlap_system, parse_ifs_file, parse_ifs_text,
                    sample_attractor, write_ifs_file)
from fifkit import cli
from fifkit import svg as svgmod
from fifkit.cli import main

from conftest import NOT_CONTRACTIVE, float_twin, not_contractive_system
from test_svg import per_point_polyline

DYADIC = "interval 0 1\nmap 1/2 1/4 0 0 0\nmap 1/2 1/4 1/2 1/2 1/4\n"
MIXED = "interval 0 1\nmap 1/2 1/4 0 0 0\nmap 2/3 4/9 4/9 1/3 1/9\n"
BROKEN = "interval 0 1\nmap 2 0 0 0 0\n"
IDENTITY = "interval 0 1\nmap 1 1/2 0 0 0\n"
FLIPPED_Q = "interval 0 1\nmap 1/2 1/4 0 0 0\nmap 1/2 -1 0 1/2 0\n"
WITNESS_GJ = "1,2,2,1,2,2,1,2,1,2,2,1"
WITNESS_GI = "2,1,1,1,1,1,2,2,2,2,2,2"

# sha256 of the SVG `fifkit example-figure1 --param P` wrote when it
# still mapped every sample point through Affine2 as a Fraction pair;
# 0.2 demotes the system to floats, pinned while float images had a
# path of their own
FIGURE1_SVG_SHA256 = {
    "1/5": "fc38a57fbe277d7221284fcc151f13bdb113b464bfc3ce81814fd328469eeb3d",
    "1/3": "b02656e5f3ab4dc2343ffbbc1117a9584b3ed705254a90da6f1820063b0f9709",
    "0.2": "b34e2015eca347e15958f6ef24979c5c9fb93233c264559a1f4ff474f4363302",
}

# sha256 of the CSV and the SVG `fifkit render four.ifs --depth 5` wrote
# when each sampler level was a set and the polyline formatted per point
RENDER_FOUR_D5_SHA256 = {
    "csv": "95c40e4a48838a9089deb379ade046279bd203ea480d85f5ebe22eef8502a4c0",
    "svg": "4e812563e58833f1a8e777201f2c9f7b17a74f638962f24f57d18f66051db7db",
}


@pytest.fixture
def sys_dir(tmp_path):
    (tmp_path / "dyadic.ifs").write_text(DYADIC)
    (tmp_path / "mixed.ifs").write_text(MIXED)
    (tmp_path / "broken.ifs").write_text(BROKEN)
    (tmp_path / "four.ifs").write_text(emit_ifs_text(four_piece_overlap_system()))
    return tmp_path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(sys_dir, capsys):
    code, out, _ = run(capsys, ["validate", sys_dir / "four.ifs"])
    assert code == 0
    assert "verdict: valid" in out
    assert "sha256:" in out
    assert "overlap 2&3: [7/15, 8/15]" in out


def test_validate_invalid_exits_1(sys_dir, capsys):
    code, out, _ = run(capsys, ["validate", sys_dir / "broken.ifs"])
    assert code == 1
    assert "verdict: invalid" in out


def test_validate_missing_file_exits_1(sys_dir, capsys):
    code, _, err = run(capsys, ["validate", sys_dir / "nope.ifs"])
    assert code == 1
    assert "error:" in err


def test_malformed_file_exits_1(sys_dir, capsys):
    (sys_dir / "bad.ifs").write_text("interval 0 1\nmap 1 2\n")
    code, _, err = run(capsys, ["validate", sys_dir / "bad.ifs"])
    assert code == 1
    assert "bad.ifs:2" in err


def test_report_byte_stable(sys_dir, capsys):
    _, out1, _ = run(capsys, ["validate", sys_dir / "dyadic.ifs"])
    _, out2, _ = run(capsys, ["validate", sys_dir / "dyadic.ifs"])
    assert out1 == out2


def test_eval_prints_exact_dyadic_value(sys_dir, capsys):
    code, out, _ = run(capsys, ["eval", sys_dir / "dyadic.ifs", "--x", "0.5"])
    assert code == 0
    assert out.strip() == "0.25"


def test_eval_rejects_outside_x(sys_dir, capsys):
    code, _, err = run(capsys, ["eval", sys_dir / "dyadic.ifs", "--x", "2"])
    assert code == 1
    assert "error:" in err


def test_eval_float_x_on_exact_system(sys_dir, capsys):
    # the float 0.5 is evaluated as the Fraction 1/2, so the pullback
    # cannot drift past the end of the interval
    code, out, _ = run(capsys, ["eval", sys_dir / "mixed.ifs", "--x", "0.5"])
    assert code == 0
    assert out.strip() == "0.25"


@pytest.mark.parametrize("x", ["inf", "nan"])
def test_eval_rejects_nonfinite_x(sys_dir, capsys, x):
    code, out, err = run(capsys, ["eval", sys_dir / "mixed.ifs", "--x", x])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_render_writes_csv_and_svg(sys_dir, capsys):
    csv = sys_dir / "pts.csv"
    svg = sys_dir / "pts.svg"
    code, out, _ = run(capsys, ["render", sys_dir / "dyadic.ifs",
                                "--depth", 5, "--out", csv, "--svg", svg])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 1 + 33  # 2^5 + 1 points
    x, y = map(float, lines[17].split(","))
    assert abs(y - x * x) < 1e-12
    assert svg.read_text().startswith("<svg")


def test_render_bytes_unchanged(sys_dir, capsys):
    out = {"csv": sys_dir / "four.csv", "svg": sys_dir / "four.svg"}
    code, _, _ = run(capsys, ["render", sys_dir / "four.ifs", "--depth", 5,
                              "--out", out["csv"], "--svg", out["svg"]])
    assert code == 0
    for kind, path in out.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RENDER_FOUR_D5_SHA256[kind]


def test_render_budget_exits_2(sys_dir, capsys):
    code, _, err = run(capsys, ["render", sys_dir / "dyadic.ifs",
                                "--depth", 22, "--out", sys_dir / "x.csv",
                                "--max-points", "1000"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("floating", [False, True], ids=["exact", "float"])
def test_render_streams_the_per_point_forms(sys_dir, capsys, cold_caches, floating):
    # the CSV and the SVG as they were built from the whole float columns,
    # the polyline point by point; the render itself never builds columns
    system = four_piece_overlap_system()
    system = float_twin(system) if floating else system
    spec = sys_dir / "render.ifs"
    spec.write_text(emit_ifs_text(system))
    csv, svg = sys_dir / "render.csv", sys_dir / "render.svg"
    code, _, _ = run(capsys, ["render", spec, "--depth", 7, "--out", csv, "--svg", svg])
    assert code == 0
    sample = sample_attractor(parse_ifs_file(spec), 7)  # the render's, from the cache
    assert "columns" not in vars(sample)
    xs, ys = sample.columns
    assert csv.read_text() == "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))
    frame = svgmod._Frame(min(xs), max(xs), min(ys), max(ys))
    a, b = (float(v) for v in system.interval)
    assert svg.read_text() == (svgmod._OPEN + svgmod._axes(frame, a, b, min(ys), max(ys))
                               + per_point_polyline(frame, xs, ys, "curve") + "</svg>\n")


def test_render_memory_peak_over_a_cached_sample(sys_dir, capsys, cold_caches):
    # the render once held the sample's float columns (2.3 MB, kept after
    # it) and a joined copy of the SVG beside its parts: a 3.6 MB peak
    spec = sys_dir / "four.ifs"
    argv = ["render", spec, "--depth", 7, "--out", sys_dir / "four.csv",
            "--svg", sys_dir / "four.svg"]
    assert run(capsys, argv[:3] + [3, *argv[4:]])[0] == 0  # imports what the render needs
    sample_attractor(parse_ifs_file(spec), 7)
    gc.collect()
    tracemalloc.start()
    try:
        code = main([str(a) for a in argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 1.5e6


@pytest.mark.parametrize("argv", [
    ["classify", "--p", "1", "--q", "1", "--r", "1", "--h", "1/2", "--s", "1/4",
     "--x0", "0", "--y0", "0", "--a", "-1/2", "--b", "3"],
    ["classify", "--p", "1", "--q", "1", "--r", "1", "--h", "1/2", "--s", "1/4",
     "--x0", "0", "--y0", "0", "--a", "-inf", "--b", "3"],
    ["classify", "--p", "1", "--q", "1", "--r", "1", "--h", "1/2", "--s", "1/4",
     "--x0", "0", "--y0", "-nan", "--a", "0", "--b", "3"],
    ["eval", "NEG", "--x", "-1/2"],
    ["eval", "NEG", "--x", "-1e-3"],
    ["eval", "NEG", "--x", "-Infinity"],
    ["eval", "NEG", "--x", "-.75", "--tol", "-1e-3"],
    ["example-figure1", "--param", "-1/5", "--out", "FIG"],
], ids=lambda argv: " ".join([argv[0], *(a for a in argv if a[:1] == "-" != a[1:2])]))
def test_negative_scalar_as_its_own_argument(tmp_path, capsys, argv):
    # argparse once read -1/2, -1e-3, -inf and -nan as options and exited 2
    # with "expected one argument"; each value now reaches the command, as
    # the --option=value form always did
    (tmp_path / "neg.ifs").write_text("interval -1 0\nmap 1/2 1/4 0 -1/2 0\nmap 1/2 1/4 0 0 0\n")
    names = {"NEG": str(tmp_path / "neg.ifs"), "FIG": str(tmp_path / "fig.svg")}
    argv = [names.get(a, a) for a in argv]
    joined, rest = [], iter(argv)
    for a in rest:
        joined.append(f"{a}={next(rest)}" if a.startswith("--") else a)
    got = run(capsys, argv)
    assert got == run(capsys, joined)
    assert got[0] in (0, 1) and "expected one argument" not in got[2]


def test_wsp_no_witness_exit_0(sys_dir, capsys):
    code, out, _ = run(capsys, ["wsp", sys_dir / "dyadic.ifs",
                                "--depth", 6, "--tol", "1e-3"])
    assert code == 0
    assert "status: NoWitnessUpToDepth" in out
    assert "delta-star: 1/2" in out


def test_wsp_witness_found_exit_3(sys_dir, capsys):
    code, out, _ = run(capsys, ["wsp", sys_dir / "mixed.ifs",
                                "--depth", 4, "--tol", "0.2", "--mode", "1d"])
    assert code == 3
    assert "status: WitnessFound" in out
    assert "delta-star: 1/9" in out
    assert "j=2,1,1 i=1,2,2,2" in out


@pytest.mark.parametrize("args", [
    ["wsp", "--depth", "3", "--tol", "1e-3", "--mode", "1d"],
    ["wsp", "--depth", "3", "--tol", "1e-3", "--mode", "2d"],
    ["render", "--depth", "3", "--out", "identity.csv"],
], ids=["wsp-1d", "wsp-2d", "render"])
def test_map_with_p_one_exits_1(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "identity.ifs").write_text(IDENTITY)
    assert main([args[0], "identity.ifs", *args[1:]]) == 1
    assert capsys.readouterr().err == "error: map 1: |p| = 1 is not < 1\n"


@pytest.mark.parametrize("args", [
    ["wsp", "--depth", "3", "--tol", "1e-3", "--mode", "2d"],
    ["render", "--depth", "3", "--out", "flipped.csv"],
    ["eval", "--x", "1/3"],
], ids=["wsp-2d", "render", "eval"])
def test_map_with_q_minus_one_names_the_map_and_abs_q(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flipped.ifs").write_text(FLIPPED_Q)
    assert main([args[0], "flipped.ifs", *args[1:]]) == 1
    assert capsys.readouterr().err == "error: map 2: |q| = 1 is not < 1\n"


# neither p nor q of a depth-3 comparison map is 0, but p * q underflows
UNDERFLOW = ("interval 0.0 1.0\n"
             "map 5e-324 -0.9999999999999999 0.0 5e-324 0.0\n"
             "map -0.9514977042412145 0.2409395119730029 0.0 5e-324 0.0\n")


def test_underflowing_inverse_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "under.ifs").write_text(UNDERFLOW)
    assert main(["wsp", "under.ifs", "--depth", "3", "--tol", "1e-3", "--mode", "1d"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p * q = 5e-324 * ")
    assert captured.err.endswith(" underflows to 0; no float inverse\n")


@pytest.mark.parametrize("case", sorted(NOT_CONTRACTIVE))
def test_map_that_is_no_contraction_exits_1_at_every_command(tmp_path, monkeypatch, capsys,
                                                             case):
    monkeypatch.chdir(tmp_path)
    (p, q), messages = NOT_CONTRACTIVE[case]
    system = not_contractive_system(p, q)
    for checked, message in zip((system, float_twin(system)), messages):
        write_ifs_file(tmp_path / "bad.ifs", checked)
        for args in (["wsp", "--depth", "3", "--tol", "1e-3", "--mode", "1d"],
                     ["wsp", "--depth", "3", "--tol", "1e-3", "--mode", "2d"],
                     ["render", "--depth", "3", "--out", "bad.csv"],
                     ["eval", "--x", "1/3"]):
            assert main([args[0], "bad.ifs", *args[1:]]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"


# an int too large for a float, which the floats beside it demote
@pytest.mark.parametrize("value", ["inf", "nan", pytest.param("1" * 400, id="huge")])
def test_non_finite_coefficient_exits_1_at_every_command(tmp_path, monkeypatch, capsys,
                                                         value):
    fault = "is too large for a float" if value.isdigit() else f"= {value} is not finite"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.ifs").write_text(
        f"interval 0 1\nmap 0.5 0.5 0 0 0\nmap 0.5 0.5 0 {value} 0\n")
    for args in (["wsp", "--depth", "3", "--tol", "1e-3"],
                 ["render", "--depth", "2", "--out", "bad.csv"],
                 ["eval", "--x", "0.5"],
                 ["validate"]):
        assert main([args[0], "bad.ifs", *args[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad.ifs: map 2: h {fault}\n"


def test_q_zero_generator_exits_1_in_both_wsp_modes(tmp_path, capsys):
    path = tmp_path / "q0.ifs"
    path.write_text("interval 0 1\nmap 1/2 0 0 0 0\nmap 2/3 1/2 0 1/3 0\n")
    for mode in ("1d", "2d"):
        code, _, err = run(capsys, ["wsp", path, "--depth", 4, "--tol", "1e-3", "--mode", mode])
        assert code == 1
        assert err == "error: map 1: q = 0 has no inverse\n"


def test_wsp_budget_env_var_exit_2(sys_dir, capsys, monkeypatch):
    monkeypatch.setenv("FIFKIT_WORD_BUDGET", "10")
    code, _, err = run(capsys, ["wsp", sys_dir / "mixed.ifs",
                                "--depth", 8, "--tol", "1e-3"])
    assert code == 2
    assert "error:" in err


def test_wsp_bad_budget_env_var(sys_dir, capsys, monkeypatch):
    monkeypatch.setenv("FIFKIT_WORD_BUDGET", "zero")
    code, _, err = run(capsys, ["wsp", sys_dir / "mixed.ifs",
                                "--depth", 4, "--tol", "1e-3"])
    assert code == 1
    assert "FIFKIT_WORD_BUDGET" in err


def test_wsp_report_is_byte_stable(sys_dir, capsys):
    args = ["wsp", sys_dir / "mixed.ifs", "--depth", 6, "--tol", "1e-3"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2
    assert "gap-by-depth:" in out1


def _report_lines(out, key):
    return [line.split(": ", 1)[1] for line in out.splitlines()
            if line.startswith(key + ":")]


def test_wsp_float_report(sys_dir, tmp_path, capsys):
    # the float twin of mixed reports float deviations next to the exact
    # ones, with the same coincidence counts and exit code
    twin = tmp_path / "mixed_float.ifs"
    write_ifs_file(twin, float_twin(parse_ifs_text(MIXED)))
    args = ["--depth", 8, "--tol", "1e-3"]
    code, out, _ = run(capsys, ["wsp", twin] + args)
    code_exact, out_exact, _ = run(capsys, ["wsp", sys_dir / "mixed.ifs"] + args)
    assert code == code_exact == 0
    stars = _report_lines(out, "delta-star")
    stars_exact = [Fraction(v) for v in _report_lines(out_exact, "delta-star")]
    assert len(stars) == len(stars_exact) == 2
    for star, want in zip(stars, stars_exact):
        assert star == repr(float(star))
        assert abs(float(star) - want) <= 1e-9 * want
    assert _report_lines(out, "coincidences") == _report_lines(out_exact, "coincidences")


def test_orbit_writes_trace(sys_dir, capsys):
    out_csv = sys_dir / "trace.csv"
    code, out, _ = run(capsys, ["orbit", sys_dir / "mixed.ifs",
                                "--gj", WITNESS_GJ, "--gi", WITNESS_GI,
                                "--eps", "0.15", "--out", out_csv])
    assert code == 0
    assert "M: 64" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,x,y"
    assert len(lines) == 66
    assert lines[1] == "0,0.0,0.0"
    assert lines[-1].startswith("64,1.0,")


def test_orbit_empty_word_allowed(sys_dir, capsys):
    # j = empty word: the element is G_i itself; its fixed point sits
    # inside the interval, which the net rejects cleanly
    code, _, err = run(capsys, ["orbit", sys_dir / "mixed.ifs",
                                "--gj", "e", "--gi", "1",
                                "--eps", "0.5", "--out", sys_dir / "t.csv"])
    assert code == 1
    assert "fixed point" in err.lower()


def test_orbit_bad_word_exits_1(sys_dir, capsys):
    code, _, err = run(capsys, ["orbit", sys_dir / "mixed.ifs",
                                "--gj", "1,x", "--gi", "2",
                                "--eps", "0.5", "--out", sys_dir / "t.csv"])
    assert code == 1
    assert "bad word" in err


def test_nan_tolerance_exits_1_at_every_command(sys_dir, capsys):
    # a nan tol or eps is refused rather than compared: orbit's bisection
    # never ended on one, and wsp and validate (on a gap, where no branch
    # is evaluated) printed a report.  orbit runs in a process of its
    # own, so that a hang fails at the timeout
    mixed, gap = sys_dir / "mixed.ifs", sys_dir / "gap.ifs"
    gap.write_text("interval 0 1\nmap 1/2 1/4 0 0 0\n")
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fifkit", "orbit", str(mixed), "--gj", WITNESS_GJ,
                           "--gi", WITNESS_GI, "--eps", "nan", "--out", str(sys_dir / "t.csv")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: eps must be positive\n")
    for args, message in ((["wsp", mixed, "--depth", 4], "tol must not be nan"),
                          (["eval", mixed, "--x", "1/3"], "tol must be positive"),
                          (["validate", mixed], "tol must be positive"),
                          (["validate", gap], "tol must be positive")):
        assert run(capsys, [*args, "--tol", "nan"]) == (1, "", f"error: {message}\n")


def test_classify_report(capsys):
    code, out, _ = run(capsys, ["classify", "--p", "1", "--q", "1", "--r", "1",
                                "--h", "1/2", "--s", "1/4", "--x0", "0",
                                "--y0", "0", "--a", "0", "--b", "3"])
    assert code == 0
    assert "kind: Parabola" in out
    assert "A: 1" in out
    assert "B: 0" in out
    assert "residual: 0" in out


def test_classify_precondition_exits_1(capsys):
    code, _, err = run(capsys, ["classify", "--p", "1/2", "--q", "1", "--r", "0",
                                "--h", "1/4", "--s", "0", "--x0", "0",
                                "--y0", "0", "--a", "0", "--b", "1"])
    assert code == 1
    assert "fixed point" in err.lower()


@pytest.mark.parametrize("option, value", [("--y0", "nan"), ("--p", "nan"), ("--b", "inf"),
                                           ("--a", "-inf"), ("--s", "nan")])
def test_classify_refuses_a_value_that_is_not_finite(capsys, option, value):
    # at --y0 nan it once printed B: nan and residual: 0.0 and exited 0; at
    # --p nan or --b inf it walked the orbit to its point budget
    args = {"--p": "1.1", "--q": "1.2", "--r": "0.1", "--h": "0.05", "--s": "0.1",
            "--x0": "0", "--y0": "0", "--a": "0", "--b": "1"}
    args[option] = value
    argv = ["classify", *(f"{flag}={v}" for flag, v in args.items())]
    assert run(capsys, argv) == (1, "", f"error: {option[2:]} = {value} is not finite\n")


def test_example_figure(tmp_path, capsys):
    out_svg = tmp_path / "fig.svg"
    code, out, _ = run(capsys, ["example-figure1", "--out", out_svg])
    assert code == 0
    doc = out_svg.read_text()
    assert doc.count("data-x=") == 6
    for xv in ("0.0", "0.2", "0.4666666666666667", "0.5333333333333333",
               "0.8", "1.0"):
        assert f'data-x="{xv}"' in doc
    assert 'class="piece-a"' in doc
    assert 'class="piece-b"' in doc
    assert 'class="overlap"' in doc
    # deterministic output
    run(capsys, ["example-figure1", "--out", tmp_path / "fig2.svg"])
    assert (tmp_path / "fig2.svg").read_text() == doc


@pytest.mark.parametrize("param", sorted(FIGURE1_SVG_SHA256))
def test_example_figure_bytes_unchanged(tmp_path, capsys, param):
    out_svg = tmp_path / "fig.svg"
    argv = ["example-figure1", "--param", param, "--out", out_svg]
    if "/" in param:
        code, out, _ = run(capsys, argv)
        strip = "7/15, 8/15"
    else:
        with pytest.warns(fifkit.MixedScalarWarning):
            code, out, _ = run(capsys, argv)
        strip = "0.4666666666666667, 0.5333333333333333"
    assert code == 0
    assert out == (f"fifkit example-figure1 report\nversion: 0.1.0\nparam: {param}\n"
                   f"marked-points: 6\noverlap-strip: [{strip}]\nsvg: {out_svg}\n")
    assert hashlib.sha256(out_svg.read_bytes()).hexdigest() == FIGURE1_SVG_SHA256[param]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fifkit 0.1.0" in capsys.readouterr().out


def _exit(capsys, call):
    """(exit code, stdout, stderr) of a call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["nope"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["validate"], ["render", "f.ifs", "--depth", "3"], ["eval", "f.ifs"],
    ["wsp", "f.ifs", "--depth", "3"], ["orbit", "f.ifs", "--gi", "1", "--gj", "2"],
    ["classify", "--p", "1/2"], ["example-figure1"],
    ["wsp", "f.ifs", "--depth", "3", "--tol", "1e-3", "extra"],
    ["wsp", "f.ifs", "--depth", "3", "--tol", "1e-3", "--mode", "3d"],
], ids=" ".join)
def test_on_demand_parser_prints_what_the_full_parser_prints(capsys, argv):
    # a call naming its subcommand builds only that subparser; help,
    # usage and errors are the full parser's, and so is the top-level
    # usage an unrecognized argument prints
    got = _exit(capsys, lambda: main(argv))
    want = _exit(capsys, lambda: cli._build_parser().parse_args(argv))
    assert got == want


def test_subcommand_call_builds_two_parsers(sys_dir, capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, ["wsp", sys_dir / "mixed.ifs", "--depth", 3, "--tol", "1e-3"])
    assert code == 0 and "status: NoWitnessUpToDepth" in out
    assert built == ["fifkit", "fifkit wsp"]
    _exit(capsys, lambda: main(["--version"]))
    assert len(built) == 2 + 1 + len(cli._COMMANDS)


def test_python_m_fifkit_prints_what_main_prints(sys_dir, capsys):
    # with argv None, main reads its subcommand from sys.argv
    args = ["wsp", str(sys_dir / "mixed.ifs"), "--depth", "8", "--tol", "1e-3",
            "--mode", "both"]
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fifkit", *args], env=env,
                          capture_output=True, timeout=120)
    code, out, err = run(capsys, args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert "mode: 2d" in out


def test_python_m_fifkit_runs_the_cli():
    # the package runs from a source tree without being installed
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fifkit", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "fifkit 0.1.0\n"


@pytest.mark.parametrize("call", [
    "main(['wsp', D + 'four.ifs', '--depth', '3', '--tol', '1e-3']) == 0",
    "main(['render', D + 'four.ifs', '--depth', '4', '--out', D + 'four.csv',"
    " '--svg', D + 'four.svg']) == 0",
    "main(['eval', D + 'mixed.ifs', '--x', '0.5']) == 0",
    "detect_parabola([(k / 10, k * k / 100) for k in range(11)], 1e-9) is not None",
], ids=["wsp", "render", "eval", "detect_parabola"])
def test_runs_with_numpy_blocked(sys_dir, call):
    # the package has no runtime dependencies
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from fifkit import detect_parabola\n"
        "from fifkit.cli import main\n"
        f"D = {str(sys_dir) + os.sep!r}\n"
        f"assert {call}\n"
    )
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_heapq_and_numpy_unloaded():
    # peak RSS follows import size: the scan imports heapq, and a 1d or a
    # 2d check the neighbour walk or the planar scan, only when it runs
    script = ("import sys\n"
              "import fifkit.cli\n"
              "print(sorted({'heapq', 'numpy', 'fifkit.neighbours', 'fifkit.planar'}\n"
              "             & set(sys.modules)))\n")
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("call", [
    "['render', D + 'mixed.ifs', '--depth', '4', '--out', D + 'mixed.csv']",
    "['eval', D + 'mixed.ifs', '--x', '1/3']",
    "['wsp', D + 'mixed.ifs', '--depth', '4', '--tol', '1e-3', '--mode', '1d']",
], ids=["render", "eval", "wsp-1d"])
def test_commands_without_a_planar_scan_leave_planar_unloaded(sys_dir, call):
    # the graph side and the 1d scan never compile the planar scan
    script = ("import sys\n"
              "from fifkit.cli import main\n"
              f"D = {str(sys_dir) + os.sep!r}\n"
              f"code = main({call})\n"
              "print(code, 'fifkit.planar' in sys.modules, file=sys.stderr)\n")
    src = str(Path(fifkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 False"
