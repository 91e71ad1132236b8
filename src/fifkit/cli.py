"""Command-line surface.

Subcommands wrap library operations one to one and add no arithmetic of
their own.  Reports are byte-stable for fixed inputs and package
version: inputs are identified by sha256, numbers are printed with
repr (floats) or as exact fractions, and iteration orders are fixed.

Exit codes: 0 success (including NoWitnessUpToDepth), 1 parse or
validation failure, 2 budget exceeded, 3 separation witness found (a
verdict, not an error).
"""

import argparse
import hashlib
import os
import re
import sys

from . import __version__
from .affine import Affine2
from .attractor import _image_columns, evaluate_f, sample_attractor, validate
from .errors import DepthTooLargeError, FifkitError
from .orbits import classify_orbit_curve, epsilon_net, iterate_orbit, verify_orbit_on_curve
from .scalars import format_scalar, is_exact, parse_scalar, to_float
from .separation import DEFAULT_WORD_BUDGET, FamilyElement, wsp_check_1d, wsp_check_2d
from .specfile import parse_ifs_file
from .svg import _graph_parts, overlap_svg
from .systems import four_piece_overlap_system, strip

_BUDGET_ENV = "FIFKIT_WORD_BUDGET"

# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative number, and by default only "-2" and "-.5" do.  No
# fifkit option starts like this, so "-1/2", "-1e-3", "-inf" and "-nan"
# stay values, to be parsed (and refused) by the command
_NEGATIVE_SCALAR = re.compile(r"^-(\.?\d|inf|nan).*$", re.IGNORECASE | re.DOTALL)


def _word_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_WORD_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return value


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _scalar_str(v) -> str:
    return format_scalar(v) if is_exact(v) else repr(to_float(v))


def _word_str(word) -> str:
    return ",".join(str(k) for k in word) if word else "e"


def _parse_word(text: str):
    text = text.strip()
    if text in ("", "e"):
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad word {text!r}; expected comma-separated indices")


def _header(out, command, path=None, **params):
    out.append(f"fifkit {command} report")
    out.append(f"version: {__version__}")
    if path is not None:
        out.append(f"input: {os.path.basename(str(path))}")
        out.append(f"sha256: {_sha256(path)}")
    for key, val in params.items():
        out.append(f"{key.replace('_', '-')}: {val}")


def _cmd_validate(args):
    system = parse_ifs_file(args.system_file)
    report = validate(system, tol=args.tol)
    out = []
    _header(out, "validate", args.system_file, tol=repr(args.tol))
    out.append(f"interval: [{_scalar_str(system.a)}, {_scalar_str(system.b)}]")
    out.append(f"maps: {len(system)}")
    out.append(f"arithmetic: {'exact' if system.exact else 'floating'}")
    for i, (lo, hi) in enumerate(report.strips, start=1):
        out.append(f"strip {i}: [{_scalar_str(lo)}, {_scalar_str(hi)}]")
    out.append(f"contractive: {report.contractive}")
    out.append(f"covering: {report.covering}")
    out.append(f"contained: {report.contained}")
    for (i, j, lo, hi) in report.overlaps:
        out.append(f"overlap {i}&{j}: [{_scalar_str(lo)}, {_scalar_str(hi)}]")
    for (i, j, x) in report.touch_points:
        out.append(f"touch {i}&{j}: {_scalar_str(x)}")
    if report.max_discrepancy is not None:
        out.append(f"single-valued: {report.single_valued}")
        out.append(f"max-branch-discrepancy: {report.max_discrepancy!r}")
    for p in report.problems:
        out.append(f"problem: {p}")
    out.append(f"verdict: {'valid' if report.valid else 'invalid'}")
    print("\n".join(out))
    return 0 if report.valid else 1


def _csv_rows(fh, chunks):
    """Write each (xs, ys) float chunk to fh as CSV lines, then yield it."""
    for xs, ys in chunks:
        for x, y in zip(xs, ys):
            fh.write(f"{x!r},{y!r}\n")
        yield xs, ys


def _cmd_render(args):
    system = parse_ifs_file(args.system_file)
    sample = sample_attractor(system, args.depth, max_points=args.max_points)
    # one pass over the sample's float chunks writes the CSV and formats the
    # SVG polyline; the SVG file is opened only once the CSV file is closed,
    # so --out and --svg may name one file, which then holds the SVG
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        chunks = _csv_rows(fh, sample.column_chunks())
        if args.svg:
            svg_parts = _graph_parts(sample, system.interval, chunks)
        else:
            for _ in chunks:
                pass
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.writelines(svg_parts)
    out = []
    _header(out, "render", args.system_file, depth=args.depth)
    out.append(f"points: {len(sample)}")
    out.append(f"resolution: {to_float(sample.resolution)!r}")
    out.append(f"csv: {args.out}")
    if args.svg:
        out.append(f"svg: {args.svg}")
    print("\n".join(out))
    return 0


def _cmd_eval(args):
    system = parse_ifs_file(args.system_file)
    y = evaluate_f(system, parse_scalar(args.x), tol=args.tol)
    print(repr(to_float(y)))
    return 0


def _verdict_lines(out, verdict):
    out.append(f"mode: {verdict.mode}")
    out.append(f"status: {verdict.status}")
    out.append(f"delta-star: {_scalar_str(verdict.delta_star)}")
    out.append("gap-by-depth:")
    for (d, g) in verdict.gap_by_depth:
        out.append(f"  {d} {_scalar_str(g)}")
    out.append("witnesses:")
    for el, dev in zip(verdict.witnesses, verdict.witness_deviations):
        out.append(
            f"  dev={_scalar_str(dev)} j={_word_str(el.j_word)} i={_word_str(el.i_word)}"
        )
    out.append(f"coincidences: {verdict.coincidence_count}")
    for (jw, iw) in verdict.coincidences[:5]:
        out.append(f"  j={_word_str(jw)} i={_word_str(iw)}")


def _cmd_wsp(args):
    system = parse_ifs_file(args.system_file)
    budget = _word_budget()
    out = []
    _header(out, "wsp", args.system_file, depth=args.depth, tol=repr(args.tol),
            budget=budget)
    verdicts = [check(system, args.depth, args.tol, budget=budget)
                for mode, check in (("1d", wsp_check_1d), ("2d", wsp_check_2d))
                if args.mode in (mode, "both")]
    for verdict in verdicts:
        _verdict_lines(out, verdict)
    print("\n".join(out))
    return 3 if any(v.status == "WitnessFound" for v in verdicts) else 0


def _cmd_orbit(args):
    system = parse_ifs_file(args.system_file)
    element = FamilyElement.from_words(
        system, _parse_word(args.gj), _parse_word(args.gi)
    )
    trace = epsilon_net(system, element.map2, args.eps)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("n,x,y\n")
        for n, (x, y) in enumerate(trace.points):
            fh.write(f"{n},{to_float(x)!r},{to_float(y)!r}\n")
    out = []
    _header(out, "orbit", args.system_file, gi=_word_str(element.i_word),
            gj=_word_str(element.j_word), eps=repr(args.eps))
    out.append(f"direction: {trace.direction}")
    out.append(f"M: {trace.M}")
    out.append(f"delta: {trace.delta!r}")
    out.append(f"covering-radius: {trace.covering_radius!r}")
    out.append(f"csv: {args.out}")
    print("\n".join(out))
    return 0


def _cmd_classify(args):
    g = Affine2(*(parse_scalar(t) for t in (args.p, args.q, args.r, args.h, args.s)))
    origin = (parse_scalar(args.x0), parse_scalar(args.y0))
    interval = (parse_scalar(args.a), parse_scalar(args.b))
    model = classify_orbit_curve(g, origin, interval)
    trace = iterate_orbit(g, origin, interval, max_points=100_000)
    residual = verify_orbit_on_curve(trace, model)
    out = ["fifkit classify report", f"version: {__version__}"]
    out.append(f"kind: {model.kind}")
    for key in sorted(model.coefficients):
        out.append(f"{key}: {_scalar_str(model.coefficients[key])}")
    if model.singularity is not None:
        out.append(f"singularity: {_scalar_str(model.singularity)}")
    out.append(f"orbit-points: {len(trace.points)}")
    out.append(f"residual: {_scalar_str(residual)}")
    print("\n".join(out))
    return 0


def _cmd_example_figure1(args):
    system = four_piece_overlap_system(parse_scalar(args.param))
    sample = sample_attractor(system, 7)
    marks = [(x, evaluate_f(system, x, 1e-12))
             for x in sorted({x for st in system.strips for x in st})]
    # the images of the two middle pieces, formed on the sample's numerators
    pieces = [_image_columns(system, sample, i) for i in (1, 2)]
    lo = max(strip(system, 2)[0], strip(system, 3)[0])
    hi = min(strip(system, 2)[1], strip(system, 3)[1])
    doc = overlap_svg(sample, system.interval, *pieces, (lo, hi), marked=marks)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    out = []
    _header(out, "example-figure1", param=args.param)
    out.append(f"marked-points: {len(marks)}")
    out.append(f"overlap-strip: [{_scalar_str(lo)}, {_scalar_str(hi)}]")
    out.append(f"svg: {args.out}")
    print("\n".join(out))
    return 0


# subcommand: (help, handler, its arguments as (name, add_argument keywords))
_REQUIRED = {"required": True}
_COMMANDS = {
    "validate": ("check a system file", _cmd_validate, (
        ("system_file", {}), ("--tol", {"type": float, "default": 1e-9}))),
    "render": ("sample the attractor to CSV/SVG", _cmd_render, (
        ("system_file", {}), ("--depth", {"type": int, "required": True}),
        ("--out", _REQUIRED), ("--svg", {}),
        ("--max-points", {"type": int, "default": 2_000_000}))),
    "eval": ("evaluate the interpolation function", _cmd_eval, (
        ("system_file", {}), ("--x", _REQUIRED), ("--tol", {"type": float, "default": 1e-9}))),
    "wsp": ("bounded-depth weak separation search", _cmd_wsp, (
        ("system_file", {}), ("--depth", {"type": int, "required": True}),
        ("--tol", {"type": float, "required": True}),
        ("--mode", {"choices": ("1d", "2d", "both"), "default": "both"}))),
    "orbit": ("eps-net orbit of a family element", _cmd_orbit, (
        ("system_file", {}),
        ("--gi", {"required": True, "help": "comma-separated word, 'e' for empty"}),
        ("--gj", {"required": True, "help": "comma-separated word, 'e' for empty"}),
        ("--eps", {"type": float, "required": True}), ("--out", _REQUIRED))),
    "classify": ("closed-form curve of a map's orbit", _cmd_classify, tuple(
        (flag, _REQUIRED)
        for flag in ("--p", "--q", "--r", "--h", "--s", "--x0", "--y0", "--a", "--b"))),
    "example-figure1": (
        "render the bundled four-piece overlap system with its "
        "two overlapping pieces highlighted", _cmd_example_figure1, (
            ("--param", {"default": "1/5"}), ("--out", _REQUIRED))),
}


def _build_parser(names=_COMMANDS):
    """The fifkit parser with the subparsers of names, every subcommand by default.

    A parser for fewer subcommands parses theirs as the full one does,
    and its usage lists every subcommand as the full one's does.
    """
    ap = argparse.ArgumentParser(
        prog="fifkit",
        description="Affine fractal interpolation toolkit: validation, "
                    "rendering, separation search, orbit nets, curve "
                    "classification.",
    )
    ap.add_argument("--version", action="version", version=f"fifkit {__version__}")
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=every if len(names) < len(_COMMANDS) else None)
    for name in names:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_SCALAR
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its subcommand first builds only that subparser
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = _build_parser(names).parse_args(argv)
    try:
        return args.func(args)
    except DepthTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FifkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
