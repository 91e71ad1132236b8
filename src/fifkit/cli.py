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
import sys

from . import __version__
from .affine import Affine2
from .attractor import _image, evaluate_f, sample_attractor, validate
from .errors import DepthTooLargeError, FifkitError
from .orbits import classify_orbit_curve, epsilon_net, iterate_orbit, verify_orbit_on_curve
from .scalars import format_scalar, is_exact, parse_scalar, to_float
from .separation import DEFAULT_WORD_BUDGET, FamilyElement, wsp_check_1d, wsp_check_2d
from .specfile import parse_ifs_file
from .svg import graph_svg, overlap_svg
from .systems import four_piece_overlap_system, strip

_BUDGET_ENV = "FIFKIT_WORD_BUDGET"


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


def _cmd_render(args):
    system = parse_ifs_file(args.system_file)
    sample = sample_attractor(system, args.depth, max_points=args.max_points)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in zip(*sample.columns):
            fh.write(f"{x!r},{y!r}\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(graph_svg(sample, system.interval))
    out = []
    _header(out, "render", args.system_file, depth=args.depth)
    out.append(f"points: {len(sample.numerators)}")
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
    found = False
    if args.mode in ("1d", "both"):
        verdict = wsp_check_1d(system, args.depth, args.tol, budget=budget)
        _verdict_lines(out, verdict)
        found = found or verdict.status == "WitnessFound"
    if args.mode in ("2d", "both"):
        verdict = wsp_check_2d(system, args.depth, args.tol, budget=budget)
        _verdict_lines(out, verdict)
        found = found or verdict.status == "WitnessFound"
    print("\n".join(out))
    return 3 if found else 0


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
    marked_x = []
    for i in range(1, len(system) + 1):
        marked_x.extend(strip(system, i))
    marked_x.sort(key=to_float)
    seen = set()
    marks = []
    for x in marked_x:
        if x in seen:
            continue
        seen.add(x)
        marks.append((x, evaluate_f(system, x, 1e-12)))
    # the images of the two middle pieces, formed on the sample's numerators
    d, gens = system._scaled_maps
    den = sample.den * d
    pieces = []
    for k in (1, 2):
        image = list(_image(gens[k], sample.numerators, sample.den))
        pieces.append(([x / den for x, _ in image], [y / den for _, y in image]))
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


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fifkit",
        description="Affine fractal interpolation toolkit: validation, "
                    "rendering, separation search, orbit nets, curve "
                    "classification.",
    )
    ap.add_argument("--version", action="version", version=f"fifkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system file")
    p.add_argument("system_file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("render", help="sample the attractor to CSV/SVG")
    p.add_argument("system_file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.add_argument("--max-points", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("eval", help="evaluate the interpolation function")
    p.add_argument("system_file")
    p.add_argument("--x", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("wsp", help="bounded-depth weak separation search")
    p.add_argument("system_file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--mode", choices=("1d", "2d", "both"), default="both")
    p.set_defaults(func=_cmd_wsp)

    p = sub.add_parser("orbit", help="eps-net orbit of a family element")
    p.add_argument("system_file")
    p.add_argument("--gi", required=True, help="comma-separated word, 'e' for empty")
    p.add_argument("--gj", required=True, help="comma-separated word, 'e' for empty")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("classify", help="closed-form curve of a map's orbit")
    for flag in ("--p", "--q", "--r", "--h", "--s", "--x0", "--y0", "--a", "--b"):
        p.add_argument(flag, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "example-figure1",
        help="render the bundled four-piece overlap system with its "
             "two overlapping pieces highlighted",
    )
    p.add_argument("--param", default="1/5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_example_figure1)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
