"""Build the bundled four-piece system, check it, and plot its graph.

The middle two pieces of this system overlap on [7/15, 8/15], so the
usual disjoint-strip reasoning does not apply.  The attractor is still
the graph of a continuous function, which evaluate_f computes point by
point without rendering the whole set.
"""

import os

from fifkit import (
    evaluate_f,
    four_piece_overlap_system,
    graph_svg,
    sample_attractor,
    strip,
    to_float,
    validate,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def main():
    system = four_piece_overlap_system()
    report = validate(system)
    print("valid:", report.valid)
    for i in range(1, len(system) + 1):
        lo, hi = strip(system, i)
        print(f"  strip {i}: [{lo}, {hi}]")
    print("overlaps:", report.overlaps)
    print("touch points:", report.touch_points)

    # interpolation values at every strip endpoint
    xs = sorted({x for i in range(1, 5) for x in strip(system, i)})
    print("\nanchor values:")
    for x in xs:
        y = evaluate_f(system, x, tol=1e-12)
        print(f"  f({x}) = {y}")

    sample = sample_attractor(system, depth=7)
    print(f"\nsampled {len(sample)} points, "
          f"resolution {to_float(sample.resolution):.3e}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "four_piece.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_svg(sample, system.interval))
    print("wrote", path)


if __name__ == "__main__":
    main()
