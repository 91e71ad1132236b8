"""Fit a quadratic through attractor samples and read off the verdict.

The two bundled parabola systems store y = x*x exactly, so in rational
arithmetic the least-squares residual comes out as literal zero.  The
four-piece overlap system is genuinely fractal: no quadratic comes
close, and detect_parabola returns None at any sane tolerance.
"""

from fifkit import (
    detect_parabola,
    dyadic_parabola_system,
    four_piece_overlap_system,
    mixed_ratio_parabola_system,
    sample_attractor,
)


def main():
    for name, system, depth in [
        ("dyadic parabola", dyadic_parabola_system(), 8),
        ("mixed-ratio parabola", mixed_ratio_parabola_system(), 10),
    ]:
        sample = sample_attractor(system, depth)
        fit = detect_parabola(sample, tol=1e-9)
        assert fit is not None
        print(f"{name}: {len(sample)} points at depth {depth}")
        print(f"  y = {fit.A} x^2 + {fit.B} x + {fit.C}")
        print(f"  max residual = {fit.max_residual} (exact zero: "
              f"{fit.max_residual == 0})")
        print(f"  degenerate to a line: {fit.is_line}")
        print()

    system = four_piece_overlap_system()
    sample = sample_attractor(system, 7)
    fit = detect_parabola(sample, tol=1e-3)
    print(f"four-piece overlap: {len(sample)} points at depth 7")
    print(f"  quadratic fit within 1e-3: {fit}")


if __name__ == "__main__":
    main()
