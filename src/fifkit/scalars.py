"""Scalar backends shared by every module.

Two kinds of scalar flow through the library: exact rationals
(fractions.Fraction, arbitrary precision) and Python floats.  Integers
are promoted to Fraction on entry so that division never silently
produces a float on the exact path.  A value is "exact" when it is a
Fraction; computations stay exact as long as every input is.
"""

import math
from fractions import Fraction

Scalar = Fraction | float


def coerce(value) -> Scalar:
    """Promote ints to Fraction; pass Fraction and float through."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return value
    raise TypeError(f"not a scalar: {value!r}")


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def to_float(value) -> float:
    return float(value)


def common_denominator(values) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator.

    Ints, Fractions and floats alike convert exactly through
    as_integer_ratio; a float's denominator is a power of two.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in ratios})
    return [n * (den // d) for n, d in ratios], den


def require_finite(named) -> None:
    """ValueError at the first (name, value) holding a float inf or nan; Fractions pass."""
    for where, c in named:
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"{where} = {c} is not finite")


def _solve3(mat, rhs):
    # Cramer in ints: (d1, d2, d3, det), solution d_k/det; None when singular
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = mat
    det = (a11 * (a22 * a33 - a23 * a32)
           - a12 * (a21 * a33 - a23 * a31)
           + a13 * (a21 * a32 - a22 * a31))
    if det == 0:
        return None
    b1, b2, b3 = rhs
    d1 = (b1 * (a22 * a33 - a23 * a32)
          - a12 * (b2 * a33 - a23 * b3)
          + a13 * (b2 * a32 - a22 * b3))
    d2 = (a11 * (b2 * a33 - a23 * b3)
          - b1 * (a21 * a33 - a23 * a31)
          + a13 * (a21 * b3 - b2 * a31))
    d3 = (a11 * (a22 * b3 - b2 * a32)
          - a12 * (a21 * b3 - b2 * a31)
          + b1 * (a21 * a32 - a22 * a31))
    return d1, d2, d3, det


def parse_scalar(text: str) -> Scalar:
    """Parse "n/d" or a plain integer as Fraction, anything else as float.

    >>> parse_scalar("1/5")
    Fraction(1, 5)
    >>> parse_scalar("-3")
    Fraction(-3, 1)
    >>> parse_scalar("0.25")
    0.25
    """
    t = text.strip()
    if "/" in t:
        try:
            return Fraction(t)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}")
    try:
        return Fraction(int(t))
    except ValueError:
        return float(t)


def format_scalar(value: Scalar) -> str:
    """Emit a string that parse_scalar maps back to an equal value."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))
