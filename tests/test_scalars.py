import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fifkit import coerce, format_scalar, is_exact, parse_scalar, to_float
from fifkit.scalars import common_denominator


def test_parse_fraction():
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("-7/15") == Fraction(-7, 15)
    assert isinstance(parse_scalar("1/3"), Fraction)


def test_parse_integer_is_exact():
    v = parse_scalar("3")
    assert v == 3 and is_exact(v)
    assert parse_scalar("-2") == Fraction(-2)


def test_parse_decimal_is_float():
    v = parse_scalar("0.25")
    assert v == 0.25 and isinstance(v, float)
    assert isinstance(parse_scalar("1e-3"), float)


def test_parse_rejects_garbage():
    for bad in ("", "1/0", "x", "1/2/3"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_format_round_trip():
    for text in ("1/3", "-7/15", "0", "5"):
        v = parse_scalar(text)
        assert parse_scalar(format_scalar(v)) == v
    assert format_scalar(Fraction(1, 3)) == "1/3"
    assert format_scalar(Fraction(4)) == "4"


def test_coerce_and_predicates():
    assert coerce(3) == Fraction(3) and is_exact(coerce(3))
    assert coerce(0.5) == 0.5 and not is_exact(coerce(0.5))
    assert to_float(Fraction(1, 4)) == 0.25
    assert isinstance(to_float(Fraction(1, 3)), float)


rationals = st.fractions(max_denominator=10 ** 6)
dyadic_floats = st.builds(lambda n, k: n / 2 ** k,
                          st.integers(-(2 ** 53), 2 ** 53), st.integers(0, 60))


@given(st.lists(rationals | dyadic_floats | st.just(0) | st.just(0.0), max_size=12))
def test_common_denominator_round_trips(values):
    nums, den = common_denominator(values)
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == [Fraction(v) for v in values]
    assert den == math.lcm(*(Fraction(v).denominator for v in values))


def test_common_denominator_examples():
    assert common_denominator([Fraction(-1, 6), Fraction(3, 4), 0]) == ([-2, 9, 0], 12)
    assert common_denominator([0.5, -0.375, Fraction(1, 3)]) == ([12, -9, 8], 24)
    assert common_denominator([]) == ([], 1)
