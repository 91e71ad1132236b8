from fractions import Fraction

import pytest

from fifkit import (
    Affine1,
    Affine2,
    IndexOutOfRangeError,
    SingularMapError,
    compose,
    compose_word,
    fixed_point_1d,
    four_piece_overlap_system,
    invert,
)


def test_call_semantics():
    g = Affine2(Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(1, 4), Fraction(2))
    x, y = Fraction(2), Fraction(3)
    assert g((x, y)) == (Fraction(1, 2) * x + Fraction(1, 4),
                         Fraction(1, 3) * y + x + 2)
    g1 = Affine1(Fraction(1, 2), Fraction(1, 4))
    assert g1(x) == Fraction(5, 4)
    assert Affine2.identity()((x, y)) == (x, y)
    assert Affine1.identity()(x) == x


def test_invert_singular():
    with pytest.raises(SingularMapError):
        invert(Affine2(0.0, 0.5, 0.0, 0.0, 0.0))
    with pytest.raises(SingularMapError):
        invert(Affine2(0.5, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(SingularMapError):
        invert(Affine1(0.0, 1.0))
    with pytest.raises(SingularMapError, match="underflows to 0"):
        invert(Affine2(5e-324, 0.5, 0.0, 0.0, 0.0))
    # a product that stays normal keeps the float operation order
    g = Affine2(0.3, -0.7, 0.2, 0.1, 0.4)
    assert invert(g) == Affine2(1 / 0.3, 1 / -0.7, -0.2 / (0.3 * -0.7), -0.1 / 0.3,
                                (0.2 * 0.1 - 0.4 * 0.3) / (0.3 * -0.7))


def test_compose_word_order():
    system = four_piece_overlap_system()
    m = system.maps
    # leftmost letter applied last
    assert compose_word(m, (1, 2)) == compose(m[0], m[1])
    assert compose_word(m, (1, 2, 3)) == compose(m[0], compose(m[1], m[2]))
    assert compose_word(m, ()) == Affine2.identity()


def test_compose_word_coincidence_for_three_params():
    # S2 o S4 = S3 o S1 in this family regardless of the free parameter
    for a in (Fraction(1, 5), Fraction(1, 3), Fraction(-1, 4)):
        m = four_piece_overlap_system(a).maps
        assert compose_word(m, (2, 4)) == compose_word(m, (3, 1))


def test_compose_word_bad_index():
    m = four_piece_overlap_system().maps
    with pytest.raises(IndexOutOfRangeError):
        compose_word(m, (0,))
    with pytest.raises(IndexOutOfRangeError):
        compose_word(m, (1, 5))


def test_fixed_point_kinds():
    fp = fixed_point_1d(Affine1(Fraction(1, 2), Fraction(1, 4)))
    assert fp.is_point and fp.x == Fraction(1, 2)
    fp = fixed_point_1d(Affine1(Fraction(1), Fraction(1, 4)))
    assert fp.kind == "at_infinity" and not fp.is_point
    fp = fixed_point_1d(Affine1(Fraction(1), Fraction(0)))
    assert fp.kind == "everywhere"


def test_exact_flag():
    assert Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)).exact
    assert not Affine2(0.5, Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)).exact
