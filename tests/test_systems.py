from fractions import Fraction

import pytest

from fifkit import (
    Affine2,
    FamilyElement,
    IfsSystem,
    IndexOutOfRangeError,
    MixedScalarWarning,
    conjugate_map,
    conjugate_system,
    dyadic_parabola_system,
    four_piece_overlap_system,
    invert,
    mixed_ratio_parabola_system,
    compose,
    compose_word,
    projection,
    sample_attractor,
    strip,
    validate,
)


def test_needs_at_least_one_map():
    with pytest.raises(ValueError):
        IfsSystem((), (0, 1))
    with pytest.raises(ValueError):
        IfsSystem((Affine2(0.5, 0.5, 0.0, 0.0, 0.0),), (1, 1))


def test_mixed_scalars_demote_with_warning():
    exact_map = Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    float_map = Affine2(0.5, 0.5, 0.0, 0.5, 0.0)
    with pytest.warns(MixedScalarWarning):
        system = IfsSystem((exact_map, float_map), (Fraction(0), Fraction(1)))
    assert not system.exact
    assert all(isinstance(c, float) for g in system.maps
               for c in (g.p, g.q, g.r, g.h, g.s))
    assert isinstance(system.a, float)


def test_mixed_scalar_warning_names_the_caller():
    with pytest.warns(MixedScalarWarning) as record:
        IfsSystem((Affine2(Fraction(1, 3), 0.5, 0, 0, 0),), (0, 1))
    assert [w.filename for w in record] == [__file__]


def test_all_float_no_warning(recwarn):
    IfsSystem((Affine2(0.5, 0.5, 0.0, 0.0, 0.0),), (0.0, 1.0))
    # an integer converts to a float exactly, so literal ints are no mix
    ints = IfsSystem((Affine2(0.5, 0.25, 0, 0, 0),), (0, 1))
    assert not [w for w in recwarn if issubclass(w.category, MixedScalarWarning)]
    assert not ints.exact
    assert ints.interval == (0.0, 1.0) and ints.maps == (Affine2(0.5, 0.25, 0.0, 0.0, 0.0),)
    assert all(isinstance(c, float) for c in (*ints.interval, ints.maps[0].r))


def test_bundled_systems_are_valid():
    for system in (four_piece_overlap_system(), dyadic_parabola_system(),
                   mixed_ratio_parabola_system()):
        assert system.exact
        assert validate(system).valid


def test_four_piece_strips():
    system = four_piece_overlap_system()
    assert strip(system, 1) == (Fraction(0), Fraction(1, 5))
    assert strip(system, 2) == (Fraction(1, 5), Fraction(8, 15))
    assert strip(system, 3) == (Fraction(7, 15), Fraction(4, 5))
    assert strip(system, 4) == (Fraction(4, 5), Fraction(1))
    with pytest.raises(IndexOutOfRangeError):
        strip(system, 5)
    with pytest.raises(IndexOutOfRangeError):
        strip(system, 0)


def test_parabola_systems_draw_x_squared():
    for system, depth in ((dyadic_parabola_system(), 6),
                          (mixed_ratio_parabola_system(), 6)):
        sample = sample_attractor(system, depth)
        assert all(y == x * x for (x, y) in sample.points)


def test_conjugate_map_is_change_of_variables():
    lam, mu = Fraction(3, 2), Fraction(-1, 4)
    C = Affine2(lam, Fraction(1), Fraction(0), mu, Fraction(0))
    g = Affine2(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7), Fraction(1))
    assert conjugate_map(g, lam, mu) == compose(C, compose(g, invert(C)))


def test_conjugate_system_moves_interval():
    system = mixed_ratio_parabola_system()
    lam, mu = Fraction(2), Fraction(1)
    conj = conjugate_system(system, lam, mu)
    assert conj.interval == (Fraction(1), Fraction(3))
    assert validate(conj).valid
    with pytest.raises(ValueError):
        conjugate_system(system, 0, 1)


def test_family_maps_match_compose_invert():
    system = mixed_ratio_parabola_system()
    jw, iw = (1, 2), (2, 1, 1)
    g2 = compose(invert(compose_word(system.maps, jw)),
                 compose_word(system.maps, iw))
    element = FamilyElement.from_words(system, jw, iw)
    assert element.map2 == g2
    assert element.map1 == projection(g2)
