import math
from fractions import Fraction

import numpy as np
import pytest

from fifkit import (
    Affine2,
    DepthTooLargeError,
    IfsSystem,
    NotAFunctionGraphError,
    NotContractiveError,
    NotCoveringError,
    OutOfDomainError,
    anchor_points,
    dyadic_parabola_system,
    evaluate_f,
    four_piece_overlap_system,
    mixed_ratio_parabola_system,
    modulus_of_continuity,
    sample_attractor,
    validate,
    vertical_bound,
)
from fifkit import attractor, separation

from conftest import float_twin, oracle_modulus, oracle_sample

FOUR_PIECE_ANCHORS = {
    Fraction(0): Fraction(0),
    Fraction(1, 5): Fraction(1, 5),
    Fraction(7, 15): Fraction(0),
    Fraction(8, 15): Fraction(0),
    Fraction(4, 5): Fraction(1, 5),
    Fraction(1): Fraction(0),
}


def line_system(q=Fraction(1, 2)):
    # attractor is the graph of y = x on [0, 1]
    return IfsSystem(
        (Affine2(Fraction(1, 2), q, Fraction(1, 2) - q, Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 2), q, Fraction(1, 2) - q,
                 Fraction(1, 2), Fraction(1, 2))),
        (Fraction(0), Fraction(1)),
    )


def flat_system():
    # attractor is the graph of y = 0 on [0, 1]
    return IfsSystem(
        (Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))),
        (Fraction(0), Fraction(1)),
    )


def test_evaluate_f_four_piece_anchor_values():
    system = four_piece_overlap_system()
    for x, want in FOUR_PIECE_ANCHORS.items():
        assert evaluate_f(system, x, tol=1e-12) == want


def test_evaluate_f_parabolas():
    for system in (dyadic_parabola_system(), mixed_ratio_parabola_system()):
        for k in range(0, 17):
            x = Fraction(k, 16)
            y = evaluate_f(system, x, tol=1e-10)
            assert abs(y - x * x) <= 1e-10


def test_evaluate_f_branch_independence_on_overlap():
    system = four_piece_overlap_system()
    tol = 1e-10
    for x in (Fraction(1, 2), Fraction(47, 96), Fraction(51, 97)):
        y2 = evaluate_f(system, x, tol=tol, first_branch=2)
        y3 = evaluate_f(system, x, tol=tol, first_branch=3)
        assert abs(y2 - y3) <= 2 * tol


def test_evaluate_f_out_of_domain():
    system = dyadic_parabola_system()
    with pytest.raises(OutOfDomainError):
        evaluate_f(system, Fraction(3, 2))
    with pytest.raises(OutOfDomainError):
        evaluate_f(system, -0.25)


def test_evaluate_f_rejects_bad_tol():
    with pytest.raises(ValueError):
        evaluate_f(dyadic_parabola_system(), Fraction(1, 2), tol=0.0)


def test_vertical_bound_dyadic():
    assert vertical_bound(dyadic_parabola_system()) == 1


def test_anchor_points_lie_on_graph():
    system = mixed_ratio_parabola_system()
    pts, worst = anchor_points(system)
    assert worst <= 1e-12
    assert all(abs(y - x * x) <= 1e-9 for (x, y) in pts)


def test_sample_attractor_dyadic_exact():
    sample = sample_attractor(dyadic_parabola_system(), 8)
    assert len(sample.points) == 257
    assert all(y == x * x for (x, y) in sample.points)
    xs = sample.xs
    assert xs == sorted(xs)
    assert sample.resolution == Fraction(1, 256)


def test_sample_attractor_mixed_near_exact():
    sample = sample_attractor(mixed_ratio_parabola_system(), 8)
    assert all(abs(y - x * x) <= 1e-12 for (x, y) in sample.points)
    assert sample.depth == 8


def test_sample_attractor_resolution_shrinks():
    system = four_piece_overlap_system()
    r4 = sample_attractor(system, 4).resolution
    r6 = sample_attractor(system, 6).resolution
    assert r6 < r4


def test_sample_attractor_budget():
    with pytest.raises(DepthTooLargeError):
        sample_attractor(dyadic_parabola_system(), 25, max_points=1000)


SAMPLER_CASES = [
    (four_piece_overlap_system, range(1, 6)),
    (mixed_ratio_parabola_system, range(1, 10)),
    (dyadic_parabola_system, range(1, 9)),
]


@pytest.mark.parametrize("make,depths", SAMPLER_CASES)
def test_sample_attractor_matches_oracle_exact(cold_caches, make, depths):
    system = make()
    for depth in depths:
        sample = sample_attractor(system, depth)
        want, res = oracle_sample(system, depth)
        assert list(sample.points) == want
        assert all(isinstance(c, Fraction) for pt in sample.points for c in pt)
        assert sample.resolution == res
        assert sample.depth == depth


@pytest.mark.parametrize("make,depths", SAMPLER_CASES)
def test_sample_attractor_matches_oracle_float(cold_caches, make, depths):
    system = float_twin(make())
    for depth in depths:
        sample = sample_attractor(system, depth)
        want, res = oracle_sample(system, depth)
        assert len(sample.points) == len(want)
        for (x, y), (u, v) in zip(sample.points, want):
            assert type(x) is float and type(y) is float
            assert abs(x - u) <= 1e-12 and abs(y - v) <= 1e-12
        assert abs(sample.resolution - res) <= 1e-12


def test_sample_cache_repeat_is_identical(cold_caches):
    system = four_piece_overlap_system()
    assert sample_attractor(system, 4) is sample_attractor(system, 4)


@pytest.mark.parametrize("make", [four_piece_overlap_system,
                                  lambda: float_twin(mixed_ratio_parabola_system())])
def test_sample_cache_warm_equals_cold(cold_caches, make):
    system = make()
    sample_attractor(system, 3)
    warm = sample_attractor(system, 5)
    attractor._SAMPLES.clear()
    cold = sample_attractor(system, 5)
    assert warm is not cold
    assert warm == cold


def test_sample_cache_holds_one_system(cold_caches):
    first, second = four_piece_overlap_system(), dyadic_parabola_system()
    a = sample_attractor(first, 3)
    sample_attractor(second, 3)
    assert set(attractor._SAMPLES.samples) == {3}
    b = sample_attractor(first, 3)
    assert b is not a and b == a


def test_sample_cache_keeps_the_budget(cold_caches):
    system = dyadic_parabola_system()
    sample_attractor(system, 3)
    with pytest.raises(DepthTooLargeError):
        sample_attractor(system, 10, max_points=1000)
    with pytest.raises(DepthTooLargeError):
        sample_attractor(system, 3, max_points=10)
    assert sample_attractor(system, 3).depth == 3


@pytest.mark.parametrize("exact_first", [True, False])
def test_exact_and_float_twins_do_not_share_caches(cold_caches, exact_first):
    exact = dyadic_parabola_system()
    floating = float_twin(exact)
    assert exact == floating  # Fraction(1, 2) == 0.5: the twins collide on value
    order = (exact, floating) if exact_first else (floating, exact)
    for system in order:
        want = Fraction if system.exact else float
        box = separation.attractor_ybox(system)
        assert all(type(v) is want for v in box)
        sample = sample_attractor(system, 3)
        assert all(type(c) is want for pt in sample.points for c in pt)


def test_graph_sample_to_arrays():
    sample = sample_attractor(dyadic_parabola_system(), 4)
    xs, ys = sample.to_arrays()
    assert isinstance(xs, np.ndarray) and isinstance(ys, np.ndarray)
    assert len(xs) == len(sample.points)
    assert np.all(np.diff(xs) > 0)


def test_validate_four_piece_report():
    report = validate(four_piece_overlap_system())
    assert report.valid
    assert report.contractive and report.covering and report.contained
    assert report.overlaps == ((2, 3, Fraction(7, 15), Fraction(8, 15)),)
    assert report.touch_points == ((1, 2, Fraction(1, 5)), (3, 4, Fraction(4, 5)))
    assert report.single_valued
    assert report.max_discrepancy <= 1e-9


def test_validate_dyadic_touch():
    report = validate(dyadic_parabola_system())
    assert report.valid
    assert report.overlaps == ()
    assert report.touch_points == ((1, 2, Fraction(1, 2)),)


def test_validate_flags_gaps_and_expansion():
    gap = IfsSystem(
        (Affine2(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(3, 4), Fraction(0))),
        (Fraction(0), Fraction(1)),
    )
    report = validate(gap)
    assert not report.valid and not report.covering
    assert report.coverage_gaps == ((Fraction(1, 4), Fraction(3, 4)),)
    with pytest.raises(NotCoveringError):
        validate(gap, strict=True)

    expanding = IfsSystem(
        (Affine2(Fraction(3, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),),
        (Fraction(0), Fraction(1)),
    )
    report = validate(expanding)
    assert not report.valid and not report.contractive
    with pytest.raises(NotContractiveError):
        validate(expanding, strict=True)


def test_validate_flags_multivalued_overlap():
    # strips [0, 3/4] and [1/4, 1] agree on x but disagree about y
    bad = IfsSystem(
        (Affine2(Fraction(3, 4), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(3, 4), Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 2))),
        (Fraction(0), Fraction(1)),
    )
    report = validate(bad)
    assert not report.valid and not report.single_valued
    with pytest.raises(NotAFunctionGraphError):
        validate(bad, strict=True)


def test_modulus_line():
    eps = 0.1
    delta = modulus_of_continuity(line_system(), eps)
    assert eps / (2 * math.sqrt(2)) <= delta <= eps / math.sqrt(2) + 1e-3


def test_modulus_flat_line_caps_at_eps():
    assert modulus_of_continuity(flat_system(), 0.5) == 0.5


def test_modulus_dyadic():
    delta = modulus_of_continuity(dyadic_parabola_system(), 0.1)
    assert 0.02 <= delta < 0.1
    # monotone in eps
    assert modulus_of_continuity(dyadic_parabola_system(), 0.05) <= delta


def test_modulus_rejects_bad_eps():
    with pytest.raises(ValueError):
        modulus_of_continuity(flat_system(), 0.0)


# 0.14062839080113376 is the eps suggest_eps picks for the mixed depth-12
# witness; 2.0 is accepted at the cap min(eps, width)
MODULUS_EPS = (0.1, 0.14062839080113376, 0.2, 0.3, 0.6, 2.0)


def test_modulus_matches_oracle(cold_caches):
    outcomes = []
    for make in (dyadic_parabola_system, mixed_ratio_parabola_system,
                 four_piece_overlap_system):
        for system in (make(), float_twin(make())):
            for eps in MODULUS_EPS:
                steps = []
                want = oracle_modulus(system, eps, outcomes=steps)
                got = modulus_of_continuity(system, eps)
                assert got.hex() == want.hex(), (system, eps)
                outcomes += steps
                outcomes.append(("depths", len(steps)))
    kinds = {kind for _, kind in outcomes}
    assert {"hi_cap", "bisect", "low_reject", "coarse"} <= kinds
    assert max(n for kind, n in outcomes if kind == "depths") >= 5
    assert modulus_of_continuity(mixed_ratio_parabola_system(),
                                 0.14062839080113376) == 0.06488020307051946


def test_window_spread_range_gives_the_same_windows():
    sample = sample_attractor(mixed_ratio_parabola_system(), 7)
    xs = [float(x) for x in sample.xs]
    ys = [float(y) for y in sample.ys]
    spread, w_in, w_out = attractor._window_spread(xs, ys, 0.05)
    assert w_in <= 0.05 < w_out
    for delta in (w_in, (w_in + w_out) / 2, math.nextafter(w_out, 0.0)):
        assert attractor._window_spread(xs, ys, delta) == (spread, w_in, w_out)
    assert attractor._window_spread(xs, ys, w_out)[1] >= w_out
    assert attractor._window_spread(xs, ys, math.nextafter(w_in, 0.0))[2] <= w_in


def test_evaluate_constants_are_per_instance():
    # the dyadic system and its float twin compare equal
    exact = dyadic_parabola_system()
    twin = float_twin(exact)
    assert exact == twin
    assert exact.strips == twin.strips
    assert all(isinstance(c, Fraction) for st in exact.strips for c in st)
    assert all(type(c) is float for st in twin.strips for c in st)
    assert exact.strips is exact.strips


def test_evaluate_f_not_contractive_on_every_call():
    bad = IfsSystem(
        (Affine2(Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))),
        (Fraction(0), Fraction(1)),
    )
    for _ in range(2):
        with pytest.raises(NotContractiveError):
            evaluate_f(bad, Fraction(1, 3))
