import ast
import gc
import hashlib
import math
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from fifkit import (
    Affine2,
    DepthTooLargeError,
    IfsSystem,
    IndexOutOfRangeError,
    NotAFunctionGraphError,
    NotContractiveError,
    NotCoveringError,
    OutOfDomainError,
    ResolutionInsufficientError,
    anchor_points,
    conjugate_system,
    dyadic_parabola_system,
    evaluate_f,
    four_piece_overlap_system,
    mixed_ratio_parabola_system,
    modulus_of_continuity,
    sample_attractor,
    validate,
    vertical_bound,
)
from fifkit import attractor, separation, wsp_check_1d, wsp_check_2d

from conftest import (
    NOT_CONTRACTIVE,
    float_twin,
    not_contractive_system,
    oracle_evaluate,
    oracle_levels,
    oracle_modulus,
    oracle_sample,
    random_lattice_system,
    random_overlapping_system,
    random_quadratic_system,
    random_two_map_system,
)

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


def test_evaluate_f_float_forced_branches():
    # the float pullback with its first branch forced: branches 2 and 3
    # agree on the overlap strip, and a strip that misses x is refused
    system = float_twin(four_piece_overlap_system())
    tol = 1e-12
    for k in range(61):
        x = 7 / 15 + k / 900
        y2 = evaluate_f(system, x, tol=tol, first_branch=2)
        y3 = evaluate_f(system, x, tol=tol, first_branch=3)
        assert type(y2) is float and abs(y2 - y3) <= 2 * tol
    for x, branch in ((0.5, 1), (0.5, 4), (0.1, 3), (0.9, 2)):
        with pytest.raises(OutOfDomainError, match=f"outside strip {branch}"):
            evaluate_f(system, x, tol=tol, first_branch=branch)


def test_evaluate_f_refuses_a_branch_outside_the_maps():
    # a branch outside 1..m is refused by name, not read as a list index
    # (branch 0 would be branch 4, whose value at 9/10 is 1/10)
    exact = four_piece_overlap_system()
    for system in (exact, float_twin(exact)):
        for branch in (-1, 0, 5):
            with pytest.raises(IndexOutOfRangeError) as exc:
                evaluate_f(system, Fraction(9, 10), first_branch=branch)
            assert str(exc.value) == f"branch {branch} outside 1..4"
        assert abs(evaluate_f(system, Fraction(9, 10), first_branch=4) - Fraction(1, 10)) <= 1e-9


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


@pytest.mark.parametrize("p, q", [(1, Fraction(1, 2)), (Fraction(1, 2), 1)])
def test_anchor_points_refuse_p_or_q_one(p, q):
    # such a map has no fixed point to anchor a sample at
    system = IfsSystem(
        (Affine2(p, q, Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))),
        (Fraction(0), Fraction(1)),
    )
    for scanned in (system, float_twin(system)):
        with pytest.raises(NotContractiveError, match=r"map 1: \|[pq]\| = 1(\.0)? is not < 1"):
            anchor_points(scanned)
        with pytest.raises(NotContractiveError):
            sample_attractor(scanned, 3)


def test_sample_attractor_dyadic_exact():
    sample = sample_attractor(dyadic_parabola_system(), 8)
    assert len(sample.points) == 257
    assert all(y == x * x for (x, y) in sample.points)
    xs = [x for x, _ in sample.points]
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


def test_sample_attractor_checks_the_budget_before_anchors(cold_caches, monkeypatch):
    def no_anchors(*args, **kwargs):
        raise AssertionError("anchor_points called for a refused depth")

    monkeypatch.setattr(attractor, "anchor_points", no_anchors)
    with pytest.raises(DepthTooLargeError):
        sample_attractor(four_piece_overlap_system(), 9, max_points=1_000_000)
    assert attractor._SAMPLES.key is None


def seeded_system(family, seed):
    # random_quadratic_system returns (system, its parabola)
    def make():
        made = family(random.Random(seed))
        return made[0] if isinstance(made, tuple) else made
    make.__name__ = f"{family.__name__}_{seed}"
    return make


BUNDLED_SAMPLER_CASES = [
    (four_piece_overlap_system, range(1, 6)),
    (mixed_ratio_parabola_system, range(1, 10)),
    (dyadic_parabola_system, range(1, 9)),
]
# the bundled maps all have p > 0; these reverse x (p < 0) or y (q < 0)
RANDOM_SAMPLER_SYSTEMS = [seeded_system(random_overlapping_system, seed) for seed in range(8)]
SAMPLER_CASES = BUNDLED_SAMPLER_CASES + [(make, range(1, 7)) for make in RANDOM_SAMPLER_SYSTEMS]


def negative_interval_system():
    # on [-2, -1/2]; both maps have q < 0, and the second reverses x
    base = IfsSystem(
        (Affine2(Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 3), Fraction(0), Fraction(-1, 5)),
         Affine2(Fraction(-2, 3), Fraction(-1, 4), Fraction(-1, 2), Fraction(1), Fraction(-1, 3))),
        (Fraction(0), Fraction(1)),
    )
    return conjugate_system(base, Fraction(3, 2), Fraction(-2))


PACKED_CASES = ([make for make, _ in BUNDLED_SAMPLER_CASES] + [negative_interval_system]
                + [seeded_system(family, seed)
                   for family in (random_two_map_system, random_overlapping_system,
                                  random_quadratic_system, random_lattice_system)
                   for seed in range(4)])


def test_random_sampler_cases_reverse():
    maps = [g for make in RANDOM_SAMPLER_SYSTEMS for g in make().maps]
    assert any(g.p < 0 for g in maps)
    assert any(g.p > 0 and g.q < 0 for g in maps)


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


# The word oracle deduplicates a float sample once, at the end; the sampler
# does so at every level.  Where the float anchors are off by ~1e-12 (the
# random systems' float twins) the two can split or merge near-duplicates
# differently, so those are checked against oracle_levels instead.
@pytest.mark.parametrize("make,depths", BUNDLED_SAMPLER_CASES)
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


def _numerator_pairs(sample):
    return tuple(zip(*sample.numerator_columns()))


def test_numerator_pairs_are_the_numerator_columns_zipped(cold_caches):
    for system in (four_piece_overlap_system(), negative_interval_system(),
                   float_twin(mixed_ratio_parabola_system())):
        sample = sample_attractor(system, 4)
        assert tuple(sample.numerator_pairs()) == _numerator_pairs(sample)


def _sample_parts(sample):
    return repr((_numerator_pairs(sample), sample.den, sample.resolution))


@pytest.mark.parametrize("make", RANDOM_SAMPLER_SYSTEMS)
def test_sample_attractor_matches_oracle_levels(cold_caches, make):
    for system in (make(), float_twin(make())):
        for depth in range(1, 7):
            got = _sample_parts(sample_attractor(system, depth))
            assert got == repr(oracle_levels(system, depth))


@pytest.mark.parametrize("make", RANDOM_SAMPLER_SYSTEMS)
def test_sample_attractor_matches_oracle_warm(cold_caches, make):
    # depth 6 continued over four levels from a cached depth-2 sample
    exact = make()
    sample_attractor(exact, 2)
    assert list(sample_attractor(exact, 6).points) == oracle_sample(exact, 6)[0]
    system = float_twin(exact)
    sample_attractor(system, 2)
    assert _sample_parts(sample_attractor(system, 6)) == repr(oracle_levels(system, 6))


def test_sample_cache_repeat_is_identical(cold_caches):
    system = four_piece_overlap_system()
    assert sample_attractor(system, 4) is sample_attractor(system, 4)


@pytest.mark.parametrize("make", PACKED_CASES + [lambda: float_twin(mixed_ratio_parabola_system())])
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


def test_graph_sample_columns_follow_points():
    sample = sample_attractor(dyadic_parabola_system(), 4)
    xs, ys = sample.columns
    assert len(xs) == len(ys) == len(sample.points)
    assert all(u < v for u, v in zip(xs, xs[1:]))


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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_validate_refuses_a_tol_that_is_not_positive(tol):
    f = Fraction
    gap = IfsSystem((Affine2(f(1, 2), f(1, 4), f(0), f(0), f(0)),), (f(0), f(1)))
    for system in (gap, dyadic_parabola_system()):
        with pytest.raises(ValueError, match="tol must be positive"):
            validate(system, tol)


def test_validate_sweeps_exact_strips_in_exact_order():
    # strip 2 starts 10^-20 above strip 3 and ends first; both starts
    # round to the same float, so a float-keyed sweep meets strip 2 first
    # and reports a gap [1/3, 1/3 + 10^-20] that strip 3 covers
    third, quarter, zero = Fraction(1, 3), Fraction(1, 4), Fraction(0)
    system = IfsSystem(
        (Affine2(third, quarter, zero, zero, zero),
         Affine2(Fraction(1, 2), quarter, zero, third + Fraction(1, 10**20), zero),
         Affine2(Fraction(2, 3), quarter, zero, third, zero)),
        (zero, Fraction(1)),
    )
    report = validate(system)
    assert report.covering
    assert report.coverage_gaps == ()
    assert not any("coverage" in problem for problem in report.problems)


@pytest.mark.parametrize("p, q, problems", [
    (Fraction(0), Fraction(1, 2), ("map 2: p == 0", "map 2: p == 0")),
    (Fraction(1, 2), Fraction(-1), ("map 2: |q| = 1 not < 1", "map 2: |q| = 1.0 not < 1")),
    (Fraction(1, 2), Fraction(3, 2), ("map 2: |q| = 3/2 not < 1", "map 2: |q| = 1.5 not < 1")),
], ids=["p-zero", "q-minus-one", "q-above-one"])
def test_validate_flags_p_zero_and_q_not_contracting(p, q, problems):
    half = Fraction(1, 2)
    system = IfsSystem((Affine2(half, half, Fraction(0), Fraction(0), Fraction(0)),
                        Affine2(p, q, Fraction(0), half, Fraction(0))),
                       (Fraction(0), Fraction(1)))
    for checked, problem in zip((system, float_twin(system)), problems):
        report = validate(checked)
        assert not report.valid and not report.contractive
        assert problem in report.problems
        assert report.single_valued is None
        with pytest.raises(NotContractiveError, match=re.escape(problem)):
            validate(checked, strict=True)


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


def test_modulus_matches_oracle_random(cold_caches):
    # rough random systems often exhaust the budget; eps >= 1 lets a
    # fair share of them bisect
    rng = random.Random(20261019)
    outcomes = []
    for k in range(30):
        make = random_overlapping_system if k % 2 else random_two_map_system
        exact = make(rng)
        eps = rng.choice((1.0, 1.5, 2.0))
        for system in (exact, float_twin(exact)):
            try:
                want = oracle_modulus(system, eps, 5_000, outcomes=outcomes).hex()
            except ResolutionInsufficientError:
                want = "insufficient"
            try:
                got = modulus_of_continuity(system, eps, 5_000).hex()
            except ResolutionInsufficientError:
                got = "insufficient"
            assert got == want, (system, eps)
    assert sum(kind == "bisect" for _, kind in outcomes) >= 10


def _plain_spread(xs, ys, delta):
    """Largest max y - min y over every window [l, r] of the sorted
    sample with xs[r] - xs[l] <= delta, each left end walked afresh."""
    worst = 0.0
    for left, x in enumerate(xs):
        right = left
        while right < len(xs) and xs[right] - x <= delta:
            right += 1
        worst = max(worst, max(ys[left:right]) - min(ys[left:right]))
    return worst


@pytest.mark.parametrize("make, depth, eps_values", [
    (mixed_ratio_parabola_system, 7, (0.1, 0.14062839080113376, 0.3, 0.6, 2.0)),
    (four_piece_overlap_system, 5, (0.02, 0.05, 0.1)),
], ids=["mixed-d7", "four-piece-d5"])
def test_threshold_against_plain_windows(cold_caches, make, depth, eps_values):
    for system in (make(), float_twin(make())):
        xs, ys = sample_attractor(system, depth).columns
        for eps in eps_values:
            t = attractor._threshold(xs, ys, eps)
            below = math.nextafter(t, 0.0)
            assert math.hypot(t, _plain_spread(xs, ys, t)) > eps, (system, eps)
            assert math.hypot(below, _plain_spread(xs, ys, below)) <= eps, (system, eps)
            if math.hypot(xs[-1] - xs[0], max(ys) - min(ys)) <= eps:
                # no window fails: the range of the whole sample sets t
                assert t > xs[-1] - xs[0]


def test_evaluate_constants_are_per_instance():
    # the dyadic system and its float twin compare equal
    exact = dyadic_parabola_system()
    twin = float_twin(exact)
    assert exact == twin
    assert exact.strips == twin.strips
    assert all(isinstance(c, Fraction) for st in exact.strips for c in st)
    assert all(type(c) is float for st in twin.strips for c in st)
    assert exact.strips is exact.strips
    # forward maps over their common denominator D: lcm(2, 4) against 1
    assert exact._scaled_maps == (4, ((2, 1, 0, 0, 0), (2, 1, 2, 2, 1)))
    assert twin._scaled_maps == (1, ((0.5, 0.25, 0.0, 0.0, 0.0), (0.5, 0.25, 0.5, 0.5, 0.25)))
    assert all(type(c) is float for row in twin._scaled_maps[1] for c in row)


def test_evaluate_f_not_contractive_on_every_call():
    bad = IfsSystem(
        (Affine2(Fraction(1, 2), Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))),
        (Fraction(0), Fraction(1)),
    )
    for _ in range(2):
        with pytest.raises(NotContractiveError):
            evaluate_f(bad, Fraction(1, 3))


@pytest.mark.parametrize("case", sorted(NOT_CONTRACTIVE))
def test_every_entry_point_refuses_a_map_that_is_no_contraction(case):
    # one check per system, naming the map; validate reports instead
    (p, q), messages = NOT_CONTRACTIVE[case]
    system = not_contractive_system(p, q)
    for checked, message in zip((system, float_twin(system)), messages):
        calls = (lambda: sample_attractor(checked, 3), lambda: evaluate_f(checked, 0.25),
                 lambda: modulus_of_continuity(checked, 0.1), lambda: vertical_bound(checked),
                 lambda: wsp_check_1d(checked, 3, 1e-3), lambda: wsp_check_2d(checked, 3, 1e-3))
        for call in calls:
            with pytest.raises(NotContractiveError, match=f"^{re.escape(message)}$"):
                call()
        report = validate(checked)
        assert not report.contractive and not report.valid


# ---------- exact evaluate_f against the Fraction recurrence ----------

def _agrees_with_oracle(system, x, tol, first_branch=None):
    """_evaluate and oracle_evaluate give the same value and error bound."""
    y, err = attractor._evaluate(system, x, tol, first_branch)
    want, want_err = oracle_evaluate(system, x, tol, first_branch)
    assert y == want, (system, x, first_branch)
    assert err.hex() == want_err.hex(), (system, x, first_branch)
    if system.exact and isinstance(x, Fraction):
        assert isinstance(y, Fraction)
    else:
        assert type(y) is type(want)
    return err


EVAL_GRID = sorted({Fraction(k, 97) for k in range(98)} | {Fraction(k, 60) for k in range(61)})


@pytest.mark.parametrize("make", [four_piece_overlap_system, mixed_ratio_parabola_system,
                                  dyadic_parabola_system])
def test_evaluate_matches_oracle(make):
    system = make()
    errs = [_agrees_with_oracle(system, x, tol) for tol in (1e-12, 1e-9) for x in EVAL_GRID]
    assert 0.0 < max(errs)


def test_evaluate_matches_oracle_on_forced_branches():
    system = four_piece_overlap_system()
    lo, hi = Fraction(7, 15), Fraction(8, 15)
    for k in range(61):
        x = lo + (hi - lo) * Fraction(k, 60)
        for branch in (2, 3):
            _agrees_with_oracle(system, x, 1e-12, branch)


def test_evaluate_matches_oracle_on_random_systems():
    rng = random.Random(20261018)
    negative = 0
    for _ in range(200):
        system = random_overlapping_system(rng)
        negative += any(g.p < 0 for g in system.maps)
        (lo1, hi1), (lo2, hi2) = system.strips
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        assert lo < hi
        for x in [Fraction(0), Fraction(1)] + [Fraction(rng.randrange(1001), 1000)
                                               for _ in range(4)]:
            _agrees_with_oracle(system, x, 1e-10)
        x = lo + (hi - lo) * Fraction(rng.randrange(101), 100)
        for branch in (1, 2):
            _agrees_with_oracle(system, x, 1e-10, branch)
    assert negative >= 50


def test_evaluate_is_exact_at_projected_fixed_points():
    four = four_piece_overlap_system()
    for x in FOUR_PIECE_ANCHORS:
        assert _agrees_with_oracle(four, x, 1e-12) == 0.0
    # 1 is the fixed point of the pullback x -> (3x - 1)/2, over L = 2
    assert _agrees_with_oracle(mixed_ratio_parabola_system(), Fraction(1), 1e-12) == 0.0
    # dyadic abscissae pull back onto the fixed point 1 of the second map
    dyadic = dyadic_parabola_system()
    for k in range(1, 16):
        x = Fraction(k, 16)
        assert _agrees_with_oracle(dyadic, x, 1e-12) == 0.0
        assert evaluate_f(dyadic, x, 1e-12) == x * x


def test_evaluate_float_inputs_keep_the_scalar_path():
    # a float x on an exact system is evaluated exactly, as Fraction(x);
    # float systems keep the scalar pullback
    forced = [(four_piece_overlap_system(), [(0.5, 2), (0.5, 3)]),
              (mixed_ratio_parabola_system(), [(0.4, 1), (0.4, 2)])]
    for system, branches in forced:
        for x, branch in [(x, None) for x in (0.0, 0.3, 0.5, 0.75, 1.0)] + branches:
            y, err = attractor._evaluate(system, x, 1e-9, branch)
            want, want_err = oracle_evaluate(system, Fraction(x), 1e-9, branch)
            assert isinstance(y, Fraction) and y == want, (system, x, branch)
            assert err.hex() == want_err.hex(), (system, x, branch)
    for system in (float_twin(four_piece_overlap_system()),
                   float_twin(mixed_ratio_parabola_system())):
        for x in (0.0, 0.3, 0.5, 0.75, Fraction(1, 3)):
            _agrees_with_oracle(system, x, 1e-9)


def test_evaluate_errors_match_oracle():
    # strips [0, 1/4] and [3/4, 1]: 1/8 pulls back to the uncovered 1/2
    gap = IfsSystem(
        (Affine2(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(3, 4), Fraction(1, 4))),
        (Fraction(0), Fraction(1)),
    )
    four = four_piece_overlap_system()
    cases = [
        (four, Fraction(1, 10), 3, OutOfDomainError, "x = 1/10 outside strip 3"),
        (four, Fraction(1), 2, OutOfDomainError, "x = 1 outside strip 2"),
        (four, Fraction(3, 2), None, OutOfDomainError, "x = 3/2 outside [0, 1]"),
        (gap, Fraction(1, 2), None, NotCoveringError, "no projected strip contains x = 1/2"),
        (gap, Fraction(1, 8), None, NotCoveringError, "no projected strip contains x = 1/2"),
        (gap, Fraction(7, 8), 1, OutOfDomainError, "x = 7/8 outside strip 1"),
    ]
    for system, x, branch, error, message in cases:
        for evaluate in (attractor._evaluate, oracle_evaluate):
            with pytest.raises(error) as exc:
                evaluate(system, x, 1e-9, branch)
            assert str(exc.value) == message


# ---------- GraphSample: numerator columns, columns, points ----------

COLUMN_CASES = [(four_piece_overlap_system, 7), (mixed_ratio_parabola_system, 12),
                (dyadic_parabola_system, 8)]


@pytest.mark.parametrize("make,depth", COLUMN_CASES)
def test_sample_columns_are_the_floats_of_its_points(cold_caches, make, depth):
    sample = sample_attractor(make(), depth)
    xs, ys = sample.columns
    assert [v.hex() for v in xs] == [float(x).hex() for x, _ in sample.points]
    assert [v.hex() for v in ys] == [float(y).hex() for _, y in sample.points]
    assert sample.columns is sample.columns


def test_sample_points_are_built_on_demand(cold_caches):
    system = mixed_ratio_parabola_system()
    sample = sample_attractor(system, 6)
    assert sample.exact and "points" not in vars(sample)
    assert all(type(c) is int for pt in _numerator_pairs(sample) for c in pt)
    want, res = oracle_sample(system, 6)
    assert list(sample.points) == want
    assert sample.points is sample.points
    assert sample.resolution == res


def test_warm_sample_continues_from_numerators(cold_caches):
    system = four_piece_overlap_system()
    sample_attractor(system, 3)
    warm = sample_attractor(system, 5)
    attractor._SAMPLES.clear()
    cold = sample_attractor(system, 5)
    assert warm == cold
    assert (_numerator_pairs(warm), warm.den) == (_numerator_pairs(cold), cold.den)
    assert warm.points == cold.points


def test_float_sample_keeps_its_floats(cold_caches):
    sample = sample_attractor(float_twin(mixed_ratio_parabola_system()), 5)
    assert not sample.exact and sample.den == 1
    assert sample.points is sample.data
    assert sample.columns == ([x for x, _ in sample.points], [y for _, y in sample.points])


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_column_chunks_are_the_floats_of_its_points(n, exact):
    # random points of both signs over mixed denominators, one of them
    # beyond a float's 53 bits, so that X / den must round once
    rng = random.Random(n)
    xdens, ydens = (3, 7, 1000, 2 ** 60 + 1), (1, 9, 2 ** 61 - 1)
    pts = sorted((Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(xdens)),
                  Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.choice(ydens)))
                 for _ in range(n))
    if exact:
        level, den, k, off = attractor._packed(pts)
        sample = attractor.GraphSample(tuple(level), den, 1, 0, 0.0, True, k, off)
    else:
        sample = attractor.GraphSample(tuple(sorted({(float(x), float(y)) for x, y in pts})),
                                       1, 1, 0.0, 0.0, False)
    want_x = [float(x) for x, _ in sample.points]
    want_y = [float(y) for _, y in sample.points]
    chunks = list(sample.column_chunks())
    assert [len(xs) for xs, _ in chunks] == [len(ys) for _, ys in chunks]
    assert [len(xs) for xs, _ in chunks] == [min(4096, len(sample) - i)
                                             for i in range(0, len(sample), 4096)]
    xs = [v for part, _ in chunks for v in part]
    ys = [v for _, part in chunks for v in part]
    assert [v.hex() for v in xs] == [v.hex() for v in want_x]
    assert [v.hex() for v in ys] == [v.hex() for v in want_y]
    assert sample.columns == (xs, ys)
    assert sample.extent() == (min(want_x), max(want_x), min(want_y), max(want_y))
    nys = sample.numerator_columns()[1]
    assert sample.numerator_y_range() == (min(nys), max(nys))


def test_only_graph_sample_reads_the_sample_storage():
    # a sample's stored points (data) and their packing (k, off) are read in
    # attractor.py alone; every other module reads numerator_columns(),
    # numerator_pairs() or columns, so a change of storage stays inside
    # GraphSample
    reads = []
    for path in sorted(Path(attractor.__file__).parent.glob("*.py")):
        if path.name != "attractor.py":
            reads += [f"{path.name}:{node.lineno} .{node.attr}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr in ("data", "k", "off")]
    assert reads == []


# ---------- the packed form of an exact sample ----------

def test_negative_interval_system_has_negative_ends_and_q():
    system = negative_interval_system()
    assert system.interval == (Fraction(-2), Fraction(-1, 2))
    assert all(g.q < 0 for g in system.maps)


@pytest.mark.parametrize("make", PACKED_CASES)
def test_packed_sample_decodes_to_the_oracle(cold_caches, make):
    system = make()
    for depth in (1, 3, 5):
        sample = sample_attractor(system, depth)
        want, res = oracle_sample(system, depth)
        den, data = sample.den, sample.data
        assert _numerator_pairs(sample) == tuple((int(x * den), int(y * den)) for x, y in want)
        assert list(sample.points) == want and sample.resolution == res
        # |Y| <= off < 2^k / 2, so the ints rise strictly in (X, Y) order
        assert all(type(z) is int for z in data) and len(sample) == len(want)
        assert all(u < v for u, v in zip(data, data[1:]))
        assert 2 * sample.off < 1 << sample.k
        assert all(abs(y) <= sample.off for _, y in _numerator_pairs(sample))


def test_exact_sample_retains_one_int_per_point(cold_caches):
    # four-piece d7 holds 35,504 points; as tuples of two ints they retained
    # about 135 B a point and peaked at about 194 B a point while being built
    system = four_piece_overlap_system()
    sample_attractor(system, 1)  # anchors and scaled maps outside the trace
    attractor._SAMPLES.samples.clear()
    gc.collect()
    tracemalloc.start()
    try:
        sample = sample_attractor(system, 7)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sample) == 35_504
    assert retained <= 60 * len(sample)
    assert peak <= 100 * len(sample)


def test_exact_domain_check_matches_the_fraction_comparison():
    tiny = Fraction(1, 10 ** 30)
    for system in (four_piece_overlap_system(), negative_interval_system()):
        a, b = system.interval
        xs = [a, b, a - tiny, b + tiny, a + tiny, float(a), float(b), int(math.floor(a)),
              math.nextafter(float(a), -math.inf), math.nextafter(float(b), math.inf),
              math.inf, -math.inf, math.nan]
        for x in xs:
            if a <= x <= b:
                y, _ = attractor._evaluate(system, x, 1e-9)
                assert y == oracle_evaluate(system, Fraction(x), 1e-9)[0]
            else:
                with pytest.raises(OutOfDomainError) as exc:
                    attractor._evaluate(system, x, 1e-9)
                assert str(exc.value) == f"x = {x} outside [{a}, {b}]"


def test_columns_round_once():
    # (2^53 + 1) / 3 is a float; float(2^53 + 1) / 3 rounds twice and misses it
    big = 2 ** 53 + 1
    level, _, k, off = attractor._packed([(big, -big)])
    sample = attractor.GraphSample(tuple(level), 3, 1, 0, 0.0, True, k, off)
    assert sample.columns == ([float(Fraction(big, 3))], [float(Fraction(-big, 3))])
    assert sample.columns[0][0] != float(big) / 3


def _sample_digest(sample):
    xs, ys = sample.columns
    parts = (repr(_numerator_pairs(sample)), repr(sample.den),
             type(sample.resolution).__name__, repr(sample.resolution),
             ",".join(v.hex() for v in xs), ",".join(v.hex() for v in ys))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# sha256 of _sample_digest when the float twins had a sampler of their own
FLOAT_SAMPLE_SHA256 = [
    (four_piece_overlap_system, 6,
     "4ad0d24b8df23cab02c590d35d535dffa9364353657d6d36859854dc862cb820"),
    (mixed_ratio_parabola_system, 11,
     "57693977ea6dc2471a4e1b24b993c9a962cfb66eed74c8b3fd2780b983dcb571"),
    (dyadic_parabola_system, 10,
     "934383dcc25cbcd619fd05fcaf667f9a859a243d390f4c9361e6a40f625f65d3"),
]


@pytest.mark.parametrize("make,depth,digest", FLOAT_SAMPLE_SHA256)
def test_float_sample_bytes_pinned(cold_caches, make, depth, digest):
    system = float_twin(make())
    assert _sample_digest(sample_attractor(system, depth)) == digest
    attractor._SAMPLES.clear()
    sample_attractor(system, 3)
    assert _sample_digest(sample_attractor(system, depth)) == digest


def test_float_end_anchor_on_a_fixed_point_is_kept_once(cold_caches):
    # the float twin's end anchor (1.0, -3.7499999999991513) is map 2's
    # fixed point (0.9999999999999999, -3.75) off by rounding, on another
    # 1e-12 key, so the depth-1 sample held that graph point twice
    exact = random_overlapping_system(random.Random(7))
    twin = float_twin(exact)
    assert len(sample_attractor(exact, 1)) == 6
    assert len(sample_attractor(twin, 1)) == 6
    fixed = anchor_points(twin)[0][:len(twin)]
    assert len(anchor_points(twin)[0]) == len(twin) + 1
    assert (0.9999999999999999, -3.75) in fixed
    # the bundled twins' ends share their fixed points' keys: all anchors
    # stay, and so do their samples' bytes (test_float_sample_bytes_pinned)
    for make in (four_piece_overlap_system, mixed_ratio_parabola_system,
                 dyadic_parabola_system):
        system = float_twin(make())
        assert len(anchor_points(system)[0]) == len(system) + 2
