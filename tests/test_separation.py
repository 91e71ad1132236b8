import itertools
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from fifkit import (
    Affine1,
    Affine2,
    CollinearAttractorWarning,
    DepthTooLargeError,
    FamilyElement,
    IfsSystem,
    OutOfDomainError,
    attractor_ybox,
    conjugate_map,
    conjugate_system,
    deviation_1d,
    deviation_2d,
    dyadic_parabola_system,
    four_piece_overlap_system,
    graph_transport_check,
    mixed_ratio_parabola_system,
    projection,
    wsp_check_1d,
    wsp_check_2d,
)
from fifkit import separation

from conftest import (
    float_twin,
    oracle_bucket_pairs,
    oracle_coincidences_2d,
    oracle_delta_1d,
    oracle_delta_2d,
    oracle_family_1d,
    random_two_map_system,
)

MIXED_PROFILE = {
    2: Fraction(1, 3), 3: Fraction(1, 4), 4: Fraction(1, 9),
    5: Fraction(1, 9), 6: Fraction(1, 9), 7: Fraction(1, 9),
    8: Fraction(1, 9), 9: Fraction(13, 256), 10: Fraction(13, 256),
    11: Fraction(1, 32), 12: Fraction(1, 64),
}

# four-piece at depth 5: the coincidence count and first five pairs that
# `fifkit wsp` prints, identical in 1d and 2d
FOUR_PIECE_D5_COINCIDENCES = 339
FOUR_PIECE_D5_FIRST_PAIRS = [
    ((2, 4), (3, 1)),
    ((1, 2, 4), (1, 3, 1)),
    ((2, 4, 1), (3, 1, 1)),
    ((2, 4, 4), (3, 1, 4)),
    ((4, 2, 4), (4, 3, 1)),
]

MIXED_WITNESS_WORDS = [
    ((1,), (1, 2)),
    ((1, 2, 2), (2, 1, 1)),
    ((2, 1, 1), (1, 2, 2, 2)),
    ((1, 2, 2, 2, 2, 2, 2, 2, 2), (2, 1, 2, 1, 2, 1, 1)),
]

# every witness's (j_word, i_word), which the bucket-pair order decides
# among equal deviations
PINNED_WITNESS_WORDS = {
    ("2d", "mixed", 6): [
        ((), (2,)),
        ((1, 2, 2), (2, 1, 1)),
        ((2, 1, 1), (1, 2, 2, 2)),
    ],
    ("2d", "four_piece", 5): [((), (1,))],
    ("1d", "mixed", 14): MIXED_WITNESS_WORDS + [
        ((2, 1, 1, 1, 2, 2, 2, 2, 2, 1, 2), (1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 1)),
        ((1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1), (2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2)),
    ],
}


def test_deviation_1d_basics():
    interval = (Fraction(0), Fraction(1))
    assert deviation_1d(Affine1.identity(), interval) == 0
    assert deviation_1d(Affine1(Fraction(1), Fraction(1, 4)), interval) == Fraction(1, 4)
    assert deviation_1d(Affine1(Fraction(2, 3), Fraction(1, 3)), interval) == Fraction(1, 3)


def test_deviation_2d_dominates_projection(rng):
    interval = (Fraction(0), Fraction(1))
    ybox = (Fraction(-1, 2), Fraction(3, 2))
    for _ in range(200):
        g = Affine2(*(Fraction(rng.randrange(-8, 9), 8) or Fraction(1, 8)
                      for _ in range(5)))
        if g.p == 0:
            continue
        assert deviation_2d(g, interval, ybox) >= deviation_1d(projection(g), interval)


def test_deviation_conjugation_invariance(rng):
    interval = (Fraction(0), Fraction(1))
    ybox = (Fraction(0), Fraction(1))
    for _ in range(100):
        g = Affine2(Fraction(rng.randrange(1, 16), 8), Fraction(rng.randrange(1, 16), 8),
                    Fraction(rng.randrange(-8, 9), 8), Fraction(rng.randrange(-8, 9), 8),
                    Fraction(rng.randrange(-8, 9), 8))
        lam = Fraction(rng.choice((1, 2, 3, -2)), rng.choice((1, 2)))
        mu = Fraction(rng.randrange(-4, 5), 4)
        a2 = lam * Fraction(0) + mu
        b2 = lam * Fraction(1) + mu
        conj_interval = (min(a2, b2), max(a2, b2))
        gc = conjugate_map(g, lam, mu)
        assert deviation_1d(projection(gc), conj_interval) == \
            deviation_1d(projection(g), interval)
        assert deviation_2d(gc, conj_interval, ybox) == deviation_2d(g, interval, ybox)


def test_enumerate_family_contains_known_element():
    system = mixed_ratio_parabola_system()
    family = oracle_family_1d(system, 2)
    assert Affine1(Fraction(2, 3), Fraction(1, 3)) in family
    # j = i pairs contribute the identity, which belongs to the family
    assert Affine1.identity() in family
    assert all(g.exact for g in family)


def test_family_element_from_words():
    system = mixed_ratio_parabola_system()
    el = FamilyElement.from_words(system, (1,), (1, 2))
    assert el.j_word == (1,) and el.i_word == (1, 2)
    assert el.map1 == Affine1(Fraction(2, 3), Fraction(1, 3))
    assert projection(el.map2) == el.map1


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_scanner_matches_oracle_fixed_systems_1d(depth):
    for system in (dyadic_parabola_system(), mixed_ratio_parabola_system()):
        want, _ = oracle_delta_1d(system, depth)
        got = wsp_check_1d(system, depth, 1e-9).delta_star
        assert got == want


@pytest.mark.parametrize("depth", [2, 3])
def test_scanner_matches_oracle_four_piece_1d(depth):
    system = four_piece_overlap_system()
    want, coincidences = oracle_delta_1d(system, depth)
    verdict = wsp_check_1d(system, depth, 1e-9)
    assert verdict.delta_star == want
    assert verdict.coincidence_count == coincidences


def test_scanner_matches_oracle_random_1d():
    rng = random.Random(20250819)
    for _ in range(25):
        system = random_two_map_system(rng)
        want, _ = oracle_delta_1d(system, 3)
        assert wsp_check_1d(system, 3, 1e-9).delta_star == want


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_scanner_matches_oracle_2d(depth):
    for system in (dyadic_parabola_system(), mixed_ratio_parabola_system()):
        ybox = attractor_ybox(system)
        want = oracle_delta_2d(system, depth, ybox)
        got = wsp_check_2d(system, depth, 1e-9).delta_star
        assert got == want


def test_scanner_matches_oracle_random_2d():
    rng = random.Random(777)
    checked = 0
    while checked < 10:
        system = random_two_map_system(rng)
        ybox = attractor_ybox(system)
        want = oracle_delta_2d(system, 3, ybox)
        got = wsp_check_2d(system, 3, 1e-9).delta_star
        assert got == want
        checked += 1


def test_mixed_profile_frozen():
    verdict = wsp_check_1d(mixed_ratio_parabola_system(), 12, 1e-3)
    assert verdict.status == "NoWitnessUpToDepth"
    assert verdict.exact
    assert dict(verdict.gap_by_depth) == MIXED_PROFILE
    assert verdict.delta_star == Fraction(1, 64)
    devs = list(verdict.witness_deviations)
    assert devs == sorted(devs, reverse=True)
    assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
    pairs = [(el.j_word, el.i_word) for el in verdict.witnesses[:4]]
    assert pairs == MIXED_WITNESS_WORDS


def test_dyadic_profile_flat():
    verdict = wsp_check_1d(dyadic_parabola_system(), 8, 1e-3)
    assert verdict.status == "NoWitnessUpToDepth"
    assert all(g == Fraction(1, 2) for _, g in verdict.gap_by_depth)
    assert len(verdict.witnesses) == 1


def test_four_piece_coincidences():
    verdict = wsp_check_1d(four_piece_overlap_system(), 3, 1e-3)
    assert verdict.delta_star == Fraction(2, 3)
    assert ((2, 4), (3, 1)) in verdict.coincidences
    assert verdict.coincidence_count > 0
    # coincidences are identities, never witnesses
    for el in verdict.witnesses:
        assert el.map1 != Affine1.identity()


def test_witness_found_at_loose_tol():
    verdict = wsp_check_1d(mixed_ratio_parabola_system(), 4, 0.2)
    assert verdict.status == "WitnessFound"
    assert verdict.delta_star == Fraction(1, 9) < 0.2


def test_mixed_2d_profile_frozen():
    verdict = wsp_check_2d(mixed_ratio_parabola_system(), 6, 1e-3)
    assert verdict.status == "NoWitnessUpToDepth"
    got = dict(verdict.gap_by_depth)
    assert got[2] == Fraction(5, 9)
    assert got[3] == Fraction(7, 16)
    assert got[4] == Fraction(17, 81)
    assert got[5] == Fraction(17, 81)
    assert got[6] == Fraction(17, 81)


def test_planar_float_verdict_on_tiny_heights():
    # the float dyadic parabola scaled vertically by 1e-300: the ybox
    # corners have denominators near 2^1050, past the float range
    c = 1e-300
    tiny = IfsSystem((Affine2(0.5, 0.25, 0.0, 0.0, 0.0),
                      Affine2(0.5, 0.25, 0.5 * c, 0.5, 0.25 * c)), (0.0, 1.0))
    want = wsp_check_2d(float_twin(dyadic_parabola_system()), 4, 1e-6)
    with warnings.catch_warnings():  # not a line, at any height
        warnings.simplefilter("error", CollinearAttractorWarning)
        got = wsp_check_2d(tiny, 4, 1e-6)
    assert got.status == want.status == "NoWitnessUpToDepth"
    assert got.gap_by_depth == want.gap_by_depth


def test_wsp_depth_must_be_at_least_two():
    with pytest.raises(ValueError):
        wsp_check_1d(dyadic_parabola_system(), 1, 1e-3)


def test_wsp_budget_exceeded():
    with pytest.raises(DepthTooLargeError):
        wsp_check_1d(dyadic_parabola_system(), 8, 1e-3, budget=100)


def test_collinear_warning_only_for_straight_attractors():
    line = IfsSystem(
        (Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
         Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1, 2))),
        (Fraction(0), Fraction(1)),
    )
    with pytest.warns(CollinearAttractorWarning):
        wsp_check_2d(line, 3, 1e-3)
    with pytest.warns(CollinearAttractorWarning):
        wsp_check_2d(float_twin(line), 3, 1e-3)


def test_transport_check_mixed_witnesses():
    system = mixed_ratio_parabola_system()
    for jw, iw in MIXED_WITNESS_WORDS[:2]:
        el = FamilyElement.from_words(system, jw, iw)
        for k in range(5):
            x = Fraction(k, 8)
            if not (0 <= el.map1(x) <= 1):
                continue
            assert graph_transport_check(system, el, x, tol=1e-7)


def test_transport_check_domain_errors():
    system = mixed_ratio_parabola_system()
    el = FamilyElement.from_words(system, (1,), (1, 2))
    with pytest.raises(OutOfDomainError):
        graph_transport_check(system, el, Fraction(3, 2))
    # g(x) = 2x/3 + 1/3 keeps [0,1] inside, so use the inverse direction
    el_back = FamilyElement.from_words(system, (1, 2), (1,))
    with pytest.raises(OutOfDomainError):
        graph_transport_check(system, el_back, Fraction(0))


def test_transport_check_rejects_wrong_map():
    system = mixed_ratio_parabola_system()
    fake = Affine2(Fraction(2, 3), Fraction(1), Fraction(0), Fraction(1, 3), Fraction(1, 3))
    assert not graph_transport_check(system, fake, Fraction(1, 2), tol=1e-7)


def test_conjugated_system_same_delta_star():
    system = mixed_ratio_parabola_system()
    conj = conjugate_system(system, Fraction(3), Fraction(-1))
    for depth in (2, 3, 4):
        assert wsp_check_1d(conj, depth, 1e-9).delta_star == \
            wsp_check_1d(system, depth, 1e-9).delta_star


def test_wsp_budget_error_states_memory():
    # the stated size must cover the rows the budget would have let in,
    # by tracemalloc, and stay about right
    for system, depth in ((four_piece_overlap_system(), 7),
                          (mixed_ratio_parabola_system(), 14)):
        words = (len(system) ** (depth + 1) - 1) // (len(system) - 1)
        with pytest.raises(DepthTooLargeError) as info:
            wsp_check_1d(system, depth, 1e-3, budget=words - 1)
        message = str(info.value)
        assert f"{words} words" in message
        mb = float(re.search(r"about ([\d,]+\.\d) MB", message).group(1).replace(",", ""))
        tracemalloc.start()
        try:
            rows, _ = separation._word_rows(system, depth, words)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(map(len, rows)) == words
        assert retained / 1e6 <= mb <= 1.5 * retained / 1e6


# (lam, mu) of x -> lam*x + mu: integer, negative and fractional scalings,
# all with an offset, so intervals, windows and box corners leave [0, 1]
CONJUGATIONS = [
    (Fraction(3), Fraction(-1)),
    (Fraction(-2), Fraction(1, 3)),
    (Fraction(1, 7), Fraction(2, 5)),
]


@pytest.mark.parametrize("lam, mu", CONJUGATIONS)
def test_scanner_matches_oracle_conjugated(lam, mu):
    cases = ((dyadic_parabola_system(), (2, 3, 4)),
             (mixed_ratio_parabola_system(), (2, 3, 4)),
             (four_piece_overlap_system(), (2, 3)))
    for base, depths in cases:
        system = conjugate_system(base, lam, mu)
        ybox = attractor_ybox(system)
        for depth in depths:
            want, coincidences = oracle_delta_1d(system, depth)
            verdict = wsp_check_1d(system, depth, 1e-9)
            assert verdict.delta_star == want
            assert verdict.coincidence_count == coincidences
            assert wsp_check_2d(system, depth, 1e-9).delta_star == \
                oracle_delta_2d(system, depth, ybox)


def test_planar_coincidences_in_large_groups_all_counted():
    # twenty-word groups of equal (P, H) at depth 4: every pair inside
    # them is either an identity or measured.  The attractor is the
    # diagonal, hence the warning
    system = IfsSystem(
        tuple(Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0),
                      Fraction(k, 8), Fraction(k, 8)) for k in range(5)),
        (Fraction(0), Fraction(1)),
    )
    with pytest.warns(CollinearAttractorWarning):
        verdict = wsp_check_2d(system, 4, 1e-9)
    assert verdict.coincidence_count == oracle_coincidences_2d(system, 4) == 4182
    assert verdict.delta_star == oracle_delta_2d(system, 4, attractor_ybox(system))
    assert wsp_check_1d(system, 4, 1e-9).coincidence_count == 4182
    # alternating s: the same projected groups hold far fewer planar identities
    system = IfsSystem(
        tuple(Affine2(Fraction(1, 2), Fraction(1, 2), Fraction(0),
                      Fraction(k, 8), Fraction(k % 2, 8)) for k in range(5)),
        (Fraction(0), Fraction(1)),
    )
    assert wsp_check_2d(system, 4, 1e-9).coincidence_count == \
        oracle_coincidences_2d(system, 4) == 402


@pytest.mark.parametrize("check", [wsp_check_1d, wsp_check_2d])
def test_four_piece_printed_coincidences_pinned(check):
    verdict = check(four_piece_overlap_system(), 5, 1e-3)
    assert verdict.coincidence_count == FOUR_PIECE_D5_COINCIDENCES
    assert list(verdict.coincidences[:5]) == FOUR_PIECE_D5_FIRST_PAIRS


def _same_pairs(got, want):
    """Equal (num, den, P_i, P_j) and the very same row lists, pair by pair."""
    assert len(got) == len(want)
    for (num, den, (p_i, ents_i), (p_j, ents_j)), (num2, den2, bi, bj) in zip(got, want):
        assert (num, den, p_i, p_j) == (num2, den2, bi[0], bj[0])
        assert ents_i is bi[1] and ents_j is bj[1]


def _check_bucket_pairs(system, depth):
    # the oracle's (float, labels) order is the exact order wherever no
    # two distinct values of |p - 1| share a float, as on these systems
    rows, scale = separation._word_rows(system, depth, 10 ** 6)
    for upto in range(depth + 1):
        buckets = separation._buckets(rows, upto, scale, system.exact)
        _same_pairs(list(separation._bucket_pairs(buckets, system.exact)),
                    oracle_bucket_pairs(buckets))


@pytest.mark.parametrize("make, depth", [
    (four_piece_overlap_system, 6),
    (mixed_ratio_parabola_system, 12),
    (dyadic_parabola_system, 8),
])
def test_bucket_pairs_match_oracle_bundled(make, depth):
    _check_bucket_pairs(make(), depth)
    _check_bucket_pairs(float_twin(make()), depth)


def test_bucket_pairs_match_oracle_random():
    rng = random.Random(8)
    ratios = [Fraction(n, d) for d in (2, 3, 4, 5, 7) for n in range(1, d)]
    for k in range(50):
        m = 2 + k % 2
        # the first ratio negative, the others of either sign
        maps = tuple(
            Affine2(rng.choice(ratios) * (-1 if n == 0 else rng.choice((1, -1))),
                    rng.choice(ratios), Fraction(rng.randrange(-2, 3), 4),
                    Fraction(rng.randrange(0, 5), 4), Fraction(rng.randrange(-2, 3), 4))
            for n in range(m))
        system = IfsSystem(maps, (Fraction(0), Fraction(1)))
        depth = 6 if m == 2 else 4
        _check_bucket_pairs(system, depth)
        _check_bucket_pairs(float_twin(system), depth)


def test_bucket_pairs_follow_exact_order():
    # |p - 1| from P_j = 3 rounds to one float for all four big P_i, on
    # both sides, while their decimal labels sort against P: the exact
    # key puts them in exact order, where the float order with label
    # ties (the oracle's) puts (10^20 + 3)/3 before (10^20 - 4)/3
    big = 10 ** 20
    values = [3, -3, big - 1, big, -(big - 1), -big]
    assert float(big - 1 - 3) / 3 == float(big - 3) / 3
    assert str(big - 1) > str(big)
    buckets = {p: (p, str(p), [p]) for p in values}
    got = list(separation._bucket_pairs(buckets, True))
    exact = [Fraction(num, den) for num, den, _, _ in got]
    assert exact == sorted(exact)
    from_three = [bi[0] for _, _, bi, bj in got if bj[0] == 3]
    assert from_three == [-3, big - 1, big, -(big - 1), -big]
    oracle = [bi[0] for _, _, bi, bj in oracle_bucket_pairs(buckets) if bj[0] == 3]
    assert oracle == [-3, -big, -(big - 1), big, big - 1]


def test_bucket_pairs_exact_ties_follow_labels():
    # five pairs of five different walks share |p - 1| = 1/2
    buckets = {p: (p, str(p), [p]) for p in (1, 2, 3, 4, 6)}
    got = list(separation._bucket_pairs(buckets, True))
    half = [(bi[0], bj[0]) for num, den, bi, bj in got
            if Fraction(num, den) == Fraction(1, 2)]
    assert half == [(1, 2), (2, 4), (3, 2), (3, 6), (6, 4)]
    exact = [(Fraction(num, den), str(bi[0]), str(bj[0]))
             for num, den, bi, bj in got]
    assert exact == sorted(exact)


class _CountingInt(int):
    """An int that counts the subtractions it takes part in."""

    subtractions = 0

    def __sub__(self, other):
        _CountingInt.subtractions += 1
        return int(self) - int(other)

    def __rsub__(self, other):
        _CountingInt.subtractions += 1
        return int(other) - int(self)


def test_bucket_pairs_lazy():
    # 1,000 buckets make 999,000 pairs; the first ten cost one pair per
    # P-sorted walk and a few more, never a full build
    rng = random.Random(1)
    ps = rng.sample(range(1, 10 ** 6), 1000)
    buckets = {p: (_CountingInt(p), str(p), [p]) for p in ps}
    _CountingInt.subtractions = 0
    first = list(itertools.islice(separation._bucket_pairs(buckets, True), 10))
    assert len(first) == 10
    assert _CountingInt.subtractions <= 2100
    floats = [num / den for num, den, _, _ in first]
    assert floats == sorted(floats)


@pytest.mark.parametrize("mode, name, depth", sorted(PINNED_WITNESS_WORDS))
def test_witness_words_pinned(mode, name, depth):
    make = {"mixed": mixed_ratio_parabola_system,
            "four_piece": four_piece_overlap_system}[name]
    check = {"1d": wsp_check_1d, "2d": wsp_check_2d}[mode]
    verdict = check(make(), depth, 1e-3)
    assert [(el.j_word, el.i_word) for el in verdict.witnesses] == \
        PINNED_WITNESS_WORDS[mode, name, depth]
