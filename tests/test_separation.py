import ast
import bisect
import itertools
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from fifkit import (
    Affine1,
    Affine2,
    CollinearAttractorWarning,
    DepthTooLargeError,
    FamilyElement,
    IfsSystem,
    IndexOutOfRangeError,
    NotCertifiableError,
    NotContractiveError,
    OutOfDomainError,
    RoundingAmbiguityError,
    SingularMapError,
    attractor_ybox,
    compose,
    compose_word,
    conjugate_map,
    conjugate_system,
    deviation_1d,
    deviation_2d,
    dyadic_parabola_system,
    four_piece_overlap_system,
    graph_transport_check,
    invert,
    mixed_ratio_parabola_system,
    projection,
    wsp_check_1d,
    wsp_check_2d,
)
from fifkit import planar as planar_scan
from fifkit import separation, write_ifs_file
from fifkit.neighbours import neighbour_graph
from fifkit.cli import main

from conftest import (
    float_twin,
    oracle_bucket_pairs,
    oracle_buckets,
    oracle_closure_bound,
    oracle_coincidences_2d,
    oracle_delta_1d,
    oracle_delta_2d,
    oracle_family_1d,
    oracle_runs,
    oracle_word_rows,
    random_lattice_system,
    random_line_system,
    random_overlapping_system,
    random_quadratic_system,
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
# among equal deviations: exact |p - 1| first, then labels.  Tied bucket
# pairs taken in P order instead of label order change the dyadic 1d d7
# and float mixed 1d d6 witnesses
PINNED_WITNESS_WORDS = {
    ("2d", "mixed", 6): [
        ((), (2,)),
        ((1, 2, 2), (2, 1, 1)),
        ((2, 1, 1), (1, 2, 2, 2)),
    ],
    ("2d", "four_piece", 5): [((), (1,))],
    ("1d", "dyadic", 7): [((), (1,))],
    ("1d", "mixed_float", 6): [
        ((2,), (2, 2)),
        ((1, 2, 2), (2, 1, 1)),
        ((2, 1, 1), (1, 2, 2, 2)),
    ],
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


def test_family_element_from_words_matches_compose_word():
    # G_j^-1 G_i, in closed form for exact systems and composed for float
    # ones, equals compose(invert(G_j), G_i) of compose_word coefficient
    # by coefficient, in value and in type: Fractions for exact systems
    # and for a float system's empty words, floats from compose's own
    # float operations otherwise.  Words reach 14 letters, as the scan's
    # witnesses do, and a G_j with p = 0 or q = 0 raises in both forms
    rng = random.Random(23)
    f = Fraction
    bases = [four_piece_overlap_system(), mixed_ratio_parabola_system(),
             dyadic_parabola_system(), random_lattice_system(rng)]
    singular = [IfsSystem((Affine2(f(0), f(1, 2), f(1, 3), f(1, 2), f(0)),
                           Affine2(f(1, 2), f(-1, 3), f(0), f(1, 2), f(1, 4))), (f(0), f(1))),
                IfsSystem((Affine2(f(1, 2), f(0), f(1, 3), f(0), f(1, 5)),
                           Affine2(f(2, 3), f(1, 4), f(1, 2), f(1, 3), f(0))), (f(0), f(1)))]
    systems = bases + singular + [float_twin(s) for s in bases + singular]
    systems += [conjugate_system(s, Fraction(-2), Fraction(1, 3)) for s in bases]
    systems += [conjugate_system(float_twin(bases[0]), 3.0, -1.0)]
    empties, longest, singulars = 0, 0, 0
    for system in systems:
        m = len(system)
        for _ in range(12):
            j_word, i_word = (tuple(rng.randint(1, m) for _ in range(rng.randrange(15)))
                              for _ in range(2))
            empties += not j_word or not i_word
            longest = max(longest, len(j_word), len(i_word))
            try:
                want = compose(invert(compose_word(system.maps, j_word)),
                               compose_word(system.maps, i_word))
            except SingularMapError:
                singulars += 1
                with pytest.raises(SingularMapError):
                    FamilyElement.from_words(system, j_word, i_word)
                continue
            el = FamilyElement.from_words(system, j_word, i_word)
            for name in ("p", "q", "r", "h", "s"):
                got, exp = getattr(el.map2, name), getattr(want, name)
                assert got == exp and type(got) is type(exp), (system, j_word, i_word, name)
            assert el.map1 == projection(want)
    assert empties > 0 and longest == 14 and singulars > 0
    with pytest.raises(IndexOutOfRangeError):
        FamilyElement.from_words(bases[1], (1,), (3,))


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


def test_line_systems_solve_to_their_line_and_warn():
    # exact lines, a quarter of them with inexact end anchors, which a
    # sample of the attractor cannot show to be collinear exactly
    rng = random.Random(2701)
    for _ in range(100):
        system, curve = random_line_system(rng)
        assert planar_scan.invariant_quadratic(system) == curve
        with pytest.warns(CollinearAttractorWarning):
            wsp_check_2d(system, 2, 1e-3)


def _warns_collinear(system):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CollinearAttractorWarning)
        wsp_check_2d(system, 2, 1e-3)
    return any(w.category is CollinearAttractorWarning for w in caught)


def test_float_lines_warn_as_their_exact_systems_do():
    # a float system's line test takes the larger of the sample's y extent
    # and max |y| as its scale: on a horizontal line y = C with inexact
    # end anchors the extent is only the anchors' error.  These lines,
    # both maps orientation-reversing, once warned only when exact
    f = Fraction
    horizontal = [IfsSystem((Affine2(f(-2, 3), q1, f(0), f(2, 3), c * (1 - q1)),
                             Affine2(f(-1, 2), q2, f(0), f(1), c * (1 - q2))), (f(0), f(1)))
                  for c in (f(-1, 2), f(1, 3))
                  for q1, q2 in ((f(4, 5), f(3, 4)), (f(-4, 5), f(4, 5)), (f(3, 4), f(2, 3)))]
    for system in horizontal:
        assert _warns_collinear(system) and _warns_collinear(float_twin(system))
    for seed in range(150):
        system = random_line_system(random.Random(seed))[0]
        assert _warns_collinear(float_twin(system)) == _warns_collinear(system)
    for make in (four_piece_overlap_system, dyadic_parabola_system, mixed_ratio_parabola_system):
        assert not _warns_collinear(float_twin(make()))


def test_planar_check_samples_the_attractor_once(monkeypatch):
    # one sample serves the ybox and, for a float system, the line test
    depths = []

    def counted(system, depth, *args, **kwargs):
        depths.append(depth)
        return sample_attractor(system, depth, *args, **kwargs)

    sample_attractor = separation.sample_attractor
    monkeypatch.setattr(separation, "sample_attractor", counted)
    for system in (mixed_ratio_parabola_system(), float_twin(four_piece_overlap_system())):
        attractor_ybox(system)
        ybox_depth, = depths
        depths.clear()
        wsp_check_2d(system, 3, 1e-3)
        assert depths == [ybox_depth]
        depths.clear()


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


def _decoded(word_rows, P, rows):
    """Rows of a P bucket, read through word_rows (a _Rows), as the
    oracle's tuples: (H, key, P) for projected rows, and
    (H, key, P, Q, R, S) for planar ones."""
    hs = word_rows.pull(P, rows)[0]
    return [(H, word_rows.key(row), P, *(row[2:] if word_rows.planar else ()))
            for H, row in zip(hs, rows)]


def _packed_format(kb, scale=1, interval=(0, 1)):
    """A projected _Rows whose keys take kb bits, for scans of made-up
    rows at scale over an exact interval: a one-map system's on it, at
    depth kb - 1, with its scale set to theirs."""
    f = Fraction
    one = IfsSystem((Affine2(f(1, 2), f(1, 2), f(0), f(0), f(0)),), interval)
    word_rows = separation._Rows(one, kb - 1, 10, False)
    assert word_rows.kb == kb
    word_rows.scale = scale
    return word_rows


def _keyed(buckets):
    """Buckets {P: (label, entries)} as the oracles take them, {P: (P, label, entries)}."""
    return {P: (P, label, entries) for P, (label, entries) in buckets.items()}


def _rows_by_length(word_rows):
    """The rows of a _Rows read back out of its runs, decoded, by
    length, in key order."""
    rows = []
    for P, (_, group) in word_rows.runs.items():
        for length, run in group:
            rows += [[] for _ in range(length + 1 - len(rows))]
            rows[length] += _decoded(word_rows, P, run)
    for level in rows:
        level.sort(key=lambda row: row[1])
    return rows


def _retained_rows(system, depth, planar):
    """(runs, tracemalloc bytes they retain, tracemalloc peak) of a full
    word-row build."""
    tracemalloc.start()
    try:
        runs = separation._Rows(system, depth, 10 ** 7, planar).runs
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return runs, retained, peak


def _all_rows(runs):
    return [row for _, group in runs.values() for _, run in group for row in run]


def test_wsp_budget_error_states_memory():
    # the stated size must cover the rows the budget would have let in,
    # in the shape the check builds, by tracemalloc, and stay about right:
    # packed rows for 1d and for the 2d check of an exact system with an
    # invariant parabola (mixed), planar rows for any other 2d check
    cases = ((four_piece_overlap_system(), 7), (mixed_ratio_parabola_system(), 14))
    # float twins' rows hold their dyadic values, about 55 bits wider a level
    for system, depth in cases + tuple((float_twin(s), d) for s, d in cases):
        words = (len(system) ** (depth + 1) - 1) // (len(system) - 1)
        curve = planar_scan.invariant_quadratic(system)
        planar_rows = curve is None or curve[0] == 0
        for check, planar in ((wsp_check_1d, False), (wsp_check_2d, planar_rows)):
            with pytest.raises(DepthTooLargeError) as info:
                check(system, depth, 1e-3, budget=words - 1)
            message = str(info.value)
            assert f"{words} words" in message
            mb = float(re.search(r"about ([\d,]+\.\d) MB", message).group(1).replace(",", ""))
            runs, retained, _ = _retained_rows(system, depth, planar)
            assert len(_all_rows(runs)) == words
            assert retained / 1e6 <= mb <= 1.5 * retained / 1e6
    # mixed 2d at depth 20 states the packed rows' 128 MB, as 1d does,
    # not the 654 MB of planar rows
    messages = []
    for check in (wsp_check_1d, wsp_check_2d):
        with pytest.raises(DepthTooLargeError) as info:
            check(mixed_ratio_parabola_system(), 20, 1e-3)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "(about 127.9 MB of word rows)" in messages[1]


def test_word_rows_bytes_per_row():
    # mixed at depth 14 stored 433 B per row when every row held all five
    # coefficients and a word tuple, 180 B (213 B at the peak) when rows
    # were built per length and rescaled in a second pass, and 142 B
    # (146 B) as (H, key, P) tuples; a packed projected row measures 54 B
    # (58 B).  A planar row measures 284 B (288 B) as (H, key, P, Q, R, S)
    # and 272 B (277 B) as (H, key, Q, R, S).  The peak bound catches a
    # second pass
    system, depth = mixed_ratio_parabola_system(), 14
    for planar, limit, peak_limit in ((False, 58, 63), (True, 285, 290)):
        runs, retained, peak = _retained_rows(system, depth, planar)
        rows = _all_rows(runs)
        if planar:
            assert {len(row) for row in rows} == {5}
        else:
            assert {type(row) for row in rows} == {int}
        assert retained / len(rows) <= limit
        assert peak / len(rows) <= peak_limit


def _m_map_system(m):
    """m maps of ratios 1/2, 1/3, ..., 1/(m+1)."""
    return IfsSystem(
        tuple(Affine2(Fraction(1, k + 2), Fraction(1, 2), Fraction(0),
                      Fraction(k, 2 * m), Fraction(k, 3)) for k in range(m)),
        (Fraction(0), Fraction(1)),
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_word_keys_decode_and_sort_as_words(m):
    # keys decode to every word and sort as the words do, a proper prefix
    # first; up to length 3, each to the word whose composite its row holds
    depth = 6
    system = _m_map_system(m)
    word_rows = separation._Rows(system, depth, 10 ** 6, False)
    scale = word_rows.scale
    rows = _rows_by_length(word_rows)
    assert rows[0] == [(0, 0, scale)]
    pairs = []
    for length, level in enumerate(rows):
        words = [word_rows.word(key) for _, key, _ in level]
        assert sorted(words) == list(itertools.product(range(1, m + 1), repeat=length))
        for (H, key, P), word in zip(level, words):
            if length <= 3:
                g = projection(compose_word(system.maps, word))
                assert (H, P) == (g.h * scale, g.p * scale)
            pairs.append((key, word))
    assert [word for _, word in sorted(pairs)] == sorted(word for _, word in pairs)


def test_packed_rows_unpack_and_sort_as_h_then_key():
    # a projected row decodes through its _Rows and sorts as (H, key),
    # for negative H (a conjugation with lam < 0, and reversing maps), a
    # float twin's wide dyadic H and the largest key; P 0 stands in for
    # the P of rows from several buckets
    f = Fraction
    reversing = IfsSystem((Affine2(f(-1, 2), f(1, 2), f(0), f(1, 2), f(0)),
                           Affine2(f(-1, 3), f(1, 3), f(1, 5), f(1), f(0))), (f(0), f(1)))
    cases = [(conjugate_system(mixed_ratio_parabola_system(), f(-2), f(1, 3)), "negative"),
             (conjugate_system(reversing, f(3), f(-1)), "negative"),
             (float_twin(four_piece_overlap_system()), "wide"),
             (_m_map_system(3), "")]
    for system, kind in cases:
        m, depth = len(system), 5
        word_rows = separation._Rows(system, depth, 10 ** 6, False)
        rows, _ = oracle_word_rows(system, depth, False)
        want = sorted(row for level in rows for row in level)
        got = [row for P, (_, group) in word_rows.runs.items() for _, run in group
               for row in _decoded(word_rows, P, run)]
        assert sorted(got) == want
        packed = sorted(_all_rows(word_rows.runs))
        assert [row[:2] for row in _decoded(word_rows, 0, packed)] == [row[:2] for row in want]
        assert (m + 1) ** depth - 1 in {key for _, key, _ in got}
        if kind == "negative":
            assert min(H for H, _, _ in got) < 0
        if kind == "wide":
            assert max(abs(H) for H, _, _ in got).bit_length() > 200 > word_rows.kb


def _takers_outside_rows(names):
    """Every function of the package outside _Rows with a parameter in names."""
    takers = []
    for path in sorted(Path(separation.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for cls in ast.walk(tree) if getattr(cls, "name", "") == "_Rows"
                  for node in ast.walk(cls)}
        takers += [f"{path.name}:{getattr(node, 'name', node.lineno)}" for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.Lambda)) and id(node) not in inside
                   and names & {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    return takers


def test_only_rows_takes_the_key_bits():
    # the packed row format is decided by _Rows alone: every other
    # function reads kb off a _Rows, so no parameter is named kb
    assert _takers_outside_rows({"kb"}) == []


def test_only_rows_takes_the_rounding_radii():
    # a verdict's input-rounding radii are computed once, by _Rows: every
    # scan reads them off it, so no parameter carries them
    assert _takers_outside_rows({"rounding", "t_h", "t_qrs"}) == []


def test_window_zone_against_brute_force():
    # a packed difference (H_i - H_j) 2^kb + dk at or below `below` must
    # have E < 0, at or above `above` E >= 0, and neither |E| mul < lim,
    # since the cross-bucket walk moves on without decoding it
    rng = random.Random(41)
    decoded = 0
    for _ in range(150):
        kb = rng.randrange(1, 4)
        mid = Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)).as_integer_ratio()
        width = Fraction(rng.randrange(1, 9), rng.randrange(1, 6)).as_integer_ratio()
        p_i, p_j = (rng.choice((-1, 1)) * rng.randrange(1, 40) for _ in range(2))
        win = separation._Window(mid, width, p_i, p_j)
        bn, bd = rng.choice(((1, 0), (rng.randrange(20), rng.randrange(1, 20))))
        mul, lim = win.cap(bn, bd)
        below, above = win.zone(mul, lim, _packed_format(kb))
        c = -(win.shift // win.cd)
        for d_h in range(c - 30, c + 31):
            e = d_h * win.cd + win.shift
            for dk in range(1 - (1 << kb), 1 << kb):
                dv = (d_h << kb) + dk
                if dv <= below:
                    assert e < 0 and abs(e) * mul >= lim
                elif dv >= above:
                    assert e >= 0 and abs(e) * mul >= lim
                else:
                    decoded += 1
    assert decoded > 0


def test_scan_1d_matches_brute_force_on_random_rows():
    # rows with small H, so that differences land on and next to every
    # threshold of both phases, against the least nonzero deviation and
    # the zero ones over all ordered pairs
    rng = random.Random(57)
    for _ in range(200):
        kb = rng.randrange(1, 5)
        keys = rng.sample(range(1 << kb), min(1 << kb, rng.randrange(2, 12)))
        rows = {key: (rng.randrange(-12, 13), rng.choice((1, 2, 3, -2, 5))) for key in keys}
        interval = rng.choice(((0, 1), (Fraction(-1, 3), 2), (1, 4)))
        buckets = {}
        for H, key, P in sorted((H, key, P) for key, (H, P) in rows.items()):
            buckets.setdefault(P, (str(P), []))[1].append((H << kb) + key)

        def dev(j, i):
            (h_j, p_j), (h_i, p_i) = rows[j], rows[i]
            return deviation_1d(Affine1(Fraction(p_i, p_j), Fraction(h_i - h_j, p_j)), interval)

        devs = [dev(j, i) for j in rows for i in rows if i != j]
        nonzero = [d for d in devs if d]
        best, _, count = separation._scan_1d(buckets, _packed_format(kb, interval=interval))
        assert count == (len(devs) - len(nonzero)) // 2
        if nonzero:
            assert best[0] == min(nonzero) == dev(*best[1:])
        else:
            assert best is None


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


def test_invariant_parabola_solves_the_generators_equations():
    f = Fraction
    rng = random.Random(2121)
    for _ in range(40):
        system, curve = random_quadratic_system(rng)
        assert planar_scan.invariant_quadratic(system) == curve
        assert planar_scan.invariant_quadratic(float_twin(system)) is None
    for make in (mixed_ratio_parabola_system, dyadic_parabola_system):
        assert planar_scan.invariant_quadratic(make()) == (1, 0, 0)
        assert planar_scan.invariant_quadratic(float_twin(make())) is None
    conj = conjugate_system(mixed_ratio_parabola_system(), f(3), f(-1))
    assert planar_scan.invariant_quadratic(conj) == (f(1, 9), f(2, 9), f(1, 9))
    # no invariant quadratic, and the line y = x (A = 0)
    diagonal = IfsSystem(tuple(Affine2(f(1, 2), f(1, 2), f(0), f(k, 2), f(k, 2))
                               for k in range(2)), (f(0), f(1)))
    assert planar_scan.invariant_quadratic(four_piece_overlap_system()) is None
    assert planar_scan.invariant_quadratic(diagonal) == (0, 1, 0)


def test_packed_planar_verdicts_match_planar_rows(monkeypatch):
    # a system with an invariant parabola scans packed projected rows;
    # the planar rows of the same words give the same verdict, field by field
    f = Fraction
    rng = random.Random(2121)
    bundled = (mixed_ratio_parabola_system(), dyadic_parabola_system())
    cases = [(bundled[0], 10), (bundled[1], 8)]
    cases += [(conjugate_system(system, lam, mu), 7) for system in bundled
              for lam, mu in ((f(3), f(-1)), (f(-2), f(1, 3)))]
    cases += [(random_quadratic_system(rng)[0], rng.randrange(2, 7)) for _ in range(40)]
    assert all(planar_scan.invariant_quadratic(system)[0] for system, _ in cases)
    packed = [wsp_check_2d(system, depth, 1e-3) for system, depth in cases]
    monkeypatch.setattr(planar_scan, "invariant_quadratic", lambda system: None)
    assert [wsp_check_2d(system, depth, 1e-3) for system, depth in cases] == packed


def test_same_packed_matches_same_planar_on_ties_and_bounds():
    # packed rows of one parabola with repeated H (coincidence chains) in
    # a few buckets, against their planar twins: the two same-bucket
    # phases return the same (best, coincidences, count).  A tall ybox
    # makes the horizontal term win, so (u, v) and (v, u) tie, and seeds
    # on a pair's projected bound put pairs exactly at the edge of near
    f = Fraction
    rng = random.Random(2157)
    for _ in range(400):
        kb, scale = rng.randrange(1, 5), rng.choice((4, 6, 12))
        curve = (f(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3))),
                 f(rng.randrange(-3, 4), rng.choice((1, 2))), f(rng.randrange(-3, 4), 3))
        a, b = rng.choice(((0, 1), (f(-1, 3), 2), (1, 4)))
        y0 = f(rng.randrange(-4, 4))
        ybox = (y0, y0 + rng.choice((f(1, 2), 1, 8, 1000)))
        dev = planar_scan._planar_deviation((a, b), ybox)
        word_rows = _packed_format(kb, scale, (a, b))
        packed_dev = planar_scan._packed_deviation(dev, curve, word_rows)
        # twin coefficients from Q = P^2, R = 2APH + BP(1 - P) and
        # S = AH^2 + BH + C(1 - P^2), all times one positive factor
        A, B, C = curve
        factor = scale * scale * math.lcm(*(c.denominator for c in curve))

        def twin(P, H, key):
            p, h = f(P, scale), f(H, scale)
            q, r, s = p * p, 2 * A * p * h + B * p * (1 - p), A * h * h + B * h + C * (1 - p * p)
            return int(h * factor), key, int(q * factor), int(r * factor), int(s * factor)

        packed, planar, pairs = [], [], []
        for P in rng.sample((1, 2, 3, -2, 5, -6), rng.randrange(1, 4)):
            rows = sorted((rng.randrange(-3, 4), key)
                          for key in rng.sample(range(1 << kb), rng.randrange(2, min(1 << kb, 12) + 1)))
            packed.append((P, [(H << kb) + key for H, key in rows]))
            planar.append((int(f(P, scale) * factor), [twin(P, H, key) for H, key in rows]))
            pairs += [(P, u, v) for u, v in itertools.combinations(rows, 2) if v[0] > u[0]]
        seeds = [None]
        if pairs:
            P, (h_u, k_u), (h_v, k_v) = rng.choice(pairs)
            bound = f(h_v - h_u, abs(P)) / (b - a)
            tp = int(f(P, scale) * factor)
            seeds += [bound, bound + f(1, 10 ** 6), dev(tp, twin(P, h_u, k_u), tp, twin(P, h_v, k_v), 1, 0)]
        for seed in seeds:
            best = None if seed is None else (seed, None, None)
            assert (planar_scan._same_packed(packed, packed_dev, best, word_rows)
                    == planar_scan._same_planar(planar, dev, best, word_rows))


def test_flat_attractor_deviation_takes_the_width_as_height(rng):
    # r = s = 0 keeps y = 0: the attractor is flat, its ybox has height
    # 0, and both deviations divide the vertical term by the width
    f = Fraction
    system = IfsSystem((Affine2(f(1, 2), f(1, 3), f(0), f(0), f(0)),
                        Affine2(f(2, 3), f(-1, 4), f(0), f(1, 3), f(0))), (f(0), f(1)))
    interval, ybox = system.interval, attractor_ybox(system)
    assert ybox == (0, 0) and planar_scan.invariant_quadratic(system) == (0, 0, 0)
    dev = planar_scan._planar_deviation(interval, ybox)
    depth = 3
    word_rows = separation._Rows(system, depth, 10 ** 6, True)
    rows = [row for level in _rows_by_length(word_rows) for row in level]
    for rj, ri in itertools.product(rows, repeat=2):
        words = (word_rows.word(row[1]) for row in (rj, ri))
        want = deviation_2d(FamilyElement.from_words(system, *words).map2, interval, ybox)
        assert dev(rj[2], (*rj[:2], *rj[3:]), ri[2], (*ri[:2], *ri[3:]), 1, 0) == (want or None)
    # the family keeps y = 0, so its vertical terms are 0; maps that move
    # the line, each as G_i over G_j = identity, rows scaled by 8
    for _ in range(50):
        g = Affine2(*(f(rng.randrange(-8, 9), 8) for _ in range(5)))
        P, Q, R, H, S = (int(8 * c) for c in (g.p, g.q, g.r, g.h, g.s))
        want = deviation_2d(g, interval, ybox)
        assert dev(8, (0, 0, 8, 0, 0), P, (H, 0, Q, R, S), 1, 0) == (want or None)


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
    # two distinct values of |p - 1| share a float, as on the exact
    # systems here.  A float twin's rows hold dyadic values, where one
    # rounding splits values its exact twin has equal (1 + 4/fl(2/7)
    # against 15), and the halves may share a float: its oracle pairs
    # are put in exact order, a stable sort that keeps label ties
    word_rows = separation._Rows(system, depth, 10 ** 6, False)
    for upto in range(depth + 1):
        buckets = word_rows.buckets(upto)
        want = oracle_bucket_pairs(_keyed(buckets))
        if not system.exact:
            want.sort(key=lambda pair: Fraction(pair[0], pair[1]))
        _same_pairs(list(separation._bucket_pairs(buckets)), want)


def test_word_runs_match_oracle():
    # the runs built grouped, at full scale, are the per-length rows of
    # the oracle grouped by P: the same P order, labels, lengths and rows.
    # Lattice systems have negative p and P values that several parents
    # reach at one length
    rng = random.Random(17)
    systems = [make() for make in (four_piece_overlap_system, mixed_ratio_parabola_system,
                                   dyadic_parabola_system)]
    systems += [random_lattice_system(rng) for _ in range(10)]
    systems += [_m_map_system(m) for m in (2, 3, 4, 5)]
    merged = 0
    for system in systems + [float_twin(system) for system in systems]:
        for planar, depth in ((False, 7), (True, 4)):
            word_rows = separation._Rows(system, depth, 10 ** 6, planar)
            runs = {P: (label, [(n, _decoded(word_rows, P, run)) for n, run in group])
                    for P, (label, group) in word_rows.runs.items()}
            rows, want_scale = oracle_word_rows(system, depth, planar)
            want = oracle_runs(rows, want_scale)
            assert word_rows.scale == want_scale
            assert list(runs.items()) == list(want.items())
            # a run whose rows end in different letters merged several children
            base = len(system) + 1
            merged += sum(len({key // base ** (depth - n) % base for _, key, *_ in run}) > 1
                          for _, group in runs.values() for n, run in group)
    assert merged > 0


def test_buckets_match_oracle():
    # ratios 1/b and 1/b^2 give one P at several lengths, so the buckets
    # of a depth merge several runs, and some runs lie deeper still
    rng = random.Random(31)
    systems = [make() for make in (four_piece_overlap_system, mixed_ratio_parabola_system,
                                   dyadic_parabola_system)]
    systems += [random_lattice_system(rng) for _ in range(10)]
    partial = 0
    for system in systems + [float_twin(system) for system in systems]:
        for planar, depth in ((False, 7), (True, 4)):
            word_rows = separation._Rows(system, depth, 10 ** 6, planar)
            runs, rows = word_rows.runs, _rows_by_length(word_rows)
            for upto in range(depth + 1):
                got = {P: (P, label, _decoded(word_rows, P, entries))
                       for P, (label, entries) in word_rows.buckets(upto).items()}
                want = oracle_buckets(rows, upto, word_rows.scale)
                assert list(got.items()) == list(want.items())
                partial += sum(1 < sum(n <= upto for n, _ in runs[P][1]) < len(runs[P][1])
                               for P in got)
    assert partial > 0


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
    buckets = {p: (str(p), [p]) for p in values}
    got = list(separation._bucket_pairs(buckets))
    exact = [Fraction(num, den) for num, den, _, _ in got]
    assert exact == sorted(exact)
    from_three = [bi[0] for _, _, bi, bj in got if bj[0] == 3]
    assert from_three == [-3, big - 1, big, -(big - 1), -big]
    oracle = [bi[0] for _, _, bi, bj in oracle_bucket_pairs(_keyed(buckets)) if bj[0] == 3]
    assert oracle == [-3, -big, -(big - 1), big, big - 1]


def test_bucket_pairs_exact_ties_follow_labels():
    # five pairs of five different walks share |p - 1| = 1/2
    buckets = {p: (str(p), [p]) for p in (1, 2, 3, 4, 6)}
    got = list(separation._bucket_pairs(buckets))
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
    buckets = {_CountingInt(p): (str(p), [p]) for p in ps}
    _CountingInt.subtractions = 0
    first = list(itertools.islice(separation._bucket_pairs(buckets), 10))
    assert len(first) == 10
    assert _CountingInt.subtractions <= 2100
    floats = [num / den for num, den, _, _ in first]
    assert floats == sorted(floats)


@pytest.mark.parametrize("mode, name, depth", sorted(PINNED_WITNESS_WORDS))
def test_witness_words_pinned(mode, name, depth):
    make = {"mixed": mixed_ratio_parabola_system,
            "mixed_float": lambda: float_twin(mixed_ratio_parabola_system()),
            "dyadic": dyadic_parabola_system,
            "four_piece": four_piece_overlap_system}[name]
    check = {"1d": wsp_check_1d, "2d": wsp_check_2d}[mode]
    verdict = check(make(), depth, 1e-3)
    assert [(el.j_word, el.i_word) for el in verdict.witnesses] == \
        PINNED_WITNESS_WORDS[mode, name, depth]


def _assert_same_verdict(got, want):
    """Equal status and coincidence count, gaps within 1e-9 relative."""
    assert got.status == want.status
    assert got.coincidence_count == want.coincidence_count
    assert [d for d, _ in got.gap_by_depth] == [d for d, _ in want.gap_by_depth]
    for (_, g), (_, w) in zip(got.gap_by_depth, want.gap_by_depth):
        assert abs(float(g) - float(w)) <= 1e-9 * abs(float(w))


@pytest.mark.parametrize("make, depth_1d, depth_2d", [
    (four_piece_overlap_system, 6, 5),
    (mixed_ratio_parabola_system, 12, 10),
    (dyadic_parabola_system, 8, 6),
])
def test_float_twin_matches_exact(make, depth_1d, depth_2d):
    # the float scan runs on the dyadic values, so words whose exact
    # composites agree stay coincidences, not rounding-noise witnesses
    system = make()
    twin = float_twin(system)
    got = wsp_check_1d(twin, depth_1d, 1e-3)
    assert all(type(g) is float for _, g in got.gap_by_depth)
    _assert_same_verdict(got, wsp_check_1d(system, depth_1d, 1e-3))
    _assert_same_verdict(wsp_check_2d(twin, depth_2d, 1e-3),
                         wsp_check_2d(system, depth_2d, 1e-3))


def test_float_twin_matches_exact_random():
    rng = random.Random(2026)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollinearAttractorWarning)
        for _ in range(20):
            system = random_two_map_system(rng)
            for check, depth in ((wsp_check_1d, 8), (wsp_check_2d, 5)):
                _assert_same_verdict(check(float_twin(system), depth, 1e-3),
                                     check(system, depth, 1e-3))


@pytest.mark.parametrize("make, depth_1d, depth_2d", [
    (four_piece_overlap_system, 5, 4),
    (mixed_ratio_parabola_system, 10, 8),
])
@pytest.mark.parametrize("lam", [1e6, 1e-6])
def test_float_verdict_conjugation_covariant(make, depth_1d, depth_2d, lam):
    # rescaling the interval leaves a float verdict as it is: the
    # rounding radii scale with the coefficients
    twin = float_twin(make())
    scaled = conjugate_system(twin, lam, 0)
    for check, depth in ((wsp_check_1d, depth_1d), (wsp_check_2d, depth_2d)):
        _assert_same_verdict(check(scaled, depth, 1e-3), check(twin, depth, 1e-3))


def _rounding_tie_system(scalar):
    # (p, h) = (1/10, 0), (1/100, 0), (9/10, 1/10): p_1 p_1 = p_2 exactly,
    # but fl(0.1)^2 != fl(0.01), so the float twin's nearest bucket pair
    # is that exact identity moved off p = 1 by input rounding alone
    maps = tuple(Affine2(scalar(p), scalar(Fraction(1, 2)), scalar(0), scalar(h), scalar(0))
                 for p, h in ((Fraction(1, 10), 0), (Fraction(1, 100), 0),
                              (Fraction(9, 10), Fraction(1, 10))))
    return IfsSystem(maps, (scalar(0), scalar(1)))


def test_rounding_ambiguity_raises(tmp_path, capsys):
    exact = _rounding_tie_system(Fraction)
    verdict = wsp_check_1d(exact, 3, 1e-3)
    assert verdict.coincidence_count == 17
    assert verdict.delta_star == Fraction(1, 10)
    twin = _rounding_tie_system(float)
    with pytest.raises(RoundingAmbiguityError):
        wsp_check_1d(twin, 3, 1e-3)
    with pytest.warns(CollinearAttractorWarning):  # the attractor is y = 0
        with pytest.raises(RoundingAmbiguityError):
            wsp_check_2d(twin, 3, 1e-3)
    path = tmp_path / "tie.ifs"
    write_ifs_file(path, twin)
    assert main(["wsp", str(path), "--depth", "3", "--tol", "1e-3", "--mode", "1d"]) == 1
    assert "error:" in capsys.readouterr().err


def test_identity_generator_is_not_contractive():
    # x -> x is no contraction, alone or beside one, in either check:
    # the contraction check runs before any word is built
    f = Fraction
    identity = Affine2(f(1), f(1, 2), f(0), f(0), f(0))
    half = Affine2(f(1, 2), f(1, 2), f(0), f(1, 2), f(0))
    alone = IfsSystem((identity,), (f(0), f(1)))
    beside = IfsSystem((identity, half), (f(0), f(1)))
    for system in (alone, beside, float_twin(alone), float_twin(beside)):
        for check in (wsp_check_1d, wsp_check_2d):
            with pytest.raises(NotContractiveError, match=r"map 1: \|p\| = 1(\.0)? is not < 1"):
                check(system, 3, 1e-3)


def test_q_zero_generator_is_refused_by_both_checks():
    # the system is contractive, but G_j^-1 G_i is undefined for a j word
    # holding the q = 0 letter, so both checks refuse it before any scan
    # rather than skip or fail on those pairs
    f = Fraction
    exact = IfsSystem((Affine2(f(1, 2), f(0), f(0), f(0), f(0)),
                       Affine2(f(2, 3), f(1, 2), f(0), f(1, 3), f(0))), (f(0), f(1)))
    for system in (exact, float_twin(exact)):
        assert system._contractive
        for check in (wsp_check_1d, wsp_check_2d):
            with pytest.raises(SingularMapError) as exc:
                check(system, 4, 1e-3)
            assert str(exc.value) == "map 1: q = 0 has no inverse"


def _scan_every_depth(system, depth, mode):
    """(profile, witness words, coincidence count, coincidence sample) from
    an unseeded, unfloored scan at every depth 2..depth."""
    planar = mode == "2d"
    word_rows = separation._Rows(system, depth, separation.DEFAULT_WORD_BUDGET, planar)
    if planar:
        dev2 = planar_scan._planar_deviation(system.interval, attractor_ybox(system))
        rows = _rows_by_length(word_rows)
        short = [(row[2], (*row[:2], *row[3:])) for row in rows[0] + rows[1]]
        scans = [planar_scan._scan_2d(short, word_rows.buckets(d), word_rows, dev2)
                 for d in range(2, depth + 1)]
    else:
        scans = [separation._scan_1d(word_rows.buckets(d), word_rows)
                 for d in range(2, depth + 1)]
    word = word_rows.word

    gap, words = [], []
    for d, (best, _, _) in enumerate(scans, start=2):
        if not gap or best[0] < gap[-1][1]:
            words.append((word(best[1]), word(best[2])))
        gap.append((d, best[0]))
    _, pairs, count = scans[-1]
    return gap, words, count, [(word(u), word(v)) for u, v in pairs]


def _check_every_depth(system, mode, depth, oracle_depth):
    """The verdict against the per-depth scans up to depth, and its
    profile against the oracle of the exact system up to oracle_depth."""
    check = {"1d": wsp_check_1d, "2d": wsp_check_2d}[mode]
    twin = float_twin(system)
    ybox = attractor_ybox(system)
    want_gap = [oracle_delta_1d(system, d)[0] if mode == "1d" else
                oracle_delta_2d(system, d, ybox) for d in range(2, oracle_depth + 1)]
    for scanned in (system, twin):
        verdict = check(scanned, depth, 1e-3)
        gap, words, count, sample = _scan_every_depth(scanned, depth, mode)
        if not scanned.exact:
            gap = [(d, float(v)) for d, v in gap]
        assert list(verdict.gap_by_depth) == gap
        assert [(el.j_word, el.i_word) for el in verdict.witnesses] == words
        assert verdict.coincidence_count == count
        assert list(verdict.coincidences) == sample
        for (_, got), want in zip(verdict.gap_by_depth, want_gap):
            assert abs(got - want) <= 1e-9 * want if twin is scanned else got == want


@pytest.mark.parametrize("make, mode, depth, oracle_depth", [
    (mixed_ratio_parabola_system, "1d", 14, 6),
    (mixed_ratio_parabola_system, "2d", 8, 4),
    (dyadic_parabola_system, "1d", 8, 6),
    (dyadic_parabola_system, "2d", 6, 4),
    (four_piece_overlap_system, "1d", 5, 3),
    (four_piece_overlap_system, "2d", 4, 3),
])
def test_every_depth_matches_unseeded_scans_and_oracle(make, mode, depth, oracle_depth):
    _check_every_depth(make(), mode, depth, oracle_depth)


def test_every_depth_matches_unseeded_scans_and_oracle_random():
    rng = random.Random(1313)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollinearAttractorWarning)
        for _ in range(20):
            system = random_two_map_system(rng)
            _check_every_depth(system, "1d", 7, 4)
            _check_every_depth(system, "2d", 5, 3)


@pytest.mark.parametrize("make, mode, depth, scans", [
    (four_piece_overlap_system, "1d", 7, 2),
    (dyadic_parabola_system, "1d", 8, 2),
    (four_piece_overlap_system, "2d", 5, 2),
    # mixed: delta*(12) = delta*(14), so only depth 13 goes unscanned
    (mixed_ratio_parabola_system, "1d", 14, 12),
])
def test_flat_depths_are_not_scanned(monkeypatch, make, mode, depth, scans):
    name = {"1d": "_scan_1d", "2d": "_scan_2d"}[mode]
    module = {"1d": separation, "2d": planar_scan}[mode]
    scan, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(module, name, counted)
    check = {"1d": wsp_check_1d, "2d": wsp_check_2d}[mode]
    check(make(), depth, 1e-3)
    assert len(calls) == scans


@pytest.mark.parametrize("make, mode, depth, seeded", [
    (mixed_ratio_parabola_system, "1d", 14, 10),
    (mixed_ratio_parabola_system, "2d", 12, 9),
    (four_piece_overlap_system, "1d", 7, 0),
    (four_piece_overlap_system, "2d", 5, 0),
])
def test_seeded_scans_get_the_buckets_that_gained_rows(monkeypatch, make, mode, depth, seeded):
    # depth 2 and the full depth scan every bucket; a depth d seeded with
    # delta*(d-1) gets fresh, the P values of the words of length d
    name = {"1d": "_scan_1d", "2d": "_scan_2d"}[mode]
    module = {"1d": separation, "2d": planar_scan}[mode]
    scan, calls = getattr(module, name), []

    def recorded(*args):
        buckets = args[mode == "2d"]
        calls.append((sum(len(rows) for *_, rows in buckets.values()), set(buckets), args[-1]))
        return scan(*args)

    monkeypatch.setattr(module, name, recorded)
    system = make()
    {"1d": wsp_check_1d, "2d": wsp_check_2d}[mode](system, depth, 1e-3)
    rows, _ = oracle_word_rows(system, depth, mode == "2d")
    # the depth of a scan from its word count
    depths = [list(itertools.accumulate(map(len, rows))).index(n) for n, _, _ in calls]
    assert depths == [2, depth, *range(3, 3 + seeded)]
    assert [fresh for _, _, fresh in calls[:2]] == [None, None]
    for d, (_, every, fresh) in zip(depths[2:], calls[2:]):
        assert fresh == {row[2] for row in rows[d]} and fresh < every


def _shared_p_system(rng, m):
    """m exact maps whose strips cover [0, 1]; maps 1 and 2 share p and
    have q of opposite signs, so P buckets hold Q values of both signs."""
    f = Fraction
    w, sign = rng.choice((f(1, 2), f(2, 3), f(3, 4), f(3, 5))), rng.choice((1, -1))
    qs = [rng.choice((f(1, 2), f(1, 3), f(2, 3), f(3, 4), f(2, 5))) for _ in range(m)]
    hs = [f(0), 1 - w] if sign > 0 else [w, f(1)]
    ps = [sign * w] * 2
    for _ in range(m - 2):
        v = rng.choice((f(1, 3), f(1, 4), f(2, 5)))
        ps.append(rng.choice((v, -v)))
        hs.append(rng.randrange(5) * (1 - v) / 4 + (v if ps[-1] < 0 else 0))
    return IfsSystem(tuple(
        Affine2(p, q * ((1, -1)[k] if k < 2 else rng.choice((1, -1))),
                f(rng.randrange(-2, 3), 4), h, f(rng.randrange(-2, 3), 3))
        for k, (p, q, h) in enumerate(zip(ps, qs, hs))), (f(0), f(1)))


def test_q_bound_against_brute_force():
    # a bucket pair is dropped when n bd >= bn d, so n/d must not exceed
    # any |Q_i - Q_j|/|Q_j| = |q - 1| of the pairs dev2 would measure
    rng = random.Random(18)
    straddling = sharp = 0
    for _ in range(2000):
        lo_i, hi_i = sorted(rng.randrange(-12, 13) for _ in range(2))
        lo_j, hi_j = sorted(rng.randrange(-12, 13) for _ in range(2))
        n, d = planar_scan._q_bound(lo_i, hi_i, lo_j, hi_j)
        ratios = [Fraction(abs(q_i - q_j), abs(q_j)) for q_i in range(lo_i, hi_i + 1)
                  for q_j in range(lo_j, hi_j + 1) if q_j]
        if not ratios:  # Q_j = 0 alone: dev2 rejects every pair, and so does the bound
            assert d == 0
            continue
        assert n <= min(ratios) * d
        straddling += n > 0 and (lo_i < 0 < hi_i or lo_j < 0 < hi_j)
        sharp += n > 0 and n == min(ratios) * d
    assert straddling > 200 and sharp > 100


def test_q_range_prune_with_q_of_both_signs_in_a_bucket():
    # buckets whose Q straddle 0, exact and float twin, against the oracle
    rng = random.Random(1818)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollinearAttractorWarning)
        for m, oracle_depth in ((2, 4), (2, 4), (2, 4), (2, 4), (3, 4), (3, 3)):
            _check_every_depth(_shared_p_system(rng, m), "2d", 8 - m, oracle_depth)


def _linear_band_scan_2d(short, buckets, word_rows, dev2, seed=None, floor=0, fresh=None, *,
                         seen):
    """planar._scan_2d with its cross-bucket band walked linearly: a pointer
    to each H_i's first E <= 0, then walks down and up that stop at the
    first H_j outside the window.  seen counts the measured cross-bucket
    pairs whose H_j ties a neighbour and those with shift < 0."""
    key = word_rows.key
    best = None if seed is None else (seed, None, None)
    bn, bd = (1, 0) if seed is None else seed.as_integer_ratio()
    fn, fd = floor.as_integer_ratio()
    if fresh is None:
        fresh = buckets
        for (pj, rj), (pi, ri) in [pair for gen in short[1:]
                                   for pair in ((short[0], gen), (gen, short[0]))]:
            dev = dev2(pj, rj, pi, ri, bn, bd)
            if dev is not None:
                best = (dev, key(rj), key(ri))
                bn, bd = dev.as_integer_ratio()
    same = [(p_val, entries) for p_val, (_, entries) in buckets.items() if p_val in fresh]
    same_phase = planar_scan._same_planar if word_rows.planar else planar_scan._same_packed
    best, coinc, coinc_count = same_phase(same, dev2, best, word_rows)
    if best is not None:
        bn, bd = best[0].as_integer_ratio()
    pulled = {}
    for num, den, (p_i, ents_i), (p_j, ents_j) in separation._bucket_pairs(buckets, word_rows.slack):
        if num * bd >= bn * den or bn * fd <= fn * bd:
            break
        if p_i not in fresh and p_j not in fresh:
            continue
        for p_val, ents in ((p_i, ents_i), (p_j, ents_j)):
            if p_val not in pulled:
                pulled[p_val] = word_rows.pull(p_val, ents)
        hs_i, *q_i = pulled[p_i]
        hs_j, *q_j = pulled[p_j]
        n_q, den_q = planar_scan._q_bound(*q_i, *q_j)
        if n_q * bd >= bn * den_q:
            continue
        win = separation._Window(word_rows.mid, word_rows.width, p_i, p_j)
        cd, shift = win.cd, win.shift
        mul, lim = win.cap(bn, bd)
        jj, n_j = 0, len(hs_j)
        for ri, hi in zip(ents_i, hs_i):
            while jj < n_j and (hi - hs_j[jj]) * cd + shift > 0:
                jj += 1
            for band in (range(jj - 1, -1, -1), range(jj, n_j)):
                for idx in band:
                    if abs((hi - hs_j[idx]) * cd + shift) * mul >= lim:
                        break
                    seen["ties"] += hs_j[idx] in hs_j[max(idx - 1, 0):idx] + hs_j[idx + 1:idx + 2]
                    seen["negative"] += shift < 0
                    rj = ents_j[idx]
                    dev = dev2(p_j, rj, p_i, ri, bn, bd)
                    if dev is not None:
                        best = (dev, key(rj), key(ri))
                        bn, bd = dev.as_integer_ratio()
                        mul, lim = win.cap(bn, bd)
    return best, coinc, coinc_count


def _dev2_calls(monkeypatch, system, depth, scan, deviation):
    """(verdict, the arguments of every dev2 call) of wsp_check_2d with scan
    as _scan_2d and dev2 from deviation, a _planar_deviation."""
    calls = []

    def recording(interval, ybox):
        dev = deviation(interval, ybox)

        def recorded(*args):
            calls.append(args)
            return dev(*args)
        return recorded

    monkeypatch.setattr(planar_scan, "_planar_deviation", recording)
    monkeypatch.setattr(planar_scan, "_scan_2d", scan)
    return wsp_check_2d(system, depth, 1e-3), calls


def test_scan_2d_hands_dev2_the_linear_band_pairs(monkeypatch):
    # the bisected band measures the pairs of the linear walk, in its
    # order and against the same bests: planar rows of four-piece and its
    # float twin, random overlapping systems, and packed rows of random
    # quadratic ones.  Four-piece's coincidences give equal H in bands
    scan, deviation = planar_scan._scan_2d, planar_scan._planar_deviation
    seen = {"ties": 0, "negative": 0}

    def linear(*args):
        return _linear_band_scan_2d(*args, seen=seen)

    cases = [(four_piece_overlap_system(), 5), (four_piece_overlap_system(), 6),
             (float_twin(four_piece_overlap_system()), 4)]
    cases += [(random_overlapping_system(random.Random(seed)), 7) for seed in range(20)]
    cases += [(random_quadratic_system(random.Random(seed))[0], 7) for seed in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollinearAttractorWarning)
        for system, depth in cases:
            got = _dev2_calls(monkeypatch, system, depth, scan, deviation)
            assert got == _dev2_calls(monkeypatch, system, depth, linear, deviation)
    assert seen["ties"] > 100 and seen["negative"] > 100
    # made-up planar rows of small H on [0, 1], seeded, so that band ends
    # fall on H values: an offset off by one drops or adds a pair
    f = Fraction
    word_rows = separation._Rows(IfsSystem((Affine2(f(1, 2), f(1, 2), f(0), f(0), f(0)),),
                                           (f(0), f(1))), 1, 10, True)
    rng = random.Random(3232)
    for _ in range(300):
        buckets = {}
        for P in rng.sample((1, 2, 3, 4, -2, 5, -6, 8), rng.randrange(2, 6)):
            buckets[P] = (str(P), sorted(
                (rng.randrange(-12, 13), key, rng.choice((1, 2, 3, -1, 4)),
                 rng.randrange(-3, 4), rng.randrange(-3, 4))
                for key in rng.sample(range(1000), rng.randrange(1, 12))))
        dev = deviation((0, 1), (f(rng.randrange(-2, 2)), f(rng.randrange(2, 5))))
        seed = rng.choice((f(1), f(3, 2), f(4), f(20)))
        runs = []
        for walk in (scan, linear):
            calls = []

            def recorded(*args):
                calls.append(args)
                return dev(*args)
            runs.append((walk([], buckets, word_rows, recorded, seed, 0, set(buckets)), calls))
        assert runs[0] == runs[1]


def test_band_offsets_against_brute_force():
    # [H_i + o_lo, H_i + o_hi) bisected out of a sorted H_j list with ties
    # is exactly the window |E| mul < lim, and H_i + o_jj the first E <= 0,
    # for shifts of both signs and empty, edge-on and whole bands
    rng = random.Random(3030)
    edges = [0, 0]
    for _ in range(4000):
        cd, shift = rng.randrange(1, 7), rng.randrange(-40, 41)
        mul = rng.choice((0, rng.randrange(1, 9)))
        lim = rng.randrange(1, 120) if mul == 0 else rng.randrange(-20, 120)
        hs = sorted(rng.randrange(-15, 16) for _ in range(rng.randrange(12)))
        h = rng.randrange(-15, 16)
        o_lo, o_jj, o_hi = planar_scan._band(cd, shift, mul, lim)
        es = [(h - h_j) * cd + shift for h_j in hs]
        inside = [idx for idx, e in enumerate(es) if abs(e) * mul < lim]
        assert list(range(bisect.bisect_left(hs, h + o_lo), bisect.bisect_left(hs, h + o_hi))) == inside
        assert bisect.bisect_left(hs, h + o_jj) == next(
            (idx for idx, e in enumerate(es) if e <= 0), len(hs))
        if mul and inside:
            edges[0] += h + o_lo - 1 in hs
            edges[1] += h + o_hi in hs
    assert min(edges) > 50


def test_planar_deviation_against_deviation_2d():
    # dev on random row pairs of random exact systems is deviation_2d of
    # their family element when that is nonzero and below best, else
    # None.  The bests include 1/0, the deviation itself and the shear
    # bound |beta| w / (2 |Pj Qj| hh) and twice it, which pin the bound
    # and the box-center form of the vertical term
    rng = random.Random(3131)
    below_twice = vertical = 0
    systems = [four_piece_overlap_system()]
    systems += [make(random.Random(seed)) for seed in range(8)
                for make in (random_overlapping_system, random_two_map_system)]
    for system in systems:
        interval, ybox = system.interval, attractor_ybox(system)
        a, b = interval
        hh = (ybox[1] - ybox[0]) or b - a
        dev = planar_scan._planar_deviation(interval, ybox)
        word_rows = separation._Rows(system, 3, 10 ** 6, True)
        rows = [row for level in _rows_by_length(word_rows) for row in level]
        for _ in range(60):
            rj, ri = rng.choice(rows), rng.choice(rows)
            g = FamilyElement.from_words(system, word_rows.word(rj[1]), word_rows.word(ri[1])).map2
            want = deviation_2d(g, interval, ybox)
            (_, _, Pj, Qj, Rj, _), (_, _, Pi, _, Ri, _) = rj, ri
            shear = Fraction(abs(Ri * Pj - Rj * Pi), 2 * abs(Pj * Qj)) * (b - a) / hh
            bests = [None, want, want + Fraction(1, 10 ** 9), shear, 2 * shear,
                     (want + 2 * shear) / 2, want * Fraction(rng.randrange(1, 40), 20)]
            for best in bests:
                bn, bd = (1, 0) if best is None else best.as_integer_ratio()
                expect = want if want and (best is None or want < best) else None
                assert dev(Pj, (*rj[:2], *rj[3:]), Pi, (*ri[:2], *ri[3:]), bn, bd) == expect
            below_twice += 0 < want < 2 * shear
            vertical += g.q != 1 and ybox[0] != ybox[1] and want == max(
                abs((g.q - 1) * y + g.r * x + g.s) for x in interval for y in ybox) / hh
    assert below_twice > 5 and vertical > 20


# ---------- the all-depth floor from the neighbour-map closure ----------

@pytest.mark.parametrize("make, bound, states", [
    (four_piece_overlap_system, Fraction(2, 3), 15),
    (dyadic_parabola_system, Fraction(1, 2), 4),
])
def test_neighbour_graph_certificate(make, bound, states):
    system = make()
    graph = neighbour_graph(system, 64)
    assert graph.closed and graph.bound == bound and len(graph.states) == states
    assert oracle_closure_bound(system, graph.states) == bound
    # deviations are invariant under conjugation, and so is the closure
    for lam, mu in ((3, -1), (Fraction(-1, 2), 2)):
        conj = conjugate_system(system, lam, mu)
        graph = neighbour_graph(conj, 64)
        assert graph.closed and graph.bound == bound and len(graph.states) == states
        assert oracle_closure_bound(conj, graph.states) == bound


@pytest.mark.parametrize("max_states", [1, 16, 1000])
def test_neighbour_graph_never_certifies_mixed(max_states):
    # ratios 1/2 and 2/3 are multiplicatively independent: no finite closure
    graph = neighbour_graph(mixed_ratio_parabola_system(), max_states)
    assert not graph.closed and graph.bound is None
    assert len(graph.states) > max_states


def test_neighbour_graph_bound_below_oracle_on_lattice_systems():
    rng = random.Random(16)
    sharp = 0
    for _ in range(24):
        system = random_lattice_system(rng)
        graph = neighbour_graph(system, 10_000)
        assert graph.closed
        assert oracle_closure_bound(system, graph.states) == graph.bound
        for d in range(2, (4 if len(system) == 2 else 3) + 1):
            assert graph.bound <= oracle_delta_1d(system, d)[0]
        verdict = wsp_check_1d(system, 7, 1e-3)
        assert graph.bound <= verdict.delta_star
        assert verdict.certified_floor in (None, graph.bound)
        sharp += graph.bound == verdict.delta_star
    assert sharp >= 12


def _outside_strips_system():
    # strips [-5/9, -2/9] and [-7/9, -2/3]: they do not nest, and an
    # unguarded walk drops every start and claims 2/3, while delta* = 1/3
    f = Fraction
    return IfsSystem((Affine2(f(1, 3), f(1, 2), f(0), f(-5, 9), f(0)),
                      Affine2(f(1, 9), f(1, 2), f(0), f(-7, 9), f(0))), (f(0), f(1)))


def _recorded_scans(monkeypatch, system, depth):
    """The 1d verdict, and [floor, bucket pairs pulled] per _scan_1d call."""
    scan, bucket_pairs = separation._scan_1d, separation._bucket_pairs
    calls = []

    def recorded(buckets, word_rows, seed, floor, fresh):
        calls.append([floor, 0])
        return scan(buckets, word_rows, seed, floor, fresh)

    def counted(*args):
        for pair in bucket_pairs(*args):
            calls[-1][1] += 1
            yield pair

    monkeypatch.setattr(separation, "_scan_1d", recorded)
    monkeypatch.setattr(separation, "_bucket_pairs", counted)
    return wsp_check_1d(system, depth, 1e-3), calls


@pytest.mark.parametrize("make, depth, certifiable", [
    (lambda: float_twin(four_piece_overlap_system()), 5, False),
    (_outside_strips_system, 6, False),
    # attempted, and stopped past its 91 depth-12 buckets
    (mixed_ratio_parabola_system, 12, True),
])
def test_unproven_floor_never_reaches_a_scan(monkeypatch, make, depth, certifiable):
    system = make()
    verdict, calls = _recorded_scans(monkeypatch, system, depth)
    # depth 2 and the full depth; later scans are floored at delta*(depth)
    assert [floor for floor, _ in calls[:2]] == [0, 0]
    assert verdict.certified_floor is None
    if certifiable:
        assert verdict.closure_states > 91
    else:
        assert verdict.closure_states == 0
        with pytest.raises(NotCertifiableError):
            neighbour_graph(system, 64)


def test_certified_floor_ends_the_full_depth_scan(monkeypatch):
    verdict, calls = _recorded_scans(monkeypatch, four_piece_overlap_system(), 7)
    assert verdict.certified_floor == Fraction(2, 3) and verdict.closure_states == 15
    assert [floor for floor, _ in calls] == [Fraction(2, 3)] * 2
    assert calls[1][1] == 1
    planar = wsp_check_2d(four_piece_overlap_system(), 3, 1e-3)
    assert planar.certified_floor is None and planar.closure_states == 0
