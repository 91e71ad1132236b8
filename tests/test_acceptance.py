"""End-to-end acceptance checks with stated tolerances and time limits.

Each test pins one advertised behavior of the toolkit: interpolation
values, exact word coincidences, closed-form orbit fits, graph
transport, separation certificates, profile decrease, net coverage,
and the algebra laws.  Tolerances and wall-clock limits are asserted,
not aspirational.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fifkit import (
    Affine2,
    FamilyElement,
    IfsSystem,
    attractor_ybox,
    classify_orbit_curve,
    compose,
    compose_word,
    conjugate_system,
    detect_parabola,
    deviation_2d,
    dyadic_parabola_system,
    epsilon_net,
    evaluate_f,
    four_piece_overlap_system,
    graph_transport_check,
    invert,
    iterate_orbit,
    mixed_ratio_parabola_system,
    projection,
    sample_attractor,
    suggest_eps,
    verify_orbit_on_curve,
    wsp_check_1d,
)

from conftest import confined_near_identity, random_two_map_system

F = Fraction


class timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.2f}s, limit {self.limit}s"
            )


# ---- 1: interpolation values of the four-piece overlap system ----

def test_four_piece_interpolation_values():
    want = {
        F(0): F(0), F(1, 5): F(1, 5), F(7, 15): F(0),
        F(8, 15): F(0), F(4, 5): F(1, 5), F(1): F(0),
    }
    with timer(5.0) as t:
        system = four_piece_overlap_system()
        for x, y in want.items():
            got = evaluate_f(system, x, tol=1e-9)
            assert abs(float(got - y)) <= 1e-6, (x, got, y)
    print(f"PASS interpolation values ({t.elapsed:.2f}s)")


# ---- 2: exact word coincidence across the parameter family ----

def test_word_coincidence_across_params():
    with timer(1.0) as t:
        for a in (F(1, 5), F(1, 3), F(-1, 4)):
            maps = four_piece_overlap_system(a).maps
            assert compose_word(maps, (2, 4)) == compose_word(maps, (3, 1))
    print(f"PASS word coincidence ({t.elapsed:.2f}s)")


# ---- 3: closed-form fit of all five orbit-curve families ----

def test_five_case_random_orbit_fits():
    rng = random.Random(20260819)
    cases = ("Parabola", "ExpLinear", "LogLinear", "PowerLinear", "XLogX")
    with timer(30.0) as t:
        for case in cases:
            worst = 0.0
            for _ in range(100):
                g = confined_near_identity(rng, case)
                model = classify_orbit_curve(g, (F(0), F(0)), (F(0), F(1)))
                assert model.kind == case
                trace = iterate_orbit(g, (F(0), F(0)), (F(0), F(1)))
                assert trace.M >= 50, "orbit shorter than 50 confined steps"
                resid = verify_orbit_on_curve(trace, model)
                if case == "Parabola":
                    assert resid == 0, "rational quadratic fit must be exact"
                worst = max(worst, float(resid))
            assert worst < 1e-9, (case, worst)
    print(f"PASS five-case orbit fits ({t.elapsed:.2f}s)")


# ---- 4: family elements transport graph points to graph points ----

def test_family_transport_mixed_system():
    system = mixed_ratio_parabola_system()
    rng = random.Random(42)
    with timer(60.0) as t:
        checked = 0
        while checked < 100:
            jw = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 6)))
            iw = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 6)))
            if jw == iw:
                continue
            el = FamilyElement.from_words(system, jw, iw)
            p, h = el.map1.p, el.map1.h
            lo = max(F(0), -h / p)
            hi = min(F(1), (1 - h) / p)
            if lo > hi:
                continue
            x = (lo + hi) / 2
            assert graph_transport_check(system, el, x, tol=1e-7), (jw, iw, x)
            checked += 1
    print(f"PASS graph transport x100 ({t.elapsed:.2f}s)")


# ---- 5: flat separation certificate for the dyadic system ----

def test_dyadic_separation_certificate():
    with timer(60.0) as t:
        verdict = wsp_check_1d(dyadic_parabola_system(), 12, 1e-3)
        assert verdict.status == "NoWitnessUpToDepth"
        assert verdict.delta_star == F(1, 2)
        assert all(g == F(1, 2) for _, g in verdict.gap_by_depth)
    print(f"PASS dyadic certificate ({t.elapsed:.2f}s)")


# ---- 6: decreasing profile for the mixed system ----

MIXED_LIFTED_DEVS = [
    F(5, 9), F(7, 16), F(17, 81), F(6487, 65536), F(65, 1024), F(129, 4096),
]


def test_mixed_profile_decreases_with_depth():
    system = mixed_ratio_parabola_system()
    with timer(300.0) as t:
        verdict = wsp_check_1d(system, 12, 1e-3)
        profile = dict(verdict.gap_by_depth)
        # non-increasing everywhere, strict overall decrease on 6..12
        tail = [profile[d] for d in range(6, 13)]
        assert all(x >= y for x, y in zip(tail, tail[1:]))
        assert profile[6] == F(1, 9)
        assert profile[12] == F(1, 64)
        assert profile[12] < profile[6]

        # witness deviations decrease strictly, in both settings
        devs1 = list(verdict.witness_deviations)
        assert all(x > y for x, y in zip(devs1, devs1[1:]))
        ybox = attractor_ybox(system)
        devs2 = [deviation_2d(el.map2, system.interval, ybox)
                 for el in verdict.witnesses]
        assert devs2 == MIXED_LIFTED_DEVS
        assert all(x > y for x, y in zip(devs2, devs2[1:]))

        # the structural reason the gap dies: the attractor is smooth
        fit = detect_parabola(sample_attractor(system, 10), tol=1e-8)
        assert fit is not None
        assert float(fit.max_residual) < 1e-8
        assert (fit.A, fit.B, fit.C) == (F(1), F(0), F(0))
    print(f"PASS mixed profile control ({t.elapsed:.2f}s)")


@pytest.mark.xfail(strict=True,
                   reason="the profile plateaus at depths 6..8 and 9..10; "
                          "only the overall trend decreases")
def test_mixed_profile_strictly_decreasing_each_depth():
    verdict = wsp_check_1d(mixed_ratio_parabola_system(), 12, 1e-3)
    profile = dict(verdict.gap_by_depth)
    for d in range(7, 13):
        assert profile[d] < profile[d - 1], d


# ---- 7: the eps-net around the best witness covers the attractor ----

def test_witness_net_covers_attractor_sample():
    system = mixed_ratio_parabola_system()
    with timer(60.0) as t:
        verdict = wsp_check_1d(system, 12, 1e-3)
        el = verdict.witnesses[-1]
        assert verdict.witness_deviations[-1] == F(1, 64)
        eps = suggest_eps(system, el.map2)
        trace = epsilon_net(system, el.map2, eps)
        assert trace.covering_radius <= eps

        sample = sample_attractor(system, 10)
        net = [(float(x), float(y)) for x, y in trace.points]
        worst = max(min(math.hypot(sx - nx, sy - ny) for nx, ny in net)
                    for sx, sy in zip(*sample.columns))
        assert worst <= eps, f"sample point {worst:.4f} away from the net"
    print(f"PASS witness net coverage ({t.elapsed:.2f}s)")


# ---- 8: algebra and consistency laws, 1000 trials each ----

fractions_ = st.fractions(min_value=-2, max_value=2, max_denominator=32)
nonzero_ = fractions_.filter(lambda v: v != 0)
maps_ = st.builds(Affine2, nonzero_, nonzero_, fractions_, fractions_, fractions_)
points_ = st.tuples(fractions_, fractions_)


@given(maps_, maps_, points_)
@settings(max_examples=1000, deadline=None)
def test_law_composition(g1, g2, pt):
    assert compose(g1, g2)(pt) == g1(g2(pt))


@given(maps_, maps_)
@settings(max_examples=1000, deadline=None)
def test_law_projection_homomorphism(g1, g2):
    assert projection(compose(g1, g2)) == compose(projection(g1), projection(g2))


@given(maps_)
@settings(max_examples=1000, deadline=None)
def test_law_inverse(g):
    ident = Affine2.identity()
    assert compose(g, invert(g)) == ident
    assert compose(invert(g), g) == ident


def test_law_gap_profile_monotone():
    rng = random.Random(1234)
    for _ in range(1000):
        system = random_two_map_system(rng)
        gaps = [g for _, g in wsp_check_1d(system, 4, 1e-9).gap_by_depth]
        assert all(x >= y for x, y in zip(gaps, gaps[1:])), system


def test_law_conjugation_covariance():
    rng = random.Random(5678)
    lams = [F(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]
    mus = [F(n, 4) for n in range(-6, 7)]
    for _ in range(1000):
        system = random_two_map_system(rng)
        conj = conjugate_system(system, rng.choice(lams), rng.choice(mus))
        assert wsp_check_1d(conj, 3, 1e-9).delta_star == \
            wsp_check_1d(system, 3, 1e-9).delta_star


def test_law_branch_independence():
    rng = random.Random(91011)
    tol = 1e-9
    trials = 0
    while trials < 1000:
        # overlapping strips, maps pinned to the graph of y = x^2
        base = random_two_map_system(rng)
        p1, p2 = (g.p for g in base.maps)
        if abs(p1) + abs(p2) <= 1:
            continue
        maps = tuple(
            Affine2(g.p, g.p * g.p, 2 * g.p * g.h, g.h, g.h * g.h)
            for g in base.maps
        )
        system = IfsSystem(maps, (F(0), F(1)))
        lo, hi = 1 - abs(p2), abs(p1)  # interior of the strip overlap
        x = lo + (hi - lo) * F(rng.randrange(1, 16), 16)
        y1 = evaluate_f(system, x, tol=tol, first_branch=1)
        y2 = evaluate_f(system, x, tol=tol, first_branch=2)
        assert abs(float(y1 - y2)) <= 2 * tol, (system, x)
        trials += 1
