import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

from fifkit import (
    Affine2,
    CaseBoundaryWarning,
    DegenerateDenominatorError,
    DepthTooLargeError,
    FamilyElement,
    FixedPointInsideError,
    IfsSystem,
    NonpositiveRatioError,
    OutOfDomainError,
    ResolutionInsufficientError,
    StepTooLargeError,
    classify_orbit_curve,
    detect_parabola,
    dyadic_parabola_system,
    epsilon_net,
    four_piece_overlap_system,
    iterate_orbit,
    mixed_ratio_parabola_system,
    modulus_of_continuity,
    sample_attractor,
    suggest_eps,
    verify_orbit_on_curve,
)
from fifkit import attractor, orbits

from conftest import (
    confined_near_identity,
    float_twin,
    oracle_covering_radius,
    oracle_modulus,
    oracle_parabola,
)

F = Fraction
UNIT = (F(0), F(1))
WIDE = (F(0), F(3))


def flat_line_system():
    return IfsSystem(
        (Affine2(F(1, 2), F(1, 2), F(0), F(0), F(0)),
         Affine2(F(1, 2), F(1, 2), F(0), F(1, 2), F(0))),
        UNIT,
    )


# ---------- iterate_orbit ----------

def test_iterate_right_and_left():
    g = Affine2(F(1), F(1), F(0), F(1, 4), F(0))
    trace = iterate_orbit(g, (F(0), F(0)), UNIT)
    assert trace.direction == "right"
    assert trace.M == 4
    assert trace.points[0] == (F(0), F(0))
    assert trace.points[-1] == (F(1), F(0))

    g = Affine2(F(1), F(1), F(0), F(-1, 4), F(0))
    trace = iterate_orbit(g, (F(1), F(0)), UNIT)
    assert trace.direction == "left"
    assert trace.M == 4
    assert trace.points[-1] == (F(0), F(0))


def test_iterate_rejects_fixed_point_inside():
    g = Affine2(F(1, 2), F(1, 2), F(0), F(1, 4), F(0))  # fix at x = 1/2
    with pytest.raises(FixedPointInsideError):
        iterate_orbit(g, (F(0), F(0)), UNIT)
    with pytest.raises(FixedPointInsideError):
        iterate_orbit(Affine2.identity(), (F(0), F(0)), UNIT)


def test_iterate_rejects_outside_origin():
    g = Affine2(F(1), F(1), F(0), F(1, 4), F(0))
    with pytest.raises(OutOfDomainError):
        iterate_orbit(g, (F(2), F(0)), UNIT)


def test_iterate_budget():
    g = Affine2(F(1), F(1), F(0), F(1, 1000), F(0))
    with pytest.raises(DepthTooLargeError):
        iterate_orbit(g, (F(0), F(0)), UNIT, max_points=100)


def test_non_finite_float_inputs_are_refused():
    # a float coefficient, origin coordinate or interval end that is inf
    # or nan has no orbit: both calls refuse it rather than walk it
    g, origin, interval = Affine2(1.1, 1.2, 0.1, 0.05, 0.1), (0.0, 0.0), (0.0, 1.0)
    nan, inf = math.nan, math.inf
    cases = [(Affine2(nan, 1.2, 0.1, 0.05, 0.1), origin, interval, "p = nan"),
             (Affine2(1.1, 1.2, 0.1, inf, 0.1), origin, interval, "h = inf"),
             (g, (0.0, nan), interval, "y0 = nan"),
             (g, (-inf, 0.0), interval, "x0 = -inf"),
             (g, origin, (0.0, inf), "b = inf")]
    for g_bad, origin_bad, interval_bad, message in cases:
        for call in (classify_orbit_curve, iterate_orbit):
            with pytest.raises(ValueError, match=f"^{message} is not finite$"):
                call(g_bad, origin_bad, interval_bad)
    # only floats are tested: a Fraction too large for a float is no fault
    huge = Affine2(F(11, 10), F(6, 5), F(1, 10), F(1, 20), F(10 ** 400))
    assert classify_orbit_curve(huge, (F(0), F(0)), UNIT).kind == "PowerLinear"
    assert iterate_orbit(huge, (F(0), F(0)), UNIT).M > 0


def test_verify_reports_a_nan_difference():
    g = Affine2(1.1, 1.2, 0.1, 0.05, 0.1)
    model = classify_orbit_curve(g, (0.0, 0.0), (0.0, 1.0))
    trace = iterate_orbit(g, (0.0, 0.0), (0.0, 1.0))
    assert verify_orbit_on_curve(trace, model) < 1e-12
    bad = replace(model, kind="Parabola", coefficients={"A": math.nan, "B": 0.0})
    assert math.isnan(verify_orbit_on_curve(trace, bad))


# ---------- classification: pinned examples ----------

def test_classify_parabola_example():
    g = Affine2(F(1), F(1), F(1), F(1, 2), F(1, 4))
    model = classify_orbit_curve(g, (F(0), F(0)), WIDE)
    assert model.kind == "Parabola"
    assert model.coefficients == {"A": F(1), "B": F(0)}
    assert model.singularity is None
    trace = iterate_orbit(g, (F(0), F(0)), WIDE)
    assert verify_orbit_on_curve(trace, model) == 0
    # the orbit sits exactly on y = x^2
    assert all(y == x * x for (x, y) in trace.points)


def test_classify_explinear_example():
    g = Affine2(F(1), F(1, 2), F(0), F(1), F(1))
    model = classify_orbit_curve(g, (F(0), F(0)), WIDE)
    assert model.kind == "ExpLinear"
    assert model.coefficients["A"] == 0
    assert model.coefficients["B"] == -2
    assert math.isclose(model.coefficients["K"], -math.log(2), rel_tol=1e-15)
    # orbit points (0,0), (1,1), (2,3/2) lie on the curve
    for x, y in ((0, 0), (1, 1), (2, 1.5)):
        assert abs(model.evaluate(x) - y) < 1e-12


def test_classify_dispatch_kinds():
    cases = [
        (Affine2(F(1), F(1), F(1, 8), F(1, 4), F(0)), "Parabola"),
        (Affine2(F(1), F(3, 4), F(1, 8), F(1, 4), F(0)), "ExpLinear"),
        (Affine2(F(5, 4), F(1), F(1, 8), F(1, 4), F(0)), "LogLinear"),
        (Affine2(F(5, 4), F(3, 4), F(1, 8), F(1, 4), F(0)), "PowerLinear"),
        (Affine2(F(5, 4), F(5, 4), F(1, 8), F(1, 4), F(0)), "XLogX"),
    ]
    for g, kind in cases:
        model = classify_orbit_curve(g, (F(0), F(0)), WIDE)
        assert model.kind == kind, (g, kind)
        if kind in ("LogLinear", "PowerLinear", "XLogX"):
            # singularity = projected fixed point, outside the window
            assert model.singularity == F(-1)


def test_classify_preconditions():
    with pytest.raises(NonpositiveRatioError):
        classify_orbit_curve(Affine2(F(-1, 2), F(1), F(0), F(2), F(0)),
                             (F(0), F(0)), UNIT)
    with pytest.raises(NonpositiveRatioError):
        classify_orbit_curve(Affine2(F(1), F(-1, 2), F(0), F(2), F(0)),
                             (F(0), F(0)), UNIT)
    with pytest.raises(FixedPointInsideError):
        classify_orbit_curve(Affine2(F(1, 2), F(1, 2), F(0), F(1, 4), F(0)),
                             (F(0), F(0)), UNIT)
    with pytest.raises(FixedPointInsideError):
        classify_orbit_curve(Affine2(F(1), F(1), F(0), F(0), F(1, 4)),
                             (F(0), F(0)), UNIT)
    # origin parked on the (outside) fixed point: every formula degenerates
    with pytest.raises(DegenerateDenominatorError):
        classify_orbit_curve(Affine2(F(1, 2), F(1, 2), F(1), F(2), F(0)),
                             (F(4), F(0)), UNIT)


def test_classify_case_boundary_warns():
    g = Affine2(1.0, 1.0 + 1e-7, 0.5, 0.25, 0.0)
    with pytest.warns(CaseBoundaryWarning):
        classify_orbit_curve(g, (0.0, 0.0), (0.0, 3.0))
    g = Affine2(1.0 + 1e-12, 1.0, 0.5, 0.25, 0.0)
    with pytest.warns(CaseBoundaryWarning):
        model = classify_orbit_curve(g, (0.0, 0.0), (0.0, 3.0))
    assert model.kind == "Parabola"  # snapped onto the boundary


def test_classify_float_matches_exact_away_from_boundary():
    ge = Affine2(F(5, 4), F(3, 4), F(1, 8), F(1, 4), F(1, 8))
    gf = Affine2(1.25, 0.75, 0.125, 0.25, 0.125)
    me = classify_orbit_curve(ge, (F(0), F(0)), WIDE)
    mf = classify_orbit_curve(gf, (0.0, 0.0), (0.0, 3.0))
    assert me.kind == mf.kind == "PowerLinear"
    for key in me.coefficients:
        assert math.isclose(float(me.coefficients[key]),
                            float(mf.coefficients[key]), rel_tol=1e-12)


def test_explinear_near_one_converges_to_parabola():
    # as q -> 1 the ExpLinear curve approaches the q = 1 parabola
    r, h, s = 0.5, 0.25, 0.125
    lim = classify_orbit_curve(Affine2(F(1), F(1), F(1, 2), F(1, 4), F(1, 8)),
                               (F(0), F(0)), WIDE)
    assert lim.kind == "Parabola"
    xs = [0.3, 0.9, 1.7, 2.4]
    for k in (3, 4, 5, 6):
        q = 1.0 + 10.0 ** (-k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CaseBoundaryWarning)
            model = classify_orbit_curve(Affine2(1.0, q, r, h, s),
                                         (0.0, 0.0), (0.0, 3.0))
        assert model.kind == "ExpLinear"
        worst = max(abs(model.evaluate(x) - lim.evaluate(x)) for x in xs)
        assert worst <= 10.0 ** (-k + 2)


def test_confined_random_cases_fit(rng):
    for case in ("Parabola", "ExpLinear", "LogLinear", "PowerLinear", "XLogX"):
        for _ in range(10):
            g = confined_near_identity(rng, case)
            model = classify_orbit_curve(g, (F(0), F(0)), UNIT)
            assert model.kind == case
            trace = iterate_orbit(g, (F(0), F(0)), UNIT)
            assert trace.M >= 50
            resid = verify_orbit_on_curve(trace, model)
            if case == "Parabola":
                assert resid == 0
            else:
                assert float(resid) < 1e-9


# ---------- epsilon nets ----------

def test_epsilon_net_flat_line():
    system = flat_line_system()
    g = Affine2(F(1), F(1), F(0), F(1, 2), F(0))
    trace = epsilon_net(system, g, 0.5)
    assert trace.points == ((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(0)))
    assert trace.M == 2
    assert trace.covering_radius <= 0.25 + 1e-12
    assert trace.eps == 0.5
    assert trace.delta is not None


def test_epsilon_net_rejects_fixed_point_inside():
    system = flat_line_system()
    with pytest.raises(FixedPointInsideError):
        epsilon_net(system, Affine2(F(1, 2), F(1), F(0), F(1, 4), F(0)), 0.5)


def test_epsilon_net_step_too_large():
    system = mixed_ratio_parabola_system()
    el = FamilyElement.from_words(system, (1,), (2,))
    with pytest.raises(StepTooLargeError):
        epsilon_net(system, el.map2, 0.25)


def test_epsilon_net_reports_its_sample():
    system = flat_line_system()
    g = Affine2(F(1), F(1), F(0), F(1, 2), F(0))
    trace = epsilon_net(system, g, 0.5)
    assert (trace.sample_depth, trace.sample_size, trace.max_step) == (5, 33, 0.5)
    assert iterate_orbit(g, (F(0), F(0)), UNIT).max_step is None


def test_epsilon_net_witness_covers_unit_interval():
    system = mixed_ratio_parabola_system()
    el = FamilyElement.from_words(
        system,
        (1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1),
        (2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2),
    )
    eps = suggest_eps(system, el.map2)
    trace = epsilon_net(system, el.map2, eps)
    assert trace.M == 64
    assert trace.covering_radius <= eps
    # orbit points stay on the graph of y = x^2
    assert all(abs(y - x * x) <= 1e-9 for (x, y) in trace.points)


def test_suggest_eps_feasible_on_flat_line():
    system = flat_line_system()
    g = Affine2(F(1), F(1), F(0), F(1, 2), F(0))
    eps = suggest_eps(system, g)
    trace = epsilon_net(system, g, eps)
    assert trace.covering_radius <= eps


# ---------- point budget ----------

# dyadic samples hold m^depth (m + 2) = 2^depth * 4 images, at resolution 2^-depth
BELOW_DEPTH_3 = 2 ** 3 * 4 - 1
# depths 3, 5, 7 fit, depth 9 does not; resolution 1/128 cannot certify eps = 1e-6
THROUGH_DEPTH_7 = 2 ** 7 * 4
# depths 3, 5 fit; suggest_eps wants resolution 1/64, reached only at depth 7
THROUGH_DEPTH_5 = 2 ** 5 * 4
NET_STEP = Affine2(F(1), F(1), F(0), F(1, 64), F(0))


@pytest.mark.parametrize("run,max_points", [
    (lambda s, n: modulus_of_continuity(s, 1e-6, n), BELOW_DEPTH_3),
    (lambda s, n: modulus_of_continuity(s, 1e-6, n), THROUGH_DEPTH_7),
    (lambda s, n: epsilon_net(s, NET_STEP, 1e-6, n), BELOW_DEPTH_3),
    (lambda s, n: epsilon_net(s, NET_STEP, 1e-6, n), THROUGH_DEPTH_7),
    (lambda s, n: suggest_eps(s, NET_STEP, n), BELOW_DEPTH_3),
    (lambda s, n: suggest_eps(s, NET_STEP, n), THROUGH_DEPTH_5),
], ids=["modulus-below", "modulus-midway", "net-below", "net-midway",
        "suggest-below", "suggest-midway"])
def test_exhausted_budget_is_resolution_insufficient(run, max_points):
    with pytest.raises(ResolutionInsufficientError) as info:
        run(dyadic_parabola_system(), max_points)
    assert not isinstance(info.value, DepthTooLargeError)


# ---------- the modulus memo ----------

@pytest.fixture
def scans(monkeypatch):
    """A one-item list counting the threshold scans of modulus_of_continuity."""
    count = [0]
    scan = attractor._threshold

    def counted(*args):
        count[0] += 1
        return scan(*args)

    monkeypatch.setattr(attractor, "_threshold", counted)
    return count


def test_net_reuses_the_suggested_modulus(cold_caches, scans):
    system = mixed_ratio_parabola_system()
    el = FamilyElement.from_words(
        system,
        (1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1),
        (2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2),
    )
    eps = suggest_eps(system, el.map2)
    assert eps == 0.14062839080113376
    # one scan at depth 11, which rejects 8 * resolution, one at depth 13
    assert scans[0] == 2
    before = scans[0]
    trace = epsilon_net(system, el.map2, eps)
    assert scans[0] == before
    assert trace.delta == 0.06488020307051946
    assert (trace.sample_depth, trace.sample_size) == (13, 8687)
    assert trace.max_step == 0.03515709770028344 == eps / 4


# the two net witnesses of mixed, their orbit length and covering radius
NET_WITNESSES = [
    ((1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1), (2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2),
     64, "0x1.197e80e72e981p-6"),
    ((2, 1, 1, 1, 2, 2, 2, 2, 2, 1, 2), (1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 1),
     32, "0x1.0c3c23b8244aap-5"),
]


@pytest.mark.parametrize("j_word,i_word,M,radius", NET_WITNESSES)
def test_net_covering_radius_matches_the_bisect_sweep(cold_caches, j_word, i_word, M, radius):
    system = mixed_ratio_parabola_system()
    g = FamilyElement.from_words(system, j_word, i_word).map2
    trace = epsilon_net(system, g, suggest_eps(system, g))
    assert (trace.M, trace.covering_radius.hex()) == (M, radius)
    sample = sample_attractor(system, trace.sample_depth)
    assert trace.covering_radius == oracle_covering_radius(*sample.columns, trace.points)


def test_covering_radius_matches_the_bisect_sweep():
    # on a grid, sample and orbit abscissae tie and points coincide
    rng = random.Random(23)
    for case in range(300):
        if case % 2:
            xs = sorted(rng.uniform(-1, 2) for _ in range(rng.randrange(1, 60)))
            orbit = [(F(rng.uniform(-1, 2)), F(rng.uniform(-1, 1)))
                     for _ in range(rng.randrange(1, 15))]
        else:
            xs = sorted(rng.randrange(-8, 17) / 8 for _ in range(rng.randrange(1, 60)))
            orbit = [(F(rng.randrange(-8, 17), 8), F(rng.randrange(-4, 5), 4))
                     for _ in range(rng.randrange(1, 15))]
        ys = [rng.randrange(-4, 5) / 4 for _ in xs]
        want = oracle_covering_radius(xs, ys, orbit)
        assert orbits._covering_radius(xs, ys, orbit).hex() == want.hex()


def test_modulus_repeat_does_no_scan(cold_caches, scans):
    system = dyadic_parabola_system()
    delta = modulus_of_continuity(system, 0.1)
    assert scans[0] > 0
    before = scans[0]
    assert modulus_of_continuity(system, 0.1) == delta
    assert scans[0] == before


def test_modulus_memo_is_not_shared_by_float_twins(cold_caches, scans):
    exact = dyadic_parabola_system()
    twin = float_twin(exact)
    assert exact == twin
    modulus_of_continuity(exact, 0.3)
    before = scans[0]
    got = modulus_of_continuity(twin, 0.3)
    assert scans[0] > before
    assert got == oracle_modulus(twin, 0.3)
    before = scans[0]
    modulus_of_continuity(exact, 0.3)
    assert scans[0] > before


def test_sampling_another_system_drops_the_moduli(cold_caches, scans):
    system = dyadic_parabola_system()
    modulus_of_continuity(system, 0.1)
    sample_attractor(mixed_ratio_parabola_system(), 3)
    assert attractor._SAMPLES.moduli == {}
    before = scans[0]
    modulus_of_continuity(system, 0.1)
    assert scans[0] > before


def test_modulus_memo_keeps_the_budget(cold_caches):
    # eps = 0.1 on the dyadic system is certified at depth 9 only
    system = dyadic_parabola_system()
    modulus_of_continuity(system, 0.1)
    with pytest.raises(ResolutionInsufficientError):
        modulus_of_continuity(system, 0.1, THROUGH_DEPTH_7)


# ---------- parabola detection ----------

def test_detect_parabola_exact_quadratic():
    pts = [(F(k, 7), F(2) * F(k, 7) ** 2 - F(3, 5) * F(k, 7) + F(1, 9))
           for k in range(8)]
    fit = detect_parabola(pts, tol=1e-9)
    assert fit is not None
    assert (fit.A, fit.B, fit.C) == (F(2), F(-3, 5), F(1, 9))
    assert fit.max_residual == 0
    assert not fit.is_line


def test_detect_parabola_graph_sample_input():
    fit = detect_parabola(sample_attractor(dyadic_parabola_system(), 6), tol=1e-9)
    assert fit is not None
    assert (fit.A, fit.B, fit.C) == (F(1), F(0), F(0))
    assert fit.max_residual == 0


def test_detect_parabola_rejects_fractal():
    from fifkit import four_piece_overlap_system
    fit = detect_parabola(sample_attractor(four_piece_overlap_system(), 6), tol=1e-3)
    assert fit is None


def test_detect_parabola_line_flag():
    pts = [(float(k), 2.0 * k - 1.0) for k in range(6)]
    fit = detect_parabola(pts, tol=1e-9)
    assert fit is not None
    assert fit.is_line and fit.A == 0
    assert math.isclose(fit.B, 2.0) and math.isclose(fit.C, -1.0)


def test_detect_parabola_needs_three_points():
    with pytest.raises(ValueError):
        detect_parabola([(0.0, 0.0), (1.0, 1.0)], tol=1e-9)


def test_detect_parabola_float_path(cold_caches):
    pts = [(k / 10.0, 0.5 * (k / 10.0) ** 2 + 0.25) for k in range(11)]
    fit = detect_parabola(pts, tol=1e-9)
    assert fit is not None
    assert math.isclose(fit.A, 0.5, rel_tol=1e-10)
    assert abs(fit.B) < 1e-10
    assert math.isclose(fit.C, 0.25, rel_tol=1e-10)
    # the float fit is the exact fit of the floats, rounded once
    rng = random.Random(7)
    xs = sorted(rng.uniform(-3.0, 5.0) for _ in range(40))
    sample = sample_attractor(float_twin(mixed_ratio_parabola_system()), 6)
    cases = [
        pts,
        [(x, 3.0 * x * x - x / 7 + 1.5) for x in xs],
        [(x, -2.5 * x * x + rng.gauss(0.0, 1e-3)) for x in xs],
        [(x, 1e6 * x * x + 1e-9 * x) for x in xs],
        sample,
    ]
    for points in cases:
        floats = sample.points if points is sample else points
        want = oracle_parabola([(F(x), F(y)) for x, y in floats], 1.0)
        fit = detect_parabola(points, 1.0)
        assert not want[4]
        assert fit == orbits.ParabolaFit(*(float(v) for v in want[:4]), False)
        assert all(type(v) is float for v in (fit.A, fit.B, fit.C, fit.max_residual))
    assert detect_parabola(cases[2], 1e-6) is None
    # a line with rounding-sized noise has a negligible quadratic term
    noisy = [(x, 2.0 * x - 1.0 + 1e-15 * rng.choice((-1, 1))) for x in xs]
    fit = detect_parabola(noisy, 1e-9)
    assert fit.is_line and fit.A == 0.0
    assert math.isclose(fit.B, 2.0) and math.isclose(fit.C, -1.0)


# ---------- model evaluation ----------

def test_evaluate_many_matches_evaluate():
    g = Affine2(F(5, 4), F(3, 4), F(1, 8), F(1, 4), F(1, 8))
    model = classify_orbit_curve(g, (F(0), F(0)), WIDE)
    xs = [0.1, 0.5, 1.0, 2.0, 2.9]
    many = model.evaluate_many(xs)
    assert list(many) == [model.evaluate(x) for x in xs]


# ---------- integer consumers of exact samples ----------

MIXED_WITNESS = ((1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2, 1),
                 (2, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2))


def _fraction_graph_step(g, points):
    p1, q1 = g.p - 1, g.q - 1
    return max(math.hypot(float(p1 * x + g.h), float(q1 * y + g.r * x + g.s))
               for x, y in points)


def test_max_graph_step_matches_the_fraction_formula(cold_caches):
    mixed = mixed_ratio_parabola_system()
    witness = FamilyElement.from_words(mixed, *MIXED_WITNESS).map2
    four = four_piece_overlap_system()
    cases = [(mixed, witness, depth) for depth in (9, 13)]
    cases += [(four, g, 6) for g in four.maps]
    for system, g, depth in cases:
        sample = sample_attractor(system, depth)
        got = orbits._max_graph_step(g, sample)
        assert got.hex() == _fraction_graph_step(g, sample.points).hex()
        # an exact map on a float sample multiplies floats, as Fraction * float does
        twin = sample_attractor(float_twin(system), depth)
        float_g = Affine2(*(float(c) for c in (g.p, g.q, g.r, g.h, g.s)))
        for h in (g, float_g):
            assert (orbits._max_graph_step(h, twin).hex()
                    == _fraction_graph_step(h, twin.points).hex())
    assert orbits._max_graph_step(witness, sample_attractor(mixed, 13)) == 0.03515709770028344


def test_max_graph_step_decodes_one_point_at_a_time(cold_caches):
    # the exact step reads numerator_pairs(): four-piece d7 (35,504 points)
    # once peaked at 2.9 MB for its two decoded int columns
    sample = sample_attractor(four_piece_overlap_system(), 7)
    g = Affine2(F(1), F(1), F(1, 3), F(1, 7), F(1, 5))
    want = orbits._max_graph_step(g, sample)
    tracemalloc.start()
    try:
        assert orbits._max_graph_step(g, sample) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sample) == 35_504 and peak < 64_000


def _same_fit(fit, want):
    if want is None:
        assert fit is None
    else:
        assert (fit.A, fit.B, fit.C, fit.max_residual, fit.is_line) == want
        assert all(type(v) in (Fraction, int) for v in (fit.A, fit.B, fit.C, fit.max_residual))


@pytest.mark.parametrize("make,depth,tol,hit", [
    (mixed_ratio_parabola_system, 10, 0.0, True),
    (four_piece_overlap_system, 6, 1e-3, False),
    (four_piece_overlap_system, 5, 1.0, True),
])
def test_detect_parabola_on_samples_matches_the_point_list(cold_caches, make, depth, tol, hit):
    sample = sample_attractor(make(), depth)
    fit = detect_parabola(sample, tol)
    assert (fit is not None) == hit
    assert fit == detect_parabola(list(sample.points), tol)
    _same_fit(fit, oracle_parabola(sample.points, tol))


def test_detect_parabola_line_fits_match_the_oracle():
    line = IfsSystem(
        (Affine2(F(1, 2), F(1, 3), F(1, 6), F(0), F(0)),
         Affine2(F(1, 2), F(1, 3), F(1, 6), F(1, 2), F(1, 2))),
        UNIT,
    )
    fit = detect_parabola(sample_attractor(line, 5), 0.0)
    assert fit.is_line and fit.A == 0 and (fit.B, fit.C) == (F(1), F(0))
    _same_fit(fit, oracle_parabola(sample_attractor(line, 5).points, 0.0))
    # two distinct abscissae: the normal equations are singular
    pts = [(F(0), F(1)), (F(0), F(1)), (F(1, 3), F(2)), (F(1, 3), F(3))]
    fit = detect_parabola(pts, 1.0)
    assert fit.is_line and fit.A == 0
    _same_fit(fit, oracle_parabola(pts, 1.0))


def test_max_graph_step_round_once():
    # the displacement of (x, 0) under (2x, y) is x = (2^53 + 1) / 3, a float
    big = 2 ** 53 + 1
    level, _, k, off = attractor._packed([(big, 0)])
    sample = attractor.GraphSample(tuple(level), 3, 1, 0, 0.0, True, k, off)
    double = Affine2(F(2), F(1), F(0), F(0), F(0))
    assert orbits._max_graph_step(double, sample) == float(F(big, 3)) != float(big) / 3
