"""Orbit traces of near-identity maps, their closed-form curves, and
quadratic-fit detection.

Iterating a single planar map g with fix(g projected) outside [a, b]
walks monotonically across the interval; when the starting point sits
on the attractor and g belongs to the associated family, the orbit
stays on the attractor and forms an eps-net of it once the steps are
small against the continuity modulus.  Independently of any attractor,
every such orbit lies on one of five closed-form curves, decided by
whether p and q equal 1 and each other.
"""

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .affine import Affine2, fixed_point_1d, projection
from .attractor import (
    GraphSample,
    _deepening_samples,
    evaluate_f,
    modulus_of_continuity,
)
from .errors import (
    DegenerateDenominatorError,
    DepthTooLargeError,
    FixedPointInsideError,
    NonpositiveRatioError,
    OutOfDomainError,
    ResolutionInsufficientError,
    StepTooLargeError,
)
from .scalars import (Scalar, _solve3, coerce, common_denominator, is_exact, require_finite,
                      to_float)

CURVE_KINDS = ("Parabola", "ExpLinear", "LogLinear", "PowerLinear", "XLogX")

# floating dispatch: |p-1| etc. below this counts as equality
_DISPATCH_EQ = 1e-9
# floating dispatch: distances below this get an ill-posedness warning
_DISPATCH_WARN = 1e-6


class CaseBoundaryWarning(UserWarning):
    """Floating-point map close to a curve-case boundary; the dispatch
    (p = 1? q = 1? p = q?) is numerically ill-posed there."""


@dataclass(frozen=True)
class OrbitTrace:
    """Points g^n(origin) for n = 0..M, all inside the strip over [a,b].

    M is the crossing index: g^(M+1) would leave the interval.  The
    fields from eps on are populated by epsilon_net: the checked eps,
    the continuity modulus delta, the covering radius, and the depth and
    point count of the attractor sample on which the largest graph step
    max_step (<= delta) and the covering radius were measured.
    """

    g: Affine2
    origin: tuple[Scalar, Scalar]
    points: tuple[tuple[Scalar, Scalar], ...]
    M: int
    direction: str  # "right" | "left"
    eps: float | None = None
    delta: float | None = None
    covering_radius: float | None = None
    sample_depth: int | None = None
    sample_size: int | None = None
    max_step: float | None = None


def _require_finite(g: Affine2, origin, interval):
    # no orbit or curve formula takes an inf or nan
    names = ("p", "q", "r", "h", "s", "x0", "y0", "a", "b")
    require_finite(zip(names, (g.p, g.q, g.r, g.h, g.s, *origin, *interval)))


def _moving_projection(g: Affine2, interval, identity_message: str):
    """The projection of g, checked to have its fixed point outside [a, b].

    identity_message is the FixedPointInsideError text for a projection
    that is the identity.
    """
    a, b = interval
    gp = projection(g)
    fp = fixed_point_1d(gp)
    if fp.kind == "everywhere":
        raise FixedPointInsideError(identity_message)
    if fp.is_point and a <= fp.x <= b:
        raise FixedPointInsideError(f"projected fixed point {fp.x} lies in [{a}, {b}]")
    return gp


def _max_graph_step(g: Affine2, sample: GraphSample) -> float:
    """Largest displacement |g(x, y) - (x, y)| over the sample's points.

    The displacement is the image of (x, y) under the map with
    coefficients (p-1, q-1, r, h, s).  For an exact map on an exact
    sample it is formed on the sample's integer numerator pairs, decoded
    one at a time, over D * den, D the coefficients' common denominator,
    with one division per coordinate.  Otherwise the float coefficients
    act on the sample's float columns over 1, which gives the same floats.
    """
    coeffs = (g.p - 1, g.q - 1, g.r, g.h, g.s)
    if g.exact and sample.exact:
        (p, q, r, h, s), d = common_denominator(coeffs)
        pairs, den = sample.numerator_pairs(), sample.den
    else:
        (p, q, r, h, s), d = [to_float(c) for c in coeffs], 1
        pairs, den = zip(*sample.columns), 1
    dd, hl, sl, hypot = d * den, h * den, s * den, math.hypot
    max_step = 0.0
    for x, y in pairs:
        step = hypot((p * x + hl) / dd, (q * y + r * x + sl) / dd)
        if step > max_step:
            max_step = step
    return max_step


def iterate_orbit(g: Affine2, origin, interval, max_points: int = 2_000_000) -> OrbitTrace:
    """Iterate g from origin until the abscissa leaves [a, b].

    Requires the projected fixed point outside the interval so the
    abscissae move strictly one way, and finite floats (ValueError).
    """
    _require_finite(g, origin, interval)
    a, b = interval
    gp = _moving_projection(g, interval,
                            "projection is the identity; the orbit cannot move")
    x0 = origin[0]
    if not (a <= x0 <= b):
        raise OutOfDomainError(f"origin abscissa {x0} outside [{a}, {b}]")
    right = gp(x0) > x0
    pts = [(coerce(origin[0]), coerce(origin[1]))]
    while True:
        nxt = g(pts[-1])
        if right and nxt[0] > b:
            break
        if not right and nxt[0] < a:
            break
        pts.append(nxt)
        if len(pts) > max_points:
            raise DepthTooLargeError(f"orbit exceeds point budget {max_points}")
    return OrbitTrace(
        g=g,
        origin=pts[0],
        points=tuple(pts),
        M=len(pts) - 1,
        direction="right" if right else "left",
    )


def _dense_sample(system, target_resolution: float,
                  max_points: int) -> GraphSample:
    for sample in _deepening_samples(system, max_points):
        if to_float(sample.resolution) <= target_resolution:
            return sample
    raise ResolutionInsufficientError(
        f"cannot reach resolution {target_resolution} within budget"
    )


def _covering_radius(xs, ys, orbit) -> float:
    """Largest distance from a sample point (xs sorted) to the orbit points.

    Each sample point is measured against the five orbit points around
    its insertion index in the x-sorted orbit, a pointer that only moves
    forward.  The two nearest in x come first; when either lies within
    the radius so far, the point cannot raise the maximum and the other
    three are skipped.  Infinite sentinels, two before the orbit and
    three after it, keep all five indices in range.
    """
    inf, hypot = math.inf, math.hypot
    ordered = sorted((to_float(x), to_float(y)) for x, y in orbit)
    ox = [-inf, -inf] + [x for x, _ in ordered] + [inf, inf, inf]
    oy = [0.0, 0.0] + [y for _, y in ordered] + [0.0, 0.0, 0.0]
    covering, k = 0.0, 2
    for xf, yf in zip(xs, ys):
        while ox[k] < xf:
            k += 1
        if (hypot(xf - ox[k], yf - oy[k]) > covering
                and hypot(xf - ox[k - 1], yf - oy[k - 1]) > covering):
            d = min(hypot(xf - ox[j], yf - oy[j]) for j in range(k - 2, k + 3))
            if d > covering:
                covering = d
    return covering


def epsilon_net(system, g: Affine2, eps: float,
                max_points: int = 2_000_000) -> OrbitTrace:
    """Orbit of g across the attractor, verified to be an eps-net of it.

    Preconditions checked here: the projected fixed point lies outside
    [a, b], and on a dense attractor sample every displacement
    |g(x,y) - (x,y)| stays within delta = modulus_of_continuity(eps).
    The orbit starts at (a, f(a)) when g moves right, at (b, f(b)) when
    it moves left, and keeps every point whose abscissa is still inside.
    The returned covering radius is the largest distance from a point
    of that sample to the orbit, and it is checked to be <= eps.  It is
    measured at the sample's points only, so it is no proven bound on
    the distance from every point of the attractor.
    """
    if not eps > 0:  # nan too
        raise ValueError("eps must be positive")
    a, b = system.interval
    gp = _moving_projection(g, system.interval,
                            "projection is the identity; no net arises")

    delta = modulus_of_continuity(system, eps, max_points)
    sample = _dense_sample(system, delta / 8, max_points)

    max_step = _max_graph_step(g, sample)
    if max_step > delta:
        raise StepTooLargeError(
            f"max graph displacement {max_step:.3e} exceeds delta {delta:.3e}"
            f" for eps = {eps}"
        )

    right = gp(a) > a
    x_start = a if right else b
    tol0 = 1e-12 if system.exact else min(1e-12, eps * 1e-9)
    y_start = evaluate_f(system, x_start, tol0)
    trace = iterate_orbit(g, (x_start, y_start), system.interval, max_points)

    covering = _covering_radius(*sample.columns, trace.points)
    if covering > eps:
        raise StepTooLargeError(
            f"orbit covering radius {covering:.3e} exceeds eps {eps}"
        )
    return replace(trace, eps=eps, delta=delta, covering_radius=covering,
                   sample_depth=sample.depth, sample_size=len(sample),
                   max_step=max_step)


def suggest_eps(system, g: Affine2, max_points: int = 2_000_000) -> float:
    """Smallest eps of the form 4 * max-step * 2^k accepted by the
    net's step condition (modulus(eps) >= max graph step)."""
    sample = _dense_sample(system, to_float(system.width) / 64, max_points)
    max_step = _max_graph_step(g, sample)
    if max_step == 0.0:
        raise FixedPointInsideError("map is the identity on the sampled graph")
    eps = 4 * max_step
    for _ in range(60):
        try:
            delta = modulus_of_continuity(system, eps, max_points)
        except ResolutionInsufficientError:
            delta = 0.0
        if delta >= max_step:
            return eps
        eps *= 2
    raise StepTooLargeError("no eps up to 4*step*2^60 admits the orbit step")


@dataclass(frozen=True)
class CurveModel:
    """Closed-form curve through an orbit, in origin-relative form.

    Coefficients live in the frame u = x - x0, v = y - y0; evaluate()
    converts back, so model values are directly comparable with orbit
    points.  singularity is the abscissa where the curve's log/power
    expression degenerates (kinds with a C coefficient); it equals the
    projected fixed point of the generating map and lies outside the
    interval by construction.
    """

    kind: str
    coefficients: dict
    origin: tuple[Scalar, Scalar]
    interval: tuple[Scalar, Scalar]
    singularity: Scalar | None = None

    def evaluate(self, x: Scalar) -> Scalar:
        u = x - self.origin[0]
        c = self.coefficients
        k = self.kind
        if k == "Parabola":
            v = c["A"] * u * u + c["B"] * u
            return self.origin[1] + v
        uf = to_float(u)
        if k == "ExpLinear":
            v = to_float(c["A"]) * uf + to_float(c["B"]) * math.expm1(c["K"] * uf)
        elif k == "LogLinear":
            v = (to_float(c["A"]) * uf
                 + to_float(c["B"]) * math.log1p(uf / to_float(c["C"])))
        elif k == "PowerLinear":
            w = math.log1p(uf / to_float(c["C"]))
            v = to_float(c["A"]) * uf + to_float(c["B"]) * math.expm1(c["K"] * w)
        elif k == "XLogX":
            w = math.log1p(uf / to_float(c["C"]))
            t = 1.0 + uf / to_float(c["C"])
            v = to_float(c["A"]) * t * w + to_float(c["B"]) * uf
        else:
            raise ValueError(f"unknown curve kind {k!r}")
        return to_float(self.origin[1]) + v

    def evaluate_many(self, xs):
        return [self.evaluate(x) for x in xs]


def classify_orbit_curve(g: Affine2, origin, interval) -> CurveModel:
    """Which of the five closed-form families the orbit of g follows.

    Shifts coordinates so the origin is (0,0): with u = x - x0 the map
    becomes u' = p u + h~, v' = q v + r u + s~ where h~ = h + (p-1)x0
    and s~ = s + (q-1)y0 + r x0.  Dispatch on (p = 1?, q = 1?, p = q?)
    is exact in rational mode; floating maps within 1e-9 of a boundary
    are snapped onto it with a warning.  An inf or nan raises ValueError.
    """
    _require_finite(g, origin, interval)
    a, b = interval
    x0, y0 = (coerce(origin[0]), coerce(origin[1]))
    p, q, r = g.p, g.q, g.r
    if p <= 0 or q <= 0:
        raise NonpositiveRatioError(f"need p > 0 and q > 0, got p={p}, q={q}")
    _moving_projection(g, interval, "projection is the identity")

    h_ = g.h + (p - 1) * x0
    s_ = g.s + (q - 1) * y0 + r * x0

    exact = g.exact and is_exact(x0) and is_exact(y0)
    if exact:
        p_is_1, q_is_1, p_eq_q = (p == 1), (q == 1), (p == q)
    else:
        dists = (abs(to_float(p) - 1), abs(to_float(q) - 1),
                 abs(to_float(p) - to_float(q)))
        if min(dists) < _DISPATCH_WARN:
            warnings.warn(
                "map is within 1e-6 of a case boundary; classification of "
                "floating-point coefficients is ill-posed there",
                CaseBoundaryWarning,
            )
        p_is_1, q_is_1, p_eq_q = (d < _DISPATCH_EQ for d in dists)

    if h_ == 0:
        # orbit cannot leave x0; every case formula divides by h~ or C
        raise DegenerateDenominatorError("translation part vanishes at the origin")

    if p_is_1 and q_is_1:
        kind = "Parabola"
        coeffs = {"A": r / (2 * h_), "B": (2 * s_ - h_ * r) / (2 * h_)}
        sing = None
    elif p_is_1:
        kind = "ExpLinear"
        coeffs = {
            "A": r / (1 - q),
            "B": (h_ * r + (q - 1) * s_) / ((q - 1) * (q - 1)),
            "K": math.log(to_float(q)) / to_float(h_),
        }
        sing = None
    elif q_is_1:
        c = h_ / (p - 1)
        kind = "LogLinear"
        coeffs = {
            "A": r / (p - 1),
            "B": to_float((h_ * r + (1 - p) * s_) / (1 - p)) / math.log(to_float(p)),
            "C": c,
        }
        sing = x0 - c
    elif not p_eq_q:
        c = h_ / (p - 1)
        kind = "PowerLinear"
        coeffs = {
            "A": r / (p - q),
            "B": (h_ * r + s_ * (q - p)) / ((q - 1) * (q - p)),
            "C": c,
            "K": math.log(to_float(q)) / math.log(to_float(p)),
        }
        sing = x0 - c
    else:
        c = h_ / (p - 1)
        if c == 0:
            raise DegenerateDenominatorError("singularity coefficient C is zero")
        kind = "XLogX"
        coeffs = {
            "A": to_float(c * r) / (to_float(p) * math.log(to_float(p))),
            "B": (c * r - s_) / (c - c * p),
            "C": c,
        }
        sing = x0 - c
    if sing is not None and a <= sing <= b:
        raise FixedPointInsideError(
            f"curve singularity {sing} lies inside [{a}, {b}]"
        )
    return CurveModel(kind=kind, coefficients=coeffs, origin=(x0, y0),
                      interval=(a, b), singularity=sing)


def verify_orbit_on_curve(trace: OrbitTrace, model: CurveModel) -> Scalar:
    """Max |y_n - model(x_n)| over the trace, the brute-force check of a
    classification.  Exact (a Fraction) for rational Parabola models.
    """
    res = 0 if (model.kind == "Parabola"
                and all(is_exact(v) for v in model.coefficients.values())) else 0.0
    for (x, y) in trace.points:
        d = abs(y - model.evaluate(x))
        if d > res or d != d:  # a nan is reported, not skipped
            res = d
    return res


@dataclass(frozen=True)
class ParabolaFit:
    """Least-squares quadratic y = A x^2 + B x + C with max-norm residual."""

    A: Scalar
    B: Scalar
    C: Scalar
    max_residual: Scalar
    is_line: bool


def _fit_exact(xs, ys, den, tol, exact):
    """detect_parabola on the numerator columns xs, ys over den.

    The normal equations come from integer power sums and are solved in
    integers for (A, B den, C den^2); the worst residual is an integer
    maximum over det den^2.  Float data (exact False) counts a
    quadratic coefficient below 1e-12 of the data's scale as zero, and
    its fit comes back as floats.
    """
    s0, s1, s2, s3, s4, t0, t1, t2 = len(xs), 0, 0, 0, 0, 0, 0, 0
    for x, y in zip(xs, ys):
        x2 = x * x
        s1 += x
        s2 += x2
        s3 += x2 * x
        s4 += x2 * x2
        t0 += y
        t1 += x * y
        t2 += x2 * y
    t0, t1, t2 = t0 * den, t1 * den, t2 * den
    sol = _solve3(((s4, s3, s2), (s3, s2, s1), (s2, s1, s0)), (t2, t1, t0))
    if sol is not None and not exact:
        xmax = max(map(abs, xs)) / den
        ymax = max(map(abs, ys)) / den
        if abs(sol[0] / sol[3]) * xmax ** 2 < 1e-12 * max(1.0, ymax):
            sol = None
    # singular normal equations: fit a line, the quadratic coefficient pinned at 0
    sol = sol or _solve3(((1, 0, 0), (0, s2, s1), (0, s1, s0)), (0, t1, t0))
    if sol is None:
        return None
    d1, d2, d3, det = sol
    worst = max(abs(det * den * y - (d1 * x + d2) * x - d3) for x, y in zip(xs, ys))
    res = Fraction(worst, abs(det) * den * den)
    if to_float(res) > tol:
        return None
    fit = (Fraction(d1, det), Fraction(d2, det * den), Fraction(d3, det * den * den))
    if exact:
        return ParabolaFit(*fit, res, d1 == 0)
    return ParabolaFit(*map(float, fit), float(res), d1 == 0)


def detect_parabola(points, tol: float):
    """Quadratic least squares with a max-norm acceptance gate.

    points: a GraphSample or an iterable of (x, y).  Returns a
    ParabolaFit when the worst residual is <= tol, else None.  Floats
    and Fractions alike are converted exactly to integer numerators over
    one denominator (an exact sample's own) and fit through exact normal
    equations, so noiseless exact quadratic data yields residual exactly
    0.  A fitted parabola whose leading coefficient vanishes is refit as
    a line and flagged; for float data, one with
    |A| max|x|^2 < 1e-12 max(1, max|y|) is refit too, and the fit comes
    back as floats.
    """
    if isinstance(points, GraphSample):
        (xs, ys), den, exact = points.numerator_columns(), points.den, points.exact
    else:
        pts = [(coerce(x), coerce(y)) for (x, y) in points]
        xs, ys, den = [x for x, _ in pts], [y for _, y in pts], 1
        exact = all(is_exact(c) for c in xs + ys)
    if den == 1:  # values over 1: put them over one integer denominator
        nums, den = common_denominator(xs + ys)
        xs, ys = nums[:len(xs)], nums[len(xs):]
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    return _fit_exact(xs, ys, den, tol, exact)
