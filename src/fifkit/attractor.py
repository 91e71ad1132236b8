"""Attractor-side operations: validation, evaluation, sampling, continuity.

The attractor of a valid system is the graph of a continuous function f
on [a, b].  Everything here works through two mechanisms:

* backward iteration for pointwise values: pull an abscissa back
  through projected strips until the vertical contraction has shrunk
  any initial guess below tolerance, then unroll the y recurrence
  forward (exact when the pullback hits a projected fixed point);
* forward images of a small anchor set for global samples, built one
  generator application per level and cached for the last system.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DepthTooLargeError,
    NotAFunctionGraphError,
    NotContractiveError,
    NotCoveringError,
    OutOfDomainError,
    ResolutionInsufficientError,
)
from .scalars import Scalar, common_denominator, to_float
from .systems import IfsSystem

_DEDUP_QUANTUM = 1e-12


def _select_branch(system, x, strips, slack, forced=None):
    if forced is not None:
        lo, hi = strips[forced - 1]
        if not (lo - slack <= x <= hi + slack):
            raise OutOfDomainError(f"x = {x} outside strip {forced}")
        return forced
    for i, (lo, hi) in enumerate(strips, start=1):
        if lo - slack <= x <= hi + slack:
            return i
    raise NotCoveringError(f"no projected strip contains x = {x}")


def _evaluate(system, x, tol, first_branch=None):
    """Return (y, error_bound).  error_bound == 0 means exact."""
    a, b = system.interval
    slack = 0 if system.exact else to_float(system.width) * 1e-12
    if not (a - slack <= x <= b + slack):
        raise OutOfDomainError(f"x = {x} outside [{a}, {b}]")
    mfloat, qmax = system._pullback_bounds
    if mfloat <= tol:
        nsteps = 0
    elif qmax == 0.0:
        nsteps = 1
    else:
        nsteps = max(1, math.ceil(math.log(tol / mfloat) / math.log(qmax)))
        if nsteps > 100_000:
            raise ResolutionInsufficientError(
                f"would need {nsteps} pullback steps; vertical ratios too close to 1"
            )
    if system.exact:
        return _evaluate_exact(system, Fraction(x), nsteps, mfloat, first_branch)

    strips = system.strips
    chain = []
    cur = x
    tail = 0.0
    err = mfloat
    forced = first_branch
    for _ in range(nsteps):
        i = _select_branch(system, cur, strips, slack, forced)
        forced = None
        g = system.maps[i - 1]
        prev = (cur - g.h) / g.p
        if prev == cur:
            # cur is the projected fixed point of this branch, so f(cur)
            # solves y = q*y + r*cur + s; the remaining tail is exact.
            tail = (g.r * cur + g.s) / (1 - g.q)
            err = 0.0
            break
        prev = min(max(prev, a), b)
        chain.append((i, prev))
        cur = prev
    y = tail
    for i, t in reversed(chain):
        g = system.maps[i - 1]
        y = g.q * y + g.r * t + g.s
        err *= abs(g.q)
    return y, err


def _evaluate_exact(system, x, nsteps, err, forced):
    """_evaluate on integers for an exact system, x a Fraction.

    The abscissa num/den pulls back to (A num + B den)/(L den); the
    forward recurrence runs over one growing denominator.
    """
    sden, strips, steps = system._exact_pullback
    num, den = x.numerator, x.denominator
    chain = []
    # the value so far is y_num / (scale * den), den that of the last abscissa
    y_num, scale = 0, 1
    for _ in range(nsteps):
        at = num * sden
        for i in range(len(strips)) if forced is None else (forced - 1,):
            lo, hi = strips[i]
            if lo * den <= at <= hi * den:
                break
        else:
            if forced is None:
                raise NotCoveringError(f"no projected strip contains x = {Fraction(num, den)}")
            raise OutOfDomainError(f"x = {Fraction(num, den)} outside strip {forced}")
        forced = None
        pa, pb, lden, qn, rn, sn, cden, _ = steps[i]
        prev = pa * num + pb * den
        if prev == lden * num:
            # num/den is the projected fixed point of this branch, so f
            # there solves y = q*y + r*x + s; the remaining tail is exact.
            y_num, scale = rn * num + sn * den, cden - qn
            err = 0.0
            break
        chain.append((i, prev))
        num, den = prev, lden * den
    y_den = scale * den
    for i, t in reversed(chain):
        _, _, lden, qn, rn, sn, cden, qabs = steps[i]
        y_num = qn * y_num + rn * t * scale + sn * y_den
        y_den *= cden
        scale *= cden * lden
        err *= qabs
    return Fraction(y_num, y_den), err


def evaluate_f(system: IfsSystem, x: Scalar, tol: float = 1e-9,
               first_branch: int | None = None) -> Scalar:
    """Value of the attractor function at x, within tol.

    An exact system evaluates in exact arithmetic, a float x as
    Fraction(x), and returns a Fraction.  It is exact (zero-error)
    whenever the pullback orbit of x lands on a projected fixed point;
    in particular at every generator fixed point reachable by the
    lowest-index branch rule.  first_branch forces the branch used for
    the first pullback step only, which is how branch independence on
    overlaps is tested.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    y, _ = _evaluate(system, x, tol, first_branch)
    return y


@dataclass(frozen=True)
class GraphSample:
    """Sorted graph points, all within `tolerance` of the attractor.

    Each point is a pair (X, Y) of numerators over one denominator den:
    ints when exact, the float coordinates over den = 1 otherwise.
    `points` (as scalars) and `columns` (x and y as float lists, X / den
    correctly rounded) are built on first use.
    """

    numerators: tuple[tuple[int, int], ...] | tuple[tuple[float, float], ...]
    den: int
    depth: int
    resolution: Scalar
    tolerance: float
    exact: bool

    @cached_property
    def points(self) -> tuple[tuple[Scalar, Scalar], ...]:
        if not self.exact:
            return self.numerators
        den = self.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.numerators)

    @cached_property
    def columns(self) -> tuple[list[float], list[float]]:
        den = self.den
        return ([x / den for x, _ in self.numerators],
                [y / den for _, y in self.numerators])


def anchor_points(system: IfsSystem):
    """Generator fixed points plus the graph points over both endpoints.

    Returns (points, worst_error), the endpoints evaluated within 1e-12.
    In an exact system the endpoint evaluations terminate on projected
    fixed points for every bundled example, making the anchors exact.
    """
    pts = []
    worst = 0.0
    for g in system.maps:
        xstar = g.h / (1 - g.p)
        ystar = (g.r * xstar + g.s) / (1 - g.q)
        pts.append((xstar, ystar))
    for x in system.interval:
        y, err = _evaluate(system, x, 1e-12)
        worst = max(worst, err)
        pts.append((x, y))
    return pts, worst


class _SampleCache:
    """Samples of the most recently sampled system, by depth, and the
    continuity moduli computed from them, by (eps, max_points).

    Keyed on exactness as well as on the system, because an exact
    system and its float twin compare (and hash) equal.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.key = None
        self.anchors = ()
        self.anchor_err = 0.0
        self.samples = {}
        self.moduli = {}


_SAMPLES = _SampleCache()


def _numerators(points):
    """Points as ([(X, Y) int pairs], their one denominator), converted exactly."""
    nums, den = common_denominator([c for pt in points for c in pt])
    return list(zip(nums[::2], nums[1::2])), den


def _image(gen, level, den):
    """The (X, Y) pairs over `den` mapped by one scaled generator, over den * D:
    X' = pD X + hD den,  Y' = qD Y + rD X + sD den."""
    p, q, r, h, s = gen
    hl, sl = h * den, s * den
    return ((p * x + hl, q * y + r * x + sl) for x, y in level)


def _levels(system, level, den, levels):
    """P_levels from the pairs P_0 = `level` over `den`:
    (sorted pairs, their denominator, resolution).

    One generator step (`_image` of each of system._scaled_maps)
    multiplies the denominator by D.  In an exact system every point of
    level k is an int pair over the one denominator L_k, so the set of
    pairs is the level, deduplicated exactly.  A float system runs on
    its float points over 1; they are keyed on the 1e-12 grid and each
    key keeps its smallest point, so a level depends only on the set of
    points it came from.
    """
    d, gens = system._scaled_maps
    for _ in range(levels):
        images = itertools.chain.from_iterable(_image(gen, level, den) for gen in gens)
        if system.exact:
            level = set(images)
        else:
            seen = {}
            for pt in images:
                key = (round(pt[0] / _DEDUP_QUANTUM), round(pt[1] / _DEDUP_QUANTUM))
                if key not in seen or pt < seen[key]:
                    seen[key] = pt
            level = seen.values()
        den *= d
    ordered = sorted(level)
    gap = max((b[0] - a[0] for a, b in zip(ordered, ordered[1:])), default=0)
    if not system.exact:
        return ordered, den, gap / den
    return ordered, den, Fraction(gap, den) if gap > 0 else 0


def sample_attractor(system: IfsSystem, depth: int,
                     max_points: int = 2_000_000) -> GraphSample:
    """Images of the anchor set under every length-`depth` word.

    Built level by level: P_0 is the anchor set and P_k is the union of
    S(P_{k-1}) over the generators S, deduplicated at every level.  The
    word count m^depth * (m + 2) is checked against max_points before
    anything else; exceeding it raises DepthTooLargeError.  Points come
    back sorted by x, with the realized horizontal resolution (largest
    consecutive gap).

    The samples of the most recently sampled system stay cached by
    depth: a repeat request returns the same object, a deeper one
    continues from the deepest cached sample below it, and sampling any
    other system drops them all.  The cache therefore holds at most the
    samples one system has been asked for, never the intermediate levels.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = len(system) ** depth * (len(system) + 2)
    if total > max_points:
        raise DepthTooLargeError(
            f"{total} points at depth {depth} exceeds budget {max_points}"
        )
    key = (system.exact, system)
    cache = _SAMPLES
    if cache.key != key:
        anchors, anchor_err = anchor_points(system)
        cache.clear()
        cache.key, cache.anchors, cache.anchor_err = key, tuple(anchors), anchor_err
    hit = cache.samples.get(depth)
    if hit is not None:
        return hit

    start = max((d for d in cache.samples if d < depth), default=0)
    if start:
        base = cache.samples[start]
        level, den = base.numerators, base.den
    else:
        level, den = _numerators(cache.anchors) if system.exact else (cache.anchors, 1)
    pts, den, res = _levels(system, level, den, depth - start)
    sample = GraphSample(tuple(pts), den, depth, res, cache.anchor_err, system.exact)
    cache.samples[depth] = sample
    return sample


def _deepening_samples(system: IfsSystem, max_points: int):
    """sample_attractor at depths 3, 5, 7, ... while the sample fits max_points.

    Callers take samples until one meets their own acceptance rule and
    raise ResolutionInsufficientError when the budget runs out first.
    """
    for depth in itertools.count(3, 2):
        try:
            sample = sample_attractor(system, depth, max_points)
        except DepthTooLargeError:
            return
        yield sample


@dataclass(frozen=True)
class ValidationReport:
    contractive: bool
    covering: bool
    contained: bool
    strips: tuple[tuple[Scalar, Scalar], ...]
    coverage_gaps: tuple[tuple[Scalar, Scalar], ...]
    overlaps: tuple[tuple[int, int, Scalar, Scalar], ...]
    touch_points: tuple[tuple[int, int, Scalar], ...]
    single_valued: bool | None
    max_discrepancy: float | None
    tolerance: float
    problems: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return (self.contractive and self.covering and self.contained
                and self.single_valued is True)


def validate(system: IfsSystem, tol: float = 1e-9, *,
             strict: bool = False) -> ValidationReport:
    """Check contraction, strip coverage, and branch agreement on overlaps.

    Branch agreement is certified numerically: on every shared strip
    (positive-width overlap or single touch point) the two branch
    evaluations must agree within tol, at nine evenly spaced abscissae
    of an overlap and at a touch point; the report carries the worst
    discrepancy found.  strict=True turns the first failure into the
    matching typed exception.
    """
    a, b = system.interval
    problems = []
    contractive = True
    for i, g in enumerate(system.maps, start=1):
        if g.p == 0:
            contractive = False
            problems.append(f"map {i}: p == 0")
        elif not abs(g.p) < 1:
            contractive = False
            problems.append(f"map {i}: |p| = {abs(g.p)} not < 1")
        if not abs(g.q) < 1:
            contractive = False
            problems.append(f"map {i}: |q| = {abs(g.q)} not < 1")

    strips = system.strips
    contained = True
    for i, (lo, hi) in enumerate(strips, start=1):
        if lo < a or hi > b:
            contained = False
            problems.append(f"map {i}: strip [{lo}, {hi}] escapes [{a}, {b}]")

    order = sorted(range(len(strips)), key=lambda k: (to_float(strips[k][0]),
                                                      to_float(strips[k][1])))
    gaps = []
    cover = a
    for k in order:
        lo, hi = strips[k]
        if lo > cover:
            gaps.append((cover, lo))
        if hi > cover:
            cover = hi
    if cover < b:
        gaps.append((cover, b))
    covering = not gaps
    if gaps:
        problems.append("coverage gaps: " + ", ".join(f"[{u}, {v}]" for u, v in gaps))

    overlaps = []
    touches = []
    for i in range(len(strips)):
        for j in range(i + 1, len(strips)):
            lo = max(strips[i][0], strips[j][0])
            hi = min(strips[i][1], strips[j][1])
            if lo < hi:
                overlaps.append((i + 1, j + 1, lo, hi))
            elif lo == hi:
                touches.append((i + 1, j + 1, lo))

    single_valued = None
    max_disc = None
    if contractive and covering and contained:
        max_disc = 0.0
        eval_tol = tol / 8
        shared = overlaps + [(i, j, x, x) for (i, j, x) in touches]
        for i, j, lo, hi in shared:
            xs = [lo] if lo == hi else [lo + (hi - lo) * k / 8 for k in range(9)]
            for x in xs:
                yi = evaluate_f(system, x, eval_tol, first_branch=i)
                yj = evaluate_f(system, x, eval_tol, first_branch=j)
                disc = to_float(abs(yi - yj))
                if disc > max_disc:
                    max_disc = disc
        single_valued = max_disc <= tol
        if not single_valued:
            problems.append(
                f"branches disagree by {max_disc:.3e} on a shared strip (tol {tol:.1e})"
            )

    report = ValidationReport(
        contractive=contractive,
        covering=covering,
        contained=contained,
        strips=strips,
        coverage_gaps=tuple(gaps),
        overlaps=tuple(overlaps),
        touch_points=tuple(touches),
        single_valued=single_valued,
        max_discrepancy=max_disc,
        tolerance=tol,
        problems=tuple(problems),
    )
    if strict and not report.valid:
        if not contractive:
            raise NotContractiveError("; ".join(problems))
        if not covering or not contained:
            raise NotCoveringError("; ".join(problems))
        raise NotAFunctionGraphError("; ".join(problems))
    return report


def _window_spread(xs, ys, delta):
    """Worst y-spread over the windows [x, x + delta] of the sorted sample.

    Returns (spread, w_in, w_out).  A two-pointer walk gives each right
    end r the leftmost point left(r) with xs[r] - xs[left(r)] <= delta;
    the spread is the largest max y - min y over those windows.  Every
    left(r), and so the spread, is the same for each delta' with
    w_in <= delta' < w_out: w_in is the largest xs[r] - xs[left(r)], and
    w_out the smallest xs[r] - xs[left(r) - 1] over left(r) > 0.
    """
    worst = 0.0
    w_in, w_out = 0.0, math.inf
    mx, mn = deque(), deque()
    left = 0
    for right, (x, y) in enumerate(zip(xs, ys)):
        while mx and ys[mx[-1]] <= y:
            mx.pop()
        mx.append(right)
        while mn and ys[mn[-1]] >= y:
            mn.pop()
        mn.append(right)
        while x - xs[left] > delta:
            if mx[0] == left:
                mx.popleft()
            if mn[0] == left:
                mn.popleft()
            left += 1
        spread = ys[mx[0]] - ys[mn[0]]
        if spread > worst:
            worst = spread
        width = x - xs[left]
        if width > w_in:
            w_in = width
        if left and x - xs[left - 1] < w_out:
            w_out = x - xs[left - 1]
    return worst, w_in, w_out


def modulus_of_continuity(system: IfsSystem, eps: float,
                          max_points: int = 2_000_000) -> float:
    """Largest certified delta with points of Gamma(f) at horizontal
    distance < delta lying within eps of each other (Euclidean).

    Empirical certification on a dense sample: delta is accepted when
    hypot(delta, worst y-spread over any delta-window) <= eps and the
    sample resolution is at most delta/8 (the documented density safety
    factor).  Raises ResolutionInsufficientError when no affordable
    sample is dense enough.

    The bisection scans the sample only for a trial delta outside every
    range of deltas already known to give the same windows.  A finished
    modulus stays in the sample cache, keyed on (eps, max_points), for
    as long as the cache holds this system's samples.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cache = _SAMPLES
    memo_key = (eps, max_points)
    if cache.key == (system.exact, system) and memo_key in cache.moduli:
        return cache.moduli[memo_key]
    hi_cap = min(eps, to_float(system.width))
    for sample in _deepening_samples(system, max_points):
        xs, ys = sample.columns
        res = to_float(sample.resolution)
        known = []  # (w_in, w_out, spread) of every scan at this depth

        def spread(delta):
            for w_in, w_out, worst in known:
                if w_in <= delta < w_out:
                    return worst
            worst, w_in, w_out = _window_spread(xs, ys, delta)
            known.append((w_in, w_out, worst))
            return worst

        def ok(delta):
            return (delta >= 8 * res
                    and math.hypot(delta, spread(delta)) <= eps)

        lo_candidate = 8 * res
        if ok(hi_cap):
            delta = hi_cap
        elif lo_candidate < hi_cap and ok(lo_candidate):
            lo, hi = lo_candidate, hi_cap
            for _ in range(50):
                mid = (lo + hi) / 2
                if ok(mid):
                    lo = mid
                else:
                    hi = mid
            delta = lo
        else:
            continue
        # sampling this system keyed the cache on it
        cache.moduli[memo_key] = delta
        return delta
    raise ResolutionInsufficientError(
        f"cannot certify a window for eps = {eps} within the point budget"
    )
