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
    IndexOutOfRangeError,
    NotAFunctionGraphError,
    NotContractiveError,
    NotCoveringError,
    OutOfDomainError,
    ResolutionInsufficientError,
)
from .scalars import Scalar, common_denominator, to_float
from .systems import IfsSystem

_DEDUP_QUANTUM = 1e-12
_CHUNK = 4096  # points decoded at a time by GraphSample.column_chunks


def _select_branch(x, strips, slack, forced=None):
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
    if first_branch is not None and not 1 <= first_branch <= len(system):
        raise IndexOutOfRangeError(f"branch {first_branch} outside 1..{len(system)}")
    a, b = system.interval
    if system.exact:
        lo, hi, den = system._exact_domain
        try:
            num, xden = x.as_integer_ratio()
            inside = lo * xden <= num * den <= hi * xden
        except (OverflowError, ValueError):  # x is an infinite or nan float
            inside = False
    else:
        slack = to_float(system.width) * 1e-12
        inside = a - slack <= x <= b + slack
    if not inside:
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
        return _evaluate_exact(system, num, xden, nsteps, mfloat, first_branch)

    strips = system.strips
    chain = []
    cur = x
    tail = 0.0
    err = mfloat
    forced = first_branch
    for _ in range(nsteps):
        i = _select_branch(cur, strips, slack, forced)
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


def _evaluate_exact(system, num, den, nsteps, err, forced):
    """_evaluate on integers for an exact system, x = num/den in lowest terms.

    The abscissa num/den pulls back to (A num + B den)/(L den); the
    forward recurrence runs over one growing denominator.
    """
    sden, strips, steps = system._exact_pullback
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
    overlaps is tested; one outside 1..m raises IndexOutOfRangeError.
    """
    if not tol > 0:  # nan too
        raise ValueError("tol must be positive")
    y, _ = _evaluate(system, x, tol, first_branch)
    return y


@dataclass(frozen=True)
class GraphSample:
    """Sorted graph points, all within `tolerance` of the attractor.

    An exact point (X, Y), int numerators over one denominator den, is
    stored as one int (X << k) + (Y + off): off bounds |Y| and
    2^k > 2 off, so integer order is (X, Y) order.  Such a point retains
    about 48 B, against about 125 B as a tuple of two ints.  A float
    sample keeps its (x, y) float pairs, over den = 1 with k = off = 0.
    Only this class reads that storage: every other reader takes
    `numerator_columns()` (numerators over den, decoded on each call),
    `numerator_pairs()` (the same, pair by pair), `numerator_y_range()`,
    `extent()`, `column_chunks()` (x and y float lists, X / den correctly
    rounded, 4096 points at a time, decoded on each call), `columns`
    (the same floats whole, kept after first use), `points` (the
    scalars, decoded on first use) or `len(sample)` (no decoding).
    """

    data: tuple[int, ...] | tuple[tuple[float, float], ...]
    den: int
    depth: int
    resolution: Scalar
    tolerance: float
    exact: bool
    k: int = 0
    off: int = 0

    def __len__(self) -> int:
        return len(self.data)

    def numerator_columns(self) -> tuple[list, list]:
        """The X and the Y numerators as two lists (a float sample's x and y)."""
        if not self.exact:
            return [x for x, _ in self.data], [y for _, y in self.data]
        k, off, mask = self.k, self.off, (1 << self.k) - 1
        return [z >> k for z in self.data], [(z & mask) - off for z in self.data]

    def numerator_pairs(self):
        """numerator_columns() as (X, Y) pairs, each decoded when reached."""
        if not self.exact:
            return iter(self.data)
        k, off, mask = self.k, self.off, (1 << self.k) - 1
        return ((z >> k, (z & mask) - off) for z in self.data)

    def numerator_y_range(self) -> tuple:
        """(min Y, max Y), the least and the greatest y numerator over den."""
        if not self.exact:
            return min(y for _, y in self.data), max(y for _, y in self.data)
        mask, off = (1 << self.k) - 1, self.off
        return min(map(mask.__and__, self.data)) - off, max(map(mask.__and__, self.data)) - off

    def extent(self) -> tuple[float, float, float, float]:
        """(min x, max x, min y, max y) as `columns` holds them; the points
        are sorted, so x comes from the first and the last."""
        ylo, yhi = self.numerator_y_range()
        first, last = self.data[0], self.data[-1]
        if not self.exact:
            return first[0], last[0], ylo, yhi
        k, den = self.k, self.den
        return (first >> k) / den, (last >> k) / den, ylo / den, yhi / den

    def column_chunks(self):
        """`columns` as (xs, ys) float lists of up to _CHUNK points each,
        in order, each decoded when reached."""
        data, k, off, mask, den = self.data, self.k, self.off, (1 << self.k) - 1, self.den
        for i in range(0, len(data), _CHUNK):
            part = data[i:i + _CHUNK]
            if self.exact:
                yield [(z >> k) / den for z in part], [((z & mask) - off) / den for z in part]
            else:
                yield [x for x, _ in part], [y for _, y in part]

    @cached_property
    def points(self) -> tuple[tuple[Scalar, Scalar], ...]:
        if not self.exact:
            return self.data
        den = self.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.numerator_pairs())

    @cached_property
    def columns(self) -> tuple[list[float], list[float]]:
        xs, ys = [], []
        for cx, cy in self.column_chunks():
            xs += cx
            ys += cy
        return xs, ys


def anchor_points(system: IfsSystem):
    """Generator fixed points plus the graph points over both endpoints.

    Returns (points, worst_error), the endpoints evaluated within 1e-12.
    In an exact system the endpoint evaluations terminate on projected
    fixed points for every bundled example, making the anchors exact.
    A float endpoint within 1e-12 of a fixed point in both coordinates
    but in another dedup cell is that point off by rounding, and dropped.
    Raises NotContractiveError for a system that is not contractive.
    """
    system._contractive  # raises unless contractive
    pts = []
    worst = 0.0
    for g in system.maps:
        xstar = g.h / (1 - g.p)
        ystar = (g.r * xstar + g.s) / (1 - g.q)
        pts.append((xstar, ystar))

    def cell(u, v):  # the levels' dedup key
        return round(u / _DEDUP_QUANTUM), round(v / _DEDUP_QUANTUM)

    fixed = pts[:]
    for x in system.interval:
        y, err = _evaluate(system, x, 1e-12)
        worst = max(worst, err)
        if system.exact or not any(abs(x - u) <= _DEDUP_QUANTUM and abs(y - v) <= _DEDUP_QUANTUM
                                   and cell(x, y) != cell(u, v) for u, v in fixed):
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


def _packed(points):
    """Exact points as (sorted packed ints (X << k) + (Y + off), den, k, off),
    with (X, Y) their numerators over one denominator den and off = max |Y|."""
    pairs, den = _numerators(points)
    off = max(abs(y) for _, y in pairs)
    k = (2 * off).bit_length()
    return sorted((x << k) + y + off for x, y in pairs), den, k, off


def _image(gen, level, den):
    """The (X, Y) pairs over `den` mapped by one scaled generator, over den * D:
    X' = pD X + hD den,  Y' = qD Y + rD X + sD den."""
    p, q, r, h, s = gen
    hl, sl = h * den, s * den
    return ((p * x + hl, q * y + r * x + sl) for x, y in level)


def _next_shift(gens, level, den, k, off):
    """(k', off') packing every generator's image of a sorted packed level:
    off' = max |qD| off + |rD| max|X| + |sD| den bounds each |Y'|."""
    xmax = max(abs(level[0] >> k), abs(level[-1] >> k))
    off = max(abs(q) * off + abs(r) * xmax + abs(s) * den for _, q, r, _, s in gens)
    return (2 * off).bit_length(), off


def _packed_image(gen, level, den, k, off, k2, off2):
    """`_image` on packed points, packed anew with (k2, off2): the image
    (X' << k2) + (Y' + off2) of z is X (pD 2^k2 + rD) + qD (Y + off) + c,
    with X = z >> k, Y + off = z & mask and c the constant rest.  As
    z & mask = z - (X << k), that is X (pD 2^k2 + rD - qD 2^k) + qD z + c."""
    p, q, r, h, s = gen
    mul = (p << k2) + r - (q << k)
    add = (h * den << k2) + s * den + off2 - q * off
    return [(z >> k) * mul + q * z + add for z in level]


def _image_columns(system, sample, i):
    """x and y float columns of generator i's (0-based) image of a
    sample, point for point in the sample's order: `_image` of its
    numerator pairs, each coordinate over den * D."""
    d, gens = system._scaled_maps
    dd = sample.den * d
    xs, ys = zip(*_image(gens[i], sample.numerator_pairs(), sample.den))
    return [x / dd for x in xs], [y / dd for y in ys]


def _levels(system, level, den, k, off, levels):
    """P_levels from the sorted level P_0 = `level` over `den`, packed
    with (k, off) when exact: (sorted level, its den, resolution, k, off).

    One generator step multiplies the denominator by D.  A sorted level
    maps to one run per generator, sorted by x (descending when p < 0),
    so one sort per level merges the runs.  In an exact system every
    point of level j is one packed int over the one denominator L_j
    (`_packed_image` of each of system._scaled_maps, with the bound off
    set by `_next_shift` before packing), integer order is point order,
    and dropping adjacent duplicates deduplicates exactly.  A float
    system runs on its float pairs over 1 (`_image`); they are keyed on
    the 1e-12 grid, and the first point of a key in sorted order, its
    smallest, stays, so a level depends only on the set of points it
    came from.
    """
    d, gens = system._scaled_maps
    for _ in range(levels):
        images = []
        if system.exact:
            k2, off2 = _next_shift(gens, level, den, k, off)
            for gen in gens:
                images += _packed_image(gen, level, den, k, off, k2, off2)
            images.sort()
            level = images[:1] + [b for a, b in zip(images, itertools.islice(images, 1, None))
                                  if a != b]
            k, off = k2, off2
        else:
            for gen in gens:
                images += _image(gen, level, den)
            images.sort()
            seen = {}
            for pt in images:
                seen.setdefault((round(pt[0] / _DEDUP_QUANTUM), round(pt[1] / _DEDUP_QUANTUM)), pt)
            level = list(seen.values())
        den *= d
    if not system.exact:
        gap = max((b[0] - a[0] for a, b in zip(level, level[1:])), default=0)
        return level, den, gap / den, k, off
    gap = max(((b >> k) - (a >> k) for a, b in zip(level, level[1:])), default=0)
    return level, den, Fraction(gap, den) if gap > 0 else 0, k, off


def sample_attractor(system: IfsSystem, depth: int,
                     max_points: int = 2_000_000) -> GraphSample:
    """Images of the anchor set under every length-`depth` word.

    Built level by level: P_0 is the sorted anchor set and P_k the union
    of S(P_{k-1}) over the generators S, one sort of their sorted runs
    with duplicates dropped (see `_levels`).  An exact system's points
    are packed ints throughout, one per point (see `GraphSample`), about
    48 B each at four-piece depth 7.  The word count m^depth * (m + 2)
    is checked against max_points before anything else; exceeding it
    raises DepthTooLargeError.  Points come back sorted by x, with the
    realized horizontal resolution (largest consecutive gap).

    The samples of the most recently sampled system stay cached by
    depth: a repeat request returns the same object, a deeper one
    continues from the deepest cached sample below it, and sampling any
    other system drops them all.  The cache therefore holds at most the
    samples one system has been asked for, never the intermediate levels.
    A sample carries its packing (k, off), so a deeper request continues
    from the cached ints as they are.
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
        cache.key, cache.anchors, cache.anchor_err = key, tuple(sorted(anchors)), anchor_err
    hit = cache.samples.get(depth)
    if hit is not None:
        return hit

    start = max((d for d in cache.samples if d < depth), default=0)
    if start:
        base = cache.samples[start]
        level, den, k, off = base.data, base.den, base.k, base.off
    elif system.exact:
        level, den, k, off = _packed(cache.anchors)
    else:
        level, den, k, off = cache.anchors, 1, 0, 0
    pts, den, res, k, off = _levels(system, level, den, k, off, depth - start)
    sample = GraphSample(tuple(pts), den, depth, res, cache.anchor_err, system.exact, k, off)
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

    The contraction problems are system._contraction_faults, one line
    each.  Coverage sweeps the strips sorted as values, so an exact
    system's gaps are exact.  Branch agreement is certified
    numerically: on every shared strip (positive-width overlap or
    single touch point) the two branch evaluations must agree within
    tol, at nine evenly spaced abscissae of an overlap and at a touch
    point; the report carries the worst discrepancy found.  strict=True
    turns the first failure into the matching typed exception.
    """
    if not tol > 0:  # nan too
        raise ValueError("tol must be positive")
    a, b = system.interval
    faults = system._contraction_faults
    contractive = not faults
    problems = [f"map {k}: " + ("p == 0" if value == 0 else f"|{name}| = {value} not < 1")
                for k, name, value in faults]

    strips = system.strips
    contained = True
    for i, (lo, hi) in enumerate(strips, start=1):
        if lo < a or hi > b:
            contained = False
            problems.append(f"map {i}: strip [{lo}, {hi}] escapes [{a}, {b}]")

    gaps = []
    cover = a
    for lo, hi in sorted(strips):
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


def _threshold(xs, ys, eps):
    """Smallest float delta with hypot(delta, spread(delta)) > eps, where
    spread(delta) is the largest max y - min y over the windows of the
    sorted sample whose width xs[r] - xs[l] is at most delta.

    One two-pointer pass: each right end keeps the leftmost left end
    whose window passes at its own width, hypot(width, range) <= eps.
    first_fail is the smallest width of a window that fails at its own
    width, worst the largest range of a window that passes.  Below
    first_fail every window within delta passes, so spread(delta) <=
    worst, with equality once delta reaches the window of worst; the
    threshold is the smaller of first_fail and the smallest delta with
    hypot(delta, worst) > eps, found by float bisection.
    """
    worst, first_fail = 0.0, math.inf
    hypot = math.hypot
    mx, mn = deque(), deque()
    left = 0
    for right, (x, y) in enumerate(zip(xs, ys)):
        while mx and ys[mx[-1]] <= y:
            mx.pop()
        mx.append(right)
        while mn and ys[mn[-1]] >= y:
            mn.pop()
        mn.append(right)
        while hypot(x - xs[left], ys[mx[0]] - ys[mn[0]]) > eps:
            if x - xs[left] < first_fail:
                first_fail = x - xs[left]
            if mx[0] == left:
                mx.popleft()
            if mn[0] == left:
                mn.popleft()
            left += 1
        spread = ys[mx[0]] - ys[mn[0]]
        if spread > worst:
            worst = spread
    lo, hi = 0.0, math.nextafter(eps, math.inf)  # hypot(lo, worst) <= eps < hypot(hi, worst)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if hypot(mid, worst) > eps:
            hi = mid
        else:
            lo = mid
    return min(first_fail, hi)


def modulus_of_continuity(system: IfsSystem, eps: float,
                          max_points: int = 2_000_000) -> float:
    """Largest certified delta with points of Gamma(f) at horizontal
    distance < delta lying within eps of each other (Euclidean).

    Empirical certification on a dense sample: delta is accepted when
    hypot(delta, worst y-spread over any delta-window) <= eps and the
    sample resolution is at most delta/8 (the documented density safety
    factor).  Raises ResolutionInsufficientError when no affordable
    sample is dense enough.

    Each sampled depth fine enough for the cap min(eps, width) takes one
    threshold scan (_threshold).  The spread never falls as delta grows,
    because windows only widen, and math.hypot is non-decreasing in each
    argument, so the test fails from the threshold on and holds below
    it.  The bisection (the cap, then 50 halvings up from 8 * resolution)
    therefore reads each trial as delta < threshold, and gives the same
    bits as a bisection that scans for every trial.  A finished
    modulus stays in the sample cache, keyed on (eps, max_points), for
    as long as the cache holds this system's samples.
    """
    if not eps > 0:  # nan too
        raise ValueError("eps must be positive")
    cache = _SAMPLES
    memo_key = (eps, max_points)
    if cache.key == (system.exact, system) and memo_key in cache.moduli:
        return cache.moduli[memo_key]
    hi_cap = min(eps, to_float(system.width))
    for sample in _deepening_samples(system, max_points):
        lo_candidate = 8 * to_float(sample.resolution)
        if hi_cap < lo_candidate:
            continue
        threshold = _threshold(*sample.columns, eps)
        if hi_cap < threshold:
            delta = hi_cap
        elif lo_candidate < hi_cap and lo_candidate < threshold:
            lo, hi = lo_candidate, hi_cap
            for _ in range(50):
                mid = (lo + hi) / 2
                if mid < threshold:
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
