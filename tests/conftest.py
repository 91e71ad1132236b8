"""Shared fixtures and a deliberately naive reference implementation.

The oracle functions below recompute word compositions, family
elements, and minimum deviations from scratch with their own loops and
arithmetic.  They share no code with the package, so agreement between
the two routes checks the scanner's bucketing and pruning, not just its
formulas.  The planar deviation takes the vertical box as an explicit
argument; tests feed the same box to both routes so the normalization
matches by construction.
"""

import bisect
import collections
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from fifkit import (
    Affine1,
    Affine2,
    DepthTooLargeError,
    IfsSystem,
    NotCoveringError,
    OutOfDomainError,
    ResolutionInsufficientError,
    anchor_points,
    attractor,
    sample_attractor,
    to_float,
)


# ---------- independent reference arithmetic ----------

def oracle_words(m, depth):
    """Empty word plus every word over {1..m} of length <= depth."""
    out = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [w + (k,) for w in frontier for k in range(1, m + 1)]
        out.extend(frontier)
    return out


def oracle_coeffs_1d(system, word):
    """(P, H) of the projected composite, leftmost letter applied last."""
    P = Fraction(1) if system.exact else 1.0
    H = Fraction(0) if system.exact else 0.0
    for k in word:
        g = system.maps[k - 1]
        P, H = P * g.p, P * g.h + H
    return P, H


def oracle_coeffs_2d(system, word):
    one = Fraction(1) if system.exact else 1.0
    zero = Fraction(0) if system.exact else 0.0
    P, Q, R, H, S = one, one, zero, zero, zero
    for k in word:
        g = system.maps[k - 1]
        P, Q, R, H, S = (P * g.p, Q * g.q, Q * g.r + R * g.p,
                         P * g.h + H, Q * g.s + R * g.h + S)
    return P, Q, R, H, S


def oracle_invert_2d(c):
    p, q, r, h, s = c
    return (1 / p, 1 / q, -r / (p * q), -h / p, (r * h - s * p) / (p * q))


def oracle_compose_2d(c1, c2):
    p1, q1, r1, h1, s1 = c1
    p2, q2, r2, h2, s2 = c2
    return (p1 * p2, q1 * q2, q1 * r2 + r1 * p2,
            p1 * h2 + h1, q1 * s2 + r1 * h2 + s1)


def oracle_dev_1d(p, h, interval):
    a, b = interval
    return max(abs(p - 1),
               max(abs(p * a + h - a), abs(p * b + h - b)) / (b - a))


def oracle_dev_2d(c, interval, ybox):
    p, q, r, h, s = c
    a, b = interval
    ylo, yhi = ybox
    hh = (yhi - ylo) or (b - a)
    dx = max(abs(p * a + h - a), abs(p * b + h - b))
    dy = max(abs((q - 1) * y + r * x + s) for x in (a, b) for y in (ylo, yhi))
    return max(abs(p - 1), abs(q - 1), dx / (b - a), dy / hh)


def oracle_delta_1d(system, depth):
    """Min deviation over all distinct word pairs; identities excluded.

    Returns (delta, unordered_coincidence_pairs).
    """
    words = oracle_words(len(system), depth)
    coeffs = [oracle_coeffs_1d(system, w) for w in words]
    best = None
    coincidences = 0
    for j, (Pj, Hj) in enumerate(coeffs):
        for i, (Pi, Hi) in enumerate(coeffs):
            if i == j:
                continue
            p = Pi / Pj
            h = (Hi - Hj) / Pj
            if p == 1 and h == 0:
                if i < j:
                    coincidences += 1
                continue
            d = oracle_dev_1d(p, h, system.interval)
            if best is None or d < best:
                best = d
    return best, coincidences


def oracle_delta_2d(system, depth, ybox):
    words = oracle_words(len(system), depth)
    # words with equal composites give the same family elements, so one
    # word per distinct composite reaches every element
    coeffs = list(dict.fromkeys(oracle_coeffs_2d(system, w) for w in words))
    best = None
    for j, cj in enumerate(coeffs):
        for i, ci in enumerate(coeffs):
            if i == j:
                continue
            g = oracle_compose_2d(oracle_invert_2d(cj), ci)
            if g == (1, 1, 0, 0, 0):
                continue
            d = oracle_dev_2d(g, system.interval, ybox)
            if best is None or d < best:
                best = d
    return best


def oracle_coincidences_2d(system, depth):
    """Unordered pairs of distinct words with equal planar composites."""
    counts = collections.Counter(
        oracle_coeffs_2d(system, w) for w in oracle_words(len(system), depth))
    return sum(n * (n - 1) // 2 for n in counts.values())


def oracle_family_1d(system, depth):
    """The set {G_j^-1 G_i projected : |i|, |j| <= depth}, as Affine1 maps.

    Walks every ordered word pair, so keep depth small.  Deduplicated by
    exact (p, h), or on a 1e-12 grid for float systems.
    """
    words = oracle_words(len(system), depth)
    coeffs = [oracle_coeffs_1d(system, w) for w in words]
    out = {}
    for Pj, Hj in coeffs:
        for Pi, Hi in coeffs:
            p, h = Pi / Pj, (Hi - Hj) / Pj
            key = (p, h) if system.exact else (round(p * 1e12), round(h * 1e12))
            out.setdefault(key, Affine1(p, h))
    return set(out.values())


def oracle_anchors(system):
    """Generator fixed points and the graph points over both interval ends,
    the ends evaluated by oracle_evaluate within 1e-12 as anchor_points does."""
    fixed = []
    for g in system.maps:
        x = g.h / (1 - g.p)
        fixed.append((x, (g.r * x + g.s) / (1 - g.q)))
    return fixed + [(e, oracle_evaluate(system, e, 1e-12)[0]) for e in system.interval]


def oracle_sample(system, depth):
    """Images of the anchors under every length-depth word, brute force.

    Composes each word's map, applies it to every anchor, deduplicates
    (exactly, or on a 1e-12 grid keeping the first point for floats) and
    sorts.  Returns (points, resolution) with resolution the largest gap
    between consecutive abscissae.
    """
    anchors = oracle_anchors(system)
    seen = {}
    for word in itertools.product(range(1, len(system) + 1), repeat=depth):
        P, Q, R, H, S = oracle_coeffs_2d(system, word)
        for x, y in anchors:
            pt = (P * x + H, Q * y + R * x + S)
            key = pt if system.exact else (round(pt[0] * 1e12), round(pt[1] * 1e12))
            seen.setdefault(key, pt)
    pts = sorted(seen.values())
    gaps = [b[0] - a[0] for a, b in zip(pts, pts[1:])]
    return pts, max(gaps, default=0)


def oracle_levels(system, depth):
    """(numerators, den, resolution) of the depth-`depth` sample by the
    package's level builder before it sorted runs, kept as written then.

    Each level was a set of images (for floats, a dict keeping each 1e-12
    grid key's smallest point), sorted once after the last level.  It
    runs on the package's anchors, scaled maps and `_image`, so the two
    must agree bit for bit; it checks the sorting and deduplication alone.
    """
    anchors, _ = anchor_points(system)
    level, den = attractor._numerators(anchors) if system.exact else (anchors, 1)
    d, gens = system._scaled_maps
    for _ in range(depth):
        images = itertools.chain.from_iterable(attractor._image(g, level, den) for g in gens)
        if system.exact:
            level = set(images)
        else:
            seen = {}
            for pt in images:
                key = (round(pt[0] / 1e-12), round(pt[1] / 1e-12))
                if key not in seen or pt < seen[key]:
                    seen[key] = pt
            level = seen.values()
        den *= d
    ordered = sorted(level)
    gap = max((b[0] - a[0] for a, b in zip(ordered, ordered[1:])), default=0)
    if not system.exact:
        return tuple(ordered), den, gap / den
    return tuple(ordered), den, Fraction(gap, den) if gap > 0 else 0


def oracle_modulus(system, eps, max_points=2_000_000, outcomes=None):
    """The continuity modulus by plain bisection, one full scan per trial delta.

    The package's modulus before it remembered window ranges and
    finished moduli, kept as written then (with its depth loop spelled
    out), so the two must agree bit for bit.  It samples through the
    package's sampler, which oracle_sample checks, so agreement checks
    the modulus alone.  When `outcomes` is a list, each sampled depth
    appends (depth, outcome): "hi_cap" (accepted at min(eps, width)),
    "bisect" (bisected up from 8 * resolution), "low_reject"
    (8 * resolution fails, so the next depth is tried) or "coarse"
    (8 * resolution is not below the cap).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    hi_cap = min(eps, to_float(system.width))
    for depth in itertools.count(3, 2):
        try:
            sample = sample_attractor(system, depth, max_points)
        except DepthTooLargeError:
            break
        xs = [to_float(x) for x, _ in sample.points]
        ys = [to_float(y) for _, y in sample.points]
        res = to_float(sample.resolution)

        def spread(delta):
            # max over windows [x, x+delta] of (max y - min y), two-pointer
            worst = 0.0
            mx, mn = deque(), deque()
            left = 0
            for right in range(len(xs)):
                while mx and ys[mx[-1]] <= ys[right]:
                    mx.pop()
                mx.append(right)
                while mn and ys[mn[-1]] >= ys[right]:
                    mn.pop()
                mn.append(right)
                while xs[right] - xs[left] > delta:
                    if mx[0] == left:
                        mx.popleft()
                    if mn[0] == left:
                        mn.popleft()
                    left += 1
                worst = max(worst, ys[mx[0]] - ys[mn[0]])
            return worst

        def ok(delta):
            return (delta >= 8 * res
                    and math.hypot(delta, spread(delta)) <= eps)

        if ok(hi_cap):
            if outcomes is not None:
                outcomes.append((depth, "hi_cap"))
            return hi_cap
        lo_candidate = 8 * res
        if lo_candidate < hi_cap and ok(lo_candidate):
            lo, hi = lo_candidate, hi_cap
            for _ in range(50):
                mid = (lo + hi) / 2
                if ok(mid):
                    lo = mid
                else:
                    hi = mid
            if outcomes is not None:
                outcomes.append((depth, "bisect"))
            return lo
        if outcomes is not None:
            outcomes.append((depth, "low_reject" if lo_candidate < hi_cap else "coarse"))
    raise ResolutionInsufficientError(
        f"cannot certify a window for eps = {eps} within the point budget"
    )


def _oracle_branch(x, strips, slack, forced):
    if forced is not None:
        lo, hi = strips[forced - 1]
        if not (lo - slack <= x <= hi + slack):
            raise OutOfDomainError(f"x = {x} outside strip {forced}")
        return forced
    for i, (lo, hi) in enumerate(strips, start=1):
        if lo - slack <= x <= hi + slack:
            return i
    raise NotCoveringError(f"no projected strip contains x = {x}")


def oracle_evaluate(system, x, tol, first_branch=None):
    """(f(x), error bound) by the scalar pullback recurrence on Fractions.

    The package's evaluator before exact inputs ran on integers, kept as
    written then (with its branch rule inlined), so the two must return
    equal values and bit-identical error bounds.  It reads the system's
    strips and pullback bounds, which other tests check.
    """
    a, b = system.interval
    slack = 0 if system.exact else to_float(system.width) * 1e-12
    if not (a - slack <= x <= b + slack):
        raise OutOfDomainError(f"x = {x} outside [{a}, {b}]")
    strips = system.strips
    mfloat, qmax = system._pullback_bounds
    if mfloat <= tol:
        nsteps = 0
    elif qmax == 0.0:
        nsteps = 1
    else:
        nsteps = max(1, math.ceil(math.log(tol / mfloat) / math.log(qmax)))
    chain = []
    cur = x
    tail = 0 if system.exact else 0.0
    err = mfloat
    forced = first_branch
    for _ in range(nsteps):
        i = _oracle_branch(cur, strips, slack, forced)
        forced = None
        g = system.maps[i - 1]
        prev = (cur - g.h) / g.p
        if prev == cur:
            tail = (g.r * cur + g.s) / (1 - g.q)
            err = 0.0
            break
        if not system.exact:
            prev = min(max(prev, a), b)
        chain.append((i, prev))
        cur = prev
    y = tail
    for i, t in reversed(chain):
        g = system.maps[i - 1]
        y = g.q * y + g.r * t + g.s
        err *= to_float(abs(g.q))
    return y, err


def oracle_covering_radius(xs, ys, orbit):
    """Largest distance from a sample point to its nearest of five orbit points.

    The epsilon-net's covering sweep before it walked one forward
    pointer, kept as written then: a bisection into the x-sorted orbit
    for every sample point, and all five candidates around it measured.
    """
    orbit_xy = [(to_float(x), to_float(y)) for (x, y) in orbit]
    orbit_xy.sort()
    xs_only = [p[0] for p in orbit_xy]
    covering = 0.0
    for xf, yf in zip(xs, ys):
        k = bisect.bisect_left(xs_only, xf)
        dbest = math.inf
        for idx in range(max(0, k - 2), min(len(orbit_xy), k + 3)):
            ox, oy = orbit_xy[idx]
            d = math.hypot(xf - ox, yf - oy)
            if d < dbest:
                dbest = d
        if dbest > covering:
            covering = dbest
    return covering


def oracle_parabola(points, tol):
    """(A, B, C, max residual, is_line) of the exact quadratic fit, or None.

    The package's exact fit before it summed integer numerators: normal
    equations from Fraction power sums, solved by Cramer's rule, with a
    line fit when they are singular.
    """
    pts = list(points)
    n = len(pts)
    s = [sum(x ** k for x, _ in pts) for k in range(5)]
    t0 = sum(y for _, y in pts)
    t1 = sum(x * y for x, y in pts)
    t2 = sum(x * x * y for x, y in pts)
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = (
        (s[4], s[3], s[2]), (s[3], s[2], s[1]), (s[2], s[1], s[0]))
    det = (a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31)
           + a13 * (a21 * a32 - a22 * a31))
    is_line = False
    if det == 0:
        det2 = s[2] * n - s[1] * s[1]
        if det2 == 0:
            return None
        aa, is_line = 0, True
        bb = (t1 * n - s[1] * t0) / det2
        cc = (s[2] * t0 - s[1] * t1) / det2
    else:
        aa = (t2 * (a22 * a33 - a23 * a32) - a12 * (t1 * a33 - a23 * t0)
              + a13 * (t1 * a32 - a22 * t0)) / det
        bb = (a11 * (t1 * a33 - a23 * t0) - t2 * (a21 * a33 - a23 * a31)
              + a13 * (a21 * t0 - t1 * a31)) / det
        cc = (a11 * (a22 * t0 - t1 * a32) - a12 * (a21 * t0 - t1 * a31)
              + t2 * (a21 * a32 - a22 * a31)) / det
        is_line = aa == 0
    res = max(abs(aa * x * x + bb * x + cc - y) for (x, y) in pts)
    if to_float(res) <= tol:
        return aa, bb, cc, res, is_line
    return None


def oracle_word_rows(system, depth, planar):
    """All words of length <= depth with their coefficients: (rows, scale).

    The package's row builder before it built the rows grouped by P,
    kept as written then, less its budget check and with its own exact
    conversion: rows[L] lists the length-L rows in key order, built at
    scale D^L and rescaled to D^depth in a second pass.
    """
    coeffs = [Fraction(c) for g in system.maps for c in (g.p, g.q, g.r, g.h, g.s)]
    D = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (D // c.denominator) for c in coeffs]
    m = len(system)
    gens = [nums[k:k + 5] for k in range(0, len(nums), 5)]
    # level L holds its composites times D^L; composing with a generator
    # (scaled by D) raises the scale to D^(L+1)
    rows = [[(0, 0, 1, 1, 0, 0) if planar else (0, 0, 1)]]
    # letter k extends a length-L key by k (m+1)^(depth-L-1)
    for length in range(depth):
        step = (m + 1) ** (depth - length - 1)
        kids = [(k * step, *gen) for k, gen in enumerate(gens, start=1)]
        if planar:
            rows.append([(P * h + H * D, key + dk, P * p, Q * q,
                          Q * r + R * p, Q * s + R * h + S * D)
                         for H, key, P, Q, R, S in rows[-1]
                         for dk, p, q, r, h, s in kids])
        else:
            rows.append([(P * h + H * D, key + dk, P * p)
                         for H, key, P in rows[-1]
                         for dk, p, _, _, h, _ in kids])
    for length in range(depth):
        f = D ** (depth - length)
        if f == 1:
            continue
        if planar:
            rows[length] = [(H * f, key, P * f, Q * f, R * f, S * f)
                            for H, key, P, Q, R, S in rows[length]]
        else:
            rows[length] = [(H * f, key, P * f) for H, key, P in rows[length]]
    return rows, D ** depth


def oracle_runs(rows, scale):
    """The rows of oracle_word_rows grouped by P, level by level.

    The package's grouping before the rows were built grouped, kept as
    written then: {P: (label, [(length, run), ...])} in order of first
    appearance, each run the rows of one length sorted by (H, key),
    label the decimal string of P / scale.
    """
    groups = {}
    for length, level in enumerate(rows):
        by_p = {}
        for row in level:
            run = by_p.get(row[2])
            if run is None:
                by_p[row[2]] = [row]
            else:
                run.append(row)
        for P, run in by_p.items():
            run.sort()
            group = groups.get(P)
            if group is None:
                groups[P] = (str(Fraction(P, scale)), [(length, run)])
            else:
                group[1].append((length, run))
    return groups


def oracle_buckets(rows, upto, scale):
    """The rows of length <= upto grouped by P, row by row.

    The package's bucketing before it grouped each verdict's rows once,
    kept as written then: {P: (P, label, rows sorted by (H, key))} in
    order of first appearance, label the decimal string of P / scale.
    """
    buckets = {}
    for length in range(upto + 1):
        for row in rows[length]:
            P = row[2]
            bucket = buckets.get(P)
            if bucket is None:
                buckets[P] = (P, str(Fraction(P, scale)), [row])
            else:
                bucket[2].append(row)
    for _, _, entries in buckets.values():
        entries.sort()
    return buckets


def oracle_bucket_pairs(buckets):
    """Every ordered cross-bucket pair, sorted by (float |p - 1|, label_i, label_j).

    The package's pair order before it was built lazily, kept as written
    then, so the lazy merge must yield the same (num, den, (P_i, rows_i),
    (P_j, rows_j)) tuples in the same order.
    """
    pairs = []
    for p_i, label_i, ents_i in buckets.values():
        for p_j, label_j, ents_j in buckets.values():
            if ents_i is ents_j:
                continue
            num, den = abs(p_i - p_j), abs(p_j)
            pairs.append((num / den, label_i, label_j, num, den,
                          (p_i, ents_i), (p_j, ents_j)))
    pairs.sort()
    return [(num, den, bi, bj) for _, _, _, num, den, bi, bj in pairs]


def oracle_closure_bound(system, states):
    """Re-check a closed neighbour_graph in Fraction arithmetic; its bound.

    states are neighbour_graph's (pn, hn, den) triples, each the map
    x -> (pn x + hn)/den.  Checks that each is in lowest terms with
    den > 0, that its image of [a, b] meets [a, b], and that every start
    S_i^-1 S_j (i != j) and every child is a state or has an image that
    misses [a, b].  A state with |p| <= 1 has the children S_k^-1 g,
    any other g S_k.  Returns min(1 - max |p_k|, the least oracle_dev_1d
    of a non-identity state).
    """
    a, b = system.interval
    gens = [(g.p, g.h) for g in system.maps]
    maps = set()
    for pn, hn, den in states:
        assert den > 0 and math.gcd(pn, hn, den) == 1
        maps.add((Fraction(pn, den), Fraction(hn, den)))
    assert len(maps) == len(states)

    def misses(p, h):
        ends = (p * a + h, p * b + h)
        return max(ends) < a or min(ends) > b

    children = [((pj / pi, (hj - hi) / pi)) for i, (pi, hi) in enumerate(gens)
                for j, (pj, hj) in enumerate(gens) if i != j]
    for p, h in maps:
        assert not misses(p, h)
        if abs(p) <= 1:
            children += [(p / pk, (h - hk) / pk) for pk, hk in gens]
        else:
            children += [(p * pk, p * hk + h) for pk, hk in gens]
    for child in children:
        assert child in maps or misses(*child)
    devs = [oracle_dev_1d(p, h, (a, b)) for p, h in maps if (p, h) != (1, 0)]
    return min([1 - max(abs(p) for p, _ in gens)] + devs)


def float_twin(system):
    """The same system with every coefficient converted to float."""
    return IfsSystem(
        tuple(Affine2(*(float(c) for c in (g.p, g.q, g.r, g.h, g.s)))
              for g in system.maps),
        tuple(float(v) for v in system.interval),
    )


# (p, q) of a map that is no contraction, and the NotContractiveError
# message naming it as map 2 of not_contractive_system, exact and float
NOT_CONTRACTIVE = {
    "p-two": ((Fraction(2), Fraction(1, 2)),
              ("map 2: |p| = 2 is not < 1", "map 2: |p| = 2.0 is not < 1")),
    "p-minus-one": ((Fraction(-1), Fraction(1, 2)),
                    ("map 2: |p| = 1 is not < 1", "map 2: |p| = 1.0 is not < 1")),
    "p-zero": ((Fraction(0), Fraction(1, 2)), ("map 2: p = 0", "map 2: p = 0")),
    "q-minus-one": ((Fraction(1, 2), Fraction(-1)),
                    ("map 2: |q| = 1 is not < 1", "map 2: |q| = 1.0 is not < 1")),
    "q-one": ((Fraction(1, 2), Fraction(1)),
              ("map 2: |q| = 1 is not < 1", "map 2: |q| = 1.0 is not < 1")),
}


def not_contractive_system(p, q):
    """map 1/2 1/2 0 0 0 beside map p q 0 1/2 0 on [0, 1]."""
    half = Fraction(1, 2)
    return IfsSystem((Affine2(half, half, Fraction(0), Fraction(0), Fraction(0)),
                      Affine2(p, q, Fraction(0), half, Fraction(0))),
                     (Fraction(0), Fraction(1)))


# ---------- random exact generators ----------

_RATIO_POOL = [Fraction(n, d) for d in (2, 3, 4, 5) for n in range(1, d)]
_Q_POOL = [sign * v for v in _RATIO_POOL for sign in (1, -1)]


def random_two_map_system(rng):
    """Exact two-map system whose strips cover [0, 1]."""
    while True:
        w1, w2 = rng.choice(_RATIO_POOL), rng.choice(_RATIO_POOL)
        if w1 + w2 >= 1:
            break
    sgn1, sgn2 = rng.choice((1, -1)), rng.choice((1, -1))
    h1 = Fraction(0) if sgn1 > 0 else w1
    h2 = (1 - w2) if sgn2 > 0 else Fraction(1)
    maps = []
    for p, h in ((sgn1 * w1, h1), (sgn2 * w2, h2)):
        q = rng.choice(_Q_POOL)
        r = Fraction(rng.randrange(-2, 3), rng.randrange(1, 5))
        s = Fraction(rng.randrange(-2, 3), rng.randrange(1, 5))
        maps.append(Affine2(p, q, r, h, s))
    return IfsSystem(tuple(maps), (Fraction(0), Fraction(1)))


def random_overlapping_system(rng):
    """Like random_two_map_system but with a positive-width overlap."""
    while True:
        system = random_two_map_system(rng)
        p1, p2 = (g.p for g in system.maps)
        if abs(p1) + abs(p2) > 1:
            return system


def random_quadratic_system(rng):
    """(system, (A, B, C)): a random_two_map_system's strips with maps
    chosen to keep y = Ax^2 + Bx + C, A != 0: q = p^2,
    r = 2phA - (q - p)B and s = hB + h^2 A - (q - 1)C."""
    A = rng.choice((1, -1, 2, -3)) * Fraction(1, rng.choice((1, 2, 3, 5)))
    B = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
    C = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 4)))
    maps = []
    for g in random_two_map_system(rng).maps:
        p, h = g.p, g.h
        q = p * p
        maps.append(Affine2(p, q, 2 * p * h * A - (q - p) * B, h,
                            h * B + h * h * A - (q - 1) * C))
    return IfsSystem(tuple(maps), (Fraction(0), Fraction(1))), (A, B, C)


def random_line_system(rng):
    """(system, (0, B, C)): a random_two_map_system's strips with maps
    chosen to keep the line y = Bx + C: a free q != 0,
    r = -(q - p)B and s = hB - (q - 1)C.  About one system in four has
    both end maps orientation-reversing, so its end anchors are inexact."""
    B = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
    C = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 4)))
    maps = []
    for g in random_two_map_system(rng).maps:
        p, h, q = g.p, g.h, rng.choice(_Q_POOL)
        maps.append(Affine2(p, q, -(q - p) * B, h, h * B - (q - 1) * C))
    return IfsSystem(tuple(maps), (Fraction(0), Fraction(1))), (0, B, C)


def random_lattice_system(rng):
    """Exact system of finite type: two or three maps whose ratios are
    +-1/b^k (b in {2, 3}, one b per system, k in {1, 2}) and whose strips
    lie inside [0, 1] with left ends on the 1/b^2 grid."""
    base = rng.choice((2, 3))
    maps = []
    for _ in range(rng.choice((2, 3))):
        width = Fraction(1, base ** rng.choice((1, 2)))
        left = Fraction(rng.randrange(base * base - int(width * base * base) + 1),
                        base * base)
        p, h = rng.choice(((width, left), (-width, left + width)))
        maps.append(Affine2(p, rng.choice(_Q_POOL), Fraction(0), h, Fraction(0)))
    return IfsSystem(tuple(maps), (Fraction(0), Fraction(1)))


_NEAR_ONE = [1 + Fraction(k, 64) for k in range(-6, 7) if k != 0]


def confined_near_identity(rng, case):
    """Map whose orbit of (0,0) marches across [0,1] in >= 50 steps.

    For p != 1 the step h = (p-1)/(p^50-1) puts the 50th iterate
    exactly on 1 and the projected fixed point strictly outside [0,1];
    for p = 1 the step 1/n with n in [55,90] stays short of 1 for 50
    steps.  Keeps iterates confined, so curve evaluation is
    well-conditioned.
    """
    one = Fraction(1)
    if case == "Parabola":
        p = q = one
    elif case == "ExpLinear":
        p, q = one, rng.choice(_NEAR_ONE)
    elif case == "LogLinear":
        p, q = rng.choice(_NEAR_ONE), one
    elif case == "PowerLinear":
        p = rng.choice(_NEAR_ONE)
        q = rng.choice([v for v in _NEAR_ONE if v != p])
    elif case == "XLogX":
        p = q = rng.choice(_NEAR_ONE)
    else:
        raise ValueError(case)
    if p == 1:
        h = Fraction(1, rng.randrange(55, 91))
    else:
        h = (p - 1) / (p ** 50 - 1)
    r = Fraction(rng.randrange(-8, 9), 16)
    s = Fraction(rng.randrange(-8, 9), 16)
    return Affine2(p, q, r, h, s)


@pytest.fixture
def rng():
    return random.Random(987654321)


@pytest.fixture
def cold_caches():
    """An empty sample cache (samples and moduli) before and after the test."""
    attractor._SAMPLES.clear()
    yield
    attractor._SAMPLES.clear()
