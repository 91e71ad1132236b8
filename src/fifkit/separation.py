"""Associated family enumeration and bounded-depth weak-separation search.

The associated family consists of all maps g = G_j^{-1} G_i where G_w
runs over compositions of the generators.  Weak separation asks whether
the identity is isolated in that family.  This module computes, per
depth d, the smallest deviation-from-identity over all non-identity
elements with |i|, |j| <= d (empty word included), exactly in rational
mode.

Every word of length <= N, the scan depth, is composed once and stored
as a row of its planar coefficients (P, Q, R, H, S).  In exact mode the
row holds Python ints scaled by D^N, where D is the lcm of the
generators' coefficient denominators: a length-L composite has
denominators dividing D^L, so the scaling is exact, and every quantity
the scans need is a ratio of integer polynomials in two rows.  Float
systems run the same code on float rows at scale 1, with buckets keyed
on a 1e-12 quantum.

The scan never materializes the quadratic set of word pairs.  Words are
bucketed by P; inside a bucket every pair has p = 1 and the minimum
reduces to a sorted-adjacency sweep over the H values; across buckets
the pair's p = P_i/P_j is a constant, so |p - 1| prunes whole bucket
pairs and a translation window bounds the H candidates worth measuring.
Bucket pairs come cheapest |p - 1| first from a lazy merge: with the
buckets sorted by P, |P_i - P_j| grows as i walks away from j, so a heap
over each bucket's two walks yields the pairs in order while building
only those the scan pulls before |p - 1| stops it.
Whether a pair beats the current best is decided by cross-multiplying
integers against a cap derived from the best, in the filter-then-certify
manner of adaptive predicates; a Fraction is built only for a pair that
does beat it.  The planar scan reads G_j^-1 G_i off the two rows in
closed form instead of composing words.
"""

import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .affine import Affine1, Affine2, Word, compose, compose_word, invert, projection
from .attractor import evaluate_f, sample_attractor
from .errors import DepthTooLargeError, OutOfDomainError
from .scalars import Scalar, common_denominator, to_float
from .systems import IfsSystem

DEFAULT_WORD_BUDGET = 2_000_000

# cap on reported coincidence pairs (the count itself is complete)
_COINCIDENCE_SAMPLE = 16
# tracemalloc bytes per stored word row besides the letters of its word
# (8 B each) and the digits of its five ints: a list slot, the row and
# word tuples, five int headers, and freed temporaries the allocator
# keeps.  Rows measured at 357 B on four-piece depth 7 and 427 B on
# mixed depth 14 are sized at 366 B and 462 B
_ROW_BYTES = 290


class CollinearAttractorWarning(UserWarning):
    """The attractor looks like a straight line segment; the planar
    verdict adds nothing over the projected one in that case."""


@dataclass(frozen=True)
class FamilyElement:
    """One associated-family member g = G_j^{-1} G_i with its projection."""

    j_word: Word
    i_word: Word
    map2: Affine2
    map1: Affine1

    @classmethod
    def from_words(cls, system: IfsSystem, j_word, i_word) -> "FamilyElement":
        gj = compose_word(system.maps, j_word)
        gi = compose_word(system.maps, i_word)
        g2 = compose(invert(gj), gi)
        return cls(tuple(j_word), tuple(i_word), g2, projection(g2))


@dataclass(frozen=True)
class WspVerdict:
    """Outcome of a bounded-depth separation search.

    gap_by_depth lists (d, delta*(d)) for d = 2..depth; witnesses is the
    subsequence of per-depth minimizers at which delta* strictly drops,
    so its deviations strictly decrease.  Exact identities realized by
    distinct word pairs are coincidences, counted apart and never
    eligible as witnesses.
    """

    status: str  # "NoWitnessUpToDepth" | "WitnessFound"
    mode: str  # "1d" | "2d"
    depth: int
    tol: float
    gap_by_depth: tuple[tuple[int, Scalar], ...]
    witnesses: tuple[FamilyElement, ...]
    witness_deviations: tuple[Scalar, ...]
    coincidences: tuple[tuple[Word, Word], ...]
    coincidence_count: int
    exact: bool

    @property
    def delta_star(self) -> Scalar:
        return self.gap_by_depth[-1][1]


def deviation_1d(g: Affine1, interval) -> Scalar:
    """max(|p - 1|, normalized endpoint displacement).

    The displacement term is sup over [a, b] of |g(x) - x| / (b - a);
    for an affine g the sup sits at an endpoint.  Both terms are
    invariant under conjugating by any x -> lam*x + mu, which keeps
    verdicts stable under interval rescaling.
    """
    a, b = interval
    disp = max(abs(g(a) - a), abs(g(b) - b))
    return max(abs(g.p - 1), disp / (b - a))


def deviation_2d(g: Affine2, interval, ybox) -> Scalar:
    """Planar deviation over the bounding box [a,b] x ybox.

    max of |p - 1|, |q - 1|, the normalized horizontal displacement at
    the interval endpoints, and the normalized vertical displacement
    |(q - 1) y + r x + s| over the four box corners.  Dominates the
    projected deviation, which is what lets the planar scan reuse the
    projected windows for pruning.
    """
    a, b = interval
    w = b - a
    ymin, ymax = ybox
    hh = ymax - ymin
    if hh == 0:
        hh = w
    dx = max(abs(g.p * a + g.h - a), abs(g.p * b + g.h - b))
    dy = max(
        abs((g.q - 1) * y + g.r * x + g.s)
        for x in (a, b)
        for y in (ymin, ymax)
    )
    return max(abs(g.p - 1), abs(g.q - 1), dx / w, dy / hh)


def attractor_ybox(system: IfsSystem):
    """Vertical range of a moderate-depth attractor sample.

    Used to normalize planar deviations; exact in rational mode.  The
    depth is the deepest in 3..8 whose sample fits 4096 points (3 when
    none does), and the sample comes from the sampler's cache.
    """
    m = len(system)
    depth = 3
    while (m ** (depth + 1)) * (m + 2) <= 4096 and depth < 8:
        depth += 1
    sample = sample_attractor(system, depth)
    ys = [y for _, y in sample.numerators]
    lo, hi = min(ys), max(ys)
    if sample.exact:
        return Fraction(lo, sample.den), Fraction(hi, sample.den)
    return lo, hi


def _is_collinear(system: IfsSystem) -> bool:
    # exact: cross products scaled by den^2, tolerance 0; float: relative
    pts = sample_attractor(system, 3).numerators
    (x0, y0) = pts[0]
    (x1, y1) = pts[-1]
    ys = [y for _, y in pts]
    tol = 0 if system.exact else 1e-12 * (x1 - x0) * (max(ys) - min(ys))
    for (x, y) in pts:
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        if abs(cross) > tol:
            return False
    return True


def _word_rows(system: IfsSystem, depth: int, budget: int):
    """All words of length <= depth with their planar coefficients.

    Returns (rows, scale).  rows is indexed by length; each entry is a
    list of (H, word, P, Q, R, S) tuples holding the composite's
    coefficients times scale = D^depth, as ints in exact mode.  Floats
    keep scale 1.  Total word count (m^(depth+1) - 1)/(m - 1) must stay
    within budget.
    """
    m = len(system)
    total = sum(m ** k for k in range(depth + 1))
    D, gens = system._scaled_maps
    if total > budget:
        # every coefficient is about as wide as the scale D^depth
        digits = -(-(D ** depth).bit_length() // sys.int_info.bits_per_digit)
        row = _ROW_BYTES + 8 * depth + 5 * sys.int_info.sizeof_digit * digits
        raise DepthTooLargeError(
            f"{total} words at depth {depth} exceeds budget {budget} "
            f"(about {total * row / 1e6:,.1f} MB of word rows)"
        )
    one, zero = (1, 0) if system.exact else (1.0, 0.0)
    # level L holds its composites times D^L; composing with a generator
    # (scaled by D) raises the scale to D^(L+1)
    rows = [[(zero, (), one, one, zero, zero)]]
    for _ in range(depth):
        nxt = []
        for H, word, P, Q, R, S in rows[-1]:
            for k, (p, q, r, h, s) in enumerate(gens, start=1):
                nxt.append((P * h + H * D, word + (k,), P * p, Q * q,
                            Q * r + R * p, Q * s + R * h + S * D))
        rows.append(nxt)
    for length in range(depth):
        f = D ** (depth - length)
        if f != 1:
            rows[length] = [(H * f, word, P * f, Q * f, R * f, S * f)
                            for H, word, P, Q, R, S in rows[length]]
    return rows, D ** depth


def _quantize(x, exact):
    return x if exact else round(to_float(x) / 1e-12)


def _nd(x):
    """x as (numerator, denominator); a float is (x, 1)."""
    return (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)


def _ratio(num, den, exact):
    return Fraction(num, den) if exact else num / den


def _buckets(rows, upto, scale, exact):
    """Group the rows of length <= upto by linear coefficient P.

    Returns {P_key: (P, label, rows sorted by exact (H, word))}, in order
    of first appearance; label is the decimal string of the unscaled P
    (of the quantized key for floats) and breaks ties between bucket
    pairs.
    """
    buckets = {}
    for length in range(upto + 1):
        for row in rows[length]:
            P = row[2]
            key = _quantize(P, exact)
            bucket = buckets.get(key)
            if bucket is None:
                label = str(Fraction(P, scale)) if exact else str(key)
                buckets[key] = (P, label, [row])
            else:
                bucket[2].append(row)
    for _, _, entries in buckets.values():
        entries.sort()
    return buckets


def _bucket_pairs(buckets, exact):
    """Ordered cross-bucket pairs, cheapest |p - 1| first, built lazily.

    Yields (num, den, (P_i, rows_i), (P_j, rows_j)) with
    |p - 1| = num/den for p = P_i/P_j.  With the buckets sorted by P,
    each j has two walks, the i below and the i above it walking away
    from j, along which num grows; a heap holds each walk's next pair
    and merges the walks, so setup costs one pair per walk and each pair
    pulled O(log B) more.

    Pairs are keyed on (float |p - 1|, exact key, label_i, label_j).
    In exact mode the key is floor(|p - 1| 2^k), with 2^k above every
    product of two |P|: distinct values of |p - 1| get distinct keys and
    equal values equal ones, so pairs come out by exact |p - 1|, then
    labels, and the float decides almost every comparison.  Float
    systems keep the float as their only key; two pairs of one walk
    whose float |p - 1| are equal keep walk order.
    """
    import heapq  # here, not at the top: it adds 33 KB to every import

    order = sorted(buckets.values(), key=lambda bucket: bucket[0])
    if exact:
        k = 2 * max(abs(p).bit_length() for p, _, _ in order) + 1

    def walk(i, j, step):
        p_i, label_i, ents_i = order[i]
        p_j, label_j, ents_j = order[j]
        num, den = abs(p_i - p_j), abs(p_j)
        f = num / den
        return (f, (num << k) // den if exact else f, label_i, label_j,
                (num, den, (p_i, ents_i), (p_j, ents_j)), i, j, step)

    heap = [walk(j + step, j, step) for j in range(len(order))
            for step in (-1, 1) if 0 <= j + step < len(order)]
    heapq.heapify(heap)
    while heap:
        *_, pair, i, j, step = heap[0]
        yield pair
        if 0 <= i + step < len(order):
            heapq.heapreplace(heap, walk(i + step, j, step))
        else:
            heapq.heappop(heap)


class _Window:
    """Translation window of one cross-bucket pair.

    For p = P_i/P_j and h = (H_i - H_j)/P_j the normalized displacement
    of x -> p x + h over [a, b] is (|h - h0| + gamma)/w with
    h0 = -(p - 1)(a + b)/2 and gamma = |p - 1| w/2.  In row units the
    offset E = (H_i - H_j) cd + shift, shift = (P_i - P_j) cn, with
    (a + b)/2 = cn/cd, equals cd |P_j| (h - h0); the displacement is
    (2 wd |E| + gamma') / den with gamma' = cd wn |P_i - P_j|,
    den = 2 cd wn |P_j| and w = wn/wd.  E orders H_i against the
    shifted H_j list, whose order is that of H_j.
    """

    def __init__(self, mid, width, p_i, p_j):
        cn, self.cd = mid
        wn, self.wd = width
        d_p = p_i - p_j
        self.shift = d_p * cn
        self.gamma = self.cd * wn * abs(d_p)
        self.den = 2 * self.cd * wn * abs(p_j)

    def cap(self, best):
        """(mul, lim): the displacement is below best iff |E| mul < lim."""
        bn, bd = _nd(best)
        return 2 * self.wd * bd, bn * self.den - self.gamma * bd

    def displacement(self, e, exact):
        return _ratio(2 * self.wd * abs(e) + self.gamma, self.den, exact)


def _scan_1d(buckets, interval, exact):
    """delta*(at this word set) with its minimizing pair and coincidences.

    Returns (best, coincidence_pairs, count) with
    best = (dev, j_word, i_word) or None.
    """
    a, b = interval
    mid, width = _nd((a + b) / 2), _nd(b - a)
    wn, wd = width
    best = None
    bn = bd = None
    coinc = []
    coinc_count = 0

    # same-bucket pairs have p = 1 exactly: dev = |dH| / (|P| (b-a));
    # equal H means an exact identity, a coincidence
    for p_val, _, entries in buckets.values():
        den = abs(p_val) * wn
        run = 0
        for e1, e2 in zip(entries, entries[1:]):
            if e1[0] == e2[0]:
                run += 1
                coinc_count += run
                if len(coinc) < _COINCIDENCE_SAMPLE:
                    coinc.append((e1[1], e2[1]))
                continue
            run = 0
            num = abs(e2[0] - e1[0]) * wd
            if best is None or num * bd < bn * den:
                best = (_ratio(num, den, exact), e1[1], e2[1])
                bn, bd = _nd(best[0])

    for num, den, (p_i, ents_i), (p_j, ents_j) in _bucket_pairs(buckets, exact):
        if best is not None and num * bd >= bn * den:
            break
        win = _Window(mid, width, p_i, p_j)
        cd, shift = win.cd, win.shift
        if best is not None:
            mul, lim = win.cap(best[0])
        # dev = max(|p-1|, displacement): minimize |E| by the classic
        # two-pointer min-difference walk over both sorted H lists
        ii, jj, n_i, n_j = 0, 0, len(ents_i), len(ents_j)
        while ii < n_i and jj < n_j:
            ei, ej = ents_i[ii], ents_j[jj]
            e = (ei[0] - ej[0]) * cd + shift
            if best is None or abs(e) * mul < lim:
                disp = win.displacement(e, exact)
                bound = _ratio(num, den, exact)
                best = (max(bound, disp), ej[1], ei[1])
                bn, bd = _nd(best[0])
                if num * bd >= bn * den:
                    break  # nothing in this pair can beat |p - 1| itself
                mul, lim = win.cap(best[0])
            if e < 0:
                ii += 1
            else:
                jj += 1
    return best, coinc, coinc_count


def _verdict(system, depth, tol, mode, scan):
    """The WspVerdict of scan(d) -> (best, coincidence_pairs, count).

    Runs d = 2..depth; the witnesses are the per-depth minimizers where
    delta* strictly drops, and the coincidences are those at full depth.
    """
    gap, wits, devs = [], [], []
    coinc, coinc_count = (), 0
    for d in range(2, depth + 1):
        best, c_pairs, c_count = scan(d)
        if best is None:
            continue
        dev, jw, iw = best
        gap.append((d, dev))
        if not devs or dev < devs[-1]:
            wits.append(FamilyElement.from_words(system, jw, iw))
            devs.append(dev)
        if d == depth:
            coinc, coinc_count = tuple(c_pairs), c_count
    found = bool(gap) and to_float(gap[-1][1]) < tol
    return WspVerdict(
        status="WitnessFound" if found else "NoWitnessUpToDepth",
        mode=mode,
        depth=depth,
        tol=tol,
        gap_by_depth=tuple(gap),
        witnesses=tuple(wits),
        witness_deviations=tuple(devs),
        coincidences=coinc,
        coincidence_count=coinc_count,
        exact=system.exact,
    )


def wsp_check_1d(system: IfsSystem, depth: int, tol: float,
                 budget: int = DEFAULT_WORD_BUDGET) -> WspVerdict:
    """Bounded-depth separation verdict for the projected system.

    Computes delta*(d) for d = 2..depth over all pairs |i|, |j| <= d,
    empty word included.  WitnessFound when delta*(depth) < tol; the
    witnesses are the strictly-improving per-depth minimizers.  Exact
    identities from distinct words are reported as coincidences only.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    rows, scale = _word_rows(system, depth, budget)
    exact, interval = system.exact, system.interval
    return _verdict(system, depth, tol, "1d", lambda d: _scan_1d(
        _buckets(rows, d, scale, exact), interval, exact))


def _planar_deviation(interval, ybox, exact):
    """dev(row_j, row_i, best): deviation_2d of G_j^-1 G_i from two rows.

    Returns the deviation when it is nonzero and below best (any nonzero
    value when best is None), else None.  With rows scaled by a common
    factor, G_j^-1 G_i has p = Pi/Pj, q = Qi/Qj,
    r = (Ri Pj - Rj Pi)/(Pj Qj), h = (Hi - Hj)/Pj and
    s = ((Si - Sj) Pj - Rj (Hi - Hj))/(Pj Qj).  Every term is compared
    to best by cross-multiplication, on the box corners brought to a
    common denominator M.  Float corners stay floats over M = 1, like the
    float rows: a corner near 1e-300 would put M past the float range.
    """
    corners = (*interval, *ybox)
    corners, M = common_denominator(corners) if exact else (corners, 1)
    xs, ys = corners[:2], corners[2:]
    w = xs[1] - xs[0]
    hh = (ys[1] - ys[0]) or w

    def dev(rj, ri, best):
        Hj, _, Pj, Qj, Rj, Sj = rj
        Hi, _, Pi, Qi, Ri, Si = ri
        d_p, d_q, d_h = Pi - Pj, Qi - Qj, Hi - Hj
        alpha, beta = d_q * Pj, Ri * Pj - Rj * Pi
        gamma = ((Si - Sj) * Pj - Rj * d_h) * M
        terms = (
            (abs(d_p), abs(Pj)),
            (abs(d_q), abs(Qj)),
            (max(abs(d_p * x + d_h * M) for x in xs), abs(Pj) * w),
            (max(abs(alpha * y + beta * x + gamma) for x in xs for y in ys),
             abs(Pj * Qj) * hh),
        )
        if best is not None:
            bn, bd = _nd(best)
            if any(num * bd >= bn * den for num, den in terms):
                return None
        if not any(num for num, _ in terms):
            return None
        return max(_ratio(num, den, exact) for num, den in terms)

    return dev


def _scan_2d(rows, upto, scale, interval, exact, dev2):
    """delta_2*(at depth upto) by pruning through the projected windows.

    Every candidate pair must satisfy projected deviation < current
    planar best (the planar metric dominates the projected one), so the
    same bucket geometry applies; surviving pairs are measured with
    dev2 from their rows.  Returns (best, coincidences, count) with
    best = (dev2, j_word, i_word).
    """
    a, b = interval
    mid, width = _nd((a + b) / 2), _nd(b - a)
    wn, wd = width
    buckets = _buckets(rows, upto, scale, exact)

    # seed: generators against the empty word, both directions
    best = None
    empty = rows[0][0]
    for gen in rows[1]:
        for rj, ri in ((empty, gen), (gen, empty)):
            dev = dev2(rj, ri, None if best is None else best[0])
            if dev is not None:
                best = (dev, rj[1], ri[1])

    coinc = []
    coinc_count = 0

    # same (P, H) groups: projected identity; subgroups of equal planar
    # key are planar identities, and pairs across subgroups are measured
    # once, on the subgroups' first rows
    for _, _, entries in buckets.values():
        k = 0
        while k < len(entries):
            k2 = k + 1
            while k2 < len(entries) and entries[k2][0] == entries[k][0]:
                k2 += 1
            group = entries[k:k2]
            k = k2
            if len(group) < 2:
                continue
            keys = [tuple(_quantize(c, exact) for c in row[2:]) for row in group]
            members = {}
            for row, key in zip(group, keys):
                members.setdefault(key, []).append(row)
            coinc_count += sum(n * (n - 1) // 2 for n in map(len, members.values()))
            # report the pairs u < v of equal key in (u, v) order
            rank = {}
            for row, key in zip(group, keys):
                room = _COINCIDENCE_SAMPLE - len(coinc)
                if room == 0:
                    break
                r = rank[key] = rank.get(key, 0) + 1
                for other in members[key][r:r + room]:
                    coinc.append((row[1], other[1]))
            firsts = [rows_[0] for rows_ in members.values()]
            for rj in firsts:
                for ri in firsts:
                    if rj is not ri:
                        dev = dev2(rj, ri, best[0])
                        if dev is not None:
                            best = (dev, rj[1], ri[1])

    # same-bucket, distinct H: p = 1, projected dev = |dH|/(|P| w) < best
    for p_val, _, entries in buckets.values():
        den = abs(p_val) * wn
        for u, ru in enumerate(entries):
            for v in range(u + 1, len(entries)):
                rv = entries[v]
                if rv[0] == ru[0]:
                    continue
                bn, bd = _nd(best[0])
                if abs(rv[0] - ru[0]) * wd * bd >= bn * den:
                    break
                for rj, ri in ((ru, rv), (rv, ru)):
                    dev = dev2(rj, ri, best[0])
                    if dev is not None:
                        best = (dev, rj[1], ri[1])

    # cross-bucket pairs, pruned by |p - 1| then by the projected window:
    # every pair with displacement below best must be measured, so walk
    # the whole band of shifted H_j values around each H_i
    for num, den, (p_i, ents_i), (p_j, ents_j) in _bucket_pairs(buckets, exact):
        bn, bd = _nd(best[0])
        if num * bd >= bn * den:
            break
        win = _Window(mid, width, p_i, p_j)
        cd, shift = win.cd, win.shift
        mul, lim = win.cap(best[0])
        jj, n_j = 0, len(ents_j)
        for ri in ents_i:
            hi = ri[0]
            while jj < n_j and (hi - ents_j[jj][0]) * cd + shift > 0:
                jj += 1
            for band in (range(jj - 1, -1, -1), range(jj, n_j)):
                for idx in band:
                    rj = ents_j[idx]
                    if abs((hi - rj[0]) * cd + shift) * mul >= lim:
                        break
                    dev = dev2(rj, ri, best[0])
                    if dev is not None:
                        best = (dev, rj[1], ri[1])
                        mul, lim = win.cap(best[0])
    return best, coinc, coinc_count


def wsp_check_2d(system: IfsSystem, depth: int, tol: float,
                 budget: int = DEFAULT_WORD_BUDGET) -> WspVerdict:
    """Bounded-depth separation verdict for the planar system.

    Same search space as wsp_check_1d with the planar deviation metric;
    a separation failure upstairs forces one downstairs and vice versa
    at matched depth, which the shared word pairs make checkable.
    Warns when the attractor is a straight line segment (the planar
    verdict then carries no extra information).
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if _is_collinear(system):
        warnings.warn(
            "attractor sample is collinear; planar verdict adds nothing",
            CollinearAttractorWarning,
        )
    rows, scale = _word_rows(system, depth, budget)
    exact, interval = system.exact, system.interval
    dev2 = _planar_deviation(interval, attractor_ybox(system), exact)
    return _verdict(system, depth, tol, "2d", lambda d: _scan_2d(
        rows, d, scale, interval, exact, dev2))


def graph_transport_check(system: IfsSystem, element, x: Scalar,
                          tol: float = 1e-9) -> bool:
    """Does the planar element carry (x, f(x)) to (x', f(x'))?

    x' is the projected image of x.  Both sides are computed through
    evaluate_f at tol/8; the check passes when the planar image agrees
    with the transported graph point within tol in the max norm.
    element may be a FamilyElement or a raw planar map.
    """
    if isinstance(element, FamilyElement):
        map2, map1 = element.map2, element.map1
    else:
        map2, map1 = element, projection(element)
    a, b = system.interval
    if not (a <= x <= b):
        raise OutOfDomainError(f"x = {x} outside [{a}, {b}]")
    x2 = map1(x)
    if not (a <= x2 <= b):
        raise OutOfDomainError(f"image {x2} of x = {x} leaves [{a}, {b}]")
    fx = evaluate_f(system, x, tol / 8)
    gx, gy = map2((x, fx))
    fy = evaluate_f(system, x2, tol / 8)
    return max(to_float(abs(gx - x2)), to_float(abs(gy - fy))) <= tol
