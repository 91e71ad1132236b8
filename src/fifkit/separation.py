"""Associated family enumeration and bounded-depth weak-separation search.

The associated family consists of all maps g = G_j^{-1} G_i where G_w
runs over compositions of the generators.  Weak separation asks whether
the identity is isolated in that family.  This module computes, per
depth d, the smallest deviation-from-identity over all non-identity
elements with |i|, |j| <= d (empty word included).

Every word of length <= N, the scan depth, is composed once and stored
as a row in the format of _Rows: ints scaled by D^N, D the lcm of the
generators' coefficient denominators, so every quantity the scans need
is a ratio of integer polynomials in two rows.  The planar check of an
exact system whose generators all keep one parabola scans projected
rows, since (P, H) then fixes Q, R and S (see planar.py).
Floats enter as their exact dyadic values (55 bits wider a level on the
bundled systems) and run the same scan; rows within a proven radius for
input rounding are coincidences (see _Rows), and deviations are
reported as floats.

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
does beat it.  The projected scan filters one step earlier: it
compares the difference of two packed rows, which fixes H_i - H_j to
within one, against thresholds widened by _Rows.widen, and decodes H
only for a pair within one of a decision.  The planar scan (planar.py)
reads G_j^-1 G_i off the two rows in closed form instead of composing
words, and drops a bucket pair whose Q ranges keep every |q - 1| at or
above the best.

delta*(d) never rises with d, so a scan starts from a known bound: the
full depth N is scanned right after depth 2, and each shallower depth
from delta*(d-1) down to delta*(N), with a flat tail left unscanned.
Such a seeded scan measures only pairs with a row in a bucket that
gained rows at depth d: any other pair was there at d-1, at or above
delta*(d-1), and a scan keeps only a pair that beats its best.

A projected system of finite type also has a floor that holds at every
depth: the bound of a closed neighbours.neighbour_graph, proven there.
wsp_check_1d floors its depth-2 and full-depth scans at it, so the
cross-bucket phase stops at its first bucket pair once the best reaches
it, and everything the verdict reports is as without the floor.
"""

import math
import sys
import warnings
from dataclasses import astuple, dataclass
from fractions import Fraction

from .affine import Affine1, Affine2, Word, compose, invert, projection
from .attractor import evaluate_f, sample_attractor
from .errors import (DepthTooLargeError, IndexOutOfRangeError, NotCertifiableError,
                     OutOfDomainError, RoundingAmbiguityError, SingularMapError)
from .scalars import Scalar, common_denominator, to_float
from .systems import IfsSystem

DEFAULT_WORD_BUDGET = 2_000_000

# cap on reported coincidence pairs (the count itself is complete)
_COINCIDENCE_SAMPLE = 16


class CollinearAttractorWarning(UserWarning):
    """The attractor is a straight line segment (planar.invariant_quadratic
    finds A = 0, or a float system's attractor_ybox sample is collinear),
    so the planar verdict adds nothing over the projected one."""


@dataclass(frozen=True)
class FamilyElement:
    """One associated-family member g = G_j^{-1} G_i with its projection."""

    j_word: Word
    i_word: Word
    map2: Affine2
    map1: Affine1

    @classmethod
    def from_words(cls, system: IfsSystem, j_word, i_word) -> "FamilyElement":
        """G_j^-1 G_i: for an exact system from the words' folds at one
        scale by planar._planar_deviation's identities, for a float one
        by compose and invert."""
        j_word, i_word = tuple(j_word), tuple(i_word)
        if system.exact:
            D, n = system._scaled_maps[0], max(len(j_word), len(i_word))
            Pj, Qj, Rj, Hj, Sj = _composite(system, j_word, D ** (n - len(j_word)))
            if Pj == 0 or Qj == 0:
                raise SingularMapError("p == 0 or q == 0 has no inverse")
            Pi, Qi, Ri, Hi, Si = _composite(system, i_word, D ** (n - len(i_word)))
            d_h, den = Hi - Hj, Pj * Qj
            g2 = Affine2(Fraction(Pi, Pj), Fraction(Qi, Qj), Fraction(Ri * Pj - Rj * Pi, den),
                         Fraction(d_h, Pj), Fraction((Si - Sj) * Pj - Rj * d_h, den))
        else:  # an empty word's ints become Fractions, as in compose_word
            g2 = compose(invert(Affine2(*_composite(system, j_word))),
                         Affine2(*_composite(system, i_word)))
        return cls(j_word, i_word, g2, projection(g2))


def _composite(system: IfsSystem, word, start=1):
    """compose_word(system.maps, word)'s (p, q, r, h, s) times start D^len(word),
    folded over IfsSystem._scaled_maps.

    G_wk = G_w S_k on coefficients scaled by D^len(w): P' = P p,
    Q' = Q q, R' = Q r + R p, H' = P h + H D and S' = Q s + R h + S D,
    linear in (P, Q, R, H, S).  Ints for an exact system; a float system
    has D = 1 and does compose's float operations in compose's order.
    """
    D, gens = system._scaled_maps
    P, Q, R, H, S = start, start, 0, 0, 0
    for k in word:
        if not 1 <= k <= len(gens):
            raise IndexOutOfRangeError(f"index {k} outside 1..{len(gens)}")
        p, q, r, h, s = gens[k - 1]
        P, Q, R, H, S = P * p, Q * q, Q * r + R * p, P * h + H * D, Q * s + R * h + S * D
    return P, Q, R, H, S


@dataclass(frozen=True)
class WspVerdict:
    """Outcome of a bounded-depth separation search.

    gap_by_depth lists (d, delta*(d)) for d = 2..depth; witnesses is the
    subsequence of per-depth minimizers at which delta* strictly drops.
    Identities realized by distinct word pairs, up to input rounding in
    a float system (whose deviations are floats), are coincidences,
    counted apart and never eligible as witnesses.
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
    # the all-depth bound of a closed neighbour_graph that floored the
    # scans, None when none was proven; the closure states it kept, 0
    # when no closure was attempted
    certified_floor: Scalar | None = None
    closure_states: int = 0

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
    return _ybox_sample(system)[1]


def _ybox_sample(system: IfsSystem):
    # (sample, ybox) of attractor_ybox: the one sample a planar check reads
    m = len(system)
    depth = 3
    while (m ** (depth + 1)) * (m + 2) <= 4096 and depth < 8:
        depth += 1
    sample = sample_attractor(system, depth)
    lo, hi = sample.numerator_y_range()
    if sample.exact:
        return sample, (Fraction(lo, sample.den), Fraction(hi, sample.den))
    return sample, (lo, hi)


def _is_collinear(sample) -> bool:
    # a float sample on one line: cross products within 1e-12 (x1 - x0) max(y extent, max |y|)
    xs, ys = sample.numerator_columns()
    x0, y0, x1, y1 = xs[0], ys[0], xs[-1], ys[-1]
    tol = 1e-12 * (x1 - x0) * max(max(ys) - min(ys), max(map(abs, ys)))
    return all(abs((x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)) <= tol for x, y in zip(xs, ys))


class _Rows:
    """Every word of length <= depth as a row, grouped by P: the row format.

    A row stands for a word w by its key, sum of w_i (m+1)^(depth-i), so
    keys sort as the words do, a proper prefix first (word decodes one).
    It holds the composite's coefficients times scale = D^depth as ints
    (exact: a length-L composite's denominators divide D^L), floats at
    their exact values, less P, which its run and bucket share.  A
    planar row is the tuple (H, key, Q, R, S), a projected row the int
    (H << kb) + key, 2^kb above every key: it decodes by a shift and a
    mask even for negative H, ints sort as (H, key) does, and two rows
    differ by (H_i - H_j) 2^kb plus less than 2^kb, which fixes
    H_i - H_j to within one (see widen).

    runs is {P: (label, [(length, run), ...])} in order of first
    appearance, so by the length, then the smallest key, of P's first
    row; each run holds the rows of one length sorted by (H, key).
    label, the decimal string of the unscaled P, breaks ties between
    bucket pairs.  fresh[d] is the set of P with a run of length d.

    The scans read the rest off it too: mid and width, (a + b)/2 and
    b - a as integer ratios, and the radii of input rounding, 0 for an
    exact system.  By Higham's Lemma 3.1 (Accuracy and Stability of
    Numerical Algorithms, ch. 3) a float system's row, whose entries sum
    products of at most depth inputs rounded by u = 2^-53, is within g A of
    the intended one: g = depth u / (1 - depth u), A the row recurrence on
    the generators' largest |coefficient| per column.  Rows of equal
    intended composites are within 2 g A, rounded up in row units to t_h
    (H) and t_qrs (Q, R, S); their P within gamma_2depth = 2 g / (1 - g)
    relative, the slack.
    """

    # tracemalloc bytes per stored word row besides the digits of its ints,
    # for (projected, planar) rows.  A projected row is a list slot and one
    # int header, its run's share of list slack and P; a planar row a list
    # slot, the 5-tuple, the headers of its 5 ints (its run holds P), and
    # freed temporaries the allocator keeps.  Projected rows measured at 45
    # and 54 B on four-piece depth 7 and mixed depth 14 (93 and 142 B for
    # their float twins) are sized at 49 and 57 B (97 and 145 B); planar rows
    # measured at 249 and 272 B (426 and 633 B) at 260 and 292 B (452 and 660 B).
    # The 2d check of an exact system with an invariant parabola, such as
    # exact mixed, builds projected rows and states their size
    ROW_BYTES = (41, 240)

    def __init__(self, system, depth, budget, planar):
        """The rows of system's words, planar or projected; raises
        DepthTooLargeError, stating their size, when the
        (m^(depth+1) - 1)/(m - 1) words exceed budget."""
        self.m = m = len(system)
        self.depth, self.planar = depth, planar
        self.kb = kb = ((m + 1) ** depth).bit_length()
        self.mask = (1 << kb) - 1
        total = sum(m ** k for k in range(depth + 1))
        nums, D = common_denominator([c for g in system.maps for c in astuple(g)])
        gens = [nums[k:k + 5] for k in range(0, len(nums), 5)]
        self.scale = scale = D ** depth
        a, b = map(Fraction, system.interval)
        self.mid, self.width = ((a + b) / 2).as_integer_ratio(), (b - a).as_integer_ratio()
        self.slack, self.t_h, self.t_qrs = 0, 0, (0, 0, 0)
        if not system.exact:  # the rounding radii, as in the class docstring
            g = Fraction(depth, 2 ** 53 - depth)  # depth u / (1 - depth u), u = 2^-53
            p, q, r, h, s = (Fraction(max(map(abs, col)), D) for col in zip(*gens))
            H, P, Q, R, S, bound = 0, 1, 1, 0, 0, [0] * 4
            for _ in range(depth):
                H, P, Q, R, S = P * h + H, P * p, Q * q, Q * r + R * p, Q * s + R * h + S
                bound = [max(c0, c) for c0, c in zip(bound, (H, Q, R, S))]
            self.t_h, *t_qrs = (math.ceil(2 * g * c * scale) for c in bound)
            self.slack, self.t_qrs = 2 * g / (1 - g), tuple(t_qrs)
        if total > budget:
            # every coefficient is about as wide as the scale, and the
            # rows of a run share one P
            ints = [(m + 1) ** depth] + 4 * [scale] if planar else [scale << kb]
            digits = sum(-(-n.bit_length() // sys.int_info.bits_per_digit) for n in ints)
            row = self.ROW_BYTES[planar] + digits * sys.int_info.sizeof_digit
            raise DepthTooLargeError(
                f"{total} words at depth {depth} exceeds budget {budget} "
                f"(about {total * row / 1e6:,.1f} MB of word rows)"
            )
        root = (0, 0, scale, 0, 0) if planar else 0
        self.runs = runs = {scale: ("1", [(0, [root])])}
        level = {scale: [root]}
        self.fresh = [set(level)]
        for length in range(1, depth + 1):
            # a child run is its parent run with H shifted by c = P_w h_k
            # (a packed run by one int), in the parent's order.  A level
            # is in order of smallest key, so walking it letter by letter
            # meets each new P at its smallest key first
            step = (m + 1) ** (depth - length)
            kids = {}
            for P, run in level.items():
                Pd = P // D  # exact: P holds a word shorter than depth
                if planar:
                    parent = [(H, key, Q // D, R // D, S) for H, key, Q, R, S in run]
                for k, (p, q, r, h, s) in enumerate(gens, start=1):
                    c, dk, P2 = Pd * h, k * step, Pd * p
                    if planar:
                        kid = [(H + c, key + dk, Q * q, Q * r + R * p, Q * s + R * h + S)
                               for H, key, Q, R, S in parent]
                    else:
                        shift = (c << kb) + dk
                        kid = [row + shift for row in run]
                    kids.setdefault(P2, []).append(kid)
            level = {}
            for P, parts in kids.items():
                # the children of one P merge by one sort of presorted runs
                run = parts[0]
                if len(parts) > 1:
                    for part in parts[1:]:
                        run += part
                    run.sort()
                level[P] = run
                group = runs.get(P)
                if group is None:
                    runs[P] = (str(Fraction(P, scale)), [(length, run)])
                else:
                    group[1].append((length, run))
            self.fresh.append(set(level))

    def key(self, row):
        """The key of a row."""
        return row[1] if self.planar else row & self.mask

    def word(self, key):
        """The word of a row key: its depth base-(m+1) digits, padding dropped."""
        letters = []
        for _ in range(self.depth):
            key, k = divmod(key, self.m + 1)
            if k or letters:
                letters.append(k)
        return tuple(reversed(letters))

    def buckets(self, upto):
        """The rows of length <= upto by P: {P: (label, entries)}.

        In order of first appearance, entries sorted by (H, key).  A bucket
        of one run is that run's list; one of several runs is one sort of
        the presorted runs, which merges them.
        """
        buckets = {}
        for P, (label, group) in self.runs.items():
            if group[0][0] > upto:
                break  # every later P first appears deeper still
            if len(group) == 1 or group[1][0] > upto:
                entries = group[0][1]
            else:
                entries = []
                for length, run in group:
                    if length > upto:
                        break
                    entries += run
                entries.sort()
            buckets[P] = (label, entries)
        return buckets

    def pull(self, P, entries):
        """(H list, min Q, max Q) of the rows of bucket P; a packed row's
        Q is P^2, as in planar._packed_deviation."""
        if self.planar:
            qs = [row[2] for row in entries]
            return [row[0] for row in entries], min(qs), max(qs)
        kb = self.kb
        return [v >> kb for v in entries], P * P, P * P

    def widen(self, h):
        """The largest difference of two packed rows whose H differ by at most h."""
        return (h << self.kb) + self.mask


def _bucket_pairs(buckets, slack=0):
    """Ordered cross-bucket pairs, cheapest |p - 1| first, built lazily.

    Yields (num, den, (P_i, rows_i), (P_j, rows_j)) with
    |p - 1| = num/den for p = P_i/P_j.  With the buckets sorted by P,
    each j has two walks, the i below and the i above it walking away
    from j, along which num grows; a heap holds each walk's next pair
    and merges the walks, so setup costs one pair per walk and each pair
    pulled O(log B) more.

    Pairs are keyed on (floor(|p - 1| 2^k), label_i, label_j), with 2^k
    above every product of two |P|: distinct values of |p - 1| get
    distinct keys and equal values equal ones, so pairs come out by
    exact |p - 1|, then labels; heap entries are flat, and a pair is
    built when yielded.  Raises RoundingAmbiguityError when the first
    pair has |p - 1| <= slack.
    """
    import heapq  # here, not at the top: it adds 33 KB to every import

    order = sorted(buckets.items())
    k = 2 * max(abs(p).bit_length() for p, _ in order) + 1

    def walk(i, j, step):
        (p_i, (label_i, _)), (p_j, (label_j, _)) = order[i], order[j]
        return (abs(p_i - p_j) << k) // abs(p_j), label_i, label_j, i, j, step

    def pair(i, j):
        (p_i, (_, ents_i)), (p_j, (_, ents_j)) = order[i], order[j]
        return abs(p_i - p_j), abs(p_j), (p_i, ents_i), (p_j, ents_j)

    heap = [walk(j + step, j, step) for j in range(len(order))
            for step in (-1, 1) if 0 <= j + step < len(order)]
    heapq.heapify(heap)
    if heap:
        num, den = pair(*heap[0][3:5])[:2]
        if Fraction(num, den) <= slack:
            raise RoundingAmbiguityError(f"|p - 1| = {num / den:.3g} is within input "
                                         f"rounding ({float(slack):.3g}) of a coincidence")
    while heap:
        _, _, _, i, j, step = heap[0]
        yield pair(i, j)
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

    def cap(self, bn, bd):
        """(mul, lim): the displacement is below bn/bd iff |E| mul < lim."""
        return 2 * self.wd * bd, bn * self.den - self.gamma * bd

    def displacement(self, e):
        return Fraction(2 * self.wd * abs(e) + self.gamma, self.den)

    def zone(self, mul, lim, rows):
        """(below, above): bounds on differences of the packed rows of rows, a _Rows.

        A difference at or below `below` has E < 0, one at or above
        `above` has E >= 0, and neither has |E| mul < lim, so only one
        strictly between needs its H decoded.  E < 0 iff H_i - H_j < c
        = ceil(-shift/cd), and |E| mul < lim iff lo <= H_i - H_j <= hi;
        the bounds enclose min(lo, c) to max(hi, c - 1), by rows.widen.
        With no best yet (mul = 0) every pair is in the window.
        """
        if not mul:
            return -math.inf, math.inf
        a, b = self.cd * mul, self.shift * mul
        c = -(self.shift // self.cd)
        lo = min((-lim - b) // a + 1, c)
        hi = max(-((b - lim) // a) - 1, c - 1)
        return -rows.widen(-lo) - 1, rows.widen(hi) + 1


def _scan_1d(buckets, rows, seed=None, floor=0, fresh=None):
    """delta*(at this word set) with its minimizing pair and coincidences.

    buckets hold packed rows of rows, a _Rows, which gives the interval and radii.  Returns
    (best, coincidence_pairs, count) with best = (dev, j_key, i_key) or
    None; the pairs are of word keys.  A seed, an upper bound on delta*,
    starts best as (seed, None, None), returned as is when no pair beats
    it; the cross-bucket pairs stop once best reaches floor, a lower
    bound.  fresh, a set of P (None for all), limits the same-bucket
    pairs to its buckets and the cross-bucket pairs to those with a
    bucket in it (see _verdict).  A pair that beats the seed is the one
    the unseeded scan keeps: pruning only skips pairs that cannot beat
    best, and the first pair to reach the minimum is kept.
    """
    (wn, wd), slack, t_h = rows.width, rows.slack, rows.t_h
    kb, mask, widen = rows.kb, rows.mask, rows.widen
    best = None if seed is None else (seed, None, None)
    # best as bn/bd, 1/0 while there is none; floor as fn/fd
    bn, bd = (1, 0) if seed is None else seed.as_integer_ratio()
    fn, fd = floor.as_integer_ratio()
    fresh = buckets if fresh is None else fresh
    coinc, coinc_count = [], 0

    # same-bucket pairs have p = 1 exactly: dev = |dH| / (|P| (b-a)); a
    # chain of H values each within t_h of the last is a coincidence run.
    # Adjacent rows further apart than near hold dH above t_h and above
    # the largest dH whose dev beats best
    for p_val, (_, entries) in buckets.items():
        if p_val not in fresh:
            continue
        den = abs(p_val) * wn
        near = widen(max(t_h, (bn * den - 1) // (wd * bd))) if bd else math.inf
        run = 0
        for v1, v2 in zip(entries, entries[1:]):
            if v2 - v1 > near:
                run = 0
                continue
            d_h = (v2 >> kb) - (v1 >> kb)
            if d_h <= t_h:
                run += 1
                coinc_count += run
                if len(coinc) < _COINCIDENCE_SAMPLE:
                    coinc.append((v1 & mask, v2 & mask))
                continue
            run = 0
            num = d_h * wd
            if num * bd < bn * den:
                best = (Fraction(num, den), v1 & mask, v2 & mask)
                bn, bd = best[0].as_integer_ratio()
                near = widen(max(t_h, (bn * den - 1) // (wd * bd)))

    for num, den, (p_i, ents_i), (p_j, ents_j) in _bucket_pairs(buckets, slack):
        if num * bd >= bn * den or bn * fd <= fn * bd:
            break
        if p_i not in fresh and p_j not in fresh:
            continue
        win = _Window(rows.mid, rows.width, p_i, p_j)
        cd, shift = win.cd, win.shift
        mul, lim = win.cap(bn, bd)
        below, above = win.zone(mul, lim, rows)
        # dev = max(|p-1|, displacement): minimize |E| by the classic
        # two-pointer min-difference walk over both sorted H lists; a
        # packed difference outside the zone moves a pointer undecoded
        ii, jj, n_i, n_j = 0, 0, len(ents_i), len(ents_j)
        while ii < n_i and jj < n_j:
            vi, vj = ents_i[ii], ents_j[jj]
            dv = vi - vj
            if dv <= below:
                ii += 1
                continue
            if dv >= above:
                jj += 1
                continue
            e = ((vi >> kb) - (vj >> kb)) * cd + shift
            if abs(e) * mul < lim:
                best = (max(Fraction(num, den), win.displacement(e)), vj & mask, vi & mask)
                bn, bd = best[0].as_integer_ratio()
                if num * bd >= bn * den:
                    break  # nothing in this pair can beat |p - 1| itself
                mul, lim = win.cap(bn, bd)
                below, above = win.zone(mul, lim, rows)
            if e < 0:
                ii += 1
            else:
                jj += 1
    return best, coinc, coinc_count


def _verdict(system, rows, tol, mode, scan, graph=None):
    """The WspVerdict of scan(d, seed, floor, fresh) -> (best, coincidence_pairs, count).

    delta*(d) is a minimum over pairs that only grow with d, so it never
    rises.  Scans depth 2, then the full depth seeded with delta*(2),
    both floored at the bound of graph, a NeighbourGraph, when it closed
    (at 0 otherwise), then d = 3..depth-1, each seeded with delta*(d-1)
    and floored at delta*(depth); once delta*(d-1) is delta*(depth), the
    remaining depths are filled in unscanned.  A scan seeded with
    delta*(d-1) gets fresh, the P values with a run of length d: any
    other bucket holds its rows of d-1, so its pairs (float chains and
    subgroups too) measure as there, at or above the seed, which a scan
    must beat.  Depth 2 and the full depth get None.  The witnesses are the
    per-depth minimizers where the exact delta* strictly drops, so a
    returned seed, which names no words, never is one; the coincidences
    are those at full depth.  The scans name words by their row keys,
    decoded here.  A float system reports its deviations as floats.
    Depth 2 has a best: a generator's 0 < |p| < 1 puts it in another
    bucket than the empty word, and the first bucket pair is measured or
    raises RoundingAmbiguityError.
    """
    depth = rows.depth
    certified = graph and graph.bound
    lowest = certified or 0
    bests = dict.fromkeys(range(2, depth + 1))
    bests[2], coinc, coinc_count = scan(2, None, lowest, None)
    if depth > 2:
        bests[depth], coinc, coinc_count = scan(depth, bests[2][0], lowest, None)
    floor = bests[depth][0]
    for d in range(3, depth):
        seed = bests[d - 1][0]
        bests[d] = bests[d - 1] if seed == floor else scan(d, seed, floor, rows.fresh[d])[0]
    gap, wits, devs = [], [], []
    for d, (dev, j_key, i_key) in bests.items():
        gap.append((d, dev))
        if not devs or dev < devs[-1]:
            wits.append(FamilyElement.from_words(system, rows.word(j_key), rows.word(i_key)))
            devs.append(dev)
    coinc = tuple((rows.word(u), rows.word(v)) for u, v in coinc)
    if not system.exact:
        gap, devs = [(d, to_float(v)) for d, v in gap], list(map(to_float, devs))
    found = to_float(gap[-1][1]) < tol
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
        certified_floor=certified,
        closure_states=0 if graph is None else len(graph.states),
    )


def wsp_check_1d(system: IfsSystem, depth: int, tol: float,
                 budget: int = DEFAULT_WORD_BUDGET) -> WspVerdict:
    """Bounded-depth separation verdict for the projected system.

    Computes delta*(d) for d = 2..depth over all pairs |i|, |j| <= d,
    empty word included.  WitnessFound when delta*(depth) < tol; the
    witnesses are the strictly-improving per-depth minimizers.
    Identities from distinct words, up to input rounding for a float
    system, are reported as coincidences only.  depth < 2 and a nan tol
    raise ValueError.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if math.isnan(tol):
        raise ValueError("tol must not be nan")
    system._invertible  # raises unless contractive with every q != 0
    rows = _Rows(system, depth, budget, planar=False)
    # imported here, not at the top, so that only a 1d scan compiles it.
    # Capped at the full-depth bucket count, an attempt that does not
    # close costs about what one pass over the buckets does
    from .neighbours import neighbour_graph
    try:
        graph = neighbour_graph(system, len(rows.runs))
    except NotCertifiableError:
        graph = None
    return _verdict(system, rows, tol, "1d", lambda d, seed, floor, fresh: _scan_1d(
        rows.buckets(d), rows, seed, floor, fresh), graph)


def wsp_check_2d(system: IfsSystem, depth: int, tol: float,
                 budget: int = DEFAULT_WORD_BUDGET) -> WspVerdict:
    """Bounded-depth separation verdict for the planar system.

    Same search space as wsp_check_1d with the planar deviation metric;
    a separation failure upstairs forces one downstairs and vice versa
    at matched depth, which the shared word pairs make checkable.
    Warns when the attractor is a straight line segment (the planar
    verdict then carries no extra information).  An exact system whose
    generators keep one parabola scans packed projected rows, the
    planar coefficients formed from them per measured pair.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if math.isnan(tol):
        raise ValueError("tol must not be nan")
    system._invertible  # raises unless contractive with every q != 0
    # imported here, like neighbours in wsp_check_1d: only a 2d scan compiles it
    from .planar import _packed_deviation, _planar_deviation, _scan_2d, invariant_quadratic
    curve, (sample, ybox) = invariant_quadratic(system), _ybox_sample(system)
    if curve and curve[0] == 0 or not system.exact and _is_collinear(sample):
        warnings.warn(
            "attractor is a line segment; planar verdict adds nothing",
            CollinearAttractorWarning,
        )
    rows = _Rows(system, depth, budget, planar=not (curve and curve[0]))
    dev2 = _planar_deviation(system.interval, ybox)
    if not rows.planar:  # Q, R and S follow from (P, H): packed projected rows
        dev2 = _packed_deviation(dev2, curve, rows)
    short = sorted(((P, row) for P, (_, ents) in rows.buckets(1).items() for row in ents),
                   key=lambda pair: rows.key(pair[1]))
    return _verdict(system, rows, tol, "2d", lambda d, seed, floor, fresh: _scan_2d(
        short, rows.buckets(d), rows, dev2, seed, floor, fresh))


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
