"""Associated family enumeration and bounded-depth weak-separation search.

The associated family consists of all maps g = G_j^{-1} G_i where G_w
runs over compositions of the generators.  Weak separation asks whether
the identity is isolated in that family.  This module computes, per
depth d, the smallest deviation-from-identity over all non-identity
elements with |i|, |j| <= d (empty word included), exactly in rational
mode.

The scan never materializes the quadratic set of word pairs.  Words are
bucketed by their exact linear coefficient P; inside a bucket every
pair has p = 1 and the minimum reduces to a sorted-adjacency sweep over
the H values; across buckets the pair's p = P_i/P_j is a constant, so
|p - 1| prunes whole bucket pairs and a translation window bounds the
H candidates worth composing.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

from .affine import Affine1, Affine2, Word, compose, compose_word, invert, projection
from .attractor import sample_attractor
from .errors import DepthTooLargeError, OutOfDomainError
from .scalars import Scalar, to_float
from .systems import IfsSystem

DEFAULT_WORD_BUDGET = 2_000_000

# cap on reported coincidence pairs and on pair evaluations within one
# exactly-equal coefficient group (guards pathological inputs)
_COINCIDENCE_SAMPLE = 16
_GROUP_PAIR_CAP = 256


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


@lru_cache(maxsize=64)
def _vertical_extent(exact: bool, system: IfsSystem):
    m = len(system)
    depth = 3
    while (m ** (depth + 1)) * (m + 2) <= 4096 and depth < 8:
        depth += 1
    sample = sample_attractor(system, depth)
    ys = sample.ys
    return (min(ys), max(ys))


def attractor_ybox(system: IfsSystem):
    """Vertical range of a moderate-depth attractor sample.

    Used to normalize planar deviations; exact in rational mode.  The
    cache is keyed on exactness too: an exact system and its float twin
    compare equal.
    """
    return _vertical_extent(system.exact, system)


def _is_collinear(system: IfsSystem) -> bool:
    sample = sample_attractor(system, 3)
    pts = sample.points
    (x0, y0) = pts[0]
    (x1, y1) = pts[-1]
    tol = 0 if system.exact else 1e-12
    for (x, y) in pts:
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        if abs(cross) > tol:
            return False
    return True


def _word_rows(system: IfsSystem, depth: int, budget: int):
    """All words of length <= depth with their planar compositions.

    Returns a list indexed by length; each entry is a list of
    (word, Affine2).  Total word count (m^(depth+1) - 1)/(m - 1) must
    stay within budget.
    """
    m = len(system)
    total = sum(m ** k for k in range(depth + 1))
    if total > budget:
        raise DepthTooLargeError(
            f"{total} words at depth {depth} exceeds budget {budget}"
        )
    rows = [[((), Affine2.identity())]]
    for _ in range(depth):
        prev = rows[-1]
        nxt = []
        for word, g in prev:
            for k, gen in enumerate(system.maps, start=1):
                nxt.append((word + (k,), compose(g, gen)))
        rows.append(nxt)
    return rows


def _quantize(x, exact):
    return x if exact else round(to_float(x) / 1e-12)


def _buckets_1d(rows, upto, exact):
    """Group words of length <= upto by linear coefficient P.

    Returns {P_key: (P, sorted list of (H, word))}.
    """
    buckets = {}
    for length in range(upto + 1):
        for word, g in rows[length]:
            key = _quantize(g.p, exact)
            if key not in buckets:
                buckets[key] = (g.p, [])
            buckets[key][1].append((g.h, word))
    for _, pairs in buckets.values():
        pairs.sort(key=lambda t: (to_float(t[0]), t[1]))
    return buckets


def _drop_bound(interval, p):
    """Constants of the translation window at fixed p.

    For g(x) = p x + h the normalized displacement equals
    (|h - h0| + gamma)/(b - a) with h0 = -(p - 1)(a + b)/2 and
    gamma = |p - 1|(b - a)/2.
    """
    a, b = interval
    h0 = -(p - 1) * (a + b) / 2
    gamma = abs(p - 1) * (b - a) / 2
    return h0, gamma


def _scan_1d(buckets, interval, seed=None):
    """delta*(at this word set) with its minimizing pair and coincidences.

    Returns (best_dev, (j_word, i_word), coincidence_pairs, count).
    """
    a, b = interval
    w = b - a
    best = seed  # (dev, j_word, i_word) or None
    coinc = []
    coinc_count = 0

    # same-bucket pairs have p = 1 exactly: dev = |dH| / (|P| (b-a));
    # equal H means an exact identity, a coincidence
    for _, (p_val, entries) in buckets.items():
        absp = abs(p_val)
        for k in range(len(entries) - 1):
            h1, w1 = entries[k]
            h2, w2 = entries[k + 1]
            if h1 == h2:
                coinc_count += 1
                if len(coinc) < _COINCIDENCE_SAMPLE and w1 != w2:
                    coinc.append((w1, w2))
                continue
            dev = abs(h2 - h1) / (absp * w)
            if best is None or dev < best[0]:
                best = (dev, w1, w2)
        # count remaining pairs inside each equal-H run
        run = 1
        for k in range(1, len(entries)):
            if entries[k][0] == entries[k - 1][0]:
                run += 1
            else:
                coinc_count += (run * (run - 1)) // 2 - (run - 1)
                run = 1
        coinc_count += (run * (run - 1)) // 2 - (run - 1)

    # cross-bucket ordered pairs, cheapest |p - 1| first
    keys = list(buckets)
    pairs = []
    for ki in keys:
        p_i = buckets[ki][0]
        for kj in keys:
            if ki == kj:
                continue
            p_j = buckets[kj][0]
            p = p_i / p_j
            pairs.append((abs(p - 1), p, ki, kj))
    pairs.sort(key=lambda t: (to_float(t[0]), str(t[2]), str(t[3])))

    for bound, p, ki, kj in pairs:
        if best is not None and bound >= best[0]:
            break
        h0, gamma = _drop_bound(interval, p)
        p_j = buckets[kj][0]
        ents_i = buckets[ki][1]
        ents_j = buckets[kj][1]
        # dev = max(|p-1|, (|h - h0| + gamma)/w) with h = (H_i - H_j)/P_j:
        # minimize |H_i - (H_j + P_j h0)|; constant shift keeps H_j order,
        # so the classic two-pointer min-difference walk applies
        shifted = [(hj + p_j * h0, wj) for (hj, wj) in ents_j]
        abspj = abs(p_j)
        ii = jj = 0
        while ii < len(ents_i) and jj < len(shifted):
            hi, wi = ents_i[ii]
            ht, wj = shifted[jj]
            diff = hi - ht
            dev = max(bound, (abs(diff) / abspj + gamma) / w)
            if best is None or dev < best[0]:
                best = (dev, wj, wi)
            if diff < 0:
                ii += 1
            else:
                jj += 1
    return best, coinc, coinc_count


def enumerate_family_1d(system: IfsSystem, depth: int,
                        budget: int = DEFAULT_WORD_BUDGET) -> set[Affine1]:
    """The set {G_j^(-1) G_i projected : |i|, |j| <= depth}.

    Deduplicated by exact (p, h) in rational mode, by a 1e-12 quantum
    otherwise.  Materializes all pairs of the <= depth word list, so
    keep depth small; the pair count is budget-checked.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rows = _word_rows(system, depth, budget)
    words = [g for row in rows for (_, g) in row]
    if len(words) ** 2 > budget:
        raise DepthTooLargeError(
            f"{len(words)}^2 family pairs exceed budget {budget}"
        )
    exact = system.exact
    out = {}
    for gj in words:
        inv = invert(projection(gj))
        for gi in words:
            g = compose(inv, projection(gi))
            key = (_quantize(g.p, exact), _quantize(g.h, exact))
            out.setdefault(key, g)
    return set(out.values())


def _minimizer_sequence(system, per_depth):
    """Witnesses: per-depth minimizers where delta* strictly drops."""
    wits = []
    devs = []
    last = None
    for _, dev, jw, iw in per_depth:
        if dev is None:
            continue
        if last is None or dev < last:
            wits.append(FamilyElement.from_words(system, jw, iw))
            devs.append(dev)
            last = dev
    return tuple(wits), tuple(devs)


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
    rows = _word_rows(system, depth, budget)
    exact = system.exact
    interval = system.interval

    per_depth = []
    gap = []
    coinc, coinc_count = (), 0
    for d in range(2, depth + 1):
        buckets = _buckets_1d(rows, d, exact)
        best, c_pairs, c_count = _scan_1d(buckets, interval)
        if best is None:
            continue
        dev, jw, iw = best
        per_depth.append((d, dev, jw, iw))
        gap.append((d, dev))
        if d == depth:
            coinc, coinc_count = tuple(c_pairs), c_count

    wits, devs = _minimizer_sequence(system, per_depth)
    delta = gap[-1][1] if gap else None
    found = delta is not None and to_float(delta) < tol
    return WspVerdict(
        status="WitnessFound" if found else "NoWitnessUpToDepth",
        mode="1d",
        depth=depth,
        tol=tol,
        gap_by_depth=tuple(gap),
        witnesses=wits,
        witness_deviations=devs,
        coincidences=coinc,
        coincidence_count=coinc_count,
        exact=exact,
    )


def _family_2d(system, rows, jw, iw):
    gj = compose_word(system.maps, jw)
    gi = compose_word(system.maps, iw)
    return compose(invert(gj), gi)


def _scan_2d(system, rows, upto, interval, ybox, exact):
    """delta_2*(at depth upto) by pruning through the projected windows.

    Every candidate pair must satisfy projected deviation < current
    planar best (the planar metric dominates the projected one), so the
    same bucket geometry applies; surviving pairs are composed exactly
    and measured with deviation_2d.  Returns (best, coincidences, count)
    with best = (dev2, j_word, i_word).
    """
    a, b = interval
    w = b - a
    buckets = _buckets_1d(rows, upto, exact)

    def dev2_of(jw, iw):
        return deviation_2d(_family_2d(system, rows, jw, iw), interval, ybox)

    # seed: generators against the empty word, both directions
    best = None
    for k in range(1, len(system) + 1):
        for jw, iw in (((), (k,)), ((k,), ())):
            dev = dev2_of(jw, iw)
            if dev != 0 and (best is None or dev < best[0]):
                best = (dev, jw, iw)

    coinc = []
    coinc_count = 0

    # same (P, H) groups: projected identity; planar part may still differ
    for _, (p_val, entries) in buckets.items():
        absp = abs(p_val)
        k = 0
        while k < len(entries):
            k2 = k
            while k2 + 1 < len(entries) and entries[k2 + 1][0] == entries[k][0]:
                k2 += 1
            group = entries[k:k2 + 1]
            if len(group) > 1:
                evals = 0
                for u in range(len(group)):
                    for v in range(len(group)):
                        if u == v or evals >= _GROUP_PAIR_CAP:
                            continue
                        evals += 1
                        jw, iw = group[u][1], group[v][1]
                        g = _family_2d(system, rows, jw, iw)
                        if g == Affine2.identity():
                            if u < v:
                                coinc_count += 1
                                if len(coinc) < _COINCIDENCE_SAMPLE:
                                    coinc.append((jw, iw))
                            continue
                        dev = deviation_2d(g, interval, ybox)
                        if best is None or dev < best[0]:
                            best = (dev, jw, iw)
            k = k2 + 1

    # same-bucket, distinct H: p = 1, projected dev = |dH|/(|P| w) < best
    for _, (p_val, entries) in buckets.items():
        absp = abs(p_val)
        for u in range(len(entries)):
            hu, wu = entries[u]
            for v in range(u + 1, len(entries)):
                hv, wv = entries[v]
                if hv == hu:
                    continue
                if best is not None and abs(hv - hu) / (absp * w) >= best[0]:
                    break
                for jw, iw in ((wu, wv), (wv, wu)):
                    dev = dev2_of(jw, iw)
                    if dev != 0 and (best is None or dev < best[0]):
                        best = (dev, jw, iw)

    # cross-bucket pairs, pruned by |p - 1| then by the projected window
    keys = list(buckets)
    pairs = []
    for ki in keys:
        p_i = buckets[ki][0]
        for kj in keys:
            if ki == kj:
                continue
            p_j = buckets[kj][0]
            p = p_i / p_j
            pairs.append((abs(p - 1), p, ki, kj))
    pairs.sort(key=lambda t: (to_float(t[0]), str(t[2]), str(t[3])))
    for bound, p, ki, kj in pairs:
        if best is not None and bound >= best[0]:
            break
        h0, gamma = _drop_bound(interval, p)
        p_j = buckets[kj][0]
        abspj = abs(p_j)
        ents_i = buckets[ki][1]
        shifted = sorted(
            ((hj + p_j * h0, wj) for (hj, wj) in buckets[kj][1]),
            key=lambda t: (to_float(t[0]), t[1]),
        )
        # window on the projected deviation: every pair with
        # (|h-h0|+gamma)/w < best must be measured, so walk the whole
        # band of shifted values around each H_i
        cap = (best[0] * w - gamma) * abspj
        jj = 0
        for hi, wi in ents_i:
            while jj < len(shifted) and shifted[jj][0] < hi:
                jj += 1
            idx = jj - 1
            while 0 <= idx and hi - shifted[idx][0] < cap:
                ht, wj = shifted[idx]
                dev = dev2_of(wj, wi)
                if dev != 0 and dev < best[0]:
                    best = (dev, wj, wi)
                    cap = (best[0] * w - gamma) * abspj
                idx -= 1
            idx = jj
            while idx < len(shifted) and shifted[idx][0] - hi < cap:
                ht, wj = shifted[idx]
                dev = dev2_of(wj, wi)
                if dev != 0 and dev < best[0]:
                    best = (dev, wj, wi)
                    cap = (best[0] * w - gamma) * abspj
                idx += 1
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
    rows = _word_rows(system, depth, budget)
    exact = system.exact
    interval = system.interval
    ybox = attractor_ybox(system)

    per_depth = []
    gap = []
    coinc, coinc_count = (), 0
    for d in range(2, depth + 1):
        best, c_pairs, c_count = _scan_2d(system, rows, d, interval, ybox, exact)
        if best is None:
            continue
        dev, jw, iw = best
        per_depth.append((d, dev, jw, iw))
        gap.append((d, dev))
        if d == depth:
            coinc, coinc_count = tuple(c_pairs), c_count

    wits, devs = _minimizer_sequence(system, per_depth)
    delta = gap[-1][1] if gap else None
    found = delta is not None and to_float(delta) < tol
    return WspVerdict(
        status="WitnessFound" if found else "NoWitnessUpToDepth",
        mode="2d",
        depth=depth,
        tol=tol,
        gap_by_depth=tuple(gap),
        witnesses=wits,
        witness_deviations=devs,
        coincidences=coinc,
        coincidence_count=coinc_count,
        exact=exact,
    )


def graph_transport_check(system: IfsSystem, element, x: Scalar,
                          tol: float = 1e-9) -> bool:
    """Does the planar element carry (x, f(x)) to (x', f(x'))?

    x' is the projected image of x.  Both sides are computed through
    evaluate_f at tol/8; the check passes when the planar image agrees
    with the transported graph point within tol in the max norm.
    element may be a FamilyElement or a raw planar map.
    """
    from .attractor import evaluate_f

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
