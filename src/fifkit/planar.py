"""The planar separation scan, compiled only when a planar check runs.

A planar scan reads its word rows in one of the two formats of
separation._Rows.  A system whose generators all keep one parabola
y = Ax^2 + Bx + C (A != 0) scans the packed projected rows of the 1d
scan: its composites' Q, R and S are functions of (P, H) (see
invariant_quadratic), formed only for the pairs dev2 measures.  Every
other system (a line or no invariant quadratic, and every float system)
scans planar rows.  One _scan_2d serves both; only its same-bucket
phase differs.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .scalars import _solve3, common_denominator
from .separation import _COINCIDENCE_SAMPLE, _Window, _bucket_pairs


def invariant_quadratic(system):
    """(A, B, C) of the one curve y = Ax^2 + Bx + C that every generator
    maps into itself, or None.

    S(x, y) = (px + h, qy + rx + s) maps the graph of
    phi(x) = Ax^2 + Bx + C into itself exactly when
    q phi(x) + rx + s = phi(px + h) as polynomials in x, that is when
    (q - p^2) A = 0, (q - p) B - 2ph A = -r and
    (q - 1) C - h B - h^2 A = -s.  These 3m equations, times D^2 in the
    ints of IfsSystem._scaled_maps, are solved by their normal equations
    and the solution checked on each.  None for a float system,
    inconsistent equations or more than one solution.  On strips that
    cover [a, b] the arc is the attractor (Hutchinson 1981), so A = 0
    says the attractor is a line segment.

    With A != 0 every composite G = S_u S_v inherits the identity:
    G(x, phi(x)) = S_u(x', phi(x')) = (x'', phi(x'')) for every x, so
    Q phi(x) + Rx + S = phi(Px + H) as polynomials too, and comparing
    coefficients gives Q = P^2, R = 2APH + BP(1 - P) and
    S = AH^2 + BH + C(1 - P^2).  Only these identities are used, not
    that the arc is the attractor, so no covering check is needed.
    """
    if not system.exact:
        return None
    D, gens = system._scaled_maps
    eqs = []  # (A, B, C coefficients, right-hand side) of each equation
    for p, q, r, h, s in gens:
        eqs += [(q * D - p * p, 0, 0, 0), (-2 * p * h, (q - p) * D, 0, -r * D),
                (-h * h, -h * D, (q - D) * D, -s * D)]
    solution = _solve3([[sum(e[i] * e[j] for e in eqs) for j in range(3)] for i in range(3)],
                       [sum(e[i] * e[3] for e in eqs) for i in range(3)])
    if solution is None:
        return None  # a free unknown: not one solution
    a, b, c, det = solution
    if any(ea * a + eb * b + ec * c != e * det for ea, eb, ec, e in eqs):
        return None  # inconsistent
    return Fraction(a, det), Fraction(b, det), Fraction(c, det)


def _packed_deviation(dev, curve, rows):
    """dev over the packed rows of rows, a _Rows, of a system keeping curve = (A, B, C).

    dev is a _planar_deviation.  A row's P (its bucket's) and H are the
    composite's times scale = rows.scale.  With A, B, C as integers a, b,
    c over L, the composite's five coefficients times scale^2 L are
    integers, in row units: P scale L, H scale L, Q = P^2 L,
    R = (2aH + b(scale - P)) P and S = aH^2 + bH scale + c(scale^2 - P^2).
    dev's ratios are unchanged by a common factor.
    """
    (a, b, c), L = common_denominator(curve)
    scale, kb = rows.scale, rows.kb
    k, sq = scale * L, scale * scale

    def row(P, v):
        H = v >> kb
        R = (2 * a * H + b * (scale - P)) * P
        return H * k, None, P * P * L, R, a * H * H + b * H * scale + c * (sq - P * P)

    def packed(Pj, vj, Pi, vi, bn, bd):
        return dev(Pj * k, row(Pj, vj), Pi * k, row(Pi, vi), bn, bd)

    return packed


def _planar_deviation(interval, ybox):
    """dev(Pj, row_j, Pi, row_i, bn, bd): deviation_2d of G_j^-1 G_i from two rows.

    A row (H, key, Q, R, S) comes with the P of its bucket.  Returns the
    deviation when it is nonzero and below bn/bd (any nonzero value for
    1/0), else None.  With rows scaled by a common
    factor, G_j^-1 G_i has p = Pi/Pj, q = Qi/Qj,
    r = (Ri Pj - Rj Pi)/(Pj Qj), h = (Hi - Hj)/Pj and
    s = ((Si - Sj) Pj - Rj (Hi - Hj))/(Pj Qj).  Every term is compared
    to bn/bd by cross-multiplication, cheapest first, on the box corners
    brought to a common denominator M (float corners convert exactly).
    n_y = max |beta x + gamma + alpha y| over the corners: two x corners
    differ by beta w, so n_y >= |beta| w / 2 (tested early), and n_y is
    the center's value plus the half spreads, an even sum (it is
    2 (beta x1 + gamma + alpha y1) mod 2): 2 n_y =
    |beta (x0 + x1) + 2 gamma + alpha (y0 + y1)| + |beta| w + |alpha| (y1 - y0).
    """
    (x0, x1, y0, y1), M = common_denominator((*interval, *ybox))
    w, sx, sy, hy = x1 - x0, x0 + x1, y0 + y1, y1 - y0
    hh, M2 = hy or w, 2 * M

    def dev(Pj, rj, Pi, ri, bn, bd):
        Hj, _, Qj, Rj, Sj = rj
        Hi, _, Qi, Ri, Si = ri
        d_p, d_q = Pi - Pj, Qi - Qj
        n_p, n_q, den_p, den_q = abs(d_p), abs(d_q), abs(Pj), abs(Qj)
        if n_p * bd >= bn * den_p or n_q * bd >= bn * den_q:
            return None
        beta, den_y = Ri * Pj - Rj * Pi, den_p * den_q * hh
        if abs(beta) * w * bd >= 2 * bn * den_y:
            return None
        d_h = Hi - Hj
        e = d_h * M
        n_x, den_x = max(abs(d_p * x0 + e), abs(d_p * x1 + e)), den_p * w
        if n_x * bd >= bn * den_x:
            return None
        alpha = d_q * Pj
        n_y = (abs(beta * sx + ((Si - Sj) * Pj - Rj * d_h) * M2 + alpha * sy)
               + abs(beta) * w + abs(alpha) * hy) // 2
        if n_y * bd >= bn * den_y or not (n_p or n_q or n_x or n_y):
            return None
        return max(Fraction(n_p, den_p), Fraction(n_q, den_q),
                   Fraction(n_x, den_x), Fraction(n_y, den_y))

    return dev


def _q_bound(lo_i, hi_i, lo_j, hi_j):
    """(n, d): |Q_i - Q_j| d >= n |Q_j| for all Q_i in [lo_i, hi_i] and Q_j in [lo_j, hi_j]."""
    return max(lo_i - hi_j, lo_j - hi_i, 0), max(-lo_j, hi_j)


def _band(cd, shift, mul, lim):
    """(o_lo, o_jj, o_hi), cd > 0: E = (H_i - H_j) cd + shift has |E| mul < lim
    iff H_i + o_lo <= H_j < H_i + o_hi (any H_j if mul = 0), E <= 0 iff H_j >= H_i + o_jj."""
    o_jj = -(-shift // cd)
    if not mul:
        return -math.inf, o_jj, math.inf
    a, b = cd * mul, shift * mul
    return (b - lim) // a + 1, o_jj, -((-lim - b) // a)


def _scan_2d(short, buckets, rows, dev2, seed=None, floor=0, fresh=None):
    """delta_2*(over the words in buckets) by pruning through the projected windows.

    Every candidate pair must satisfy projected deviation < current
    planar best (the planar metric dominates the projected one), so the
    same bucket geometry applies; surviving pairs are measured with
    dev2 from their rows.  Returns (best, coincidences, count) with
    best = (dev2, j_key, i_key); the coincidences are pairs of word keys.
    short holds the rows of the empty word and the generators in key
    order, each as (P, row); seed, floor and fresh act as in _scan_1d (a
    fresh set also skips the generators against the empty word).  The
    rows are those of rows, a _Rows: planar, or packed with dev2 a
    _packed_deviation.  The seed phase and the cross-bucket walk read
    both, and each format has its own same-bucket phase.  The walk
    bisects the H_j list for each H_i's band [lo, top) and split jj
    (_band), measures down from jj, then up, each way stopping where a
    lowered best ends the band, and skips an empty band to the first H_i
    that can reach H_j[lo].
    """
    slack, key = rows.slack, rows.key
    best = None if seed is None else (seed, None, None)
    # best as bn/bd, 1/0 while there is none; floor as fn/fd
    bn, bd = (1, 0) if seed is None else seed.as_integer_ratio()
    fn, fd = floor.as_integer_ratio()

    if fresh is None:  # all buckets, and the generators against the empty word both ways
        fresh = buckets
        for (pj, rj), (pi, ri) in [pair for gen in short[1:]
                                   for pair in ((short[0], gen), (gen, short[0]))]:
            dev = dev2(pj, rj, pi, ri, bn, bd)
            if dev is not None:
                best = (dev, key(rj), key(ri))
                bn, bd = dev.as_integer_ratio()
    same = [(p_val, entries) for p_val, (_, entries) in buckets.items() if p_val in fresh]
    if rows.planar:
        best, coinc, coinc_count = _same_planar(same, dev2, best, rows)
    else:
        best, coinc, coinc_count = _same_packed(same, dev2, best, rows)
    if best is not None:
        bn, bd = best[0].as_integer_ratio()

    # cross-bucket pairs, pruned by |p - 1|, by Q ranges that keep every
    # |q - 1| at or above best, then by the projected window: every pair
    # with displacement below best must be measured
    pulled = {}  # P: (H list, min Q, max Q) of a pulled bucket
    for num, den, (p_i, ents_i), (p_j, ents_j) in _bucket_pairs(buckets, slack):
        if num * bd >= bn * den or bn * fd <= fn * bd:
            break
        if p_i not in fresh and p_j not in fresh:
            continue
        for p_val, ents in ((p_i, ents_i), (p_j, ents_j)):
            if p_val not in pulled:
                pulled[p_val] = rows.pull(p_val, ents)
        hs_i, *q_i = pulled[p_i]
        hs_j, *q_j = pulled[p_j]
        n_q, den_q = _q_bound(*q_i, *q_j)
        if n_q * bd >= bn * den_q:
            continue
        win = _Window(rows.mid, rows.width, p_i, p_j)
        cd, shift = win.cd, win.shift
        mul, lim = win.cap(bn, bd)
        o_lo, o_jj, o_hi = _band(cd, shift, mul, lim)
        lo = top = ii = 0
        n_i, n_j = len(hs_i), len(hs_j)
        while ii < n_i:
            hi = hs_i[ii]
            lo = bisect_left(hs_j, hi + o_lo, lo)
            if lo == n_j:
                break
            top = bisect_left(hs_j, hi + o_hi, max(lo, top))
            if lo >= top:
                ii = bisect_right(hs_i, hs_j[lo] - o_hi, ii + 1)
                continue
            ri, ii = ents_i[ii], ii + 1
            jj = bisect_left(hs_j, hi + o_jj, lo, top)
            for band in (range(jj - 1, lo - 1, -1), range(jj, top)):
                for idx in band:
                    if abs((hi - hs_j[idx]) * cd + shift) * mul >= lim:
                        break
                    rj = ents_j[idx]
                    dev = dev2(p_j, rj, p_i, ri, bn, bd)
                    if dev is not None:
                        best = (dev, key(rj), key(ri))
                        bn, bd = dev.as_integer_ratio()
                        mul, lim = win.cap(bn, bd)
                        o_lo, o_jj, o_hi = _band(cd, shift, mul, lim)
                        lo = top = 0
    return best, coinc, coinc_count


def _same_planar(same, dev2, best, rows):
    """(best, coincidences, count) of the same-bucket pairs of planar rows.

    same lists (P, entries) per bucket of rows, a _Rows; best is as in _scan_2d.
    """
    (wn, wd), t_h, t_qrs = rows.width, rows.t_h, rows.t_qrs
    bn, bd = (1, 0) if best is None else best[0].as_integer_ratio()
    coinc, coinc_count = [], 0

    # groups of one P and an H chain (consecutive H within t_h): projected
    # identities; subgroups of Q, R, S within t_qrs are planar identities,
    # and pairs across subgroups are measured once, on their first rows
    for p_val, entries in same:
        groups = []  # [start, stop) of each maximal chain of ties
        for k in range(1, len(entries)):
            if entries[k][0] - entries[k - 1][0] <= t_h:
                if groups and groups[-1][1] == k:
                    groups[-1][1] = k + 1
                else:
                    groups.append([k - 1, k + 1])
        for k, k2 in groups:
            group = entries[k:k2]
            if all(row[2:] == group[0][2:] for row in group):  # first fit's one subgroup
                subs, places = [group], [(0, rank) for rank in range(1, len(group) + 1)]
            else:  # first fit on Q, R, S within t_qrs; a row gets (subgroup, rank)
                subs, places = [], []
                for row in group:
                    n = next((n for n, sub in enumerate(subs) if all(abs(c - c0) <= t for c, c0, t
                              in zip(row[2:], sub[0][2:], t_qrs))), len(subs))
                    if n == len(subs):
                        subs.append([])
                    subs[n].append(row)
                    places.append((n, len(subs[n])))
            coinc_count += sum(n * (n - 1) // 2 for n in map(len, subs))
            # report the pairs u < v of one subgroup in (u, v) order
            for row, (n, rank) in zip(group, places):
                room = _COINCIDENCE_SAMPLE - len(coinc)
                coinc.extend((row[1], other[1]) for other in subs[n][rank:rank + room])
            firsts = [sub[0] for sub in subs]
            for rj in firsts:
                for ri in firsts:
                    if rj is not ri:
                        dev = dev2(p_val, rj, p_val, ri, bn, bd)
                        if dev is not None:
                            best = (dev, rj[1], ri[1])
                            bn, bd = dev.as_integer_ratio()

    # same-bucket, H apart: p = 1, projected dev = |dH|/(|P| w) < best
    for p_val, entries in same:
        den = abs(p_val) * wn
        for u, ru in enumerate(entries):
            for v in range(u + 1, len(entries)):
                rv = entries[v]
                d_h = rv[0] - ru[0]
                if d_h <= t_h:
                    continue
                if d_h * wd * bd >= bn * den:
                    break
                for rj, ri in ((ru, rv), (rv, ru)):
                    dev = dev2(p_val, rj, p_val, ri, bn, bd)
                    if dev is not None:
                        best = (dev, rj[1], ri[1])
                        bn, bd = dev.as_integer_ratio()
    return best, coinc, coinc_count


def _same_packed(same, dev2, best, rows):
    """(best, coincidences, count) of the same-bucket pairs of packed rows.

    Packed rows come only from exact systems, whose rows of equal
    (P, H) hold one planar map: a chain of equal H is one subgroup of
    _same_planar, and no pair inside it is measured.  One pass per
    bucket reports each chain's pairs and measures the pairs H apart in
    _same_planar's (u, v) order, the packed gap filtering them as in
    _scan_1d: a gap above near (widened by rows, their _Rows) holds a dH
    whose projected deviation cannot beat best.
    """
    (wn, wd), kb, mask, widen = rows.width, rows.kb, rows.mask, rows.widen
    bn, bd = (1, 0) if best is None else best[0].as_integer_ratio()
    coinc, coinc_count = [], 0
    for p_val, entries in same:
        den = abs(p_val) * wn
        near = widen((bn * den - 1) // (wd * bd)) if bd else math.inf
        n, end = len(entries), 0
        # near >= mask, so a row further than near from the next has no
        # pair ahead, in its chain or H apart; the last row has none either
        for u, (vu, v_next) in enumerate(zip(entries, entries[1:])):
            if v_next - vu > near:
                continue
            if u >= end:  # vu starts the chain of rows with its H, all at most vu | mask
                top, end = vu | mask, u + 1
                while end < n and entries[end] <= top:
                    end += 1
                coinc_count += (end - u) * (end - u - 1) // 2
            if end > u + 1 and len(coinc) < _COINCIDENCE_SAMPLE:
                room = _COINCIDENCE_SAMPLE - len(coinc)
                coinc.extend((vu & mask, v & mask) for v in entries[u + 1:min(end, u + 1 + room)])
            v = end
            while v < n and entries[v] - vu <= near:
                vv = entries[v]
                if ((vv >> kb) - (vu >> kb)) * wd * bd >= bn * den:
                    break
                for rj, ri in ((vu, vv), (vv, vu)):
                    dev = dev2(p_val, rj, p_val, ri, bn, bd)
                    if dev is not None:
                        best = (dev, rj & mask, ri & mask)
                        bn, bd = dev.as_integer_ratio()
                        near = widen((bn * den - 1) // (wd * bd))
                v += 1
    return best, coinc, coinc_count
