"""A floor on the projected separation gap that holds at every depth.

The scans in separation bound delta*(d) one depth at a time.  For a
projected system of finite type the neighbour maps g = S_u^-1 S_v close
up (Zerner 1996; Ngai-Wang 2001), and neighbour_graph turns the closure
into a bound on delta*(d) for every d at once:
L = min(1 - r_max, the least non-identity deviation among the states),
r_max = max |p_k|, for an exact system with every 0 < |p_k| < 1 and
every strip inside [a, b].  The proof, in neighbour_graph's docstring,
has three steps:

- a pair with deviation < 1 has overlapping images S_u([a, b]) and
  S_v([a, b]);
- the strips nest, so the parents of an overlapping pair overlap, and
  the walk drops none of them;
- the walk, refining the word with the larger |P|, reaches every pair
  with |p - 1| < 1 - r_max: stopping early on u = u' would leave
  |p'| <= r_max, and on v = v', |p'| > 1/r_max.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCertifiableError
from .scalars import common_denominator
from .systems import IfsSystem


@dataclass(frozen=True)
class NeighbourGraph:
    """The closure of the projected neighbour maps, or the part found.

    states are the kept maps g = S_u^-1 S_v in the order the walk found
    them, each (pn, hn, den) for x -> (pn x + hn)/den with den > 0 and
    gcd(pn, hn, den) = 1.  closed says the walk ended within its
    max_states; only then is bound set, to a lower bound on delta*(d)
    that holds at every depth d.
    """

    closed: bool
    states: tuple[tuple[int, int, int], ...]
    bound: Fraction | None = None


def neighbour_graph(system: IfsSystem, max_states: int) -> NeighbourGraph:
    """The closure of the projected neighbour maps, with an all-depth bound.

    Walks the maps g = S_u^-1 S_v from S_i^-1 S_j, i != j, in integers:
    a state is (pn, hn, den), x -> (pn x + hn)/den, over the generators
    of IfsSystem._scaled_maps.  A state with |p| <= 1 (|P_u| >= |P_v|)
    refines u, to S_k^-1 g for every k; any other refines v, to g S_k.
    So the walk depends on g alone, and states are kept once each.  A
    state whose image of [a, b] misses [a, b] is dropped.  Past
    max_states kept states the walk stops, not closed.

    When it closes, every non-identity pair G_j^-1 G_i of every depth,
    empty word included, has deviation_1d >= bound = min(1 - r_max, the
    least non-identity deviation among the states), r_max = max |p_k|:

    - A pair with deviation < 1 has overlapping images S_u([a, b]) and
      S_v([a, b]).  Had g([a, b]) no point in [a, b], both g(a) and g(b)
      would lie beyond one end, and the displacement alone would exceed
      1; and g([a, b]) meets [a, b] iff S_v([a, b]) meets S_u([a, b]).
    - The parents of an overlapping pair overlap: the strips lie inside
      [a, b], so S_uw([a, b]) lies inside S_u([a, b]).  So the walk
      drops no prefix pair of an overlapping pair.
    - The walk reaches every pair (u', v') whose words differ in their
      first letter and whose |p' - 1| < 1 - r_max: following its
      letters, it could stop early only by refining a word already
      spent.  On u = u', v' = v w with w nonempty and |p| <= 1 gives
      |p'| = |p P_w| <= r_max; on v = v', u' = u w and |p| > 1 give
      |p'| = |p / P_w| > 1/r_max.  Either way |p' - 1| >= 1 - r_max.
    - Any other pair is a pair of that kind once the common prefix
      cancels, G_cu^-1 G_cv = G_u^-1 G_v, or a prefix pair, whose map is
      some S_w or its inverse, |p - 1| >= 1 - r_max; or the identity.

    The argument needs exact arithmetic, every 0 < |p_k| < 1 and every
    strip inside [a, b]; any other system raises NotCertifiableError.
    """
    a, b = system.interval
    if not (system.exact and all(0 < abs(g.p) < 1 for g in system.maps)
            and all(a <= lo and hi <= b for lo, hi in system.strips)):
        raise NotCertifiableError("only an exact system with every 0 < |p_k| < 1 "
                                  "and every strip inside [a, b] can be certified")
    D, maps = system._scaled_maps
    gens = [(p, h) for p, _, _, h, _ in maps]
    (lo, hi), M = common_denominator(system.interval)
    states = []
    ends = {}  # kept state -> g(a), g(b) over den M, where [a, b] is [lo den, hi den]

    def visit(pn, hn, den):
        g = math.gcd(pn, hn, den)
        g = -g if den < 0 else g
        st = (pn // g, hn // g, den // g)
        if st not in ends:
            pn, hn, den = st
            ga, gb = pn * lo + hn * M, pn * hi + hn * M
            if max(ga, gb) >= lo * den and min(ga, gb) <= hi * den:
                ends[st] = ga, gb
                states.append(st)

    # S_i^-1 S_j: x -> (p_j x + h_j - h_i) / p_i
    for i, (p_i, h_i) in enumerate(gens):
        for j, (p_j, h_j) in enumerate(gens):
            if i != j:
                visit(p_j, h_j - h_i, p_i)
    k = 0
    while k < len(states):
        if len(states) > max_states:
            return NeighbourGraph(False, tuple(states))
        pn, hn, den = states[k]
        k += 1
        for p, h in gens:
            if abs(pn) <= den:  # S_k^-1 g: x -> (D g(x) - h_k) / p_k
                visit(D * pn, D * hn - h * den, p * den)
            else:  # g S_k: x -> (pn (p_k x + h_k) / D + hn) / den
                visit(pn * p, pn * h + hn * D, D * den)
    bound = 1 - Fraction(max(abs(p) for p, _ in gens), D)
    w = hi - lo
    for (pn, hn, den), (ga, gb) in ends.items():
        if pn == den and hn == 0:
            continue  # the identity: a coincidence
        dev_n = max(abs(pn - den) * w, abs(ga - lo * den), abs(gb - hi * den))
        if dev_n * bound.denominator < bound.numerator * den * w:
            bound = Fraction(dev_n, den * w)
    return NeighbourGraph(True, tuple(states), bound)
