"""Interpolation systems: a tuple of planar maps over a base interval.

An IfsSystem holds lower-triangular affine contractions S_1..S_m over a
closed interval [a, b].  The constructor decides what kind of system it
holds: a system is exact or floating as a whole, so a float anywhere
demotes every coefficient to float.  That demotion warns
(MixedScalarWarning) only when it rounds a non-integer rational; an
integer converts to a float exactly.  A float that is not finite, and
a value too large to demote, are refused.  Whether the attractor really
is the graph of a continuous function is decided by attractor.validate,
which reads the contraction faults listed here.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .affine import Affine1, Affine2, projection
from .errors import IndexOutOfRangeError, NotContractiveError, SingularMapError
from .scalars import Scalar, coerce, common_denominator, is_exact, require_finite, to_float


class MixedScalarWarning(UserWarning):
    """A non-integer rational met a float; all demoted to float."""


@dataclass(frozen=True)
class IfsSystem:
    maps: tuple[Affine2, ...]
    interval: tuple[Scalar, Scalar]

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("a system needs at least one map")
        a, b = (coerce(v) for v in self.interval)
        named = [("interval: a", a), ("interval: b", b)]
        named += [(f"map {k}: {n}", getattr(g, n))
                  for k, g in enumerate(maps, start=1) for n in "pqrhs"]
        require_finite(named)
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        if not all(is_exact(c) for _, c in named):
            if any(is_exact(c) and c.denominator != 1 for _, c in named):
                warnings.warn(
                    "mixed exact/floating coefficients; demoting system to floats",
                    MixedScalarWarning,
                    stacklevel=3,  # past dataclass's __init__, to its caller
                )
            floats = []
            for where, c in named:
                try:
                    floats.append(to_float(c))
                except OverflowError:
                    raise ValueError(f"{where} is too large for a float") from None
            a, b, *coeffs = floats
            maps = tuple(Affine2(*coeffs[k:k + 5]) for k in range(0, len(coeffs), 5))
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "interval", (a, b))

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def a(self) -> Scalar:
        return self.interval[0]

    @property
    def b(self) -> Scalar:
        return self.interval[1]

    @property
    def width(self) -> Scalar:
        return self.b - self.a

    @property
    def exact(self) -> bool:
        return isinstance(self.a, Fraction)

    @property
    def projections(self) -> tuple[Affine1, ...]:
        return tuple(projection(g) for g in self.maps)

    # The cached properties below are computed once per instance, never
    # shared by value: an exact system and its float twin compare equal.

    @cached_property
    def strips(self) -> tuple[tuple[Scalar, Scalar], ...]:
        """Images of [a, b] under the projected maps, as (lo, hi) pairs."""
        out = []
        for g in self.projections:
            u, v = g(self.a), g(self.b)
            out.append((u, v) if u <= v else (v, u))
        return tuple(out)

    @cached_property
    def _contraction_faults(self) -> tuple[tuple[int, str, Scalar], ...]:
        """(k, name, |value|) for each fault of map k, in map order.

        The attractor exists, and weak separation is posed, only when
        every generator has 0 < |p| < 1 and |q| < 1.  The faults are
        p = 0 (as ("p", 0)), |p| >= 1 and |q| >= 1.  _contractive raises
        the first; attractor.validate reports them all.
        """
        faults = []
        for k, g in enumerate(self.maps, start=1):
            if not 0 < abs(g.p) < 1:
                faults.append((k, "p", abs(g.p)))
            if not abs(g.q) < 1:
                faults.append((k, "q", abs(g.q)))
        return tuple(faults)

    @cached_property
    def _contractive(self) -> bool:
        """True when _contraction_faults is empty.

        Sampling, evaluation and the separation checks (through
        _invertible) read this; otherwise it raises NotContractiveError,
        which is never cached, naming the first fault: "map k: p = 0" or
        "map k: |p| = v is not < 1" (likewise q).
        """
        if self._contraction_faults:
            k, name, value = self._contraction_faults[0]
            if value == 0:
                raise NotContractiveError(f"map {k}: p = 0")
            raise NotContractiveError(f"map {k}: |{name}| = {value} is not < 1")
        return True

    @cached_property
    def _invertible(self) -> bool:
        """True when the system is contractive and every generator has q != 0.

        The separation checks read this: G_j^-1 G_i is undefined for any
        j word holding a letter with q = 0.  Otherwise it raises, never
        cached, NotContractiveError or SingularMapError naming the map.
        """
        self._contractive  # raises unless contractive
        for k, g in enumerate(self.maps, start=1):
            if g.q == 0:
                raise SingularMapError(f"map {k}: q = 0 has no inverse")
        return True

    @cached_property
    def _pullback_bounds(self) -> tuple[float, float]:
        """(vertical_bound floored at 1e-300, max |q|), as floats.

        The constants of backward iteration in attractor.evaluate_f.
        Raises NotContractiveError, through vertical_bound, for a system
        that is not contractive.
        """
        return (max(to_float(vertical_bound(self)), 1e-300),
                max(to_float(abs(g.q)) for g in self.maps))

    @cached_property
    def _scaled_maps(self):
        """(D, ((pD, qD, rD, hD, sD) per map)): the forward maps in integers.

        D is the least common denominator of all coefficients, so the
        scaled coefficients are ints; a float system keeps its floats
        and D = 1.
        """
        rows = tuple((g.p, g.q, g.r, g.h, g.s) for g in self.maps)
        if not self.exact:
            return 1, rows
        nums, d = common_denominator([c for row in rows for c in row])
        return d, tuple(tuple(nums[k:k + 5]) for k in range(0, len(nums), 5))

    @cached_property
    def _exact_domain(self) -> tuple[int, int, int]:
        """(A, B, den): the interval [a, b] as integer numerators over den."""
        (lo, hi), den = common_denominator(self.interval)
        return lo, hi, den

    @cached_property
    def _exact_pullback(self):
        """(den, strips, steps) of exact backward iteration, in integers.

        Strips are (lo, hi) numerators over den.  Map steps are
        (A, B, L, Q, R, S, C, float |q|) with A/L = 1/p, B/L = -h/p,
        Q/C = q, R/C = r and S/C = s.
        """
        ends, den = common_denominator([c for st in self.strips for c in st])
        steps = []
        for g in self.maps:
            (inv, off), lden = common_denominator((1 / g.p, -g.h / g.p))
            (qn, rn, sn), cden = common_denominator((g.q, g.r, g.s))
            steps.append((inv, off, lden, qn, rn, sn, cden, to_float(abs(g.q))))
        return den, tuple(zip(ends[::2], ends[1::2])), tuple(steps)


def four_piece_overlap_system(a: Scalar = Fraction(1, 5)) -> IfsSystem:
    """Four-piece bundled example whose middle two strips genuinely overlap.

    The free coefficient a (|a| < 1) is the vertical contraction of the
    outer pieces.  The second and third strips share [7/15, 8/15], and
    the two middle-piece compositions that land there agree exactly, so
    the attractor is a function graph for every admissible a.
    """
    a = coerce(a)
    if not abs(a) < 1:
        raise ValueError("need |a| < 1")
    f = Fraction
    return IfsSystem(
        maps=(
            Affine2(f(1, 5), a, f(1, 5), f(0), f(0)),
            Affine2(f(1, 3), f(-1, 5), f(-1, 5), f(1, 5), f(1, 5)),
            Affine2(f(1, 3), f(-1, 5), f(1, 5), f(7, 15), f(0)),
            Affine2(f(1, 5), a, f(-1, 5), f(4, 5), f(1, 5)),
        ),
        interval=(f(0), f(1)),
    )


def dyadic_parabola_system() -> IfsSystem:
    """Two equal half-strips whose attractor is y = x^2 on [0, 1]."""
    f = Fraction
    return IfsSystem(
        maps=(
            Affine2(f(1, 2), f(1, 4), f(0), f(0), f(0)),
            Affine2(f(1, 2), f(1, 4), f(1, 2), f(1, 2), f(1, 4)),
        ),
        interval=(f(0), f(1)),
    )


def mixed_ratio_parabola_system() -> IfsSystem:
    """Attractor y = x^2 again, strips [0,1/2] and [1/3,1] with unequal ratios.

    The two horizontal ratios 1/2 and 2/3 generate multiplicatively
    independent scalings, so the projected family creeps arbitrarily
    close to the identity as depth grows.
    """
    f = Fraction
    return IfsSystem(
        maps=(
            Affine2(f(1, 2), f(1, 4), f(0), f(0), f(0)),
            Affine2(f(2, 3), f(4, 9), f(4, 9), f(1, 3), f(1, 9)),
        ),
        interval=(f(0), f(1)),
    )


def conjugate_map(g: Affine2, lam: Scalar, mu: Scalar) -> Affine2:
    """Conjugate by the horizontal change of variables T(x, y) = (lam*x + mu, y)."""
    lam, mu = coerce(lam), coerce(mu)
    if lam == 0:
        raise ValueError("lam must be nonzero")
    return Affine2(
        g.p,
        g.q,
        g.r / lam,
        lam * g.h + mu * (1 - g.p),
        g.s - g.r * mu / lam,
    )


def conjugate_system(system: IfsSystem, lam: Scalar, mu: Scalar) -> IfsSystem:
    """Rescale the base interval by x |-> lam*x + mu (lam != 0)."""
    lam, mu = coerce(lam), coerce(mu)
    ends = sorted((lam * system.a + mu, lam * system.b + mu))
    return IfsSystem(
        maps=tuple(conjugate_map(g, lam, mu) for g in system.maps),
        interval=(ends[0], ends[1]),
    )


def strip(system: IfsSystem, i: int) -> tuple[Scalar, Scalar]:
    """Image of [a, b] under the i-th projected map (1-based), as (lo, hi)."""
    if not 1 <= i <= len(system.maps):
        raise IndexOutOfRangeError(f"map index {i} outside 1..{len(system.maps)}")
    return system.strips[i - 1]


def vertical_bound(system: IfsSystem) -> Scalar:
    """A bound M with the attractor contained in [a, b] x [-M, M].

    [-M, M] is forward invariant for every y recurrence over x in
    [a, b], which is exactly what the backward-iteration error estimate
    needs.  Raises NotContractiveError for a system that is not
    contractive.
    """
    system._contractive  # raises unless contractive
    a, b = system.interval
    best = None
    for g in system.maps:
        drive = max(abs(g.r * a + g.s), abs(g.r * b + g.s))
        m = drive / (1 - abs(g.q))
        if best is None or m > best:
            best = m
    return best
