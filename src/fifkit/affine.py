"""Affine maps of the line and of the plane, and finite words over a map list.

The planar maps used everywhere in this package are lower triangular,

    (x, y)  |->  (p*x + h,  q*y + r*x + s),

so they carry vertical lines to vertical lines.  Dropping the second
component gives the projected line map x |-> p*x + h.  Composition is
read right to left: compose(g1, g2) applies g2 first.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRangeError, SingularMapError
from .scalars import Scalar, coerce, is_exact

Word = tuple[int, ...]


@dataclass(frozen=True)
class Affine1:
    """x |-> p*x + h."""

    p: Scalar
    h: Scalar

    def __post_init__(self):
        object.__setattr__(self, "p", coerce(self.p))
        object.__setattr__(self, "h", coerce(self.h))

    def __call__(self, x: Scalar) -> Scalar:
        return self.p * x + self.h

    @classmethod
    def identity(cls) -> "Affine1":
        return cls(Fraction(1), Fraction(0))

    @property
    def exact(self) -> bool:
        return is_exact(self.p) and is_exact(self.h)


@dataclass(frozen=True)
class Affine2:
    """(x, y) |-> (p*x + h, q*y + r*x + s)."""

    p: Scalar
    q: Scalar
    r: Scalar
    h: Scalar
    s: Scalar

    def __post_init__(self):
        for name in ("p", "q", "r", "h", "s"):
            object.__setattr__(self, name, coerce(getattr(self, name)))

    def __call__(self, point: tuple[Scalar, Scalar]) -> tuple[Scalar, Scalar]:
        x, y = point
        return (self.p * x + self.h, self.q * y + self.r * x + self.s)

    @classmethod
    def identity(cls) -> "Affine2":
        return cls(Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    @property
    def exact(self) -> bool:
        return all(is_exact(c) for c in (self.p, self.q, self.r, self.h, self.s))


@dataclass(frozen=True)
class FixedPoint:
    """Fixed-point set of a line map: a point, empty, or the whole line."""

    kind: str  # "point" | "at_infinity" | "everywhere"
    x: Scalar | None = None

    @property
    def is_point(self) -> bool:
        return self.kind == "point"


def compose(g1, g2):
    """Map composition g1 after g2; both arguments of the same arity."""
    if isinstance(g1, Affine1) and isinstance(g2, Affine1):
        return Affine1(g1.p * g2.p, g1.p * g2.h + g1.h)
    if isinstance(g1, Affine2) and isinstance(g2, Affine2):
        return Affine2(
            g1.p * g2.p,
            g1.q * g2.q,
            g1.q * g2.r + g1.r * g2.p,
            g1.p * g2.h + g1.h,
            g1.q * g2.s + g1.r * g2.h + g1.s,
        )
    raise TypeError("compose needs two Affine1 or two Affine2")


def invert(g):
    """Inverse map; SingularMapError when a linear coefficient is zero."""
    if isinstance(g, Affine1):
        if g.p == 0:
            raise SingularMapError("p == 0 has no inverse")
        return Affine1(1 / g.p, -g.h / g.p)
    if isinstance(g, Affine2):
        if g.p == 0 or g.q == 0:
            raise SingularMapError("p == 0 or q == 0 has no inverse")
        pq = g.p * g.q
        if pq == 0:
            raise SingularMapError(f"p * q = {g.p!r} * {g.q!r} underflows to 0; no float inverse")
        return Affine2(
            1 / g.p,
            1 / g.q,
            -g.r / pq,
            -g.h / g.p,
            (g.r * g.h - g.s * g.p) / pq,
        )
    raise TypeError("invert needs an Affine1 or Affine2")


def projection(g: Affine2) -> Affine1:
    """The induced map on the x axis."""
    return Affine1(g.p, g.h)


def compose_word(maps, word: Word):
    """Compose maps[word[0]] o maps[word[1]] o ... (1-based indices).

    The empty word gives the identity of the same arity as the list
    entries.  Indices outside 1..len(maps) raise IndexOutOfRangeError.
    """
    maps = tuple(maps)
    if not maps:
        raise ValueError("empty map list")
    ident = maps[0].__class__.identity()
    out = ident
    for k in word:
        if not 1 <= k <= len(maps):
            raise IndexOutOfRangeError(f"index {k} outside 1..{len(maps)}")
        out = compose(out, maps[k - 1])
    return out


def fixed_point_1d(g: Affine1) -> FixedPoint:
    """Solve g(x) == x.

    p != 1 gives the single point h/(1-p); p == 1 gives either no fixed
    point (h != 0, "at_infinity") or the whole line (identity).
    """
    if g.p == 1:
        if g.h == 0:
            return FixedPoint("everywhere")
        return FixedPoint("at_infinity")
    return FixedPoint("point", g.h / (1 - g.p))
