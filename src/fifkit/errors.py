"""Typed errors raised by the library.

Every failure mode that callers are expected to branch on gets its own
class; everything inherits from FifkitError so blanket handling stays
possible.
"""


class FifkitError(Exception):
    """Base class for all library errors."""


class SingularMapError(FifkitError):
    """A map with a zero linear coefficient cannot be inverted."""


class IndexOutOfRangeError(FifkitError, IndexError):
    """A word references a generator index outside 1..m."""


class NotContractiveError(FifkitError):
    """A generator violates |p| < 1, |q| < 1 or has p == 0."""


class NotCoveringError(FifkitError):
    """The projected strips fail to cover the base interval."""


class NotAFunctionGraphError(FifkitError):
    """Branches disagree on a shared strip beyond tolerance."""


class DepthTooLargeError(FifkitError):
    """A depth/word budget would be exceeded (CLI exit code 2)."""


class OutOfDomainError(FifkitError):
    """An abscissa lies outside the base interval."""


class ResolutionInsufficientError(FifkitError):
    """A sample is too coarse to certify the requested quantity."""


class FixedPointInsideError(FifkitError):
    """The projected fixed point lies inside the base interval."""


class StepTooLargeError(FifkitError):
    """An orbit step exceeds the certified continuity scale."""


class NonpositiveRatioError(FifkitError):
    """Curve classification needs p > 0 and q > 0."""


class DegenerateDenominatorError(FifkitError):
    """A closed-form coefficient has an exactly zero denominator."""


class SpecFormatError(FifkitError):
    """A system description file does not follow the text format."""


class RoundingAmbiguityError(FifkitError):
    """Input rounding could make a float system's map p != 1 the identity."""


class NotCertifiableError(FifkitError):
    """The neighbour-map closure proves nothing for this system."""
