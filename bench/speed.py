"""Machine-speed probe used to rescale measured times.

The benchmark's host drifts in speed by up to 2.8x and switches between
a slow and a fast state within seconds (see NOTES.md).  A fixed slice of
Fraction arithmetic, the mix that dominates the exact jobs, is timed
alongside each measurement; a time multiplied by `speed_of(samples)` is
the time at the speed at which one probe takes REFERENCE_PROBE_S.
"""

import signal
import time
from fractions import Fraction

_PROBE = [(Fraction(k, 2 * k + 1), Fraction(3 * k + 1, 7 * k + 5)) for k in range(1, 33)]
REFERENCE_PROBE_S = 3e-4
SAMPLE_EVERY_S = 0.02


def probe() -> float:
    t0 = time.perf_counter()
    for a, b in _PROBE:
        a * b + a / b - b
    return time.perf_counter() - t0


def measure(n: int = 25) -> list:
    return [probe() for _ in range(n)]


def speed_of(samples) -> float:
    """Machine speed relative to the reference (above 1 is faster)."""
    return REFERENCE_PROBE_S * len(samples) / sum(samples)


class Sampler:
    """Times `probe` on a SIGALRM interval while the context is open."""

    def __init__(self):
        self.samples = [probe()]

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        return speed_of(self.samples)
