"""A fixed reference computation, timed between the benchmark's calls, that
scales every end-to-end timing to one machine speed.

The 2-vCPU VM this benchmark was tuned on switches between a fast and a
slow state that each last some tens of seconds; in the slow state the same
call takes 1.4 to 1.7 times as long, in CPU time as in wall time.  Whole
runs fall in one state or the other, so raw timings of one commit spread by
30-50% across runs.  A probe times the reference computation between calls
(at most every `EVERY_S` seconds, and before and after each set-up), and a
timing is multiplied by `REF_S` over the median of the probe samples nearest
to it in time.  A scaled time reads as the time on a machine on which the
reference takes `REF_S` seconds; the raw times are printed beside it.

The reference is exact rational arithmetic, as the package's work is: a
`Fraction` harmonic sum, whose denominators grow to hundreds of digits, and
Horner evaluation of a rational polynomial at large rational points.  Of
the candidates tried (these two, rational elimination, dict and integer
work, string building), this pair tracked the slow state best on all four
workloads: over four minutes of calls interleaved with the probe, the
scaled time of each workload varied by 2-3% (standard deviation over mean
of 10-s medians) where the raw time varied by 13-14%.  It uses only the
standard library and never the package, so a change to the package cannot
change it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

REF_S = 0.010  # about the reference's time on the VM in its fast state
EVERY_S = 0.2  # the least time between two samples taken between calls
NEAREST = 5  # samples whose median scales one timing
REPEATS = 3  # passes of the reference computation in one sample

_rng = random.Random(20160719)
_POLY = [Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(40)]
_POINTS = (Fraction(123457, 1000), Fraction(-98765, 4321), Fraction(10**6 + 3))


def reference() -> tuple[Fraction, Fraction]:
    """The fixed work the probe times: REPEATS independent passes."""
    for _ in range(REPEATS):
        harmonic = Fraction(0)
        for i in range(1, 700):
            harmonic += Fraction(1, i)
        horner = Fraction(0)
        for x in _POINTS:
            acc = Fraction(0)
            for c in _POLY:
                acc = acc * x + c
            horner += acc
    return harmonic, horner


class Probe:
    """Samples of the reference's duration, each stamped with its
    midpoint on the `time.perf_counter` clock."""

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")
        for _ in range(3):  # warm-up, not recorded
            reference()

    def sample(self) -> None:
        started = time.perf_counter()
        reference()
        ended = time.perf_counter()
        self.stamps.append((started + ended) / 2)
        self.durations.append(ended - started)
        self._last = ended

    def between_calls(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        """REF_S over the median of the NEAREST samples around time at."""
        if not self.durations:
            raise RuntimeError("no reference sample taken")
        i = bisect.bisect_left(self.stamps, at)
        lo = max(0, min(i - NEAREST // 2, len(self.stamps) - NEAREST))
        return REF_S / statistics.median(self.durations[lo:lo + NEAREST])

    def scaled(self, start: float, end: float) -> float:
        """The interval's length scaled to the reference speed."""
        return (end - start) * self.factor((start + end) / 2)
