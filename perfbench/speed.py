"""A speed probe that runs interleaved with the program under test.

On the shared machines this benchmark was written on, the interpreter's
speed swings by up to 1.6x from one second to the next and by 1.3-1.5x
between minutes (other tenants' load on the same cores), so raw seconds of
the same work spread wider than any useful regression bound.  The probe
samples that speed while the program runs: every PERIOD_S seconds a
SIGALRM handler times `kernel()`, a fixed piece of interpreter work owned
by the benchmark (Fraction arithmetic, tuple keys over permutations, dict
updates: the operations reptile-lab spends its time in).  A pass's times
are then reported in reference-speed seconds:

    seconds * REFERENCE_KERNEL_S / mean(kernel sample time)

with the samples taken during (and about a second around) a verdict for
that verdict's time, and all samples of the pass for the pass's time.

The probe's own time is excluded from every measured interval.  Nothing
here touches the program; a change to the program moves its times and
leaves the kernel's alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from itertools import permutations

PERIOD_S = 0.25
START_SAMPLES = 3
WINDOW = 4
# kernel() time in seconds that defines the reference speed (about its
# median on the machine the reference figures were recorded on)
REFERENCE_KERNEL_S = 0.008


def kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
    best = None
    for p in permutations(range(5)):
        key = tuple(p[i] * 3 + p[(i + 1) % 5] for i in range(5))
        if best is None or key < best:
            best = key
    counts = {}
    for i in range(9000):
        k = (i % 97, i % 13)
        counts[k] = counts.get(k, 0) + 1
    return hash(acc) ^ hash(best) ^ len(counts)


class SpeedProbe:
    """Context manager sampling kernel() every PERIOD_S seconds of wall time.

    `clock()` (`clock_ns()`) is perf_counter minus the time spent sampling,
    so intervals measured with it exclude the probe.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - int(self.spent * 1e9)

    def __enter__(self):
        for _ in range(START_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def speed_factor(samples) -> float:
    """Multiplier from measured to reference-speed seconds."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)


def local_factor(samples, first: int, last: int) -> float:
    """Speed factor of an interval during which samples[first:last] were
    taken, widened by WINDOW samples (about a second) on each side."""
    return speed_factor(samples[max(0, first - WINDOW):last + WINDOW])
