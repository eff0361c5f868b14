"""The host-speed reference the benchmark's times are scaled by.

The shared host this benchmark runs on switches between a fast and a slow
state (1.5 to 2.2 times slower, CPU time equal to wall time) every few
seconds to minutes, and one state can last a whole run.  No estimator over a
run's own timings undoes that.  So the benchmark times a fixed piece of
interpreter work, ``kernel``, every ``INTERVAL_S`` of the process's CPU time,
from a SIGPROF handler, so that long calls are sampled too.  Each call's
time, less the samples taken inside it, is scaled by how much slower than
the reference the samples around it ran.  The kernel is this file's own code
and never changes with the package, so a faster package still reads faster.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import signal
import time
from fractions import Fraction

_rng = random.Random(12345)
_POINTS = [(_rng.random(), _rng.random()) for _ in range(24)]
_FRACTIONS = [Fraction(_rng.randrange(1, 50), _rng.randrange(1, 50)) for _ in range(40)]

# CPU seconds between samples; one sample takes 0.5 to 1 ms
INTERVAL_S = 0.02
# one kernel's time at the reference speed: its fastest sampled time on the
# host the benchmark was defined on, so a second at the reference speed is
# about a second of that host's fast state
KERNEL_REF_S = 0.0006


def kernel():
    """A fixed mix of the interpreter work the package does: float
    distances, keyed sorts, dict and set updates, Fraction arithmetic and a
    subset scan."""
    n = len(_POINTS)
    dist = [[math.dist(p, q) for q in _POINTS] for p in _POINTS]
    levels = sorted({x for row in dist for x in row})
    counts = {}
    for i in range(n):
        for j in sorted(range(n), key=dist[i].__getitem__)[:6]:
            counts[j] = counts.get(j, 0) + 1
    covered = set()
    for r in levels[::40]:
        for i in range(n):
            if dist[i][0] <= r:
                covered.add(i)
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a / b
        if total > 10:
            total -= 10
    best = math.inf
    for sub in itertools.combinations(range(12), 3):
        best = min(best, sum(dist[a][b] for a, b in itertools.combinations(sub, 2)))
    return len(counts), len(covered), total, best


class Sampler:
    """Samples of the kernel's time, taken every ``INTERVAL_S`` of CPU time
    once started."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        # seconds spent in samples, to take out of the calls they fell in
        self.spent = 0.0

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.starts.append(start)
        self.seconds.append(seconds)
        self.spent += seconds

    def start(self):
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start, end):
        """The factor that turns seconds measured between ``start`` and
        ``end`` into seconds at the reference speed: from the samples taken
        in that window, or if there are fewer than two, also from the
        nearest one on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < 2:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        window = self.seconds[lo:hi]
        return KERNEL_REF_S * len(window) / sum(window)

