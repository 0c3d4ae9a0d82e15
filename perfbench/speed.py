"""Machine-speed probes: fixed reference work timed next to the measured work.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third and more over tens of seconds, long enough to cover a whole
run, so the same code timed in two runs can differ by 25%. A probe times
a fixed piece of reference work, written here and sharing no code with
bordcalc: GF(2) elimination on Python sets of small ints and a dict
keyed by tuples, the operations bordcalc spends its time in, which slow
down together with it when the host is busy. The benchmark probes every
fraction of a second while it measures and scales each measured time by
NOMINAL_S / (median probe near it), which reads as the time on a host
that runs the probe in NOMINAL_S. The raw wall times are kept in
the run's record beside the scaled ones.

Collection is switched off during a probe, so a large bordcalc heap in
the same process does not slow the probe down.
"""

import bisect
import gc
import random
import statistics
import time

# the probe's median time on the machine the benchmark was defined on
NOMINAL_S = 0.0075
# a time is scaled by the probes taken during it and this many on each side
SIDE_PROBES = 12


def _rows():
    rng = random.Random(20261018)
    return [frozenset(rng.sample(range(240), 30)) for _ in range(60)]


_ROWS = _rows()


def _work():
    pivots = {}
    for row in _ROWS:
        row = set(row)
        while row:
            top = max(row)
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    table = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) ^ i
    return len(pivots) + len(table)


def probe():
    """(start, duration) of one run of the reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _work()
        return t, time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Prober:
    """Probes at most every `every` seconds; `probes` is the list of (start, s)."""

    def __init__(self, every=0.25):
        self.every = every
        self.probes = []
        self._last = None

    def __call__(self, force=False):
        now = time.perf_counter()
        if force or self._last is None or now - self._last >= self.every:
            self.probes.append(probe())
            self._last = time.perf_counter()


class Scale:
    """Scales times by the probes taken around them.

    time.perf_counter is the system's monotonic clock, so probes from
    one process scale times taken in another.
    """

    def __init__(self, probes):
        if not probes:
            raise ValueError('no speed probes')
        self.probes = sorted(probes)
        self.starts = [p[0] for p in self.probes]

    def factor(self, start, duration):
        """NOMINAL_S over the median of the probes taken during
        [start, start + duration] and the SIDE_PROBES on either side of it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + duration)
        near = self.probes[max(0, lo - SIDE_PROBES):hi + SIDE_PROBES]
        return NOMINAL_S / statistics.median(p[1] for p in near)

    def __call__(self, start, duration):
        return duration * self.factor(start, duration)
