"""Speed-scaled timing.

The machines this benchmark runs on share their cores: the same exact-
rational work runs up to twice as slow for stretches of seconds to
minutes, in step with load the benchmark cannot see.  A fixed probe of the
same kinds of work as the program slows down nearly in step, so every
time the benchmark reports is scaled by

    REFERENCE_PROBE_S / (probe duration while the work ran),

that is, expressed at the speed at which the probe takes
REFERENCE_PROBE_S.  A ``Sampler`` runs the probe from a SIGALRM handler
every INTERVAL_S seconds inside the process doing the work.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

# Median of probe() as sampled inside the benchmark's processes on the
# reference machine (2 cores, Python 3.11.7, fractions.Fraction) while it
# runs at full speed, so that reference seconds match seconds there.
REFERENCE_PROBE_S = 0.00088
INTERVAL_S = 0.05

# Monomials as sorted ((variable, exponent), ...) tuples, as in the
# program's polynomial rings, and exact-rational coefficients keyed by
# exponent triples, as in its generator polynomials.
_MONOMIALS = [
    tuple(sorted({(i % 3, j): (i * j) % 4 + 1 for j in range(5)}.items()))
    for i in range(40)
]
_A = {(i, j, 5 - i): Fraction(i + 1, 2 * j + 3) for i in range(6) for j in range(6)}
_B = dict(list(_A.items())[:4])


def probe():
    """Seconds taken by a fixed piece of work of both kinds the program
    does: dict-keyed products of exact rationals, and monomials rebuilt
    and merged as tuples."""
    t0 = perf_counter()
    out = {}
    for ka, x in _A.items():
        for kb, y in _B.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = out.get(k, 0) + x * y
    for mono in _MONOMIALS:
        for var in ((0, 1), (1, 2), (2, 3)):
            merged = dict(mono)
            merged[var] = merged.get(var, 0) + 1
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + 1
    return perf_counter() - t0


class Sampler:
    """Probes this process every INTERVAL_S seconds while started."""

    def __init__(self):
        self.samples = []  # (perf_counter at the probe, probe seconds)
        self._speed = []  # smoothed probe seconds, filled by stop()

    def _tick(self, signum, frame):
        # With the collector off, the probe's short-lived objects cannot
        # trigger a collection, so the program's own collections stay
        # where they would be without the probe.
        enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        self.samples.append((t, probe()))
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick(None, None)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._tick(None, None)
        durations = [d for _, d in self.samples]
        self._speed = []
        for i in range(len(durations)):
            window = sorted(durations[max(0, i - 2) : i + 3])
            self._speed.append(window[len(window) // 2])

    def scale(self, t0, t1):
        """Factor that turns seconds measured in [t0, t1] into reference
        seconds.  Each probe stands for the time up to halfway to its
        neighbours, at the speed given by the median of the five probes
        around it; the factor is the time-weighted mean over [t0, t1], so
        an operation that spans slow and fast phases is scaled piecewise."""
        times = [t for t, _ in self.samples]
        n = len(times)
        if t1 <= t0:
            i = min(range(n), key=lambda j: abs(times[j] - t0))
            return REFERENCE_PROBE_S / self._speed[i]
        total = 0.0
        for i, t in enumerate(times):
            lo = (times[i - 1] + t) / 2 if i else float("-inf")
            hi = (t + times[i + 1]) / 2 if i + 1 < n else float("inf")
            overlap = min(hi, t1) - max(lo, t0)
            if overlap > 0:
                total += overlap * REFERENCE_PROBE_S / self._speed[i]
        return total / (t1 - t0)
