"""Wall time corrected for the speed of a shared host.

On a machine shared with other tenants, the same pure-Python loop runs up
to 1.6x slower for stretches of seconds to minutes, and vroute's calls slow
with it.  :class:`HostClock` times a call and, while it runs, samples a
fixed reference loop: twice before, every ``INTERVAL_S`` from a SIGALRM
handler in the main thread (so no thread is started), and twice after.  The
call's wall time, less the time the samples took, is scaled by ``NOMINAL_S``
over the samples' mean, leaving out the top and bottom tenth: the seconds
the call would have taken had the host run the reference loop in
``NOMINAL_S``.  A change to vroute cannot speed up or slow down the
reference loop, so it moves the corrected time exactly as it moves the raw
one; the host's drift mostly cancels.
"""
from __future__ import annotations

import signal
import statistics
import time

ITERATIONS = 40_000
NOMINAL_S = 0.003        # reference loop time that defines the corrected second
INTERVAL_S = 0.05
EDGE_SAMPLES = 2         # reference samples just before and just after a call


def reference_time(samples: list[float]) -> float:
    """Mean of reference-loop samples without the top and bottom tenth."""
    lo, *_, hi = statistics.quantiles(samples, n=10)
    return statistics.fmean(s for s in samples if lo <= s <= hi)


def reference_loop() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostClock:
    """Times calls in raw and host-corrected seconds."""

    def __init__(self):
        self._samples: list[float] = []
        self._stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(reference_loop())
        self._stolen += time.perf_counter() - t0

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (result, raw seconds, corrected seconds)."""
        self._samples = [reference_loop() for _ in range(EDGE_SAMPLES)]
        self._stolen = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw -= self._stolen
        self._samples += [reference_loop() for _ in range(EDGE_SAMPLES)]
        return result, raw, self.correct(raw, self._samples)

    @staticmethod
    def correct(raw: float, samples: list[float]) -> float:
        """Correct a span timed without the sampler from samples around it."""
        return raw * NOMINAL_S / reference_time(samples)
