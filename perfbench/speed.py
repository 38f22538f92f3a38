"""Machine-speed calibration, so that figures read alike on a busy host.

On a shared host the speed of one core drifts by a third or more within
seconds (other tenants on the sibling hyperthread, frequency changes),
and process CPU time drifts with it.  The benchmark therefore times a
fixed pure-Python loop, shaped like the package's bitmask propagation,
while it measures: ``BURST`` times between operations at least every
``INTERVAL_S`` seconds, and inside long operations every ``TICK_S``
seconds of CPU time, from a ``SIGPROF`` handler.  A time measured while the loop took
``t`` milliseconds is reported as ``time * REF_MS / t``: milliseconds at
the reference speed, the speed at which the loop takes ``REF_MS``.  The
time spent in the loop itself is taken out of the operation it
interrupted.  The loop never calls the package, so a change to the
package cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_MS = 1.0
INTERVAL_S = 0.1
BURST = 3
TICK_S = 0.02
WINDOW_S = 0.25
_ROUNDS = 3000
_ADJ = tuple((0x9E3779B1 * (v + 1)) & 0xFFFFFF for v in range(24))


def _loop() -> int:
    adj = _ADJ
    blue = 1
    for i in range(_ROUNDS):
        white = adj[i % 24] & ~blue
        if white and white & (white - 1) == 0:
            blue |= white
        blue ^= (white & -white) | (i & 7)
    return blue


class Speedometer:
    """Calibration samples over a run; converts measured spans to reference time."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter seconds, increasing
        self.ends: list[float] = []
        self.factors: list[float] = []  # REF_MS / loop ms
        self._last = float("-inf")
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a tick arrived during a sample: samples never nest
            return
        self._busy = True
        try:  # a budget alarm may interrupt the loop; the sample is then dropped
            start = time.perf_counter()
            _loop()
            end = time.perf_counter()
        finally:
            self._busy = False
        self.starts.append(start)
        self.ends.append(end)
        self.factors.append(REF_MS / ((end - start) * 1000))
        self._last = end

    def maybe_sample(self) -> None:
        """Between operations: a burst of BURST samples every INTERVAL_S."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            for _ in range(BURST):
                self.sample()

    def ticking(self, on: bool) -> None:
        """Start or stop sampling inside operations, every TICK_S of CPU time."""
        if on:
            signal.signal(signal.SIGPROF, lambda _signum, _frame: self.sample())
            signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        else:
            signal.setitimer(signal.ITIMER_PROF, 0)

    def spent(self, start: float, end: float) -> float:
        """Seconds of [start, end] taken by calibration samples."""
        i = bisect.bisect_left(self.ends, start)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < end:
            total += min(end, self.ends[i]) - max(start, self.starts[i])
            i += 1
        return total

    def factor(self, start: float, end: float) -> float:
        """Median factor of the samples inside [start, end], else of those
        within WINDOW_S of it, else of the nearest one."""
        for pad in (0.0, WINDOW_S):
            lo = bisect.bisect_left(self.starts, start - pad)
            hi = bisect.bisect_right(self.ends, end + pad)
            if lo < hi:
                return statistics.median(self.factors[lo:hi])
        i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
        if i > 0 and start - self.ends[i - 1] < self.starts[i] - end:
            i -= 1
        return self.factors[i]
