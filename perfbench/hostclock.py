"""Host-speed correction for the benchmark's timings.

The machines this benchmark runs on change speed by 1.7x or more from
one second to the next, and CPU time tracks wall time, so neither clock
separates the program's cost from the host's. A HostClock therefore runs
a fixed reference computation (a small de Bruijn normaliser over tuples,
independent of lambdalab and close to its allocation-heavy instruction
mix) from a SIGALRM handler every TICK_S seconds, in the same thread as
the measured code. Its timings sample how fast the host is at each
moment, and corrected() converts a measured interval into the seconds it
would have taken on a host where the probe takes REFERENCE_PROBE_S.

The handler's own time is subtracted from every interval it interrupts,
so the probe costs the measured code only the cache lines it evicts.
Intervals in which this process only waits on a child keep the probe's
time: with a core to spare, the child loses none of it to the probe.
"""

from __future__ import annotations

import bisect
import signal
import time

TICK_S = 0.01
# Probe duration on the reference host (2-core VM, Python 3.11) when it
# runs at full speed; the constant only sets the unit of the output.
REFERENCE_PROBE_S = 55e-6
_WINDOW_S = 0.2
_MIN_SAMPLES = 5


def _shift(d, cutoff, t):
    k = t[0]
    if k == 0:
        return (0, t[1] + d) if t[1] >= cutoff else t
    if k == 1:
        return (1, _shift(d, cutoff + 1, t[1]))
    return (2, _shift(d, cutoff, t[1]), _shift(d, cutoff, t[2]))


def _subst(t, j, s):
    k = t[0]
    if k == 0:
        return s if t[1] == j else t
    if k == 1:
        return (1, _subst(t[1], j + 1, _shift(1, 0, s)))
    return (2, _subst(t[1], j, s), _subst(t[2], j, s))


def _step(t):
    if t[0] == 2:
        m, n = t[1], t[2]
        if m[0] == 1:
            return _shift(-1, 0, _subst(m[1], 0, _shift(1, 0, n)))
        m2 = _step(m)
        if m2 is not None:
            return (2, m2, n)
        n2 = _step(n)
        return None if n2 is None else (2, m, n2)
    if t[0] == 1:
        b = _step(t[1])
        return None if b is None else (1, b)
    return None


def _church(n):
    body = (0, 0)
    for _ in range(n):
        body = (2, (0, 1), body)
    return (1, (1, body))


_MUL = (1, (1, (1, (2, (0, 2), (2, (0, 1), (0, 0))))))
_PROBE_TERM = (2, (2, _MUL, _church(3)), _church(4))


def probe() -> None:
    """The reference computation: normalise 3 * 4 on Church numerals."""
    t = _PROBE_TERM
    while t is not None:
        t = _step(t)


class HostClock:
    """Samples host speed while started; corrects intervals measured
    with time.perf_counter between start() and stop()."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._running = False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        probe()  # warm the probe's code paths before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def probe_time_within(self, a: float, b: float) -> float:
        """Seconds the probe itself ran inside [a, b)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def speed(self, a: float, b: float) -> float:
        """Host speed over [a, b] relative to the reference host: the
        mean of REFERENCE_PROBE_S / probe time over the samples within
        _WINDOW_S of the interval, widened to the _MIN_SAMPLES nearest
        when the interval is short. Averaging the inverse weights each
        sample by the work the host could do in it."""
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("host clock took no samples")
        lo = bisect.bisect_left(self.starts, a - _WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + _WINDOW_S)
        while hi - lo < min(_MIN_SAMPLES, n):
            if lo > 0:
                lo -= 1
            if hi < n:
                hi += 1
        inv = [REFERENCE_PROBE_S / (self.ends[i] - self.starts[i])
               for i in range(lo, hi)]
        return sum(inv) / len(inv)

    def corrected(self, a: float, b: float, waiting: bool = False) -> float:
        """[a, b] in reference-host seconds, minus the probe's own time
        unless the interval was spent waiting on a child process."""
        own = 0.0 if waiting else self.probe_time_within(a, b)
        return (b - a - own) * self.speed(a, b)
