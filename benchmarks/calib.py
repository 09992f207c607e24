"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes, as other tenants come and go, and a fixed CPU loop
slows with it.  Raw wall-clock rates then spread between runs by more than
any bound worth holding a change to.  So while program work is timed, an
interval timer interrupts it every PERIOD_S and runs one small fixed
calibration task that is independent of polyest.  The program's time
between two ticks is rescaled by NOMINAL_S / (the calibration's measured
time at the tick), which gives program seconds on a machine that runs the
calibration task in NOMINAL_S.  A faster program still reads
proportionally faster; a slow moment of the machine slows the program and
the calibration alike and cancels.  The time spent calibrating is taken out
of the program's time.

The calibration task mixes the two kinds of work polyest does: pure-Python
dict and heap traffic (as in the networkx blossom and the estimator) and
numpy passes over small arrays (as in the frame simulation).
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

# Time of one calibrate() on the reference machine (2-vCPU Intel Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4) when it is not slowed.  A scale only.
NOMINAL_S = 0.0015
PERIOD_S = 0.025

_SIDE = 24
_ADJ = {
    (x, y): [(x + dx, y + dy) for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))
             if 0 <= x + dx < _SIDE and 0 <= y + dy < _SIDE]
    for x in range(_SIDE) for y in range(_SIDE)
}
_RNG = np.random.default_rng(12345)
_BITS = _RNG.random((128, 4096)) < 0.01
_PERM = _RNG.permutation(4096)


def _python_part() -> int:
    """Dijkstra over a grid graph with position-dependent weights."""
    dist = {(0, 0): 0}
    heap = [(0, (0, 0))]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in _ADJ[u]:
            nd = d + 1 + (v[0] * 7 + v[1] * 13) % 5
            if nd < dist.get(v, 1 << 30):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist[(_SIDE - 1, _SIDE - 1)]


def _numpy_part() -> int:
    """Frame-like XOR propagation of sparse bit rows through a permutation."""
    frame = np.zeros(4096, dtype=bool)
    for row in _BITS:
        frame ^= row
        frame = frame[_PERM]
    return int(frame.sum())


def calibrate() -> float:
    """Seconds one fixed calibration task takes now."""
    t = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t


class CalibratedClock:
    """Two clocks of program time, raw and rescaled, while ticks run.

    Between ``start()`` and ``stop()`` a SIGALRM every PERIOD_S runs one
    calibration task.  ``now()`` returns (raw, scaled): wall time minus the
    time spent in ticks, and the same time with each stretch between ticks
    multiplied by the speed factor measured at the tick that closes it (the
    open stretch uses the latest factor).  Differences of now() around an
    operation give its raw and rescaled durations.
    """

    def __init__(self):
        self.ticks = 0
        self._tick_s = 0.0
        self._scaled = 0.0
        self._mark = 0.0
        self._factor = 1.0

    def start(self) -> None:
        self._factor = NOMINAL_S / min(calibrate() for _ in range(3))
        self._mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        t = time.perf_counter()
        self._factor = NOMINAL_S / calibrate()
        self._scaled += (t - self._mark) * self._factor
        self._mark = time.perf_counter()
        self._tick_s += self._mark - t
        self.ticks += 1

    def now(self) -> tuple[float, float]:
        while True:  # a tick between the reads below would mix two states
            ticks = self.ticks
            t = time.perf_counter()
            raw, scaled = t - self._tick_s, self._scaled + (t - self._mark) * self._factor
            if ticks == self.ticks:
                return raw, scaled
