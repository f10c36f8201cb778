"""A fixed reference kernel that gauges how fast the CPU runs right now.

On a shared host the same single-threaded code runs up to ~1.5x slower
for seconds to minutes at a time, and CPU time slows with wall time, so
neither clock can tell program changes from host load. The gauge
therefore times a small kernel every PERIOD_S seconds from a SIGALRM
handler, which Python runs in the main thread between two bytecodes of
whatever the program is doing: the readings sample the host's speed
during each operation, not only between operations. A timing is then
reported at reference speed: its wall time without the gauge's own time,
times the mean of NOMINAL_S / reading over the readings taken while it
ran. The readings fall evenly in wall time, so that mean is the share of
reference-speed work the host got done per wall second; one reading
stretched by a preemption moves it little. The kernel does what the
workloads do, in miniature: small matmuls, elementwise numpy, an FFT and
plain Python, and it never touches the program under test.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# One reading every PERIOD_S of wall time; a reading takes ~1.1 ms, so the
# gauge costs about 1% of the run, and its time is taken out of each timing.
PERIOD_S = 0.1
# A timing with fewer readings inside it is scaled by its whole phase's.
MIN_READINGS = 5
# The kernel's time on the development host, an Intel Xeon at 2.1 GHz with
# one BLAS thread: the first quartile of 683 readings taken over a minute
# of the build workload, standing in for the host unloaded. It only sets
# the unit; changing it scales every timing alike.
NOMINAL_S = 0.00112


class SpeedGauge:
    def __init__(self):
        self.readings = []  # (start, seconds) per reading
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 64))
        self._b = rng.normal(size=(64, 256))
        self._frames = rng.normal(size=(16, 1024)) * np.hanning(1024)

    def _kernel(self):
        total = 0.0
        for _ in range(15):
            total += float(np.maximum(self._a @ self._b, 0.0).sum())
            total += sum(i * 0.5 for i in range(40))
        total += float(np.abs(np.fft.rfft(self._frames, axis=1)).sum())
        return total

    def _read(self, *_):
        start = time.perf_counter()
        self._kernel()
        self.readings.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, start: float, end: float) -> list[float]:
        """Durations of the readings taken between ``start`` and ``end``."""
        return [s for t, s in self.readings if start <= t and t + s <= end]

    def net(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` without the gauge's own."""
        return end - start - sum(self.within(start, end))

    def scale(self, start: float, end: float, phase: tuple[float, float]) -> float:
        """Factor that turns the net time from ``start`` to ``end`` into
        reference-speed time; ``phase`` is the span of the run's phase it
        belongs to, used when the timing itself holds too few readings."""
        readings = self.within(start, end)
        if len(readings) < MIN_READINGS:
            readings = self.within(*phase)
        if not readings:
            self._read()
            readings = [self.readings[-1][1]]
        return statistics.mean(NOMINAL_S / r for r in readings)
