"""Host-speed probe: a fixed reference kernel timed between and during the
benchmark's own steps, so that end-to-end times can be reported at one
host speed.

The benchmark runs on a shared VM whose speed drifts by tens of percent
within seconds; CPU time tracks wall time, so the drift is the host's, not
the scheduler's. The kernel below does the kinds of work the engine does
and never changes with the engine, so the ratio of its time at nominal
speed to its time now is the host's current speed. ``run.py`` times the kernel after every cycle, every
``PERIOD_S`` from a timer signal while ``Engine.run`` runs, and around every
set-up, and multiplies the engine's times by that ratio measured next to
them. The kernel's own time is taken out of every time it falls into.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# About the median seconds of one ``Probe.kernel`` call during a run on the
# VM the baseline was recorded on (2 vCPU Intel Xeon, CPython 3.11, numpy
# 2.4). A normalised time reads as that VM's time at this kernel speed.
NOMINAL_S = 1.2e-4
# Interval of the timer that samples the host during ``Engine.run``; with
# the kernel's ~0.2 ms it costs about 2% of the run.
PERIOD_S = 0.01


def factor(ticks: list[float]) -> float:
    """Nominal over current host speed: multiply a time by it to normalise it."""
    return NOMINAL_S / statistics.median(ticks)


class Probe:
    """The kernel and the start and duration of every call of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((50, 6))
        self._batch = rng.standard_normal((1000, 6))
        self._w = rng.standard_normal(6)
        self._busy = False
        self.starts: list[float] = []
        self.durations: list[float] = []  # of the timed call
        self.spent: list[float] = []  # of the whole tick, warm-up call included

    def kernel(self, rounds: int = 4) -> int:
        """Small numpy operations in a Python loop, a numpy operation over a
        1000-row batch every other round, and small records built and
        JSON-encoded: the kinds of work an engine cycle and its writes do.
        Host contention slows them by different amounts, so the kernel
        mixes them in about equal parts of its time."""
        a, w, batch = self._a, self._w, self._batch
        s, records = 0.0, []
        for i in range(rounds):
            z = a @ w
            s += float(np.exp(-np.abs(z)).sum()) + float(np.maximum(a[:, i % 6], 0.0).mean())
            if i % 2 == 0:
                s += float(np.exp(-np.abs(batch @ w)).sum())
            records += [{"round": i, "agent": j, "kind": "Sign", "detail": f"agent {j}",
                         "score": s} for j in range(4)]
        return len(json.dumps(records))

    def tick(self) -> float:
        """Time one kernel call and record it; a timer tick that lands
        inside another call is dropped. A one-round call first brings the
        kernel's code and data back into the caches the engine evicted, so
        the timed call measures the host, not the engine's cache footprint."""
        if self._busy:
            return 0.0
        self._busy = True
        start = perf_counter()
        self.kernel(1)
        t0 = perf_counter()
        self.kernel()
        dt = perf_counter() - t0
        self.starts.append(start)
        self.durations.append(dt)
        self.spent.append(perf_counter() - start)
        self._busy = False
        return dt

    def ticks(self, n: int) -> list[float]:
        return [self.tick() for _ in range(n)]

    def clear(self) -> None:
        self.starts.clear()
        self.durations.clear()
        self.spent.clear()

    @contextmanager
    def sampling(self):
        """Tick every ``PERIOD_S`` of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _span(self, t0: float, t1: float) -> slice:
        """The ticks that started in ``[t0, t1)``; ticks are recorded in start order."""
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def window(self, t0: float, t1: float) -> list[float]:
        """Kernel times of the ticks that started in ``[t0, t1)``."""
        return self.durations[self._span(t0, t1)]

    def time_in(self, t0: float, t1: float) -> float:
        """Seconds the ticks that started in ``[t0, t1)`` took."""
        return sum(self.spent[self._span(t0, t1)])
