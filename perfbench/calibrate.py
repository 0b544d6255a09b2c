"""Machine-speed probe: a fixed pure-Python task timed next to the solves.

On a shared host the same solve can take 30% longer from one minute to the
next, because other tenants' load comes and goes.  The probe times a fixed
task (`chunk`: component sweeps with one vertex deleted, on a fixed random
graph, the same kind of dict/set/list work the solver does) while the
solves run, and `Samples.factor` turns its times into a speed factor for
any stretch of the run.  A solve's wall time times that factor is its time
at the reference speed: the speed at which `chunk` takes `NOMINAL_S`.

The task uses no kcut code, so a change to kcut moves the solve times and
not the probe.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from typing import Callable, List, Optional

# median time of one `chunk` on a 2-vCPU Intel Xeon at 2.1 GHz (CPython 3.11)
NOMINAL_S = 0.0012
INTERVAL_S = 0.02  # one probe per 20 ms of solving, about 6% of the run
# Probes this far before and after a stretch also count: about one on each
# side.  The machine's speed changes within a second, and a wider window
# tracked short solves worse (p50 of one seed: 8% run-to-run spread at
# 0.5 s, 3% at 0.02 s).
WINDOW_S = 0.025

_N = 200


def _graph() -> List[List[int]]:
    rng = random.Random(20191006)
    adj: List[List[int]] = [[] for _ in range(_N)]
    for _ in range(3 * _N):
        u, v = rng.randrange(_N), rng.randrange(_N)
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _graph()


def chunk() -> int:
    """Count components with each tenth vertex deleted in turn."""
    total = 0
    for drop in range(0, _N, 10):
        seen = {drop}
        for s in range(_N):
            if s in seen:
                continue
            total += 1
            stack = [s]
            seen.add(s)
            while stack:
                for w in _ADJ[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return total


class Samples:
    """Probe times by when they were taken (perf_counter at their start)."""

    def __init__(self):
        self.at: List[float] = []
        self.took: List[float] = []

    def take(self) -> float:
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        return took

    def spent(self, t0: float, t1: float) -> float:
        """Time the probes that started in [t0, t1) took."""
        return sum(self.took[bisect.bisect_left(self.at, t0):bisect.bisect_left(self.at, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S / mean probe time around [t0, t1]; above 1 on a fast stretch.

        A long C call can hold a probe back; with none in the window, the
        nearest probe on each side counts.
        """
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        took = self.took[lo:hi]
        if not took:
            raise RuntimeError("no speed probe taken")
        return NOMINAL_S * len(took) / sum(took)


class Probe:
    """Takes a sample every INTERVAL_S of wall time from a SIGALRM handler.

    The handler runs between bytecodes of whatever the main thread is doing,
    so the probes are spread evenly over the solves, long ones included.
    Use as a context manager; `samples.spent` tells how much of a stretch
    the probes took, to subtract from its wall time.  `on_sample`, if
    given, is called with each probe's time as it is taken.
    """

    def __init__(self, samples: Samples,
                 on_sample: Optional[Callable[[float], None]] = None):
        self.samples = samples
        self.on_sample = on_sample
        self._old = None

    def _handler(self, signum, frame) -> None:
        took = self.samples.take()
        if self.on_sample is not None:
            self.on_sample(took)

    def __enter__(self) -> "Probe":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
