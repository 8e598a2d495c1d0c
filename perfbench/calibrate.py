"""Host-speed probe: a fixed task, run on a timer while the workload runs,
whose mean time rescales the run's measured times to a reference host speed.

The benchmark shares a few cores of a host with other machines, and the
host's speed swings by a fifth or more within seconds and drifts over
minutes; CPU time swings with it, so process time does not remove it.
During an untraced run a SIGALRM timer interrupts the workload every
INTERVAL_S and runs the task once in the handler, so the task samples the
host's speed evenly over the run, long operations included.  An
operation's measured time leaves out the handler runs that fell inside it.
A time at reference speed is the measured time times REF_TASK_S over the
run's mean task time.

The task mixes what the workloads spend their time on: a HiGHS LP through
scipy, numpy on small arrays, and a Python-level heap loop.  It uses no code
of scflp, so no change to the package moves it.  Python runs the handler
between bytecodes, never inside a native call, so the task cannot re-enter
HiGHS while scflp is in it.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
from time import perf_counter, process_time

import numpy as np
from scipy.optimize import linprog

INTERVAL_S = 0.1
WINDOW_S = 1.0  # an operation's speed is the probe's mean from this long before it to this long after
# near the task's median time on the 2-core Xeon VM of the baseline (14-16 ms),
# so that rescaled times read close to measured ones there
REF_TASK_S = 0.0145


class ProbeError(RuntimeError):
    """The probe's LP did not solve, or the probe never ran: rescaled times
    cannot be trusted."""


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(20_240_101)
        self.a_ub = rng.uniform(0.0, 1.0, size=(160, 60))
        self.b_ub = rng.uniform(5.0, 10.0, size=160)
        self.c = -rng.uniform(0.0, 1.0, size=60)
        self.v = rng.uniform(0.1, 3.0, size=(40, 40))
        self.spans: list[tuple[float, float, float]] = []  # (start, wall s, process s) of each handler run

    def task(self) -> None:
        res = linprog(self.c, A_ub=self.a_ub, b_ub=self.b_ub, bounds=(0.0, 1.0), method="highs-ds")
        if res.status != 0:
            raise ProbeError(f"probe LP ended with status {res.status}")
        for j in range(40):
            np.argpartition(self.v[:, j] * res.x[j], 3)[:3].sum()
        heap: list[int] = []
        for i in range(8000):
            heapq.heappush(heap, (i * 7919) % 10007)
        while heap:
            heapq.heappop(heap)

    def _on_alarm(self, signum, frame) -> None:
        t0, c0 = perf_counter(), process_time()
        self.task()
        self.spans.append((t0, perf_counter() - t0, process_time() - c0))

    def start(self) -> None:
        for _ in range(3):  # warm-up, untimed
            self.task()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Host slowdown over [start - WINDOW_S, end + WINDOW_S], or over the
        whole run: mean task time there over the reference."""
        times = [wall for t0, wall, _ in self.spans if start - WINDOW_S <= t0 <= end + WINDOW_S]
        if not times:
            raise ProbeError("the probe never ran")
        return statistics.fmean(times) / REF_TASK_S
