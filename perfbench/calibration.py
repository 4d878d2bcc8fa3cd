"""Scale the benchmark's times to a nominal machine speed.

On a shared host the CPU runs 10-40 % slower for stretches of seconds to
minutes. A median over the calls of one run does not remove a slowdown that
lasts the whole run. So after every timed call the runner times two fixed
loops: one of plain integer arithmetic, and one of small numpy calls mixed
with float arithmetic, like sievar's batch-1 stepping. Their geometric mean
is the loop time. A call's times, and each set-up time, are multiplied by
``NOMINAL_S / measured``, with ``measured`` the geometric mean of the loop
times just before and just after it. The loops are benchmark code, so a
change to sievar changes the call and not the loops.

A one-thread workload is timed where it runs. A workload that runs more
threads uses every CPU, so its loops are timed once on each CPU in turn.

The loops are timed on the main thread alone. If other threads of the
process use CPU while they run, the machine looks slower than it is and
scaled times read low; ``Calibration.busy`` counts such timings so that the
run can fail its checks instead.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# Typical loop time on 2 vCPUs of an Intel Xeon at 2.1 GHz; scaled times are
# wall times at that speed.
NOMINAL_S = 0.006
REPEATS = 5
# Other threads may use this share of a loop's wall time.
BUSY_SHARE = 0.25

_START = np.linspace(-1.0, 1.0, 16)


def _integer_loop() -> int:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return acc


def _numpy_loop() -> float:
    x = _START
    acc = 0.0
    for i in range(1_800):
        x = np.tanh(0.9 * x + 0.05)
        acc += (i * 7 % 13) * 0.5 + float(x[i % 16])
    return acc


LOOPS = (_integer_loop, _numpy_loop)


class Calibration:
    """Loop times of one run and the scale factors they give."""

    def __init__(self, each_cpu: bool) -> None:
        self.each_cpu = each_cpu
        self.samples: list[float] = []
        self.busy = 0
        self.measure()

    def _time(self, loop) -> float:
        cpu0, thread0, t0 = time.process_time(), time.thread_time(), time.perf_counter()
        loop()
        t1 = time.perf_counter()
        if (time.process_time() - cpu0) - (time.thread_time() - thread0) > BUSY_SHARE * (t1 - t0):
            self.busy += 1
        return t1 - t0

    def _medians(self) -> list[float]:
        times = {loop: [] for loop in LOOPS}
        for _ in range(REPEATS):
            for loop in LOOPS:
                times[loop].append(self._time(loop))
        return [statistics.median(t) for t in times.values()]

    def measure(self) -> float:
        """Geometric mean of each loop's median time over REPEATS runs, on
        each CPU if ``each_cpu``. The result is also kept in ``samples``."""
        if not self.each_cpu:
            medians = self._medians()
        else:
            # Sets the calling thread's CPUs only; threads started later
            # inherit the restored set.
            cpus = os.sched_getaffinity(0)
            medians = []
            try:
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    medians += self._medians()
            finally:
                os.sched_setaffinity(0, cpus)
        loop_s = math.prod(medians) ** (1 / len(medians))
        self.samples.append(loop_s)
        return loop_s

    def factor(self) -> float:
        """Time the loops again. Return the factor that scales a time measured
        since the previous timing to nominal speed."""
        before = self.samples[-1]
        return NOMINAL_S / math.sqrt(before * self.measure())
