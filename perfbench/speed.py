"""Host speed reference: a fixed task timed between operations.

On a shared virtual machine the CPU time of the same Python code drifts by
1.5x and more, in phases from a fraction of a second to a minute, as other
guests load the host.  Every `EVERY_S` seconds of a run the benchmark
times `reference_task`, a fixed piece of interpreter work that calls no
library code: integer arithmetic with small big integers, a dict and a
sliding list of tuples, the staples of `bstwist`.  Each operation's CPU
time is then scaled by `NOMINAL_S` over the median of the `NEAREST`
reference times taken nearest to it, so the reported times are those of a
host on which the reference task takes `NOMINAL_S` of CPU, and a change of
host speed during or between runs cancels out.  This assumes the library
leaves no work running between its calls, which would be charged to the
reference task too.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left

from spans import cpu_ns

REFERENCE_N = 1_500
NOMINAL_S = 0.0012  # the reference task's CPU time on a 2.1 GHz Xeon: 0.9-1.5 ms
EVERY_S = 0.02
NEAREST = 3


def reference_task(n: int = REFERENCE_N) -> int:
    acc, counts, window = 0, {}, []
    for i in range(n):
        x = (i * 2654435761) % 1000003
        counts[x & 255] = counts.get(x & 255, 0) + 1
        window.append((x, i))
        if len(window) > 64:
            del window[:32]
        acc += (x ** 5) >> 40
    return acc + len(counts)


class SpeedLog:
    """Reference task CPU times, by the wall time at which they were taken."""

    nominal_s = NOMINAL_S

    def __init__(self):
        self.times: list[float] = []
        self.cpu_s: list[float] = []
        self.answer = reference_task()  # also warms the function up

    def sample(self, now: float) -> None:
        start = cpu_ns()
        answer = reference_task()
        self.cpu_s.append((cpu_ns() - start) / 1e9)
        self.times.append(now)
        if answer != self.answer:
            raise AssertionError("the reference task changed its answer")

    def due(self, now: float) -> None:
        if not self.times or now - self.times[-1] >= EVERY_S:
            self.sample(now)

    def scale(self, when: float) -> float:
        """Factor that turns a CPU time measured at wall time `when` into
        CPU time on the nominal host."""
        i = bisect_left(self.times, when)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return NOMINAL_S / statistics.median(self.cpu_s[lo:lo + NEAREST])

    def median_s(self) -> float:
        return statistics.median(self.cpu_s)
