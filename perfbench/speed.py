"""Machine-speed reference: a fixed pure-Python kernel timed all through a run.

The benchmark shares a few cores of a busy host. How fast those cores run
changes from one tenth of a second to the next (a core ran the kernel below
in 2.3 ms at some moments and in 4.4 ms at others) and, in its mix, from one
minute to the next, which moved raw run-to-run figures by a fifth or more.
So while a run measures, an interval timer interrupts it every INTERVAL_S
and times the kernel once; the time spent in the interrupt is taken out of
every timing. A timing over [t0, t1] is then reported at the reference
speed: multiplied by REFERENCE_S times the mean of 1/kernel-time over the
kernel samples taken in [t0 - PAD_S, t1 + PAD_S]. That is the work done in
the interval, in units of the kernel, times the kernel's time at the
reference speed.

A program change does not move the kernel: it uses no solvlie code, and it
runs with the garbage collector off, so the program's live heap does not
slow it. The change therefore moves the reported figures as it moves the
raw ones. The kernel does what solvlie spends its time on: Fraction
arithmetic on small integers in a Gaussian elimination over lists.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

# median kernel time on a 2-core Xeon VM; only a scale, so that reported
# figures read close to that machine's wall-clock ones
REFERENCE_S = 0.002
INTERVAL_S = 0.04
PAD_S = 0.1
MIN_SAMPLES = 4

_N = 6
_MATRIX = [[Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j + 2 * i + j) % 7)
            for j in range(_N + 2)] for i in range(_N)]


def kernel() -> Fraction:
    """Row-reduce a fixed 6 x 8 rational matrix; returns a checksum."""
    rows = [list(r) for r in _MATRIX]
    rank = 0
    for col in range(_N + 2):
        piv = next((i for i in range(rank, _N) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(_N):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return sum(r[-1] for r in rows)


_CHECKSUM = kernel()

Span = Tuple[float, float, float]       # (start, end, seconds less interrupts)


class Reference:
    """Kernel samples (when, seconds) and the clock that leaves them out."""

    def __init__(self):
        self.when: List[float] = []
        self.took: List[float] = []
        self.paused = 0.0               # seconds spent inside interrupts
        self.running = False

    def _time_kernel(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            took = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.when.append(t0)
        self.took.append(took)

    def _interrupt(self, signum, frame) -> None:
        t0 = perf_counter()
        self._time_kernel()
        self.paused += perf_counter() - t0

    def sample(self, count: int) -> None:
        """Time the kernel `count` times now, and check its result."""
        for _ in range(count):
            self._time_kernel()
        if kernel() != _CHECKSUM:
            raise AssertionError("the reference kernel changed its result")

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def mark(self) -> Tuple[float, float]:
        return perf_counter(), self.paused

    def since(self, mark: Tuple[float, float]) -> Span:
        t1, paused = perf_counter(), self.paused
        t0, paused0 = mark
        return t0, t1, (t1 - t0) - (paused - paused0)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S x mean of 1/kernel time over the samples in
        [t0 - PAD_S, t1 + PAD_S], the window widened until it holds at
        least MIN_SAMPLES."""
        pad = PAD_S
        while True:
            lo = bisect.bisect_left(self.when, t0 - pad)
            hi = bisect.bisect_right(self.when, t1 + pad)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.when):
                break
            pad *= 2
        took = self.took[lo:hi]
        return REFERENCE_S * sum(1.0 / k for k in took) / len(took)

    def scaled(self, span: Span) -> float:
        t0, t1, seconds = span
        return seconds * self.factor(t0, t1)
