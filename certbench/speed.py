"""The machine's speed, measured while the program runs.

The shared 2-core machines this benchmark runs on change speed by up to
half for minutes at a time, with CPU time following wall time: six runs
of `bounds_free` took a median of 29.2 s per round in one phase and
18.8 s half an hour later, with the same code and seeds. A run therefore
also measures the machine, and reports every time scaled to a reference
speed:

    reported = wall time * reference kernel time / measured kernel time

A `Speedometer` thread wakes every half second and times one slice of a
fixed kernel by its own thread CPU time (about 15 ms, so about 3 % of the
run), which excludes the time it waits for the interpreter lock while the
program computes. The slices fall all through the run, during the long
comparisons too. The kernel is the benchmark's own code and never changes
with the program, so a program that does its work faster still reads
faster.

The kernel does, in miniature and in pure Python like the program, what
the program spends its time on: outward-rounded float interval products on
slotted objects (`evaluate_box`), a heap of boxes keyed in a dict
(`branch_and_bound`), and Fraction polynomial evaluation (root isolation).
Each part's time is divided by its reference time; a slice's slowness is
the mean of the three. The machine switches between a fast and a slow
state (about 2x apart) within seconds, so a run's slowness is the mean
over its slices, which weighs the two states by the time spent in each,
as the program's time does; the highest and lowest tenth are left out, as
a slice can also pay for a garbage collection of the program's heap.
"""

from __future__ import annotations

import heapq
import math
import statistics
import threading
import time
from fractions import Fraction

# thread CPU seconds each part of one slice takes on the machine the
# benchmark was written on (a 2-core virtual machine, Python 3.11), in the
# slower of the two phases described above
REFERENCE_S = {"intervals": 0.00478, "heap": 0.00513, "fractions": 0.00553}

INTERVAL_S = 0.5


class _FI:
    """A float interval rounded outward by one ulp, as the program's are."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    def add(self, other: "_FI") -> "_FI":
        return _FI(math.nextafter(self.lo + other.lo, -math.inf),
                   math.nextafter(self.hi + other.hi, math.inf))

    def mul(self, other: "_FI") -> "_FI":
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return _FI(math.nextafter(min(p), -math.inf),
                   math.nextafter(max(p), math.inf))


def intervals(n: int = 400) -> float:
    """A quadratic in two interval variables, by Horner, over n boxes."""
    coeffs = [_FI(c, c) for c in (0.5, -1.25, 2.0, 0.75)]
    acc = 0.0
    for i in range(n):
        x = _FI(-1.0 + i * 1e-4, -0.5 + i * 2e-4)
        y = _FI(0.25 - i * 1e-4, 1.5 + i * 1e-4)
        v = coeffs[0]
        for c in coeffs[1:]:
            v = v.mul(x).add(c)
        v = v.add(y.mul(y).mul(coeffs[3]))
        acc += v.hi - v.lo
    return acc


def heap(n: int = 1500) -> int:
    """Push n boxes, pop them in key order, splitting every third one."""
    boxes: dict[int, tuple] = {}
    queue: list = []
    for i in range(n):
        key = ((i * 7919) % 1009) / 1009.0
        boxes[i] = (key, key + 0.5, [i, i + 1])
        heapq.heappush(queue, (key, i))
    popped = 0
    while queue:
        key, i = heapq.heappop(queue)
        lo, hi, ids = boxes.pop(i)
        popped += len(ids)
        if i % 3 == 0 and hi - lo > 0.1:
            j = i + n
            boxes[j] = (lo, (lo + hi) / 2, ids)
            heapq.heappush(queue, (key + 0.25, j))
    return popped


def fractions(n: int = 150) -> int:
    """Evaluate a cubic with Fraction coefficients at n rational points,
    as a Sturm sequence or a bisection does."""
    coeffs = [Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13), Fraction(-1, 3)]
    total = 0
    x = Fraction(1, 2)
    for i in range(n):
        v = Fraction(0)
        for c in coeffs:
            v = v * x + c
        total += v.numerator % 1000003
        x = (x + Fraction(i + 1, 2 * i + 3)) / 2
        if x.denominator > 10 ** 40:
            x = Fraction(x.numerator % 9973 + 1, x.denominator % 9967 + 1)
    return total


PARTS = {"intervals": intervals, "heap": heap, "fractions": fractions}


def slice_slowness() -> float:
    """One slice of the kernel: its thread CPU time over the reference, 1.0
    at the reference speed."""
    ratios = []
    for name, part in PARTS.items():
        start = time.thread_time()
        part()
        ratios.append((time.thread_time() - start) / REFERENCE_S[name])
    return sum(ratios) / len(ratios)


class Speedometer:
    """Times a kernel slice every INTERVAL_S in a thread of its own, from
    `start()` until `stop()`; the first slice runs at once."""

    def __init__(self) -> None:
        self.slowness: list[float] = []
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            self.slowness.append(slice_slowness())
            if self._stopped.wait(INTERVAL_S):
                return

    def factor(self) -> float:
        """What a wall time is multiplied by to give reference seconds."""
        ordered = sorted(self.slowness)
        cut = len(ordered) // 10
        return 1.0 / statistics.fmean(ordered[cut:len(ordered) - cut])
