"""Directed-rounding float intervals for the branch-and-bound inner loop.

Python floats are exact binary rationals; widening every result by one ulp
on each side makes the arithmetic certified (IEEE basic operations and
sqrt round correctly, so the true value is within half an ulp). Exact
rational interfaces live in `intervals`; this module trades tightness for
speed inside the search.

`FI` defines the arithmetic. The box evaluator does not call it per
operation: `boxcode` writes each chart's evaluation out as straight-line
code on float pairs, with `FI.__mul__`'s sign cases, `power`, `sqrt`,
`divide` and `down`/`up` inlined, and its enclosures are bit-identical to
these methods (same operations, same order, same rounding, the same NaN,
infinity and signed-zero cases) but for one rule: an operation whose
result is exact, such as a product by a known 1, -1 or 0, is not rounded
(see `boxcode`). A change to the arithmetic here must be made in `boxcode`
too; `tests/test_codegen.py` compares the two.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def down(x: float) -> float:
    if x != x or x == -INF:
        return -INF
    if x == 0.0 and math.copysign(1.0, x) > 0:
        # +0.0 results come from exact zeros or positive underflow: the true
        # value is >= 0, so 0.0 is already a sound lower bound
        return 0.0
    return math.nextafter(x, -INF)


def up(x: float) -> float:
    if x != x or x == INF:
        return INF
    if x == 0.0 and math.copysign(1.0, x) < 0:
        return 0.0
    return math.nextafter(x, INF)


class FI:
    """Closed float interval [lo, hi], possibly unbounded."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(x: float) -> "FI":
        return FI(x, x)

    @staticmethod
    def from_fraction(f: Fraction) -> "FI":
        try:
            x = float(f)
        except OverflowError:
            return FI.whole()
        if math.isfinite(x) and Fraction(x) == f:
            return FI(x, x)
        return FI(down(x), up(x))

    @staticmethod
    def whole() -> "FI":
        return FI(-INF, INF)

    def width(self) -> float:
        return self.hi - self.lo

    def mid(self) -> float:
        if self.lo == -INF or self.hi == INF:
            return 0.0
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def intersect(self, other: "FI"):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return FI(lo, hi) if lo <= hi else None

    def hull(self, other: "FI") -> "FI":
        return FI(min(self.lo, other.lo), max(self.hi, other.hi))

    def __add__(self, o: "FI") -> "FI":
        return FI(down(self.lo + o.lo), up(self.hi + o.hi))

    def __sub__(self, o: "FI") -> "FI":
        return FI(down(self.lo - o.hi), up(self.hi - o.lo))

    def __neg__(self) -> "FI":
        return FI(-self.hi, -self.lo)

    def __mul__(self, o: "FI") -> "FI":
        a, b = self.lo, self.hi
        c, d = o.lo, o.hi
        if a >= 0.0:
            if c >= 0.0:
                lo, hi = a * c, b * d
            elif d <= 0.0:
                lo, hi = b * c, a * d
            else:
                lo, hi = b * c, b * d
        elif b <= 0.0:
            if c >= 0.0:
                lo, hi = a * d, b * c
            elif d <= 0.0:
                lo, hi = b * d, a * c
            else:
                lo, hi = a * d, a * c
        else:
            if c >= 0.0:
                lo, hi = a * d, b * d
            elif d <= 0.0:
                lo, hi = b * c, a * c
            else:
                p, q = a * d, b * c
                lo = p if p < q else q
                p, q = a * c, b * d
                hi = p if p > q else q
        if lo != lo:  # 0 * inf at a chosen corner: that corner contributes 0
            lo = 0.0
        if hi != hi:
            hi = 0.0
        return FI(down(lo), up(hi))

    def scale(self, c: float) -> "FI":
        if c >= 0:
            return FI(down(self.lo * c), up(self.hi * c))
        return FI(down(self.hi * c), up(self.lo * c))

    def divide(self, o: "FI"):
        """None when the divisor straddles zero."""
        if o.lo <= 0.0 <= o.hi:
            return None
        inv = FI(down(1.0 / o.hi), up(1.0 / o.lo))
        return self * inv

    def power(self, n: int) -> "FI":
        if n == 0:
            return FI(1.0, 1.0)
        if n == 1:
            return self
        if n % 2 == 1 or self.lo >= 0.0:
            return FI(down(self.lo ** n), up(self.hi ** n))
        if self.hi <= 0.0:
            return FI(down(self.hi ** n), up(self.lo ** n))
        return FI(0.0, up(max(self.lo ** n, self.hi ** n)))

    def sqrt(self):
        """None when entirely negative; a slightly-negative lower bound is
        clamped (radicands of lengths are nonnegative pointwise)."""
        if self.hi < 0.0:
            return None
        lo = 0.0 if self.lo <= 0.0 else down(math.sqrt(self.lo))
        return FI(lo, up(math.sqrt(self.hi)))

    def __repr__(self):
        return f"fi[{self.lo!r}, {self.hi!r}]"
