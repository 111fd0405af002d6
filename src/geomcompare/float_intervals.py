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

`direction_cosine` encloses sqrt(a) L / sqrt(R) for one completed square
a L^2 of a distance's radicand R. The generated gradient table calls it as
it is. It bounds that square's share of the distance's derivative by
sqrt(a) |dL|, where dR / (2 sqrt(R)) would enclose L twice, independently.
The generated code also calls `one_sided_quotient`, and its generator
folds constant roots with `root_of_constant`.
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


def root_of_constant(a: FI) -> FI:
    """sqrt(a) for a known a > 0: the point root where a is a float whose
    root is a float (exactly), else the outward `FI.sqrt`."""
    r = math.sqrt(a.lo)
    if a.lo == a.hi and Fraction(r) ** 2 == Fraction(a.lo):
        return FI(r, r)
    return a.sqrt()


def one_sided_quotient(num: FI, den: FI) -> FI:
    """Enclosure of num/den when the denominator touches zero on one side
    (quotients of nonnegative quantities stay bounded on one side)."""
    lo, hi = -INF, INF
    if den.lo >= 0.0 and den.hi > 0.0:
        if num.lo >= 0.0:
            lo = down(num.lo / den.hi)
        if num.hi <= 0.0:
            hi = up(num.hi / den.hi)
    elif den.hi <= 0.0 and den.lo < 0.0:
        if num.lo >= 0.0:
            hi = up(num.lo / den.lo)
        if num.hi <= 0.0:
            lo = down(num.hi / den.lo)
    return FI(lo, hi)


def direction_cosine(wl: float, wh: float, ql: float, qh: float) -> tuple[float, float]:
    """Ends of an enclosure of u = w / sqrt(w^2 + q) over [wl, wh] x
    ([ql, qh] meet [0, inf)), a subset of [-1, 1].

    With R = sum(a_i * L_i^2) + r, every a_i > 0 and r >= 0 a constant,
    w = sqrt(a_i) * L_i and q = R - a_i * L_i^2, u is the direction cosine in
    d sqrt(R) = sum(sqrt(a_i) * u_i * dL_i). u increases with w, and |u|
    decreases with q, so each end is u at one corner, rounded outward: the
    lower end at (wl, qh) for wl >= 0 and at (wl, ql) below, the upper end at
    (wh, ql) for wh >= 0 and at (wh, qh) below. A corner with q = 0 gives
    exactly -1 or 1 and one with w = 0 gives 0 (the interval's points there
    are 0 or not in the domain R > 0). Infinite ends give [-1, 1]."""
    if wl == -INF or wh == INF or qh == INF:
        return -1.0, 1.0
    if ql < 0.0:
        ql = 0.0
    return (_cosine_at(wl, qh if wl >= 0.0 else ql, upward=False),
            _cosine_at(wh, ql if wh >= 0.0 else qh, upward=True))


def _cosine_at(w: float, q: float, upward: bool) -> float:
    """w / sqrt(w^2 + q) for finite w and q >= 0, rounded toward +inf
    (`upward`) or -inf."""
    if w == 0.0:
        return 0.0
    if q == 0.0:
        return 1.0 if w > 0.0 else -1.0
    a = abs(w)
    if (w > 0.0) == upward:
        # an upper bound of the magnitude: the root rounded down
        den = down(math.sqrt(down(down(a * a) + q)))
        m = 1.0 if den <= 0.0 else min(1.0, up(a / den))
    else:
        # a lower bound: the root rounded up (an overflowed root gives 0)
        m = down(a / up(math.sqrt(up(up(a * a) + q))))
    return m if w > 0.0 else -m
