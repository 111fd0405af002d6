"""Real algebraic numbers: Sturm-sequence root isolation, interval
refinement, radical rendering for low-degree constants, decimal output.

A root is carried as (squarefree defining polynomial, isolating interval);
rational roots are extracted exactly first so they print as rationals.
After squarefree and primitive-integer normalisation a rational root p/q
in lowest terms has q | an (the leading coefficient), so an*r is an
integer. Degree 1 gives the root -c0/c1; degree 2 has rational roots
exactly when its discriminant is a perfect square, (-c1 +- s)/(2 an);
a higher degree is Sturm-isolated, each interval narrowed below 1/an and
the one multiple of 1/an inside it tested exactly. The search is
complete and its cost does not depend on factoring any coefficient. The
rational roots are deflated out and the rest isolated by Sturm bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, sqrt_bounds, sqrt_interval
from .polynomials import Polynomial, poly_from_univariate

Coeffs = list[Fraction]  # dense, index = exponent


# ---------------------------------------------------------------------------
# dense univariate helpers
# ---------------------------------------------------------------------------

def _trim(c: Coeffs) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return c

def _degree(c: Coeffs) -> int:
    return len(c) - 1

def _eval(c: Coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc

def _derive(c: Coeffs) -> Coeffs:
    return _trim([c[i] * i for i in range(1, len(c))])

def _neg_rem(a: Coeffs, b: Coeffs) -> Coeffs:
    """-(a mod b) for the Sturm chain."""
    a = a[:]
    db, lead = _degree(b), b[-1]
    while _trim(a) and _degree(a) >= db:
        k = _degree(a) - db
        f = a[-1] / lead
        for i in range(len(b)):
            a[i + k] -= f * b[i]
        a = _trim(a)
    return [-x for x in a]

def _sturm_chain(c: Coeffs) -> list[Coeffs]:
    chain = [c[:], _derive(c)]
    while chain[-1] and _degree(chain[-1]) > 0:
        nxt = _neg_rem(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return [s for s in chain if s]

def _variations(chain: list[Coeffs], x: Fraction) -> int:
    signs = []
    for s in chain:
        v = _eval(s, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

def _variations_inf(chain: list[Coeffs], positive: bool) -> int:
    signs = []
    for s in chain:
        lead = s[-1]
        sign = 1 if lead > 0 else -1
        if not positive and _degree(s) % 2 == 1:
            sign = -sign
        signs.append(sign)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

def _gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = a[:], b[:]
    while _trim(b):
        r = _neg_rem(a, b)
        a, b = b, [-x for x in r]
    a = _trim(a)
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a

def _squarefree(c: Coeffs) -> Coeffs:
    d = _derive(c)
    if not _trim(d[:]):
        return c
    g = _gcd(c, d)
    if _degree(g) == 0:
        return c
    q, _ = _divmod_exact(c, g)
    return q

def _divmod_exact(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    a = a[:]
    q = [Fraction(0)] * (max(_degree(a) - _degree(b), -1) + 1)
    db, lead = _degree(b), b[-1]
    while _trim(a) and _degree(a) >= db:
        k = _degree(a) - db
        f = a[-1] / lead
        q[k] = f
        for i in range(len(b)):
            a[i + k] -= f * b[i]
        a = _trim(a)
    return _trim(q), a

def _primitive_integer(c: Coeffs) -> Coeffs:
    den = 1
    for x in c:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [x * den for x in c]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x.numerator))
    g = g or 1
    out = [x / g for x in ints]
    if out[-1] < 0:
        out = [-x for x in out]
    return out

def _sturm_intervals(c: Coeffs) -> list[tuple[Fraction, Fraction]]:
    """Intervals (a, b], each holding exactly one root of the squarefree
    `c`, by bisection of the Cauchy interval on Sturm counts."""
    chain = _sturm_chain(c)
    bound = Fraction(1) + max(abs(x) for x in c[:-1]) / abs(c[-1]) \
        if len(c) > 1 else Fraction(1)
    total = _variations_inf(chain, False) - _variations_inf(chain, True)
    stack = [(-bound, bound)]
    intervals: list[tuple[Fraction, Fraction]] = []
    while stack:
        a, b = stack.pop()
        n = _variations(chain, a) - _variations(chain, b)
        if n == 0:
            continue
        if n == 1:
            intervals.append((a, b))
            continue
        mid = (a + b) / 2
        # a root at mid is counted once, in (a, mid]
        stack.append((a, mid))
        stack.append((mid, b))
    assert len(intervals) == total or total == 0
    return intervals

def _rational_roots(c: Coeffs) -> list[Fraction]:
    """Every rational root of a squarefree primitive integer polynomial
    with c[0] != 0. A root p/q in lowest terms has q | an, so it is a
    multiple of 1/an: degrees 1 and 2 have closed forms; otherwise each
    Sturm interval is narrowed below 1/an and its one candidate tested."""
    if _degree(c) == 1:
        return [-c[0] / c[1]]
    if _degree(c) == 2:
        s = _is_square(c[1] * c[1] - 4 * c[2] * c[0])
        if s is None:
            return []
        return [(-c[1] - s) / (2 * c[2]), (-c[1] + s) / (2 * c[2])]
    an = int(c[-1])
    step = Fraction(1, an)
    found: list[Fraction] = []
    for a, b in _sturm_intervals(c):
        # the one root lies in (a, b]; keep it there, bisecting on signs
        fb = _eval(c, b)
        while fb and b - a >= step:
            mid = (a + b) / 2
            fmid = _eval(c, mid)
            if fmid == 0 or (fmid > 0) == (fb > 0):
                b, fb = mid, fmid
            else:
                a = mid
        if fb == 0:
            found.append(b)
            continue
        k = math.floor(b * an)
        if k > a * an and _eval(c, Fraction(k, an)) == 0:
            found.append(Fraction(k, an))
    return found


# ---------------------------------------------------------------------------
# algebraic numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicNumber:
    """A real root: squarefree defining poly + isolating interval + sign."""

    minpoly: Polynomial          # univariate, integer-primitive coefficients
    isolating: Interval          # contains exactly this one root
    sign: int                    # -1, 0, +1

    @property
    def var(self) -> str:
        return self.minpoly.vars[0]

    def is_rational(self) -> bool:
        return self.isolating.lo == self.isolating.hi

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational point")
        return self.isolating.lo

    def _coeffs(self) -> Coeffs:
        return self.minpoly.univariate_coeffs(self.var)

    def refined(self, width: Fraction) -> "AlgebraicNumber":
        """Shrink the isolating interval to the given width; same root."""
        width = Fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        iv = self.isolating
        if iv.width() <= width or self.is_rational():
            return self
        c = self._coeffs()
        lo, hi = iv.lo, iv.hi
        flo = _eval(c, lo)
        if flo == 0:
            return AlgebraicNumber(self.minpoly, Interval.point(lo), _sign_of(lo))
        while hi - lo > width:
            mid = (lo + hi) / 2
            fmid = _eval(c, mid)
            if fmid == 0:
                return AlgebraicNumber(self.minpoly, Interval.point(mid), _sign_of(mid))
            if (flo > 0) != (fmid > 0):
                hi = mid
            else:
                lo, flo = mid, fmid
        return AlgebraicNumber(self.minpoly, Interval(lo, hi), self.sign)

    def approx(self, width: Fraction = Fraction(1, 10 ** 12)) -> Fraction:
        return self.refined(width).isolating.mid()

    def __float__(self) -> float:
        return float(self.approx())


def _sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def isolate_real_roots(p: Polynomial) -> list[AlgebraicNumber]:
    """All distinct real roots, increasing, rational roots exact."""
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    name = p.univariate_in() or (p.vars[0] if p.vars else "x")
    coeffs = _trim([Fraction(c) for c in p.univariate_coeffs(name)]) if p.vars \
        else _trim([p.constant_value()])
    if _degree(coeffs) <= 0:
        return []
    coeffs = _squarefree(coeffs)
    coeffs = _primitive_integer(coeffs)

    roots: list[AlgebraicNumber] = []

    # root at zero
    shift = 0
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
        shift += 1
    if shift:
        roots.append(AlgebraicNumber(poly_from_univariate([0, 1], name),
                                     Interval.point(0), 0))

    # rational roots, exact, deflated out
    rational = _rational_roots(coeffs) if _degree(coeffs) >= 1 else []
    for r in rational:
        roots.append(AlgebraicNumber(
            _normalized_linear(r, name), Interval.point(r), _sign_of(r)))
        coeffs, _ = _divmod_exact(coeffs, [-r, Fraction(1)])
        coeffs = _primitive_integer(coeffs)

    # irrational roots via Sturm bisection
    if _degree(coeffs) >= 1:
        minpoly = poly_from_univariate(coeffs, name)
        for a, b in _sturm_intervals(coeffs):
            alg = AlgebraicNumber(minpoly, Interval(a, b), 0)
            # exclude already-found rational points and determine the sign
            for r in [x.isolating.lo for x in roots]:
                while alg.isolating.contains(r):
                    alg = alg.refined(alg.isolating.width() / 4)
            while alg.isolating.contains(0):
                alg = alg.refined(alg.isolating.width() / 4)
            sign = 1 if alg.isolating.lo > 0 else -1
            alg = AlgebraicNumber(alg.minpoly, alg.isolating, sign)
            roots.append(alg)

    roots.sort(key=lambda a: (a.isolating.lo, a.isolating.hi))
    return roots


def _normalized_linear(r: Fraction, name: str) -> Polynomial:
    return poly_from_univariate(_primitive_integer([-r, Fraction(1)]), name)


def count_real_roots(p: Polynomial) -> int:
    """Sturm count of distinct real roots over (-inf, inf)."""
    name = p.univariate_in() or p.vars[0]
    coeffs = _squarefree(_trim(list(p.univariate_coeffs(name))))
    if _degree(coeffs) <= 0:
        return 0
    chain = _sturm_chain(coeffs)
    return _variations_inf(chain, False) - _variations_inf(chain, True)


def refine(a: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
    return a.refined(width)


# ---------------------------------------------------------------------------
# radical forms
# ---------------------------------------------------------------------------

def _is_square(r: Fraction) -> Optional[Fraction]:
    if r < 0:
        return None
    sn, sd = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if sn * sn == r.numerator and sd * sd == r.denominator:
        return Fraction(sn, sd)
    return None


def _extract_square(n: int) -> tuple[int, int]:
    """n = s^2 * d with d squarefree-ish (trial division)."""
    s, d, i = 1, n, 2
    while i * i <= d:
        while d % (i * i) == 0:
            d //= i * i
            s *= i
        i += 1
    return s, d


@dataclass(frozen=True)
class RadicalForm:
    """Value a + b*sqrt(d), optionally under an outer square root.

    outer=False: value = a + b*sqrt(d)            (b may be 0: rational)
    outer=True:  value = negated * sqrt(a + b*sqrt(d))
    Depth is at most two; d is a squarefree positive integer (0 if unused).
    """

    a: Fraction
    b: Fraction
    d: int
    outer: bool = False
    negated: bool = False

    @staticmethod
    def rational(r) -> "RadicalForm":
        return RadicalForm(Fraction(r), Fraction(0), 0)

    @staticmethod
    def surd(a, b, d: int) -> "RadicalForm":
        a, b = Fraction(a), Fraction(b)
        if b == 0 or d == 0:
            return RadicalForm.rational(a)
        s, d2 = _extract_square(d)
        b *= s
        if d2 == 1:
            return RadicalForm.rational(a + b)
        return RadicalForm(a, b, d2)

    def value_interval(self, precision: Fraction = Fraction(1, 2 ** 64)) -> Interval:
        inner = Interval.point(self.a)
        if self.b:
            lo, hi = sqrt_bounds(Fraction(self.d), precision / (4 * (abs(self.b) + 1)))
            inner = inner + Interval(lo, hi) * self.b
        if not self.outer:
            return inner
        out = sqrt_interval(inner, precision / 2)
        return -out if self.negated else out

    def render(self) -> str:
        if self.outer:
            body = f"sqrt({_render_surd_plain(self.a, self.b, self.d)})"
            return f"-{body}" if self.negated else body
        if self.b == 0:
            return _render_rat(self.a)
        return _render_surd_normalized(self.a, self.b, self.d)


def _render_rat(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def _render_surd_plain(a: Fraction, b: Fraction, d: int) -> str:
    """a + b*sqrt(d) with rational literals, e.g. '40/3-2*sqrt(3)'."""
    root = f"sqrt({d})"
    if b == 0:
        return _render_rat(a)
    mag = abs(b)
    bpart = root if mag == 1 else f"{_render_rat(mag)}*{root}"
    if a == 0:
        return bpart if b > 0 else f"-{bpart}"
    sign = "+" if b > 0 else "-"
    return f"{_render_rat(a)}{sign}{bpart}"


def _render_surd_normalized(a: Fraction, b: Fraction, d: int) -> str:
    """Common-denominator form, e.g. '(1+sqrt(5))/2' or '(sqrt(5)-1)/2'."""
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    na, nb = a * den, b * den  # integers
    root = f"sqrt({d})"
    rootpart = root if abs(nb) == 1 else f"{abs(nb)}*{root}"
    if na == 0:
        num = rootpart if nb > 0 else f"-{rootpart}"
        wrap = False
    elif nb > 0 and na > 0:
        num, wrap = f"{na}+{rootpart}", True
    elif nb > 0:
        num, wrap = f"{rootpart}-{-na}", True
    elif na > 0:
        num, wrap = f"{na}-{rootpart}", True
    else:
        num, wrap = f"-{-na}-{rootpart}", True
    if den == 1:
        return f"({num})" if wrap else num
    if wrap:
        return f"({num})/{den}"
    return f"{num}/{den}"


def _denest(a: Fraction, b: Fraction, d: int) -> Optional[tuple[Fraction, Fraction]]:
    """sqrt(a + b*sqrt(d)) = x + y*sqrt(d) with rational x, y, if possible."""
    s = _is_square(a * a - b * b * d)
    if s is None:
        return None
    for t in ((a + s) / 2, (a - s) / 2):
        x = _is_square(t)
        if x is not None and x > 0:
            y = b / (2 * x)
            # the square root is the positive branch
            return (x, y) if _surd_positive(x, y, d) else (-x, -y)
    return None


def _surd_positive(x: Fraction, y: Fraction, d: int) -> bool:
    if y == 0:
        return x > 0
    lo, hi = sqrt_bounds(Fraction(d), Fraction(1, 2 ** 40))
    iv = Interval.point(x) + Interval(lo, hi) * y
    if iv.lo > 0:
        return True
    if iv.hi < 0:
        return False
    # x + y*sqrt(d) == 0 cannot happen for rational x, y != 0 and nonsquare d
    return x > 0


def to_radical(alg: AlgebraicNumber) -> Optional[RadicalForm]:
    """Radical rendering for degree 1, 2 and biquadratic degree-4 roots."""
    if alg.is_rational():
        return RadicalForm.rational(alg.rational_value())
    c = alg._coeffs()
    deg = _degree(c)
    if deg == 2:
        return _pick_branch(alg, _quadratic_candidates(c[2], c[1], c[1] ** 2 - 4 * c[2] * c[0]))
    if deg == 4 and c[1] == 0 and c[3] == 0:
        return _biquadratic_radical(alg, c)
    return None


def _quadratic_candidates(c2: Fraction, c1: Fraction, disc: Fraction) -> list[RadicalForm]:
    """Both branches of (-c1 ± sqrt(disc)) / (2 c2) as radical forms."""
    out = []
    base = -c1 / (2 * c2)
    sd = _is_square(disc)
    for s in (1, -1):
        if sd is not None:
            out.append(RadicalForm.rational(base + s * sd / (2 * c2)))
        else:
            # sqrt(num/den) = sqrt(num*den) / den
            num, den = disc.numerator, disc.denominator
            out.append(RadicalForm.surd(base, Fraction(s, 1) / (2 * c2 * den), num * den))
    return out


def _pick_branch(alg: AlgebraicNumber, candidates: list[RadicalForm]) -> Optional[RadicalForm]:
    target = alg.refined(Fraction(1, 2 ** 48)).isolating
    for form in candidates:
        if form.value_interval(Fraction(1, 2 ** 56)).intersects(target):
            return form
    return None


def _biquadratic_radical(alg: AlgebraicNumber, c: Coeffs) -> Optional[RadicalForm]:
    # monic m^4 + p m^2 + q; the square of the root picks the branch of
    # rho = (-p ± sqrt(p^2 - 4q)) / 2 and the root is sign * sqrt(rho)
    p, q = c[2] / c[4], c[0] / c[4]
    disc = p * p - 4 * q
    negated = alg.sign < 0
    candidates: list[RadicalForm] = []
    for s in (1, -1):
        sd = _is_square(disc)
        if sd is not None:
            rho = (-p + s * sd) / 2
            if rho < 0:
                continue
            r = _is_square(rho)
            if r is not None:
                candidates.append(RadicalForm.rational(-r if negated else r))
            else:
                candidates.append(RadicalForm(rho, Fraction(0), 0, outer=True,
                                              negated=negated))
        else:
            num, den = disc.numerator, disc.denominator
            surd = RadicalForm.surd(-p / 2, Fraction(s, 2 * den), num * den)
            if surd.b == 0:
                continue
            den_xy = _denest(surd.a, surd.b, surd.d)
            if den_xy is not None:
                x, y = den_xy
                if negated:
                    x, y = -x, -y
                candidates.append(RadicalForm.surd(x, y, surd.d))
            else:
                candidates.append(RadicalForm(surd.a, surd.b, surd.d, outer=True,
                                              negated=negated))
    return _pick_branch(alg, candidates)


# ---------------------------------------------------------------------------
# decimals
# ---------------------------------------------------------------------------

def approx_decimal(alg: AlgebraicNumber, digits: int) -> str:
    """Correctly rounded decimal with `digits` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    iv = alg.refined(Fraction(1, 10 ** (digits + 6))).isolating
    mid = iv.mid()
    if mid == 0 and alg.sign == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    neg = mid < 0
    mag = abs(mid)
    # exponent of the leading digit
    e = 0
    if mag:
        while mag >= 10:
            mag /= 10
            e += 1
        while mag < 1:
            mag *= 10
            e -= 1
    scale = Fraction(10) ** (digits - 1 - e)
    scaled = abs(mid) * scale
    n = int(scaled)
    if scaled - n >= Fraction(1, 2):
        n += 1
    if n >= 10 ** digits:  # rounding bumped the leading digit
        n //= 10
        e += 1
    s = str(n)
    if e >= digits - 1:
        text = s + "0" * (e - digits + 1)
    elif e >= 0:
        text = s[: e + 1] + "." + s[e + 1:]
    else:
        text = "0." + "0" * (-e - 1) + s
    return "-" + text if neg else text
