import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import geomcompare.algebraic as algebraic
from geomcompare.algebraic import (
    AlgebraicNumber,
    approx_decimal,
    count_real_roots,
    isolate_real_roots,
    to_radical,
)
from geomcompare.intervals import Interval
from geomcompare.polynomials import poly_from_univariate


def U(coeffs, name="m"):
    return poly_from_univariate([Fraction(c) for c in coeffs], name)


def test_sqrt2_roots():
    roots = isolate_real_roots(U([-2, 0, 1], "x"))
    assert len(roots) == 2
    lo, hi = roots
    assert lo.isolating.hi < 0 < hi.isolating.lo
    r = hi.refined(Fraction(1, 10 ** 6)).isolating
    assert r.contains(Fraction(1414213, 10 ** 6)) or abs(float(r.mid()) - 2 ** 0.5) < 1e-5


def test_golden_ratio_quartic():
    # phi satisfies phi^2 = phi + 1, hence phi^4 - 3 phi^2 + 1 = 0;
    # the reciprocal gives the second positive root
    roots = isolate_real_roots(U([1, 0, -3, 0, 1]))
    assert len(roots) == 4
    positive = [r for r in roots if r.sign > 0]
    assert len(positive) == 2
    vals = [float(r.approx()) for r in positive]
    assert abs(vals[0] - 0.6180339887) < 1e-8
    assert abs(vals[1] - 1.6180339887) < 1e-8


def test_pi_approximation_quartic():
    # squaring mu^2 = 40/3 - 2*sqrt(3) twice gives 9 m^4 - 240 m^2 + 1492
    roots = isolate_real_roots(U([1492, 0, -240, 0, 9]))
    positive = [r for r in roots if r.sign > 0]
    assert len(positive) == 2
    assert abs(float(positive[0].approx()) - 3.1415333387) < 1e-9


def test_rational_roots_exact():
    # (2x - 3)(x + 5) = 2x^2 + 7x - 15
    roots = isolate_real_roots(U([-15, 7, 2], "x"))
    assert [r.rational_value() for r in roots] == [Fraction(-5), Fraction(3, 2)]
    assert all(r.is_rational() for r in roots)


def test_refine_width_and_idempotence():
    root = [r for r in isolate_real_roots(U([-2, 0, 1], "x")) if r.sign > 0][0]
    w = Fraction(1, 10 ** 10)
    a = root.refined(w)
    assert a.isolating.width() <= w
    assert a.refined(w).isolating == a.isolating
    assert a.isolating.contains(Fraction(14142135623, 10 ** 10)) or \
        a.isolating.contains(Fraction(14142135624, 10 ** 10))


def test_refine_rational_degenerate():
    r = isolate_real_roots(U([-3, 2], "x"))[0]
    assert r.rational_value() == Fraction(3, 2)
    assert r.refined(Fraction(1, 10)).isolating == Interval.point(Fraction(3, 2))


# -- radicals ----------------------------------------------------------------

def test_radical_golden_ratio():
    root = [r for r in isolate_real_roots(U([-1, -1, 1])) if 1 <= float(r.approx()) <= 2][0]
    form = to_radical(root)
    assert form is not None
    assert form.render() == "(1+sqrt(5))/2"


def test_radical_golden_ratio_reciprocal_from_quartic():
    positive = [r for r in isolate_real_roots(U([1, 0, -3, 0, 1])) if r.sign > 0]
    small, large = positive
    assert to_radical(small).render() == "(sqrt(5)-1)/2"
    assert to_radical(large).render() == "(1+sqrt(5))/2"


def test_radical_pi_approximation():
    positive = [r for r in isolate_real_roots(U([1492, 0, -240, 0, 9])) if r.sign > 0]
    near_pi = positive[0]
    form = to_radical(near_pi)
    assert form is not None
    assert form.render() == "sqrt(40/3-2*sqrt(3))"


def test_radical_rational():
    root = isolate_real_roots(U([-3, 2]))[0]
    assert to_radical(root).render() == "3/2"


def test_radical_sqrt2():
    root = [r for r in isolate_real_roots(U([-2, 0, 1], "x")) if r.sign > 0][0]
    assert to_radical(root).render() == "sqrt(2)"


def test_radical_roundtrip_interval():
    for coeffs in ([-1, -1, 1], [1, 0, -3, 0, 1], [1492, 0, -240, 0, 9], [-2, 0, 1]):
        for root in isolate_real_roots(U(coeffs)):
            form = to_radical(root)
            if form is None:
                continue
            tight = root.refined(Fraction(1, 2 ** 64)).isolating
            assert form.value_interval(Fraction(1, 2 ** 64)).intersects(tight)


def test_radical_absent_for_general_quintic():
    roots = isolate_real_roots(U([-3, -1, 0, 0, 0, 1], "x"))
    assert any(to_radical(r) is None for r in roots if not r.is_rational())


# -- decimals ----------------------------------------------------------------

def test_decimal_sqrt2():
    root = [r for r in isolate_real_roots(U([-2, 0, 1], "x")) if r.sign > 0][0]
    assert approx_decimal(root, 6) == "1.41421"


def test_decimal_pi_approximation():
    positive = [r for r in isolate_real_roots(U([1492, 0, -240, 0, 9])) if r.sign > 0]
    assert approx_decimal(positive[0], 8) == "3.1415333"


def test_decimal_rational_trailing_zero():
    root = isolate_real_roots(U([-3, 2]))[0]
    assert approx_decimal(root, 3) == "1.50"


def test_decimal_matches_mpmath():
    import mpmath
    mpmath.mp.dps = 40
    root = [r for r in isolate_real_roots(U([1492, 0, -240, 0, 9])) if r.sign > 0][1]
    expected = mpmath.nstr(mpmath.sqrt(mpmath.mpf(40) / 3 + 2 * mpmath.sqrt(3)), 10,
                           strip_zeros=False)
    assert approx_decimal(root, 10) == expected


# -- Sturm properties ----------------------------------------------------------

def _random_squarefree(rng):
    while True:
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-8, 8)) for _ in range(deg)] + \
                 [Fraction(rng.choice([i for i in range(-8, 9) if i]))]
        p = U(coeffs, "x")
        roots = None
        try:
            return p
        except ValueError:
            continue


def test_root_count_matches_sturm_500_random():
    rng = random.Random(77)
    for _ in range(500):
        p = _random_squarefree(rng)
        roots = isolate_real_roots(p)
        assert len(roots) == count_real_roots(p)


def test_isolating_endpoint_signs():
    rng = random.Random(78)
    for _ in range(100):
        p = _random_squarefree(rng)
        for r in isolate_real_roots(p):
            c = r.minpoly.univariate_coeffs(r.var)
            lo = sum(co * r.isolating.lo ** i for i, co in enumerate(c))
            hi = sum(co * r.isolating.hi ** i for i, co in enumerate(c))
            if r.is_rational():
                assert lo == 0 or hi == 0
            else:
                assert (lo > 0) != (hi > 0)


# -- rational roots --------------------------------------------------------------

def _product(*factors):
    out = [Fraction(1)]
    for f in factors:
        nxt = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                nxt[i + j] += x * Fraction(y)
        out = nxt
    return out


def test_rational_roots_with_large_divisors():
    # both divisors of each factor exceed 20,000, as do their cofactors
    p = U(_product([-30011, 40009], [-30013, 40013], [-2, 0, 1]), "x")
    roots = isolate_real_roots(p)
    assert len(roots) == 4
    points = [r.rational_value() for r in roots if r.is_rational()]
    assert sorted(points) == [Fraction(30013, 40013), Fraction(30011, 40009)]
    surds = [r for r in roots if not r.is_rational()]
    assert all(r.minpoly == U([-2, 0, 1], "x") for r in surds)
    assert [r.sign for r in surds] == [-1, 1]
    assert [to_radical(r).render() for r in surds] == ["-sqrt(2)", "sqrt(2)"]


def test_rational_root_degree_one():
    root, = isolate_real_roots(U([30011, -40009], "x"))
    assert root.rational_value() == Fraction(30011, 40009)
    assert root.minpoly == U([-30011, 40009], "x")
    assert root.sign == 1


def test_rational_roots_degree_two_square_discriminant():
    # (40009x - 30011)(7x + 123456): discriminant is a perfect square
    roots = isolate_real_roots(U(_product([-30011, 40009], [123456, 7]), "x"))
    assert [r.rational_value() for r in roots] == \
        [Fraction(-123456, 7), Fraction(30011, 40009)]
    assert [r.sign for r in roots] == [-1, 1]


def test_irrational_roots_degree_two_nonsquare_discriminant():
    # 40009x^2 - 30011: discriminant 4*40009*30011 is not a square
    roots = isolate_real_roots(U([-30011, 0, 40009], "x"))
    assert len(roots) == 2
    assert not any(r.is_rational() for r in roots)
    assert all(r.minpoly == U([-30011, 0, 40009], "x") for r in roots)
    assert isolate_real_roots(U([1, 1, 1], "x")) == []


def _sign_at(c, x):
    v = sum(co * x ** i for i, co in enumerate(c))
    return (v > 0) - (v < 0)


def test_rational_roots_of_random_products_found_exactly():
    rng = random.Random(4501)
    for _ in range(40):
        points = set()
        while len(points) < rng.randint(1, 3):
            points.add(Fraction(rng.randint(-10 ** 5, 10 ** 5), rng.randint(1, 10 ** 5)))
        factors = [[-r.numerator, r.denominator] for r in points]
        k = rng.choice([n for n in range(2, 200) if math.isqrt(n) ** 2 != n])
        shift = rng.randint(-5, 5)
        # (x - shift)^2 - k: two irrational roots
        factors.append([shift * shift - k, -2 * shift, 1])
        rng.shuffle(factors)
        p = U(_product(*factors), "x")
        roots = isolate_real_roots(p)
        assert len(roots) == count_real_roots(p) == len(points) + 2
        exact = [r.rational_value() for r in roots if r.is_rational()]
        assert sorted(exact) == sorted(points)
        for r in roots:
            if r.is_rational():
                continue
            c = r.minpoly.univariate_coeffs(r.var)
            assert len(c) == 3
            assert _sign_at(c, r.isolating.lo) * _sign_at(c, r.isolating.hi) == -1


# -- closed-form quadratic roots against Sturm bisection -------------------------

WIDTHS = [Fraction(1, 2 ** 40), Fraction(1, 2 ** 64), Fraction(1, 10 ** 22),
          Fraction(1, 2 ** 512)]


def _fresh(a):
    """The same number with nothing cached on it."""
    return AlgebraicNumber(a.minpoly, a.isolating, a.sign)


def _refinements(a):
    out = [a.refined(w).isolating for w in WIDTHS]
    for _ in range(6):
        a = a.refined(a.isolating.width() / 4)
        out.append(a.isolating)
    return out


def _roots_and_refinements(p):
    """isolate_real_roots(p) as (minpoly, interval, sign) and the
    refinements of each root, of the number as given and of the same root
    under the negated minimal polynomial."""
    out = []
    for r in isolate_real_roots(p):
        out.append((r.minpoly, r.isolating, r.sign))
        if not r.is_rational():
            negated = AlgebraicNumber(-r.minpoly, r.isolating, r.sign)
            out += _refinements(_fresh(r)) + _refinements(negated)
    return out


@pytest.fixture
def bisection(monkeypatch):
    """Run a function with every closed form off: the Sturm bisection that
    the closed forms reproduce."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(algebraic, "_irrational_quadratic", lambda c: None)
            return fn(*args)
    return run


def _seeded_quadratics(n):
    rng = random.Random(1010)
    for _ in range(n):
        mag = rng.choice([10, 10 ** 4, 10 ** 8])
        c = [rng.randint(-mag, mag) for _ in range(2)] + \
            [rng.choice([-1, 1]) * rng.randint(1, mag)]
        if rng.random() < 0.3:      # rational coefficients
            c = [Fraction(x, rng.randint(1, 99)) for x in c]
        yield c


def test_closed_form_quadratics_equal_bisection(bisection):
    cases = list(_seeded_quadratics(60)) + [
        [-1, 10 ** 8, 1], [1, -10 ** 8, 3],     # a root near 0
        [-2, 0, 1], [-30011, 0, 40009], [-1, -1, 1]]
    closed = 0
    for c in cases:
        p = U(c, "x")
        assert _roots_and_refinements(p) == bisection(_roots_and_refinements, p)
        closed += algebraic._irrational_quadratic(
            algebraic._primitive_integer([Fraction(x) for x in c])) is not None
    assert closed >= 40


def test_closed_form_root_cell_touching_zero(bisection):
    # roots about 1e-8 and -1e8: the small root's Sturm cell ends at 0, and
    # it is refined by quarters until zero leaves its closed interval
    coeffs = [Fraction(x) for x in (-1, 10 ** 8, 1)]
    cells = algebraic._sturm_intervals(coeffs)
    assert cells == bisection(algebraic._sturm_intervals, coeffs)
    assert any(0 in cell for cell in cells)
    small = [r for r in isolate_real_roots(U(coeffs, "x")) if r.sign > 0][0]
    assert 0 < small.isolating.lo < small.isolating.hi < Fraction(1, 10 ** 7)


def test_closed_form_negative_leading_coefficient(bisection):
    # built directly, not normalised by isolate_real_roots
    root = AlgebraicNumber(U([3, 5, -7], "x"), Interval(Fraction(1), Fraction(2)), 1)
    got = _refinements(root)
    assert got == bisection(_refinements, _fresh(root))
    assert abs(float(got[0].lo) - (5 + math.sqrt(109)) / 14) < 1e-11


def test_closed_form_fallbacks(bisection):
    # a square discriminant: bisection lands on the rational root 2
    square = AlgebraicNumber(U([-4, 0, 1], "x"), Interval(Fraction(1), Fraction(3)), 1)
    assert square._quadratic is None
    assert square.refined(Fraction(1, 2 ** 64)).isolating == Interval.point(2)
    # non-integer coefficients: bisected, and the same cells as the
    # integer minimal polynomial's closed form
    half = AlgebraicNumber(U([-1, 0, Fraction(1, 2)], "x"), Interval(Fraction(1), Fraction(2)), 1)
    whole = AlgebraicNumber(U([-2, 0, 1], "x"), half.isolating, 1)
    assert half._quadratic is None and whole._quadratic is not None
    assert _refinements(half) == _refinements(whole) == \
        bisection(_refinements, _fresh(whole))
    # an interval holding no root: no sign change, so bisected
    empty = AlgebraicNumber(U([-2, 0, 1], "x"), Interval(Fraction(2), Fraction(3)), 1)
    assert _refinements(empty) == bisection(_refinements, _fresh(empty))


def test_extract_square_large_prime_square():
    # 8 * p^2 with p = 10^9 + 7: trial division stops at the cube root
    assert algebraic._extract_square(8 * 1000000007 ** 2) == (2 * 1000000007, 2)
    assert algebraic._extract_square(1000000007 * 998244353) == (1, 1000000007 * 998244353)
    for n in range(1, 2000):
        s, d = algebraic._extract_square(n)
        assert s * s * d == n
        assert all(d % (k * k) for k in range(2, math.isqrt(d) + 1))


def test_quadratic_radicand_factored_once(monkeypatch):
    # both branches of an irrational quadratic root share one radicand
    calls = []
    original = algebraic._extract_square

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(algebraic, "_extract_square", counting)
    for coeffs, rendered in (([-2, 0, 1], ["-sqrt(2)", "sqrt(2)"]),
                             ([-1, -1, 1], ["(1-sqrt(5))/2", "(1+sqrt(5))/2"]),
                             ([-3, 4, 5], ["(-2-sqrt(19))/5", "(sqrt(19)-2)/5"])):
        roots = isolate_real_roots(U(coeffs))
        for root, want in zip(roots, rendered):
            calls.clear()
            assert to_radical(root).render() == want
            assert len(calls) == 1, (coeffs, calls)


def test_biquadratic_radicand_factored_once(monkeypatch):
    # both branches of rho share one radicand, whether or not the root
    # denests (the golden ratio does, the Kochanski constant does not)
    calls = []
    original = algebraic._extract_square

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(algebraic, "_extract_square", counting)
    for coeffs, rendered in (
            ([1492, 0, -240, 0, 9], ["-sqrt(40/3+2*sqrt(3))", "-sqrt(40/3-2*sqrt(3))",
                                     "sqrt(40/3-2*sqrt(3))", "sqrt(40/3+2*sqrt(3))"]),
            ([1, 0, -3, 0, 1], ["(-1-sqrt(5))/2", "(1-sqrt(5))/2",
                                "(sqrt(5)-1)/2", "(1+sqrt(5))/2"])):
        roots = isolate_real_roots(U(coeffs))
        assert len(roots) == len(rendered)
        for root, want in zip(roots, rendered):
            calls.clear()
            assert to_radical(root).render() == want
            assert len(calls) == 1, (coeffs, calls)


def _squarefree_by_gcd(c):
    """The squarefree part through the polynomial gcd, for any degree."""
    d = algebraic._derive(c)
    if not algebraic._trim(d[:]):
        return c
    g = algebraic._gcd(c, d)
    if algebraic._degree(g) == 0:
        return c
    return algebraic._divmod_exact(c, g)[0]


def test_quadratics_skip_the_squarefree_gcd(monkeypatch):
    """A quadratic is squarefree exactly when its discriminant is nonzero:
    no gcd is taken, and the roots, intervals included, are those of the
    gcd path; a zero discriminant still takes the gcd."""
    cases = list(_seeded_quadratics(40)) + [[1, 2, 1], [9, -12, 4],
                                            [Fraction(1, 4), 1, 1], [-2, 0, 1]]
    with monkeypatch.context() as m:
        m.setattr(algebraic, "_squarefree", _squarefree_by_gcd)
        want = [_roots_and_refinements(U(c, "x")) for c in cases]
    calls = []
    original = algebraic._gcd
    monkeypatch.setattr(algebraic, "_gcd", lambda a, b: calls.append(a) or original(a, b))
    zero_discriminants = 0
    for c, roots in zip(cases, want):
        calls.clear()
        assert _roots_and_refinements(U(c, "x")) == roots, c
        c0, c1, c2 = (Fraction(x) for x in c)
        zero_discriminants += c1 * c1 == 4 * c2 * c0
        assert bool(calls) == (c1 * c1 == 4 * c2 * c0), c
    assert zero_discriminants == 3
