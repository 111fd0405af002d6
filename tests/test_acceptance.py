"""Acceptance suite: every criterion runs at its stated tolerance and time
budget and prints one pass/fail line.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest

from geomcompare.algebraic import approx_decimal
from geomcompare.bounds import branch_and_bound, compile_charts
from geomcompare.construction import parse_construction, translate
from geomcompare.exact_ratio import (
    eliminate_to_mu,
    numeric_crosscheck,
    ratio_sample,
    solve_mu,
)
from geomcompare.intervals import Interval, eval_interval
from geomcompare.pipeline import CompareConfig, compare_source
from geomcompare.polynomials import (
    BuchbergerLimits,
    Polynomial,
    ResourceLimitError,
    TermOrder,
    buchberger,
    reduce_poly,
    render,
    s_polynomial,
)
from geomcompare.presolve import presolve
from geomcompare.service import solve_wire

mpmath.mp.dps = 40
TOL = Fraction(1, 10 ** 6)


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _budget(num, started, limit):
    elapsed = time.monotonic() - started
    _report(f"{num} (budget)", elapsed <= limit,
            f"{elapsed:.1f}s of {limit:.0f}s budget")


def _case(name):
    return open(f"benchmarks/{name}.gct").read()


def test_criterion_1_triangle_sum_square_bounds():
    started = time.monotonic()
    result = compare_source(_case("sum_square_vs_products"),
                            CompareConfig(timeout=9.0))
    inf, sup = result.bounds.inf, result.bounds.sup
    ok = (result.variant == "bounds"
          and inf.enclosure is not None and inf.enclosure.contains(3)
          and inf.enclosure.width() <= TOL
          and inf.attainment == "attained" and inf.witness_margin > 1e-3
          and sup.enclosure is not None and sup.enclosure.contains(4)
          and sup.attainment == "limit-conjectured"
          and inf.exact is not None and inf.exact.value.rational_value() == 3
          and sup.exact is not None and sup.exact.value.rational_value() == 4)
    _report(1, ok, f"inf {inf.enclosure} {inf.attainment}, "
                   f"sup {sup.enclosure} {sup.attainment}")
    _budget(1, started, 10.0)


def test_criterion_2_medians():
    started = time.monotonic()
    result = compare_source(_case("medians"), CompareConfig(timeout=9.0))
    inf, sup = result.bounds.inf, result.bounds.sup
    rep = result.transcript
    ok = (result.variant == "bounds"
          and inf.exact is not None
          and inf.exact.value.rational_value() == Fraction(3, 2)
          and inf.attainment == "limit-conjectured"      # strict
          and sup.attainment == "unbounded-evidence"
          and (rep.input_equations, rep.input_variables) == (10, 12)
          and (rep.output_equations, rep.output_variables) == (6, 8))
    _report(2, ok, f"inf exact {inf.exact.render() if inf.exact else None} "
                   f"({inf.attainment}), sup {sup.attainment}, "
                   f"presolve {rep.input_equations}/{rep.input_variables}"
                   f"->{rep.output_equations}/{rep.output_variables}")
    _budget(2, started, 10.0)


def test_criterion_3_relaxed_pythagoras():
    started = time.monotonic()
    result = compare_source(_case("pythagoras_relaxed"),
                            CompareConfig(timeout=9.0))
    inf = result.bounds.inf
    ok = (inf.exact is not None
          and inf.exact.value.rational_value() == Fraction(1, 2)
          and inf.attainment == "limit-conjectured")
    _report(3, ok, f"inf exact {inf.exact.render() if inf.exact else None} "
                   f"({inf.attainment})")
    _budget(3, started, 10.0)


def test_criterion_4_right_triangle_equality():
    started = time.monotonic()
    result = compare_source(_case("pythagoras_right"),
                            CompareConfig(timeout=1.9))
    ok = (result.variant == "exact"
          and len(result.exact.candidates) == 1
          and result.exact.candidates[0].value.rational_value() == 1)
    _report(4, ok, "ratio = 1 via elimination")
    _budget(4, started, 2.0)


def test_criterion_5_pentagon_candidates():
    started = time.monotonic()
    # eq mode: exactly the two positive candidates with radical forms
    result = compare_source(_case("pentagon_diagonal"),
                            CompareConfig(timeout=9.0, mode="eq"))
    cands = result.exact.candidates
    renders = [c.radical.render() for c in cands]
    ok = renders == ["(sqrt(5)-1)/2", "(1+sqrt(5))/2"]
    # the convex instantiation witnesses the golden ratio only
    src = _case("pentagon_diagonal")
    t, _ = presolve(translate(parse_construction(src)))
    ratio, _ = ratio_sample(t, random.Random(7), {2: (1, 1)}, Fraction(1, 2 ** 128))
    convex = [abs(ratio.mid() - c.value.refined(Fraction(1, 10 ** 22)).isolating.mid())
              < Fraction(1, 10 ** 20) for c in cands]
    ok = ok and convex == [False, True]
    # the constrained variant reports the single candidate in auto mode
    constrained = compare_source(_case("pentagon_diagonal_convex"),
                                 CompareConfig(timeout=9.0))
    ok = ok and constrained.variant == "exact" \
        and len(constrained.exact.candidates) == 1 \
        and constrained.exact.candidates[0].radical.render() == "(1+sqrt(5))/2"
    _report(5, ok, f"candidates {renders}, convex witnesses {convex}, "
                   f"constrained -> "
                   f"{[c.radical.render() for c in constrained.exact.candidates]}")
    _budget(5, started, 10.0)


def test_criterion_6_pi_approximation():
    started = time.monotonic()
    result = compare_source(_case("kochanski_pi"), CompareConfig(timeout=4.5))
    cands = result.exact.candidates
    near_pi = cands[0]
    minpoly = render(result.exact.eliminated_poly)
    # oracle: mu^2 = 40/3 - 2 sqrt(3); squaring twice gives the quartic
    mu = mpmath.sqrt(mpmath.mpf(40) / 3 - 2 * mpmath.sqrt(3))
    assert abs(9 * mu ** 4 - 240 * mu ** 2 + 1492) < mpmath.mpf("1e-25")
    ok = (result.variant == "exact"
          and minpoly == "9*m^4-240*m^2+1492"
          and near_pi.radical is not None
          and near_pi.radical.render() == "sqrt(40/3-2*sqrt(3))"
          and approx_decimal(near_pi.value, 8) == "3.1415333"
          and near_pi.witnessed)
    _report(6, ok, f"minpoly {minpoly}, radical "
                   f"{near_pi.radical.render() if near_pi.radical else None}, "
                   f"decimal {approx_decimal(near_pi.value, 8)}")
    _budget(6, started, 5.0)


def test_criterion_7_right_triangle_perimeter_circumradius():
    started = time.monotonic()
    # trig oracle: p/R = 2 + 2 sin t + 2 cos t on (0, pi/2)
    values = [2 + 2 * mpmath.sin(u) + 2 * mpmath.cos(u)
              for u in mpmath.linspace(0.001, mpmath.pi / 2 - 0.001, 4000)]
    assert min(values) > 4 and abs(max(values) - (2 + 2 * mpmath.sqrt(2))) < 1e-6
    result = compare_source(_case("right_triangle_perimeter_vs_circumradius"),
                            CompareConfig(timeout=9.0))
    inf, sup = result.bounds.inf, result.bounds.sup
    ok = (inf.enclosure is not None and inf.enclosure.contains(4)
          and inf.attainment == "limit-conjectured"
          and sup.exact is not None and sup.exact.radical is not None
          and sup.exact.radical.render() == "(2+2*sqrt(2))"
          and sup.attainment == "attained")
    _report(7, ok, f"inf {inf.enclosure} ({inf.attainment}), "
                   f"sup {sup.exact.render() if sup.exact else None} "
                   f"({sup.attainment})")
    _budget(7, started, 10.0)


def test_criterion_8_euler_inequality_isosceles():
    started = time.monotonic()
    # oracle: r = 4 R sin(A/2) sin(B/2) sin(C/2); isosceles A=B: minimum of
    # R/r at the equilateral angle is 2
    def ratio(a):
        c = mpmath.pi - 2 * a
        return 1 / (4 * mpmath.sin(a / 2) ** 2 * mpmath.sin(c / 2))
    sampled = min(ratio(a) for a in mpmath.linspace(0.2, 1.5, 3000))
    assert abs(sampled - 2) < 1e-5
    result = compare_source(_case("euler_inequality_isosceles"),
                            CompareConfig(timeout=55.0))
    inf = result.bounds.inf
    ok = (result.variant == "bounds" and inf.exact is not None
          and inf.exact.value.rational_value() == 2)
    _report(8, ok, f"inf exact {inf.exact.render() if inf.exact else None} "
                   f"({inf.attainment})")
    _budget(8, started, 60.0)


def test_criterion_9_wire_protocol():
    started = time.monotonic()
    polys = ("2*v7-v5-v3,2*v8-v6-v4,2*v9-v5-v1,2*v10-v6-v2,"
             "-v12^2+v10^2+v9^2-2*v10*v4+v4^2-2*v9*v3+v3^2,"
             "-v11^2+v4^2+v3^2-2*v4*v2+v2^2-2*v3*v1+v1^2,"
             "-v13^2+v8^2+v7^2-2*v8*v2+v2^2-2*v7*v1+v1^2,"
             "-1-v14*v5*v4+v14*v6*v3+v14*v5*v2-v14*v3*v2-v14*v6*v1+v14*v4*v1,"
             "-w1+(v13+v12)^1")
    body = solve_wire({"lhs": "w1", "rhs": "v11", "polys": polys,
                       "vars": "v1,v2,v3,v4,v5,v6,v7,v8,v9,v10,v11,v12,v13,v14,w1",
                       "posvariables": "v11,v12,v13"}, timeout=8.5)
    _report(9, body == "m > 3/2", f"wire response {body!r}")
    _budget(9, started, 10.0)


def test_criterion_10_property_suites():
    started = time.monotonic()

    # (a) basis soundness on 200 random small ideals
    rng = random.Random(9001)
    checked = 0
    while checked < 200:
        nvars = rng.randint(1, 3)
        vars = ("x", "y", "z")[:nvars]
        order = TermOrder(vars, rng.choice(["lex", "grevlex"]))
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                mono = tuple(rng.randint(0, 2) for _ in vars)
                c = rng.randint(-4, 4)
                if c:
                    terms[mono] = terms.get(mono, Fraction(0)) + c
            p = Polynomial.from_map(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        try:
            basis = buchberger(gens, order,
                               BuchbergerLimits(max_pairs=20000, max_basis=60))
        except ResourceLimitError:
            continue
        if not basis:
            continue
        for g in gens:
            r, _ = reduce_poly(g, basis, order)
            assert r.is_zero()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], order)
                if not s.is_zero():
                    r, _ = reduce_poly(s, basis, order)
                    assert r.is_zero()
        checked += 1

    # (b) interval inclusion on 1000 random polynomial/box pairs
    rng = random.Random(9002)
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = (rng.randint(0, 3), rng.randint(0, 3))
            c = rng.randint(-5, 5)
            if c:
                terms[mono] = terms.get(mono, Fraction(0)) + c
        p = Polynomial.from_map(("x", "y"), terms)
        box = {}
        for v in ("x", "y"):
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            box[v] = Interval(a, a + Fraction(rng.randint(0, 8), rng.randint(1, 4)))
        out = eval_interval(p, box)
        for _ in range(10):
            point = {v: box[v].lo + box[v].width() * Fraction(rng.randint(0, 12), 12)
                     for v in ("x", "y")}
            assert out.contains(p.evaluate(point))

    # (c) presolve preserves sampled solutions (100 samples)
    from geomcompare.instantiate import (evaluate_figure, figure_with_statement,
                                         sample_configuration)
    from geomcompare.intervals import eval_poly_interval
    rng = random.Random(9003)
    count = 0
    for name in ("medians", "sum_square_vs_products"):
        t = translate(parse_construction(_case(name)))
        t2, _ = presolve(t)
        for _ in range(50):
            coords, branches, _ = sample_configuration(t, rng)
            fig = evaluate_figure(t, coords, branches, Fraction(1, 2 ** 160))
            env = figure_with_statement(t, fig)
            for tp in t2.polys:
                iv = eval_poly_interval(tp.poly, env)
                assert iv.lo <= Fraction(1, 10 ** 20)
                assert iv.hi >= -Fraction(1, 10 ** 20)
            count += 1
    assert count == 100

    # (d) elimination and bounds agree on the constant-ratio cases
    for name in ("pythagoras_right", "square_diagonal",
                  "hexagon_long_diagonal", "pentagon_diagonal"):
        t, _ = presolve(translate(parse_construction(_case(name))))
        exact = solve_mu(eliminate_to_mu(t))
        res = branch_and_bound(compile_charts(t), TOL, time.monotonic() + 10)
        lo, hi = res.inf.enclosure.lo, res.sup.enclosure.hi
        for cand in exact.candidates:
            v = cand.value.refined(Fraction(1, 10 ** 9)).isolating
            assert v.hi >= lo - TOL * 10 and v.lo <= hi + TOL * 10

    _report(10, True, "basis soundness x200, interval inclusion x1000, "
                      "presolve preservation x100, agreement x4")
    _budget(10, started, 120.0)
