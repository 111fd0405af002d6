import glob
import random
import time
from fractions import Fraction

import mpmath
import pytest

from geomcompare.bounds import (
    Box,
    CompileError,
    branch_and_bound,
    compile_charts,
    evaluate_box,
    exactify,
    hull_contract,
    simplest_rational_in,
    split_box,
    witness_for_box,
)
from geomcompare.construction import parse_construction, translate
from geomcompare.exact_ratio import ratio_sample
from geomcompare.float_intervals import FI
from geomcompare.intervals import Interval
from geomcompare.pipeline import CompareConfig, compare_source
from geomcompare.presolve import presolve

mpmath.mp.dps = 40


def _charts(name):
    src = open(f"benchmarks/{name}.gct").read()
    t, _ = presolve(translate(parse_construction(src)))
    return compile_charts(t)


# -- simplest rational / exactify ---------------------------------------------

def test_simplest_rational():
    assert simplest_rational_in(Fraction(14999999, 10 ** 7),
                                Fraction(15000001, 10 ** 7)) == Fraction(3, 2)
    assert simplest_rational_in(Fraction(2, 7), Fraction(3, 7)) == Fraction(1, 3)
    assert simplest_rational_in(Fraction(-1, 3), Fraction(1, 9)) == 0


def test_exactify_rational():
    out = exactify(Interval(Fraction(14999999, 10 ** 7), Fraction(15000001, 10 ** 7)))
    assert out is not None
    assert out.value.rational_value() == Fraction(3, 2)
    assert out.radical.render() == "3/2"


def test_exactify_silver_constant_with_trig_oracle():
    # sup of the perimeter/circumradius ratio of right triangles:
    # p/R = 2 + 2 sin t + 2 cos t, maximal at t = pi/4
    best = max(2 + 2 * mpmath.sin(t) + 2 * mpmath.cos(t)
               for t in mpmath.linspace(0.1, 1.5, 2000))
    target = 2 + 2 * mpmath.sqrt(2)
    assert abs(best - target) < 1e-6
    # minpoly check: (2+2*sqrt(2))^2 = 4*(2+2*sqrt(2)) + 4
    assert abs(target ** 2 - 4 * target - 4) < 1e-30
    lo = Fraction(str(mpmath.nstr(target - mpmath.mpf(1e-9), 25)))
    hi = Fraction(str(mpmath.nstr(target + mpmath.mpf(1e-9), 25)))
    out = exactify(Interval(lo, hi))
    assert out is not None
    assert out.radical is not None and out.radical.render() == "(2+2*sqrt(2))"


def test_exactify_transcendental_absent():
    x = mpmath.pi
    lo = Fraction(str(mpmath.nstr(x - mpmath.mpf(1e-10), 25)))
    hi = Fraction(str(mpmath.nstr(x + mpmath.mpf(1e-10), 25)))
    assert exactify(Interval(lo, hi)) is None


# -- contraction --------------------------------------------------------------

def test_contract_unconstrained_box_unchanged():
    near = _charts("medians")[0]
    box = Box([FI(d.lo, d.hi) for d in near.dims])
    assert hull_contract(near, box) is box  # no constraints: nothing to do


def test_contract_keeps_feasible_point():
    # right-triangle constraint: a box around C=(1/2, 1/2) on the circle
    near = _charts("right_triangle_perimeter_vs_circumradius")[0]
    from geomcompare.bounds import _unmap_point
    s5, s6 = _unmap_point(0.5), _unmap_point(0.5)
    box = Box([FI(s5 - 0.05, s5 + 0.05), FI(s6 - 0.05, s6 + 0.05)])
    out = hull_contract(near, box)
    assert out is not None
    assert out.ivs[0].contains(s5) and out.ivs[1].contains(s6)


def test_contract_infeasible_box():
    near = _charts("right_triangle_perimeter_vs_circumradius")[0]
    from geomcompare.bounds import _unmap_point
    s5, s6 = _unmap_point(5.0), _unmap_point(5.0)  # far off the circle
    box = Box([FI(s5 - 0.001, s5 + 0.001), FI(s6 - 0.001, s6 + 0.001)])
    out = hull_contract(near, box)
    if out is not None:  # contraction may defer to evaluation
        assert evaluate_box(near, out).status == "infeasible"


# -- enclosure soundness -------------------------------------------------------

def test_enclosure_soundness_sampled_configurations():
    """Ratios at sampled feasible configurations lie inside the final
    enclosures (inf.lo - tol, sup.hi + tol)."""
    tol = Fraction(1, 10 ** 6)
    for name in ("sum_square_vs_products", "pythagoras_relaxed"):
        src = open(f"benchmarks/{name}.gct").read()
        t, _ = presolve(translate(parse_construction(src)))
        charts = compile_charts(t)
        res = branch_and_bound(charts, tol, time.monotonic() + 9)
        assert res.inf.enclosure is not None
        lo = res.inf.enclosure.lo - tol
        hi = None
        if res.sup.enclosure is not None:
            hi = res.sup.enclosure.hi + tol
        rng = random.Random(77)
        for _ in range(40):
            ratio, _ = ratio_sample(t, rng)
            assert ratio.hi >= lo
            if hi is not None:
                assert ratio.lo <= hi


def test_inf_below_sup_invariant():
    charts = _charts("sum_square_vs_products")
    res = branch_and_bound(charts, Fraction(1, 10 ** 6), time.monotonic() + 9)
    assert res.inf.enclosure.hi <= res.sup.enclosure.lo


def test_deterministic_single_worker():
    charts = _charts("pythagoras_relaxed")
    a = branch_and_bound(charts, Fraction(1, 10 ** 6), time.monotonic() + 5)
    b = branch_and_bound(_charts("pythagoras_relaxed"),
                         Fraction(1, 10 ** 6), time.monotonic() + 5)
    assert a.inf.exact.render() == b.inf.exact.render() == "1/2"
    assert a.inf.attainment == b.inf.attainment


@pytest.mark.parametrize("name, boxes", [
    ("pythagoras_relaxed", 149),
    ("euler_inequality_isosceles", 258),
    ("pentagon_diagonal_convex", 204),
    ("right_triangle_perimeter_vs_circumradius", 1341),
])
def test_search_box_counts(name, boxes):
    """Boxes to certify do not depend on the machine: a change to the
    search rules that moves them shows here."""
    res = branch_and_bound(_charts(name), deadline=time.monotonic() + 30)
    assert not res.timed_out
    assert res.boxes == boxes


# -- unbounded evidence ----------------------------------------------------------

def test_large_inf_is_not_unbounded_evidence():
    """The inf of 3e9*(a+b)/c is 3e9, a limit: a large positive incumbent
    is no evidence that the inf is unbounded below."""
    src = ("point A\npoint B\npoint C\nsegment a B C\nsegment b C A\n"
           "segment c A B\ncompare 3000000000*a+3000000000*b vs c")
    result = compare_source(src, CompareConfig(timeout=2.0, mode="bounds"))
    assert result.bounds is not None
    assert result.bounds.inf.attainment != "unbounded-evidence"
    assert result.bounds.sup.attainment == "unbounded-evidence"


def test_more_than_two_unbounded_coordinates_refused():
    """With C and D both free the near chart covers only |x| <= 8, so the
    search would leave part of the plane out: compilation refuses."""
    src = ("point A\npoint B\npoint C\npoint D\nsegment e C D\n"
           "segment f A B\ncompare e+f vs e")
    t, _ = presolve(translate(parse_construction(src)))
    with pytest.raises(CompileError, match="unbounded coordinates"):
        compile_charts(t)
    result = compare_source(src, CompareConfig(timeout=2.0, mode="bounds"))
    assert result.variant == "inconclusive"
    assert result.reason == "compile-error"


# -- agreement with the elimination path --------------------------------------

@pytest.mark.parametrize("name", ["pythagoras_right", "square_diagonal",
                                  "hexagon_long_diagonal", "pentagon_diagonal"])
def test_agreement_with_exact_ratio(name):
    from geomcompare.exact_ratio import eliminate_to_mu, solve_mu
    src = open(f"benchmarks/{name}.gct").read()
    t, _ = presolve(translate(parse_construction(src)))
    exact = solve_mu(eliminate_to_mu(t))
    charts = compile_charts(t)
    res = branch_and_bound(charts, Fraction(1, 10 ** 6), time.monotonic() + 10)
    assert res.inf.enclosure is not None and res.sup.enclosure is not None
    lo, hi = res.inf.enclosure.lo, res.sup.enclosure.hi
    slack = Fraction(1, 10 ** 5)
    for cand in exact.candidates:
        v = cand.value.refined(Fraction(1, 10 ** 9)).isolating
        assert v.hi >= lo - slack and v.lo <= hi + slack


# -- witnesses --------------------------------------------------------------------

def test_witnesses_lie_in_their_boxes():
    """A witness is a configuration inside its box: the box is not certified
    infeasible and its enclosure meets the witness ratio. Boxes are seeded
    bisections of every chart of the example constructions; on
    pentagon_diagonal's near chart the claim v12^2 = 1 - v11^2 (v11 an
    algebraic cosine) must take the root of the sign inside the box."""
    rng = random.Random(3)
    for path in sorted(glob.glob("benchmarks/*.gct")):
        t, _ = presolve(translate(parse_construction(open(path).read())))
        try:
            charts = compile_charts(t)
        except CompileError:
            continue
        for problem in charts:
            for _ in range(24):
                ivs = [FI(d.lo, d.hi) for d in problem.dims]
                for _ in range(rng.randint(0, 6)):
                    i = rng.randrange(len(ivs))
                    m = ivs[i].mid()
                    ivs[i] = FI(ivs[i].lo, m) if rng.random() < 0.5 else FI(m, ivs[i].hi)
                w = witness_for_box(problem, Box(ivs))
                if w is None:
                    continue
                ev = evaluate_box(problem, Box(ivs))
                where = (path, problem.chart, ivs, float(w.ratio.lo))
                assert ev.status != "infeasible", where
                if ev.ratio is not None:
                    assert w.ratio.lo <= ev.ratio.hi and ev.ratio.lo <= w.ratio.hi, where


# -- projective chart at infinity ---------------------------------------------

def _far_box(far, rho, u):
    ivs = {"_rho": rho, "u": u}
    return Box([ivs[d.var] for d in far.dims])


def test_far_chart_tight_on_face_at_infinity():
    """(a+b+c)^2/(ab+bc+ca) tends to 4 as C escapes to infinity; on the face
    rho = 0 of both far charts the enclosure must pin 4, not smear the
    dependent sum cs^2+sn^2 over the box."""
    far_charts = _charts("sum_square_vs_products")[1:]
    assert len(far_charts) == 2
    for far in far_charts:
        u_dim = next(d for d in far.dims if d.var == "u")
        u = FI(0.25, 0.5) if u_dim.hi > 0 else FI(-0.5, -0.25)
        ev = evaluate_box(far, _far_box(far, FI(0.0, 0.0), u))
        assert ev.status == "feasible"
        assert ev.ratio.contains(4.0)
        assert ev.ratio.width() < 1e-6


def test_far_chart_ratio_matches_direct_evaluation():
    """At point boxes with rho > 0 the far-chart ratio is the ratio of the
    triangle A=(0,0), B=(1,0), C=(cs, sn)/rho."""
    for far in _charts("sum_square_vs_products")[1:]:
        u_dim = next(d for d in far.dims if d.var == "u")
        side = 1 if u_dim.hi > 0 else -1
        for rho in (0.125, 0.03, 1e-4):
            for u in (0.1, 0.45, 0.9):
                u = side * u
                ev = evaluate_box(far, _far_box(far, FI(rho, rho), FI(u, u)))
                assert ev.status == "feasible"
                rho_m, u_m = mpmath.mpf(rho), mpmath.mpf(u)
                cs = side * (1 - u_m ** 2) / (1 + u_m ** 2)
                sn = side * 2 * u_m / (1 + u_m ** 2)
                x, y = cs / rho_m, sn / rho_m
                a = mpmath.sqrt((x - 1) ** 2 + y ** 2)
                b = mpmath.sqrt(x ** 2 + y ** 2)
                direct = (a + b + 1) ** 2 / (a * b + b + a)
                assert ev.ratio.lo - 1e-12 <= direct <= ev.ratio.hi + 1e-12
                assert ev.ratio.width() < 1e-12


# -- splitting ------------------------------------------------------------------

def test_split_covers_box():
    near = _charts("medians")[0]
    box = Box([FI(-0.5, 0.5), FI(0.1, 0.6)])
    ev = evaluate_box(near, box)
    left, right = split_box(near, box, ev)
    for j in range(len(box.ivs)):
        assert min(left.ivs[j].lo, right.ivs[j].lo) == box.ivs[j].lo
        assert max(left.ivs[j].hi, right.ivs[j].hi) == box.ivs[j].hi


# -- reconstruction properties under hypothesis ---------------------------------

from hypothesis import given, strategies as st


@given(st.fractions(min_value=-100, max_value=100),
       st.fractions(min_value=0, max_value=1))
def test_simplest_rational_lies_inside(lo, width):
    hi = lo + width
    r = simplest_rational_in(lo, hi)
    assert lo <= r <= hi


@given(st.integers(-500, 500), st.integers(1, 60))
def test_simplest_rational_is_simplest(num, den):
    # any interval around p/q of radius < 1/(2*q*(q+1)) reconstructs p/q
    target = Fraction(num, den)
    eps = Fraction(1, 2 * den * (den + 1) + 1)
    assert simplest_rational_in(target - eps, target + eps) == target
