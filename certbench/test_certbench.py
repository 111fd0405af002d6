"""Tests of the benchmark itself: the checker refuses known-wrong answers,
every closed form agrees with the benchmark's own float geometry, and the
generator is a function of the seed.

    python3 -m pytest certbench -q
"""

import dataclasses
import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

from cases import ATTAINED, LIMIT, UNBOUNDED, WORKLOADS, Side, workload  # noqa: E402
from check import Answer, Bound, check  # noqa: E402
from geometry import (dense_free, evaluate, residual, sample_free,  # noqa: E402
                      star_ratio, star_steps, variant_ratios)

TOL = Fraction(1, 10 ** 6)


def case(name, seed=1):
    for wl in WORKLOADS:
        for c in workload(wl, seed):
            if c.name == name:
                return c
    raise KeyError(name)


def around(v, attainment, width=Fraction(1, 10 ** 8)):
    v = Fraction(v)
    return Bound(v - width, v + width, attainment)


def correct_answer(c):
    if c.exact is not None:
        return Answer("exact", candidates=list(c.exact))
    sides = [Bound(None, None, UNBOUNDED) if s.attainment == UNBOUNDED
             else around(s.value, s.attainment) for s in (c.inf, c.sup)]
    return Answer("bounds", inf=sides[0], sup=sides[1])


@pytest.mark.parametrize("wl", WORKLOADS)
def test_correct_answers_pass(wl):
    for c in workload(wl, 7):
        assert check(c, correct_answer(c), TOL, 7) == [], c.name


def test_refuses_lost_supremum():
    # the rendering "m >= 3": inf right, sup lost
    c = case("sum_square_vs_products")
    ans = Answer("bounds", inf=around(3, ATTAINED), sup=Bound(None, None, "unknown"))
    assert check(c, ans, TOL, 1)


def test_refuses_timed_out_side():
    c = case("medians")
    ans = correct_answer(c)
    ans.timed_out = True
    assert check(c, ans, TOL, 1)


def test_refuses_swapped_attainment():
    c = case("right_triangle_perimeter_vs_circumradius")
    ans = Answer("bounds", inf=around(4, ATTAINED),
                 sup=around(2 + 2 * math.sqrt(2), LIMIT))
    assert check(c, ans, TOL, 1)


def test_refuses_wide_or_missing_enclosure():
    c = case("medians")
    ans = correct_answer(c)
    ans.inf = around(1.5, LIMIT, width=8 * TOL)
    assert check(c, ans, TOL, 1)
    ans.inf = around(1.5 + 1e-6, LIMIT)
    assert check(c, ans, TOL, 1)


def test_refuses_unsound_enclosure():
    # a tight enclosure around a value the figure goes below
    c = case("pythagoras_relaxed")
    c = dataclasses.replace(c, inf=Side(0.9, LIMIT))
    ans = correct_answer(c)
    assert any("sampled ratio" in e for e in check(c, ans, TOL, 1))


def test_refuses_wrong_or_incomplete_candidates():
    c = case("pentagon_diagonal")
    assert check(c, Answer("exact", candidates=[1.5]), TOL, 1)
    # the convex ratio (the golden ratio) missing
    assert check(c, Answer("exact", candidates=[(math.sqrt(5) - 1) / 2]), TOL, 1)
    c = case("pentagon_diagonal_convex")
    assert check(c, Answer("exact", candidates=list(case("pentagon_diagonal").exact)),
                 TOL, 1)
    assert check(c, Answer("bounds"), TOL, 1)


def bounds_cases():
    seen = {}
    for seed in (1, 2, 3):
        for wl in WORKLOADS:
            for c in workload(wl, seed):
                if c.inf is not None:
                    seen[c.name] = c
    return sorted(seen.values(), key=lambda c: c.name)


@pytest.mark.parametrize("c", bounds_cases(), ids=lambda c: c.name)
def test_closed_forms_match_dense_sampling(c):
    ratios = [r for free in dense_free(c.family)
              for r in [evaluate(c.gct, free)] if r is not None]
    lo, hi = min(ratios), max(ratios)
    assert lo >= c.inf.value - 1e-9
    assert lo <= c.inf.value + 1e-3
    if c.sup.attainment == UNBOUNDED:
        assert hi > 1e3
    else:
        assert hi <= c.sup.value + 1e-9
        assert hi >= c.sup.value - 1e-3


@pytest.mark.parametrize("n", [4, 5, 6])
def test_diagonals_match_star_ratios(n):
    verts = "ABCDEF"[:n]
    for span in range(2, n - 1):
        gct = (f"point A\npoint B\nregular {' '.join(verts)} {n}\n"
               f"segment f A B\nsegment k A {verts[span]}\ncompare k vs f\n")
        got = sorted(set(round(r, 12) for r in
                         variant_ratios(gct, {"A": (0.0, 0.0), "B": (1.0, 0.0)})))
        want = sorted(set(round(star_ratio(n, k, span), 12) for k in star_steps(n)))
        assert got == want


@pytest.mark.parametrize("family", ["triangle", "right", "isosceles"])
def test_samplers_satisfy_constraints(family):
    import random
    from cases import RIGHT, SUITE, TRIANGLE
    gct = {"triangle": TRIANGLE, "right": RIGHT,
           "isosceles": SUITE["euler_inequality_isosceles"]}[family]
    rng = random.Random(0)
    for _ in range(200):
        assert residual(gct, sample_free(family, rng)) < 1e-9
    for free in dense_free(family)[::97]:
        assert residual(gct, free) < 1e-9


@pytest.mark.parametrize("wl", WORKLOADS)
def test_generator_is_a_function_of_the_seed(wl):
    assert workload(wl, 11) == workload(wl, 11)
    if wl != "service":             # a fixed mix
        assert [c.gct for c in workload(wl, 11)] != [c.gct for c in workload(wl, 12)]


def test_speed_kernel_does_fixed_work():
    import speed
    assert ({name: part() for name, part in speed.PARTS.items()}
            == {name: part() for name, part in speed.PARTS.items()})
    meter = speed.Speedometer()
    meter.start()
    meter.stop()
    # the first slice runs at once, whenever the meter is stopped
    assert len(meter.slowness) == 1 and meter.slowness[0] > 0
    assert meter.factor() == 1 / meter.slowness[0]
