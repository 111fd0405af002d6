import glob
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from geomcompare import bounds
from geomcompare.bounds import (
    NEAR_RADIUS,
    Box,
    CompileError,
    LinearDef,
    SqrtDef,
    branch_and_bound,
    compile_charts,
    evaluate_box,
    exactify,
    hull_contract,
    simplest_rational_in,
    split_box,
    witness_for_box,
    _monotone_reduce,
)
from geomcompare.boxcode import BoxEval
from geomcompare.construction import parse_construction, translate
from geomcompare.exact_ratio import ratio_sample
from geomcompare.float_intervals import FI
from geomcompare.instantiate import exact_interval, solve_for
from geomcompare.intervals import Interval, eval_poly_interval, sqrt_interval
from geomcompare.polynomials import Polynomial
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
    box = Box([FI(0.45, 0.55), FI(0.45, 0.55)])
    out = hull_contract(near, box)
    assert out is not None
    assert out.ivs[0].contains(0.5) and out.ivs[1].contains(0.5)


def test_contract_infeasible_box():
    near = _charts("right_triangle_perimeter_vs_circumradius")[0]
    box = Box([FI(2.499, 2.501), FI(2.499, 2.501)])  # far off the circle
    out = hull_contract(near, box)
    if out is not None:  # contraction may defer to evaluation
        assert evaluate_box(near, out).status == "infeasible"


def test_near_chart_reaches_the_far_chart():
    """The near chart's unbounded coordinates end at +-NEAR_RADIUS, and the
    far charts' projective radius reaches 1/NEAR_RADIUS (exactly or beyond),
    so every point with |point| >= NEAR_RADIUS lies on a far chart and the
    two leave no gap between them."""
    near, *far = _charts("sum_square_vs_products")
    unbounded = [d for d in near.dims if d.unbounded]
    assert unbounded and far
    for d in unbounded:
        assert d.hi == NEAR_RADIUS and d.lo in (0.0, -NEAR_RADIUS)
    for chart in far:
        rho = next(d for d in chart.dims if d.var == "_rho")
        assert rho.lo == 0.0 and Fraction(rho.hi) * Fraction(NEAR_RADIUS) >= 1


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
    ("pythagoras_relaxed", 28),
    ("medians", 104),
    ("triangle_inequality", 109),
    ("euler_inequality_isosceles", 230),
    ("pentagon_diagonal_convex", 192),
    ("right_triangle_perimeter_vs_circumradius", 287),
    ("sum_square_vs_products", 2889),
])
def test_search_box_counts(name, boxes):
    """Boxes to certify do not depend on the machine: a change to the
    search rules that moves them shows here."""
    res = branch_and_bound(_charts(name), deadline=time.monotonic() + 30)
    assert not res.timed_out
    assert res.boxes == boxes


def _compiled_stages(monkeypatch, name):
    """The search of `name`'s charts, and the stages each chart generated
    (stage 0 is empty without constraints or sign conditions)."""
    stages: dict[int, list[int]] = {}
    compile_stage = bounds.compile_stage

    def recording(problem, k):
        entry = compile_stage(problem, k)
        if entry:
            stages.setdefault(id(problem), []).append(k)
        return entry

    monkeypatch.setattr(bounds, "compile_stage", recording)
    charts = _charts(name)
    res = branch_and_bound(charts, deadline=time.monotonic() + 30)
    assert not res.timed_out
    return charts, [sorted(stages.get(id(c), [])) for c in charts]


def test_far_charts_contracted_to_empty_generate_no_box_evaluation(monkeypatch):
    """Each stage of a chart's evaluator is compiled once, at its first use:
    the far charts of the right triangle contract to empty at their root,
    so they compile hull consistency only."""
    charts, stages = _compiled_stages(monkeypatch, "right_triangle_perimeter_vs_circumradius")
    assert [c.chart for c in charts] == ["near", "far", "far"]
    assert stages == [[0, 1, 2], [0], [0]]


def test_far_charts_whose_boxes_are_all_pruned_generate_no_centered_form(monkeypatch):
    charts, stages = _compiled_stages(monkeypatch, "medians")
    assert [c.chart for c in charts] == ["near", "far", "far"]
    assert stages == [[1, 2], [1], [1]]


def test_each_root_is_contracted_once_and_descended_once_per_side(monkeypatch):
    """A search contracts each chart's root box once, and descends from each
    contracted root once for the inf and once for the sup: the sup search
    starts from the witnesses of the unbounded-sup pre-pass."""
    charts = _charts("sum_square_vs_products")
    domains = [[(d.lo, d.hi) for d in c.dims] for c in charts]
    contract, polish = bounds.hull_contract, bounds._polished_witness
    live = [c for c, dom in zip(charts, domains)
            if contract(c, Box([FI(*iv) for iv in dom])) is not None]
    assert len(live) == 3
    contracted, descended = [], []

    def counting_contract(problem, box):
        if [(iv.lo, iv.hi) for iv in box.ivs] in domains:
            contracted.append(id(problem))
        return contract(problem, box)

    def counting_polish(problem, box, minimize):
        descended.append((id(problem), minimize))
        return polish(problem, box, minimize)

    monkeypatch.setattr(bounds, "hull_contract", counting_contract)
    monkeypatch.setattr(bounds, "_polished_witness", counting_polish)
    res = branch_and_bound(charts, deadline=time.monotonic() + 30)
    assert not res.timed_out and res.sup.enclosure is not None
    assert sorted(contracted) == sorted(id(c) for c in charts)
    assert sorted(descended) == sorted((id(c), m) for c in live for m in (False, True))


# -- monotone reduction ------------------------------------------------------

def _same_point(iv, x):
    return iv is not None and iv.lo == iv.hi == x


def test_gradient_touching_zero_pins():
    """A gradient enclosure that reaches 0 from one side pins its dimension
    (a -0.0 end is 0); one that reaches below 0 by the least float does not."""
    near = _charts("medians")[0]
    box = Box([FI(0.1, 0.2), FI(0.3, 0.4)])

    def reduced(g, minimize):
        ev = BoxEval("feasible", None, FI(1.0, 2.0), [g, FI(-1.0, 1.0)])
        out = _monotone_reduce(near, box, ev, minimize)
        return None if out is None else out.ivs[0]

    for g in (FI(0.0, 3.0), FI(-0.0, 3.0), FI(0.0, 0.0)):
        assert _same_point(reduced(g, True), 0.1) and _same_point(reduced(g, False), 0.2)
    for g in (FI(-3.0, 0.0), FI(-3.0, -0.0)):
        assert _same_point(reduced(g, True), 0.2) and _same_point(reduced(g, False), 0.1)
    assert reduced(FI(-5e-324, 3.0), True) is None
    assert reduced(FI(-3.0, 5e-324), False) is None


def _seeded_pin_boxes(problem, rng, count):
    """Boxes whose widths run from 1e-6 of the chart domain to all of it;
    each dimension starts on the domain's lower face one time in three."""
    for _ in range(count):
        ivs = []
        for d in problem.dims:
            width = (d.hi - d.lo) * 10.0 ** rng.uniform(-6.0, 0.0)
            lo = d.lo if rng.random() < 1 / 3 else rng.uniform(d.lo, d.hi - width)
            ivs.append(FI(lo, min(lo + width, d.hi)))
        yield Box(ivs)


def test_weak_pins_keep_every_feasible_point_on_their_side():
    """Where `_monotone_reduce` pins a box, the enclosure of the pinned face
    lies below (inf) or above (sup) the value at every sampled feasible
    point of the box, also where a gradient end is exactly 0: the face
    holds the box's extremum."""
    rng = random.Random(13)
    checks = pins = weak = 0
    for name in ("medians", "triangle_inequality", "sum_square_vs_products",
                 "pythagoras_relaxed"):
        for problem in _charts(name):
            assert not problem.constraints and not problem.signconds
            for box in _seeded_pin_boxes(problem, rng, 200):
                ev = evaluate_box(problem, box)
                if ev.grads is None:
                    continue
                points = []
                for _ in range(6):
                    x = [iv.lo + (iv.hi - iv.lo) * rng.choice((0.0, 1.0, rng.random()))
                         for iv in box.ivs]
                    x = [min(max(v, iv.lo), iv.hi) for v, iv in zip(x, box.ivs)]
                    pev = evaluate_box(problem, Box([FI(v, v) for v in x]))
                    if pev.status == "feasible" and pev.ratio is not None:
                        points.append((x, pev.ratio))
                for minimize in (True, False):
                    checks += 1
                    face = _monotone_reduce(problem, box, ev, minimize)
                    if face is None:
                        continue
                    pins += 1
                    weak += any(iv.width() > 0.0 and fiv.width() == 0.0
                                and (g.lo == 0.0 or g.hi == 0.0)
                                for iv, fiv, g in zip(box.ivs, face.ivs, ev.grads))
                    fev = evaluate_box(problem, face)
                    where = (name, problem.chart, box.ivs, face.ivs, minimize)
                    assert fev.status != "infeasible" or not points, where
                    if fev.ratio is None:
                        continue
                    for x, r in points:
                        if minimize:
                            assert r.hi >= fev.ratio.lo, (where, x, r, fev.ratio)
                        else:
                            assert r.lo <= fev.ratio.hi, (where, x, r, fev.ratio)
    assert checks >= 3000 and pins >= checks // 2 and weak >= 100, (checks, pins, weak)


# -- gradient enclosures ------------------------------------------------------

def test_medians_face_box_encloses_three_halves():
    """On the collinear face v10 = 0, between the kinks, f + g = 3/2 c: the
    distances' unit derivatives cancel and the centered form closes the
    box at once."""
    near = _charts("medians")[0]
    assert [d.var for d in near.dims] == ["v9", "v10"]
    ev = evaluate_box(near, Box([FI(0.1, 0.3), FI(0.0, 0.0)]))
    assert ev.status == "feasible"
    assert ev.ratio.contains(1.5) and ev.ratio.width() < 1e-12, ev.ratio


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
    """With C and D both free the near chart covers only |x| <= 3, so the
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

def _seeded_witness_boxes(rng):
    """(path, problem, box): seeded bisections of the root box of every
    chart of the example constructions."""
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
                yield path, problem, Box(ivs)


def test_witnesses_lie_in_their_boxes():
    """A witness is a configuration inside its box: the box is not certified
    infeasible and its enclosure meets the witness ratio. On
    pentagon_diagonal's near chart the claim v12^2 = 1 - v11^2 (v11 an
    algebraic cosine) must take the root of the sign inside the box."""
    for path, problem, box in _seeded_witness_boxes(random.Random(3)):
        w = witness_for_box(problem, box)
        if w is None:
            continue
        ev = evaluate_box(problem, box)
        where = (path, problem.chart, box.ivs, float(w.ratio.lo))
        assert ev.status != "infeasible", where
        if ev.ratio is not None:
            assert w.ratio.lo <= ev.ratio.hi and ev.ratio.lo <= w.ratio.hi, where


def _reference_witness(problem, dim_values, precision=Fraction(1, 2 ** 128)):
    """(ratio, margin) of exact dimension values in rational interval
    arithmetic at one precision: the definition chain from the values, then
    the constraints, sign conditions, margins and ratio. None where a test
    fails or is undecided at this precision."""
    env = {var: exact_interval(v, precision) for var, v in dim_values.items()}
    for d in problem.defs:
        if isinstance(d, SqrtDef):
            rad = eval_poly_interval(d.radicand, env)
            if rad.hi < 0:
                return None
            env[d.var] = sqrt_interval(rad, precision)
            continue
        num = eval_poly_interval(d.num, env)
        if num.lo == 0 == num.hi:
            env[d.var] = Interval.point(0)
            continue
        den = eval_poly_interval(d.den, env)
        if den.contains(0):
            return None
        env[d.var] = num / den
    if not all(eval_poly_interval(p, env).contains(0) for p in problem.constraints):
        return None
    margin = math.inf
    for comp, sign in problem.signconds:
        iv = eval_poly_interval(comp, env)
        val = iv.lo if sign > 0 else -iv.hi
        if val <= 0:
            return None
        margin = min(margin, float(val))
    for p in problem.margins:
        iv = eval_poly_interval(p, env)
        if iv.contains(0):
            return None
        margin = min(margin, float(min(abs(iv.lo), abs(iv.hi))))
    den = eval_poly_interval(problem.obj_den, env)
    if den.contains(0):
        return None
    if problem.chart == "far":
        margin = min(margin, abs(float(env["_rho"].mid())))
    return eval_poly_interval(problem.obj_num, env) / den, margin


def _signed_sqrt(q, values, sign):
    """sign * sqrt(q) as a refinable closure, q's variables at exact values."""
    def closure(precision):
        env = {v: exact_interval(values[v], precision) for v in q.support()}
        body = sqrt_interval(eval_poly_interval(q, env), precision)
        return body if sign > 0 else -body
    return closure


def _roots_of(poly, target, values):
    """The real roots in target of poly, its other variables at exact
    values: `solve_for` where they are all rational, else the two signed
    roots of target^2 = Q."""
    others = poly.support() - {target}
    if all(isinstance(values[v], Fraction) for v in others):
        return solve_for(poly, target, values)
    parts = poly.coefficient_map(target)
    assert set(parts) <= {0, 2} and parts[2].is_constant(), (poly, target)
    q = parts.get(0, Polynomial.zero(poly.vars)) * (-1 / parts[2].constant_value())
    return [_signed_sqrt(q, values, sign) for sign in (-1, 1)]


def _exact_configuration(problem, ivs):
    """The exact configuration inside a witness's float box, found without
    the witness code: a point dimension at its own value, every other one
    at the root, inside its range, of a constraint in which it is the only
    unknown variable. Quotient definitions of known rationals (a far
    chart's direction) are evaluated on the way."""
    ranges = {d.var: Interval(Fraction(iv.lo), Fraction(iv.hi))
              for d, iv in zip(problem.dims, ivs)}
    values = {v: r.lo for v, r in ranges.items() if r.lo == r.hi}
    while len(values) < len(problem.dims) + len(problem.defs):
        for d in problem.defs:
            if d.var not in values and isinstance(d, LinearDef) and \
                    all(isinstance(values.get(v), Fraction) for v in d.deps):
                values[d.var] = d.num.evaluate(values) / d.den.evaluate(values)
        unknown = [(p, [v for v in p.support() if v not in values])
                   for p in problem.constraints]
        solvable = [(p, free[0]) for p, free in unknown
                    if len(free) == 1 and free[0] in ranges]
        if not solvable:
            break
        poly, target = solvable[0]
        coarse = Fraction(1, 2 ** 40)
        inside = [r for r in _roots_of(poly, target, values)
                  if exact_interval(r, coarse).intersects(ranges[target])]
        assert len(inside) == 1, (problem.chart, poly, target, ranges[target])
        values[target] = inside[0]
    assert all(d.var in values for d in problem.dims), (problem.chart, ranges, values)
    return {d.var: values[d.var] for d in problem.dims}, ranges


def test_witness_ratios_contain_the_rational_reference(monkeypatch):
    """Each witness's float box holds an exact configuration (point
    dimensions at their values, each other one at its constraint's root,
    found here with `solve_for`), and its ratio, enclosed by the generated
    evaluator, contains the rational enclosure of the ratio there. Its
    margin classifies attainment (margin >= max(10*tol, 1e-3)) as the
    exact margin does."""
    found = []
    evaluate = bounds._evaluate_witness

    def recording(problem, ivs):
        w = evaluate(problem, ivs)
        if w is not None:
            found.append((problem, list(ivs), w))
        return w

    monkeypatch.setattr(bounds, "_evaluate_witness", recording)
    for _, problem, box in _seeded_witness_boxes(random.Random(5)):
        witness_for_box(problem, box)
        if problem.chart == "far":
            # toward infinity, where the projective radius sets the margin
            witness_for_box(problem, Box([FI(1e-4, 1e-4)] + box.ivs[1:]))
    assert len({id(problem) for problem, _, _ in found}) >= 20
    assert any(p.constraints for p, _, _ in found)
    assert any(not p.constraints for p, _, _ in found)
    threshold = max(10 * 1e-6, 1e-3)
    fine = Fraction(1, 2 ** 128)
    for problem, ivs, w in found:
        values, ranges = _exact_configuration(problem, ivs)
        for var, v in values.items():
            iv = exact_interval(v, fine)
            assert ranges[var].lo <= iv.lo and iv.hi <= ranges[var].hi, (problem.chart, var)
        ref = _reference_witness(problem, values)
        assert ref is not None, (problem.chart, ivs)
        ratio, margin = ref
        assert w.ratio.lo <= ratio.lo and ratio.hi <= w.ratio.hi, (ivs, w.ratio, ratio)
        assert (w.margin >= threshold) == (margin >= threshold), (ivs, w.margin, margin)


def test_witnesses_use_no_rational_arithmetic(monkeypatch):
    """A witness is built in floats on every chart: no `Fraction` is made,
    so no rational point, exact enclosure, rational polynomial evaluation
    or exact claim solving."""
    def refuse(*args, **kwargs):
        raise AssertionError("rational arithmetic in a witness")

    boxes = [(problem, box) for _, problem, box in _seeded_witness_boxes(random.Random(7))]
    assert len({id(problem) for problem, _ in boxes}) >= 20
    # a chart generates its evaluator, with rational coefficients, at its
    # first box; the witnesses below use code generated before
    for problem in {id(problem): problem for problem, _ in boxes}.values():
        evaluate_box(problem, Box([FI(d.lo, d.hi) for d in problem.dims]))
    monkeypatch.setattr(Fraction, "__new__", refuse)
    found = [problem for problem, box in boxes if witness_for_box(problem, box) is not None]
    monkeypatch.undo()
    assert len(found) >= 200
    assert any(problem.constraints for problem in found)


def test_a_view_reaching_its_dimension_through_a_definition_is_never_claimed(monkeypatch):
    """v*L - w = 0 with L = sqrt(v^2+1) is linear in v with coefficient L,
    which depends on v through the definition chain: a root enclosure
    computed from L over the box proves no root, so only w is ever claimed
    and v stays at its window point. Hull consistency still narrows v with
    that view."""
    vs = ("v", "w", "L")
    v, w, L = (Polynomial.variable(x, vs) for x in vs)
    one = Polynomial.constant(1, vs)
    problem = bounds.BoundProblem(
        dims=[bounds.Dim("v", False, 0.0, 2.0), bounds.Dim("w", False, 0.0, 4.0)],
        defs=[SqrtDef("L", v * v + one)], constraints=[v * L - w], signconds=[],
        margins=[], obj_num=v, obj_den=one)
    assert [(c, i) for c, i, _ in problem.narrowers] == [(0, 0), (0, 1)]
    assert [(c, i, needs) for c, i, needs, _ in problem.witness_views] == [(0, 1, {0})]
    attempts = []
    evaluate = bounds._evaluate_witness

    def recording(problem, ivs):
        attempts.append(list(ivs))
        return evaluate(problem, ivs)

    monkeypatch.setattr(bounds, "_evaluate_witness", recording)
    rng = random.Random(11)
    found = 0
    for _ in range(40):
        lo_v, lo_w = rng.uniform(0.0, 1.5), rng.uniform(0.0, 3.0)
        box = Box([FI(lo_v, lo_v + 0.5), FI(lo_w, lo_w + 1.0)])
        found += witness_for_box(problem, box) is not None
    assert found >= 5
    assert attempts and all(ivs[0].lo == ivs[0].hi for ivs in attempts)


def test_point_box_on_a_degenerate_line_is_refused():
    """C on the line AB (v6 = 0 on triangle_inequality's near chart) is a
    degenerate triangle: the box evaluates as feasible, with a finite
    ratio, but its margin (C's height) holds 0, so it is no witness."""
    near = _charts("triangle_inequality")[0]
    assert [d.var for d in near.dims] == ["v5", "v6"] and not near.constraints
    degenerate = Box([FI(0.3, 0.3), FI(0.0, 0.0)])
    ev = evaluate_box(near, degenerate, lambda r: True)
    assert ev.status == "feasible" and not ev.sign_active
    assert math.isfinite(ev.ratio.lo) and math.isfinite(ev.ratio.hi)
    assert bounds._evaluate_witness(near, degenerate.ivs) is None
    assert witness_for_box(near, degenerate) is None
    # a point just off the line is a witness, with a small margin
    w = witness_for_box(near, Box([FI(0.3, 0.3), FI(1e-6, 1e-6)]))
    assert w is not None and 0.0 < w.margin < 1e-5


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
        for rho in (1 / NEAR_RADIUS, 0.125, 0.03, 1e-4):
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
