"""Differential test of the generated box evaluator (`boxcode`).

The reference below is the interpreter that the generated code replaced:
it walks each polynomial's terms over `FI` objects. On seeded boxes of
every chart of every benchmark construction that compiles, the generated
`evaluate_box`, its gradient fallback and `hull_contract` must agree with
it bit for bit (signed zeros included).
"""

import glob
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from geomcompare import boxcode
from geomcompare.boxcode import Emitter, V, complete_squares, product_source
from geomcompare.bounds import (
    Box,
    BoundProblem,
    CompileError,
    Dim,
    SqrtDef,
    _map_real_line,
    _unmap_real_line,
    compile_charts,
    evaluate_box,
    hull_contract,
)
from geomcompare.construction import parse_construction, translate
from geomcompare.float_intervals import FI, INF, down, up
from geomcompare.polynomials import Polynomial
from geomcompare.presolve import presolve

# ---------------------------------------------------------------------------
# the reference interpreter
# ---------------------------------------------------------------------------


class CompiledPoly:
    def __init__(self, poly, index):
        self.terms = []
        for mono, coef in poly.terms.items():
            powers = tuple((index[poly.vars[i]], e) for i, e in enumerate(mono) if e)
            self.terms.append((FI.from_fraction(coef), powers))

    def eval(self, env):
        total = FI(0.0, 0.0)
        cache = {}
        for coef, powers in self.terms:
            term = coef
            for key in powers:
                p = cache.get(key)
                if p is None:
                    idx, e = key
                    p = env[idx] if e == 1 else env[idx].power(e)
                    cache[key] = p
                term = term * p
            total = total + term
        return total


class CompiledQuadratic:
    def __init__(self, poly, index):
        squares, rest = complete_squares(poly)
        self.squares = [(a, CompiledPoly(form, index)) for a, form in squares]
        self.residual = CompiledPoly(rest, index)

    def eval(self, env):
        total = self.residual.eval(env)
        for a, form in self.squares:
            f = form.eval(env)
            total = total + a * f.power(2)
        return total


class Reference:
    """The interpreted evaluator of one problem."""

    def __init__(self, problem: BoundProblem):
        self.p = problem
        idx = problem.var_index
        comp = lambda q: CompiledPoly(q, idx)
        partials = lambda q: {v: comp(q.derivative(v)) for v in q.support()}
        quad = lambda q: CompiledQuadratic(q, idx) if q.total_degree() == 2 else comp(q)
        self.c_defs = []
        for d in problem.defs:
            if isinstance(d, SqrtDef):
                self.c_defs.append(("sqrt", idx[d.var], quad(d.radicand),
                                    partials(d.radicand)))
            else:
                self.c_defs.append(("div", idx[d.var], comp(d.num), comp(d.den),
                                    partials(d.num), partials(d.den)))
        self.c_constraints = [quad(q) for q in problem.constraints]
        self.c_signconds = [(quad(q), s) for q, s in problem.signconds]
        self.c_num, self.c_den = quad(problem.obj_num), quad(problem.obj_den)
        self.d_num = partials(problem.obj_num)
        self.d_den = partials(problem.obj_den)
        dim_ix = {d.var: i for i, d in enumerate(problem.dims)}
        self.c_narrow = []
        for q in problem.constraints:
            for var in sorted(q.support()):
                if var not in dim_ix:
                    continue
                parts = q.coefficient_map(var)
                if max(parts) > 2 or any(var in cp.support() for cp in parts.values()):
                    continue
                self.c_narrow.append((dim_ix[var], {e: comp(cp) for e, cp in parts.items()}))

    def build_env(self, ivs):
        p = self.p
        env = [FI(0.0, 0.0)] * (len(p.dims) + len(p.defs))
        for i, dim in enumerate(p.dims):
            env[i] = _map_real_line(ivs[i]) if dim.compactified else ivs[i]
        status = "feasible"
        for entry in self.c_defs:
            if entry[0] == "sqrt":
                _, slot, radicand, _ = entry
                rad = radicand.eval(env)
                if rad.hi < 0.0:
                    return "infeasible", env
                env[slot] = rad.sqrt()
            else:
                _, slot, num, den, _, _ = entry
                n = num.eval(env)
                if n.lo == 0.0 == n.hi:
                    env[slot] = FI(0.0, 0.0)
                    continue
                q = n.divide(den.eval(env))
                if q is None:
                    status = "indeterminate"
                    env[slot] = FI(-INF, INF)
                else:
                    env[slot] = q
        return status, env

    def evaluate(self, box, prune_key=None):
        p = self.p
        status, env = self.build_env(box.ivs)
        if status == "infeasible":
            return ("infeasible", None, None, None, frozenset())
        for c in self.c_constraints:
            if not c.eval(env).straddles_zero():
                return ("infeasible", None, None, None, frozenset())
        sign_active = set()
        for i, (c, sign) in enumerate(self.c_signconds):
            iv = c.eval(env)
            if sign > 0 and iv.hi <= 0.0:
                return ("infeasible", None, None, None, frozenset())
            if sign < 0 and iv.lo >= 0.0:
                return ("infeasible", None, None, None, frozenset())
            if iv.lo <= 0.0 <= iv.hi:
                sign_active.update(p.signcond_dims[i])
        sign_active = frozenset(sign_active)
        den = self.c_den.eval(env)
        num = self.c_num.eval(env)
        ratio = num.divide(den)
        if ratio is None:
            return ("indeterminate", env, one_sided(num, den), None, sign_active)
        if prune_key is not None and prune_key(ratio):
            return (status, env, ratio, None, sign_active)
        cratio = self.center_value(box)
        grads = None
        if cratio is not None:
            table = self.grad_table(box, env)
            for _ in range(2):
                grads = self.combine(env, table, ratio)
                if grads is None:
                    break
                total = cratio
                for j in range(p.n_dims):
                    s = box.ivs[j]
                    half = FI(down(s.lo - s.mid()), up(s.hi - s.mid()))
                    total = total + grads[j] * half
                tighter = ratio.intersect(total)
                if tighter is None or tighter.width() > 0.9 * ratio.width():
                    ratio = tighter if tighter is not None else ratio
                    break
                ratio = tighter
        return (status, env, ratio, grads, sign_active)

    def center_value(self, box):
        center = [FI.point(iv.mid()) for iv in box.ivs]
        cstatus, cenv = self.build_env(center)
        if cstatus != "feasible":
            return None
        cden = self.c_den.eval(cenv)
        return self.c_num.eval(cenv).divide(cden)

    def grad_table(self, box, env):
        p = self.p
        n = p.n_dims
        grad = []
        for i, dim in enumerate(p.dims):
            row = [FI(0.0, 0.0)] * n
            row[i] = map_real_line_grad(box.ivs[i]) if dim.compactified else FI(1.0, 1.0)
            grad.append(row)

        def poly_grad(partials):
            out = [FI(0.0, 0.0)] * n
            for vname, dp in partials.items():
                slot = p.var_index[vname]
                coeff = dp.eval(env)
                for j in range(n):
                    out[j] = out[j] + coeff * grad[slot][j]
            return out

        for entry in self.c_defs:
            if entry[0] == "sqrt":
                _, slot, _radicand, parts = entry
                root = env[slot]
                if root.lo <= 0.0:
                    grad.append([FI(-INF, INF)] * n)
                    continue
                base = poly_grad(parts)
                two_root = root.scale(2.0)
                grad.append([b.divide(two_root) or FI(-INF, INF) for b in base])
            else:
                _, slot, _num, den, pnum, pden = entry
                v = env[slot]
                if not pnum and v.lo == 0.0 == v.hi:
                    grad.append([FI(0.0, 0.0)] * n)
                    continue
                d = den.eval(env)
                if d.straddles_zero() or v.lo == -INF or v.hi == INF:
                    grad.append([FI(-INF, INF)] * n)
                    continue
                gn, gd = poly_grad(pnum), poly_grad(pden)
                grad.append([(gn[j] - v * gd[j]).divide(d) or FI(-INF, INF)
                             for j in range(n)])
        return (poly_grad(self.d_num), poly_grad(self.d_den))

    def combine(self, env, table, ratio):
        gnum, gden = table
        den = self.c_den.eval(env)
        out = []
        for j in range(self.p.n_dims):
            g = (gnum[j] - ratio * gden[j]).divide(den)
            if g is None:
                return None
            out.append(g)
        return out

    def gradients(self, box, env, ratio_enclosure=None):
        den = self.c_den.eval(env)
        m = self.c_num.eval(env).divide(den)
        if m is None:
            return None
        if ratio_enclosure is not None:
            tighter = m.intersect(ratio_enclosure)
            if tighter is not None:
                m = tighter
        return self.combine(env, self.grad_table(box, env), m)

    def hull_contract(self, box, max_rounds=6):
        p = self.p
        if not self.c_constraints and not self.c_signconds:
            return box
        ivs = list(box.ivs)
        for _ in range(max_rounds):
            status, env = self.build_env(ivs)
            if status == "infeasible":
                return None
            gain = 0.0
            for comp in self.c_constraints:
                if not comp.eval(env).straddles_zero():
                    return None
            for i, parts in self.c_narrow:
                new_x = narrow_univariate(parts, env)
                if new_x == "infeasible":
                    return None
                if new_x is None:
                    continue
                dim = p.dims[i]
                if dim.compactified:
                    new_s = FI(*_unmap_real_line(new_x.lo, new_x.hi))
                else:
                    new_s = new_x
                cur = ivs[i]
                inter = cur.intersect(new_s)
                if inter is None:
                    return None
                if inter.width() < cur.width():
                    gain = max(gain, (cur.width() - inter.width()) /
                               max(cur.width(), 1e-300))
                    ivs[i] = inter
                    env[i] = _map_real_line(inter) if dim.compactified else inter
            for comp, sign in self.c_signconds:
                iv = comp.eval(env)
                if sign > 0 and iv.hi <= 0.0:
                    return None
                if sign < 0 and iv.lo >= 0.0:
                    return None
            if gain < 0.01:
                break
        return Box(ivs)


def map_real_line_grad(s):
    one = FI(1.0, 1.0)
    den = (one - s * s).power(2)
    out = (one + s * s).divide(den)
    return out if out is not None else FI(0.0, INF)


def one_sided(num, den):
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


def narrow_univariate(parts, env):
    deg = max(parts)
    coeffs = {e: cp.eval(env) for e, cp in parts.items()}
    a0 = coeffs.get(0, FI(0.0, 0.0))
    a1 = coeffs.get(1, FI(0.0, 0.0))
    if deg <= 1:
        return (-a0).divide(a1)
    a2 = coeffs[2]
    disc = a1 * a1 - (a2 * a0).scale(4.0)
    if disc.hi < 0.0:
        return "infeasible"
    root = disc.sqrt()
    if root is None:
        return None
    two_a2 = a2.scale(2.0)
    lo_branch = ((-a1) - root).divide(two_a2)
    hi_branch = ((-a1) + root).divide(two_a2)
    if lo_branch is None or hi_branch is None:
        return None
    return lo_branch.hull(hi_branch)


# ---------------------------------------------------------------------------
# bitwise comparison
# ---------------------------------------------------------------------------

def same_float(x: float, y: float) -> bool:
    if x != x or y != y:
        return x != x and y != y
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def same_fi(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return same_float(a.lo, b.lo) and same_float(a.hi, b.hi)


def same_list(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(same_fi(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# seeded boxes
# ---------------------------------------------------------------------------

def _interval(rng: random.Random, dim: Dim, kind: str) -> FI:
    lo, hi = dim.lo, dim.hi
    if kind == "point":
        x = rng.uniform(lo, hi)
        return FI(x, x)
    if kind == "tiny":
        x = rng.uniform(lo, hi)
        return FI(x, x + rng.choice((0.0, 5e-324, 1e-15, 1e-12)))
    if kind == "zero" and lo <= 0.0 <= hi:
        return FI(rng.uniform(lo, 0.0) * rng.choice((1.0, 1e-6, 0.0)),
                  rng.uniform(0.0, hi) * rng.choice((1.0, 1e-6, 0.0)))
    if kind == "edge" and dim.compactified:
        x = rng.uniform(-1.0, 1.0)
        return FI(x, 1.0) if rng.random() < 0.5 else FI(-1.0, x)
    a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return FI(a, b)


KINDS = ("random", "point", "tiny", "zero", "edge")


def seeded_boxes(problem: BoundProblem, rng: random.Random, count: int):
    yield Box([FI(d.lo, d.hi) for d in problem.dims])
    for k in range(count):
        uniform = KINDS[k % len(KINDS)]
        ivs = [_interval(rng, d, uniform if rng.random() < 0.7 else rng.choice(KINDS))
               for d in problem.dims]
        yield Box(ivs)


def _all_charts():
    out = []
    for path in sorted(glob.glob("benchmarks/*.gct")):
        t, _ = presolve(translate(parse_construction(open(path).read())))
        try:
            charts = compile_charts(t)
        except CompileError:
            continue
        name = path.split("/")[-1][:-4]
        out += [(f"{name}:{k}", c) for k, c in enumerate(charts)]
    return out


CHARTS = _all_charts()


def _show(problem):
    return "generated source:\n" + problem.evaluator_source


@pytest.mark.parametrize("label,problem", CHARTS, ids=[c[0] for c in CHARTS])
def test_generated_evaluator_matches_interpreter(label, problem):
    ref = Reference(problem)
    rng = random.Random(f"codegen:{label}")
    for box in seeded_boxes(problem, rng, 60):
        for prune_key in (None, lambda r: True, lambda r: r.lo > 1.0):
            got = evaluate_box(problem, box, prune_key)
            want = ref.evaluate(box, prune_key)
            status, env, ratio, grads, active = want
            where = f"{label} box {box.ivs}"
            assert got.status == status, (where, _show(problem))
            assert same_fi(got.ratio, ratio), (where, got.ratio, ratio, _show(problem))
            assert same_list(got.grads, grads), (where, got.grads, grads, _show(problem))
            assert same_list(got.env, env), (where, got.env, env, _show(problem))
            assert got.sign_active == active, (where, _show(problem))
            if env is not None:
                # the gradient fallback of the monotonicity test
                g = problem.evaluate(box.ivs, None, got.ratio)
                assert same_list(g, ref.gradients(box, env, ratio)), (where, _show(problem))


@pytest.mark.parametrize("label,problem",
                         [c for c in CHARTS if c[1].constraints or c[1].signconds],
                         ids=[c[0] for c in CHARTS if c[1].constraints or c[1].signconds])
def test_generated_hull_contract_matches_interpreter(label, problem):
    ref = Reference(problem)
    rng = random.Random(f"contract:{label}")
    for box in seeded_boxes(problem, rng, 60):
        got = hull_contract(problem, box)
        want = ref.hull_contract(box)
        assert (got is None) == (want is None), (label, box.ivs, _show(problem))
        if got is not None:
            assert same_list(got.ivs, want.ivs), (label, box.ivs, got.ivs, want.ivs,
                                                  _show(problem))


def test_differential_cases_cover_the_bounds_path():
    names = {label.split(":")[0] for label, _ in CHARTS}
    assert {"medians", "right_triangle_perimeter_vs_circumradius",
            "pentagon_diagonal_convex", "euler_inequality_isosceles"} <= names
    assert any(p.chart == "far" for _, p in CHARTS)
    assert any(p.signconds for _, p in CHARTS)
    # large functions are compiled in pieces; the comparisons cover them
    assert any("def evaluate_1(" in p.evaluator_source for _, p in CHARTS)
    assert any("def contract_env_1(" in p.evaluator_source for _, p in CHARTS)


def test_problems_built_on_many_threads_at_once():
    # problems built and evaluated on more threads than cores, with frequent
    # switches, each give the results of a single-threaded run
    t, _ = presolve(translate(parse_construction(open("benchmarks/medians.gct").read())))
    boxes = list(seeded_boxes(compile_charts(t)[0], random.Random("threads"), 10))

    def run():
        return [evaluate_box(p, box) for p in compile_charts(t) for box in boxes]

    want = run()
    results, errors = {}, []

    def worker(k):
        try:
            results[k] = run()
        except Exception as e:      # reported after the join
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    assert sorted(results) == list(range(6))
    for got in results.values():
        for g, w in zip(got, want, strict=True):
            assert g.status == w.status and same_fi(g.ratio, w.ratio)
            assert same_list(g.grads, w.grads)


def test_compiles_where_the_c_library_has_no_malloc_trim(monkeypatch):
    t, _ = presolve(translate(parse_construction(open("benchmarks/medians.gct").read())))
    boxes = list(seeded_boxes(compile_charts(t)[0], random.Random("no trim"), 5))
    want = [evaluate_box(p, box) for p in compile_charts(t) for box in boxes]
    monkeypatch.setattr(boxcode, "_malloc_trim", lambda: None)
    got = [evaluate_box(p, box) for p in compile_charts(t) for box in boxes]
    for g, w in zip(got, want, strict=True):
        assert g.status == w.status and same_fi(g.ratio, w.ratio)


# ---------------------------------------------------------------------------
# the inlined product
# ---------------------------------------------------------------------------

SPECIAL = (-INF, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.0, INF)
INTERVALS = [(a, b) for a in SPECIAL for b in SPECIAL if a <= b]
NAMESPACE = {"INF": INF, "NINF": -INF, "nextafter": math.nextafter,
             "copysign": math.copysign, "sqrt": math.sqrt}


def _compiled(header, body):
    """A generated function: `body(f)` returns the operand to return."""
    f = Emitter(header, shared_product=False)
    r = body(f)
    f.emit(f"return ({r.lo}, {r.hi})")
    ns = dict(NAMESPACE)
    exec(f.source() + "\n" + product_source(), ns)
    return ns[header[4:header.index("(")]], ns["mul"]


def _nonneg(x):
    # the generator's `pos` fact: the lower end is +0.0 or above
    return x[0] > 0.0 or (x[0] == 0.0 and math.copysign(1.0, x[0]) > 0)


def test_inline_product_matches_fi_on_special_values():
    unknown, shared = _compiled("def unknown(a, b, c, d):",
                                lambda f: f.mul(V("a", "b"), V("c", "d")))
    nonneg, _ = _compiled("def nonneg(a, b, c, d):",
                          lambda f: f.mul(V("a", "b", pos=True), V("c", "d")))
    for x in INTERVALS:
        for y in INTERVALS:
            want = FI(*x) * FI(*y)
            for fn in (unknown, shared):
                got = fn(*x, *y)
                assert same_fi(FI(*got), want), (x, y, got, want)
            if _nonneg(x):
                assert same_fi(FI(*nonneg(*x, *y)), want), (x, y)
            for known_left in (True, False):
                body = (lambda f: f.mul(V(*x), V("a", "b"))) if known_left \
                    else (lambda f: f.mul(V("a", "b"), V(*y)))
                fn, _ = _compiled("def g(a, b):", body)
                got = fn(*(y if known_left else x))
                assert same_fi(FI(*got), want), (x, y, known_left, got, want)


def test_inline_square_point_power_and_sqrt_match_fi():
    square, _ = _compiled("def square(a, b):", lambda f: f.mul(V("a", "b"), V("a", "b")))
    point, _ = _compiled("def point(a, c, d):", lambda f: f.mul(V("a", "a"), V("c", "d")))
    roots, _ = _compiled("def roots(a, b):", lambda f: f.sqrt(V("a", "b")))
    powers = {n: _compiled(f"def p{n}(a, b):", lambda f, n=n: f.power(V("a", "b"), n))[0]
              for n in (2, 3, 4)}
    for x in INTERVALS:
        assert same_fi(FI(*square(*x)), FI(*x) * FI(*x)), x
        for n, fn in powers.items():
            assert same_fi(FI(*fn(*x)), FI(*x).power(n)), (x, n)
        if x[1] >= 0.0:
            assert same_fi(FI(*roots(*x)), FI(*x).sqrt()), x
        if same_float(x[0], x[1]):
            for y in INTERVALS:
                assert same_fi(FI(*point(x[0], *y)), FI(*x) * FI(*y)), (x, y)


def test_inline_product_corner_cases():
    unknown, _ = _compiled("def unknown(a, b, c, d):",
                           lambda f: f.mul(V("a", "b"), V("c", "d")))
    # [0, inf] x [-1, 0]: corners inf * -1 and 0 * 0, the upper one rounded up
    assert same_fi(FI(*unknown(0.0, INF, -1.0, 0.0)), FI(0.0, INF) * FI(-1.0, 0.0))
    assert same_fi(FI(*unknown(0.0, INF, -1.0, 0.0)), FI(-INF, 5e-324))
    # [-0.0, 0.0] times anything keeps the signed zeros of FI
    for y in INTERVALS:
        assert same_fi(FI(*unknown(-0.0, 0.0, *y)), FI(-0.0, 0.0) * FI(*y)), y
    # 0 * inf at a chosen corner contributes 0
    assert same_fi(FI(*unknown(0.0, 0.0, INF, INF)), FI(0.0, 5e-324))


# ---------------------------------------------------------------------------
# coefficients beyond the float range
# ---------------------------------------------------------------------------

def test_huge_coefficient_compiles_and_encloses_the_whole_line():
    assert FI.from_fraction(Fraction(10 ** 400)).lo == -INF
    assert FI.from_fraction(Fraction(-10 ** 400)).hi == INF
    x = Polynomial.variable("x", ("x",))
    problem = BoundProblem(dims=[Dim("x", False, -1.0, 1.0)], defs=[], constraints=[],
                           signconds=[], margins=[], obj_num=x * 10 ** 400,
                           obj_den=Polynomial.constant(1, ("x",)))
    assert "NINF" in problem.evaluator_source
    assert "inf" not in problem.evaluator_source.replace("INF", "")
    for ivs in ([FI(-1.0, 1.0)], [FI(0.5, 1.0)], [FI(0.25, 0.25)]):
        ev = evaluate_box(problem, Box(ivs))
        assert (ev.ratio.lo, ev.ratio.hi) == (-INF, INF), ivs
