"""Differential test of the generated box evaluator (`boxcode`).

The reference below is the interpreter that the generated code replaced:
it walks each polynomial's terms over `FI` objects. It follows the
generator's exact-operation rule: a value known when the code is written
(`K`: a coefficient, a unit gradient entry, or a result of such values
only) of exactly 0, 1 or -1 makes its product exact, a sum or difference
with a `ZERO` second operand is its first, and a polynomial's sum starts at
its first term plus 0.0. Every other
operation is an `FI` operation, or `direction_cosine`, which belongs to the
same arithmetic. The gradient table follows the generator's rules: a
dimension's row is its unit vector, and the roots of sums of squares go by
direction cosines. On seeded boxes of every chart of every
benchmark construction that compiles, the generated `evaluate_box`, its
gradient fallback and `hull_contract` must agree with it bit for bit
(signed zeros included).
"""

import dis
import glob
import math
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from geomcompare import boxcode
from geomcompare.boxcode import Emitter, V, complete_squares, product_source
from geomcompare.bounds import (
    Box,
    BoundProblem,
    CompileError,
    Dim,
    SqrtDef,
    compile_charts,
    evaluate_box,
    hull_contract,
)
from geomcompare.construction import parse_construction, translate
from geomcompare.float_intervals import FI, INF, direction_cosine, down, up
from geomcompare.polynomials import Polynomial
from geomcompare.presolve import presolve

# ---------------------------------------------------------------------------
# the reference interpreter
# ---------------------------------------------------------------------------


class K(FI):
    """A value the generator knows when it writes the code."""

    __slots__ = ()


ZERO, ONE = K(0.0, 0.0), K(1.0, 1.0)


def known(result, *operands):
    """`result` as a known value when every operand is known."""
    if all(isinstance(v, K) for v in operands):
        return K(result.lo, result.hi)
    return result


def unknown(v):
    """A value the generated code stores in its locals: no longer known."""
    return FI(v.lo, v.hi)


def is_zero(v):
    return isinstance(v, K) and v.lo == 0.0 == v.hi


def mul(x, y):
    if is_zero(x) or is_zero(y):
        return ZERO
    for p, q in ((x, y), (y, x)):
        if isinstance(p, K) and p.lo == p.hi and p.lo in (1.0, -1.0):
            return q if p.lo > 0.0 else known(-q, q)
    return known(x * y, x, y)


def add(x, y):
    if is_zero(y):
        return x
    return known(x + y, x, y)


def sub(x, y):
    if is_zero(y):
        return x
    return known(x - y, x, y)


def accumulate(total, term):
    if is_zero(total) and not is_zero(term):
        return type(term)(term.lo + 0.0, term.hi + 0.0)
    return add(total, term)


def power(v, e):
    return v if e == 1 else known(v.power(e), v)


def inverse(v):
    return known(FI(down(1.0 / v.hi), up(1.0 / v.lo)), v)


def root_of(a):
    """sqrt of a known constant: exact where the float root is exact."""
    r = math.sqrt(a.lo)
    if a.lo == a.hi and Fraction(r) ** 2 == Fraction(a.lo):
        return K(r, r)
    return known(a.sqrt(), a)


def cosine(w, q):
    return known(FI(*direction_cosine(w.lo, w.hi, q.lo, q.hi)), w, q)


class CompiledPoly:
    def __init__(self, poly, index):
        self.terms = []
        for mono, coef in poly.terms.items():
            powers = tuple((index[poly.vars[i]], e) for i, e in enumerate(mono) if e)
            self.terms.append((known(FI.from_fraction(coef)), powers))

    def eval(self, env):
        total = ZERO
        cache = {}
        for coef, powers in self.terms:
            term = coef
            for key in powers:
                p = cache.get(key)
                if p is None:
                    idx, e = key
                    p = power(env[idx], e)
                    cache[key] = p
                term = mul(term, p)
            total = accumulate(total, term)
        return total


class CompiledQuadratic:
    def __init__(self, poly, index):
        squares, rest = complete_squares(poly)
        self.squares = [(known(a), CompiledPoly(form, index)) for a, form in squares]
        self.residual = CompiledPoly(rest, index)

    def eval(self, env):
        total = self.residual.eval(env)
        for a, form in self.squares:
            total = accumulate(total, mul(a, power(form.eval(env), 2)))
        return total


def is_distance(radicand):
    """A radicand sum(a_i L_i^2) + r with r a constant >= 0 once its squares
    are completed: its root's gradient goes by direction cosines."""
    if radicand.total_degree() != 2:
        return False
    squares, rest = complete_squares(radicand)
    return bool(squares) and rest.is_constant() and rest.constant_value() >= 0


class Reference:
    """The interpreted evaluator of one problem."""

    def __init__(self, problem: BoundProblem):
        self.p = problem
        idx = problem.var_index
        comp = lambda q: CompiledPoly(q, idx)
        partials = lambda q: {v: comp(q.derivative(v)) for v in sorted(q.support())}
        quad = lambda q: CompiledQuadratic(q, idx) if q.total_degree() == 2 else comp(q)

        def cosines(q):
            if not is_distance(q):
                return None
            squares, rest = complete_squares(q)
            return comp(rest), [(known(a), root_of(known(a)), comp(form), partials(form))
                                for a, form in squares]

        self.c_defs = []
        for d in problem.defs:
            if isinstance(d, SqrtDef):
                self.c_defs.append(("sqrt", idx[d.var], quad(d.radicand),
                                    partials(d.radicand), cosines(d.radicand)))
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
        env[:len(p.dims)] = ivs
        status = "feasible"
        for entry in self.c_defs:
            if entry[0] == "sqrt":
                _, slot, radicand, _, _ = entry
                rad = radicand.eval(env)
                if rad.hi < 0.0:
                    return "infeasible", env
                env[slot] = known(rad.sqrt(), rad)
            else:
                _, slot, num, den, _, _ = entry
                n = num.eval(env)
                if n.lo == 0.0 == n.hi:
                    env[slot] = ZERO if is_zero(n) else FI(0.0, 0.0)
                    continue
                d = den.eval(env)
                if d.straddles_zero():
                    status = "indeterminate"
                    env[slot] = FI(-INF, INF)
                else:
                    env[slot] = unknown(mul(n, inverse(d)))
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
        if den.straddles_zero():
            return ("indeterminate", env, one_sided(num, den), None, sign_active)
        ratio = unknown(mul(num, inverse(den)))
        if prune_key is not None and prune_key(ratio):
            return (status, env, ratio, None, sign_active)
        cratio = self.center_value(box)
        grads = None
        if cratio is not None:
            table = self.grad_table(box, env)
            for _ in range(2):
                grads = self.combine(env, table, ratio)
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
        if cden.straddles_zero():
            return None
        return unknown(mul(self.c_num.eval(cenv), inverse(cden)))

    def grad_table(self, box, env):
        p = self.p
        n = p.n_dims
        grad = []
        for i in range(n):
            row = [ZERO] * n
            row[i] = ONE
            grad.append(row)

        def poly_grad(partials):
            out = [ZERO] * n
            for vname, dp in partials.items():
                slot = p.var_index[vname]
                coeff = dp.eval(env)
                for j in range(n):
                    out[j] = accumulate(out[j], mul(coeff, grad[slot][j]))
            return out

        def cosine_row(cosines):
            # sum(sqrt(a_i) u_i dL_i), u_i enclosed over sqrt(a_i) L_i and
            # the rest of the radicand
            residual, squares = cosines
            lins = [form.eval(env) for _, _, form, _ in squares]
            terms = [mul(a, power(lin, 2)) for (a, _, _, _), lin in zip(squares, lins)]
            out = [ZERO] * n
            for i, (_, root_a, _, form_parts) in enumerate(squares):
                rest = residual.eval(env)
                for k, term in enumerate(terms):
                    if k != i:
                        rest = accumulate(rest, term)
                weight = mul(root_a, cosine(mul(root_a, lins[i]), rest))
                dform = poly_grad(form_parts)
                for j in range(n):
                    out[j] = accumulate(out[j], mul(weight, dform[j]))
            return [unknown(v) for v in out]

        for entry in self.c_defs:
            if entry[0] == "sqrt":
                _, slot, _radicand, parts, cosines = entry
                root = env[slot]
                if root.lo <= 0.0:
                    grad.append([FI(-INF, INF)] * n)
                    continue
                if cosines is not None:
                    grad.append(cosine_row(cosines))
                    continue
                base = poly_grad(parts)
                two_root = known(root.scale(2.0), root)
                if two_root.straddles_zero():
                    grad.append([FI(-INF, INF)] * n)
                    continue
                inv = inverse(two_root)
                grad.append([unknown(mul(b, inv)) for b in base])
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
                inv = inverse(d)
                grad.append([unknown(mul(sub(gn[j], mul(v, gd[j])), inv))
                             for j in range(n)])
        return poly_grad(self.d_num), poly_grad(self.d_den)

    def combine(self, env, table, ratio):
        gnum, gden = table
        inv = inverse(self.c_den.eval(env))
        return [unknown(mul(sub(gnum[j], mul(ratio, gden[j])), inv))
                for j in range(self.p.n_dims)]

    def hull_contract(self, box, max_rounds=6):
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
            # the narrowers and sign conditions read a flat list
            env = [unknown(v) for v in env]
            for i, parts in self.c_narrow:
                new_x = narrow_univariate(parts, env)
                if new_x == "infeasible":
                    return None
                if new_x is None:
                    continue
                cur = ivs[i]
                inter = cur.intersect(new_x)
                if inter is None:
                    return None
                if inter.width() < cur.width():
                    gain = max(gain, (cur.width() - inter.width()) /
                               max(cur.width(), 1e-300))
                    ivs[i] = inter
                    env[i] = inter
            for comp, sign in self.c_signconds:
                iv = comp.eval(env)
                if sign > 0 and iv.hi <= 0.0:
                    return None
                if sign < 0 and iv.lo >= 0.0:
                    return None
            if gain < 0.01:
                break
        return Box(ivs)


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
    if kind == "edge":
        x = rng.uniform(lo, hi)
        return FI(x, hi) if rng.random() < 0.5 else FI(lo, x)
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


def _weighted_distance():
    """A root of 4x^2 + 4xy + 3y^2 + 2 = 4(x + y/2)^2 + 2y^2 + 2: squares with
    weights 4 and 2 (an inexact root) and a positive residual; no benchmark
    chart has such a distance."""
    names = ("x", "y", "r")
    x, y, r = (Polynomial.variable(v, names) for v in names)
    return BoundProblem(dims=[Dim("x", False, -1.0, 1.0), Dim("y", True, -0.9, 0.9)],
                        defs=[SqrtDef("r", 4 * x * x + 4 * x * y + 3 * y * y + 2)],
                        constraints=[], signconds=[], margins=[], obj_num=r + x * y,
                        obj_den=Polynomial.constant(1, names) + x * x)


CHARTS = _all_charts() + [("weighted_distance:0", _weighted_distance())]


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


# `x = nextafter(y, ...)` or `x = nextafter(-y, ...)`: rounding a copy of
# another local, whose value is an exact result
_REROUNDING = re.compile(r"^\s*(\w+) = \(?nextafter\((-?)(\w+), ")


@pytest.mark.parametrize("label,problem", CHARTS, ids=[c[0] for c in CHARTS])
def test_exact_results_are_not_rounded_again(label, problem):
    source = problem.evaluator_source
    rounded = [line for line in source.splitlines()
               if (m := _REROUNDING.match(line)) and (m.group(2) or m.group(3) != m.group(1))]
    assert not rounded, (label, rounded)
    assert "nextafter" in source


def test_differential_cases_cover_the_bounds_path():
    names = {label.split(":")[0] for label, _ in CHARTS}
    assert {"medians", "right_triangle_perimeter_vs_circumradius",
            "pentagon_diagonal_convex", "euler_inequality_isosceles"} <= names
    assert any(p.chart == "far" for _, p in CHARTS)
    assert any(p.signconds for _, p in CHARTS)
    # large functions are compiled in pieces; the comparisons cover them
    assert any("def evaluate_1(" in p.evaluator_source for _, p in CHARTS)
    assert any("def contract_env_1(" in p.evaluator_source for _, p in CHARTS)


def _construction(name):
    return presolve(translate(parse_construction(open(f"benchmarks/{name}.gct").read())))[0]


def _same_evals(got, want) -> bool:
    return len(got) == len(want) and all(
        g.status == w.status and same_fi(g.ratio, w.ratio) and same_list(g.grads, w.grads)
        and same_list(g.env, w.env) and g.sign_active == w.sign_active
        for g, w in zip(got, want))


@pytest.mark.parametrize("name", ["medians", "right_triangle_perimeter_vs_circumradius"])
def test_stages_give_the_same_boxevals_in_any_order(name):
    """A chart compiles the natural form at its first box and the centered
    form at its first box that is not pruned. Boxes evaluated pruned first
    and then unpruned give what they give unpruned first."""
    t = _construction(name)
    boxes = list(seeded_boxes(compile_charts(t)[0], random.Random(f"stages:{name}"), 20))
    prune = {"none": None, "all": lambda r: True}

    def evals(order):
        # per fresh chart, the boxes' BoxEvals under each key, in this order
        return [{key: [evaluate_box(p, box, prune[key]) for box in boxes] for key in order}
                for p in compile_charts(t)]

    want = evals(("none", "all"))
    assert any(ev.grads is not None for chart in want for ev in chart["none"])
    for got, w in zip(evals(("all", "none")), want, strict=True):
        assert _same_evals(got["none"], w["none"]) and _same_evals(got["all"], w["all"])


def _helper_globals(parts) -> set[str]:
    """The globals the functions of a stage's source read."""
    names, todo = set(), [compile(part, "<stage>", "exec") for part in parts]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
        if code.co_name != "<module>":
            names |= {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    return names


@pytest.mark.parametrize("label,problem", CHARTS, ids=[c[0] for c in CHARTS])
def test_stages_read_no_global_but_the_helpers(label, problem):
    """Stage 2 reads stage 1's values through the tuple stage 1 returns: a
    value missing from it would be read as a global that does not exist."""
    generator = boxcode._Generator(problem)
    for k in range(3):
        assert _helper_globals(generator.stage(k)) <= set(boxcode._HELPERS) | {"SD"}, (label, k)


def test_problems_built_on_many_threads_at_once():
    # problems built and evaluated on more threads than cores, with frequent
    # switches, and charts shared by every thread before any of them has
    # compiled a box evaluator, each give the results of a single-threaded run
    t = _construction("medians")
    boxes = list(seeded_boxes(compile_charts(t)[0], random.Random("threads"), 10))

    def run(charts):
        return [evaluate_box(p, box) for p in charts for box in boxes]

    want = run(compile_charts(t))
    shared = compile_charts(t)
    start = threading.Barrier(6)
    results, errors = {}, []

    def worker(k):
        try:
            start.wait(timeout=60)
            results[k] = (run(shared), run(compile_charts(t)))
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
        assert _same_evals(got[0], want) and _same_evals(got[1], want)


def test_compiles_where_the_c_library_has_no_malloc_trim(monkeypatch):
    t = _construction("medians")
    boxes = list(seeded_boxes(compile_charts(t)[0], random.Random("no trim"), 5))
    want = [evaluate_box(p, box) for p in compile_charts(t) for box in boxes]
    monkeypatch.setattr(boxcode, "_malloc_trim", lambda: None)
    got = [evaluate_box(p, box) for p in compile_charts(t) for box in boxes]
    for g, w in zip(got, want, strict=True):
        assert g.status == w.status and same_fi(g.ratio, w.ratio)


_EMIT_SOURCES = """
import sys
from test_codegen import CHARTS
for label, problem in CHARTS:
    sys.stdout.write(f"# {label}\\n" + problem.evaluator_source)
"""


def test_evaluator_source_does_not_depend_on_the_hash_seed():
    """Two processes with different string hash seeds emit the same source
    for every chart: the order in which gradient sums accumulate sets the
    last bits of the enclosures that the monotonicity test reads."""
    root = Path(__file__).resolve().parent.parent
    sources = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
        done = subprocess.run([sys.executable, "-c", _EMIT_SOURCES], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        sources.append(done.stdout)
    assert sources[0].count("def evaluate(") == len(CHARTS)
    assert sources[0] == sources[1]


# ---------------------------------------------------------------------------
# gradient enclosures against the exact derivative
# ---------------------------------------------------------------------------

def _mp_poly(p, env):
    total = mpmath.mpf(0)
    for mono, c in p.terms.items():
        term = mpmath.mpf(c.numerator) / c.denominator
        for v, e in zip(p.vars, mono):
            if e:
                term *= env[v] ** e
        total += term
    return total


def _mp_ratio(problem, s):
    """The chart's ratio at parameters s, through its definition chain."""
    env = {d.var: x for d, x in zip(problem.dims, s)}
    for d in problem.defs:
        if isinstance(d, SqrtDef):
            env[d.var] = mpmath.sqrt(_mp_poly(d.radicand, env))
        else:
            env[d.var] = _mp_poly(d.num, env) / _mp_poly(d.den, env)
    return _mp_poly(problem.obj_num, env) / _mp_poly(problem.obj_den, env)


def _gradient_boxes(problem, rng, count):
    """Widths from 1e-6 of the chart domain to all of it; one box in three
    has a dimension pinned to the domain's lower face."""
    for _ in range(count):
        ivs = []
        for d in problem.dims:
            width = (d.hi - d.lo) * 10.0 ** rng.uniform(-6.0, 0.0)
            lo = rng.uniform(d.lo, d.hi - width)
            ivs.append(FI(lo, min(lo + width, d.hi)))
        if rng.random() < 1 / 3:
            j = rng.randrange(len(ivs))
            ivs[j] = FI(problem.dims[j].lo, problem.dims[j].lo)
        yield Box(ivs)


FREE = [c for c in CHARTS if not c[1].constraints and not c[1].signconds]


def test_gradient_enclosures_hold_the_derivative():
    """Every generated gradient enclosure holds the derivative of the exact
    ratio (mpmath, 60 digits) at sampled points of its box, on every chart
    without constraints: there the dimensions are free, pinning reads the
    gradients, and distances on a lower face have unit derivatives."""
    rng = random.Random("gradients")
    assert {p.chart for _, p in FREE} == {"near", "far"}
    checks = 0
    with mpmath.workdps(60):
        for label, problem in FREE:
            for box in _gradient_boxes(problem, rng, 60):
                ev = evaluate_box(problem, box)
                if ev.grads is None:
                    continue
                for _ in range(3):
                    s = [mpmath.mpf(rng.uniform(iv.lo, iv.hi)) for iv in box.ivs]
                    for j, g in enumerate(ev.grads):
                        if g.lo == -INF and g.hi == INF:
                            continue
                        try:
                            d = mpmath.diff(
                                lambda x: _mp_ratio(problem, s[:j] + [x] + s[j + 1:]), s[j])
                        except ZeroDivisionError:
                            continue
                        slack = mpmath.mpf(10) ** -40 * max(1, abs(d))
                        assert g.lo - slack <= d <= g.hi + slack, (label, box.ivs, s, j, g, d)
                        checks += 1
    assert checks >= 3000, checks


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
                factor, other = (x, y) if known_left else (y, x)
                if factor[0] == factor[1] and factor[0] in (0.0, 1.0, -1.0):
                    # the exact-operation rule: no rounding
                    exact = {0.0: (0.0, 0.0), 1.0: other,
                             -1.0: (-other[1], -other[0])}[factor[0]]
                    assert same_fi(FI(*got), FI(*exact)), (x, y, known_left, got)
                else:
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


def test_inline_exact_operations_are_not_rounded():
    # a sum starts at its first term + 0.0 (only -0.0 changes, to +0.0), and
    # a sum or difference with a known zero second operand is the first
    start, _ = _compiled("def start(a, b):", lambda f: f.start_sum(V("a", "b")))
    plus, _ = _compiled("def plus(a, b):", lambda f: f.add(V("a", "b"), boxcode.ZERO))
    minus, _ = _compiled("def minus(a, b):", lambda f: f.sub(V("a", "b"), boxcode.ZERO))
    for x in INTERVALS:
        assert same_fi(FI(*start(*x)), FI(x[0] + 0.0, x[1] + 0.0)), x
        assert same_fi(FI(*plus(*x)), FI(*x)) and same_fi(FI(*minus(*x)), FI(*x)), x
    assert same_fi(FI(*start(-0.0, -0.0)), FI(0.0, 0.0))


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


# ---------------------------------------------------------------------------
# the direction cosine
# ---------------------------------------------------------------------------

def _below(c, w, q):
    """c <= w / sqrt(w^2 + q), decided in rationals."""
    c, w, q = Fraction(c), Fraction(w), Fraction(q)
    if w == 0:
        return c <= 0
    if (c <= 0) != (w < 0):
        return c <= 0
    # same signs: compare the squares
    return c * c * (w * w + q) <= w * w if c > 0 else c * c * (w * w + q) >= w * w


def _encloses(w, q):
    lo, hi = direction_cosine(*w, *q)
    return -1.0 <= lo <= hi <= 1.0 and all(
        _below(lo, x, y) and _below(-hi, -x, y)
        for x in (w[0], w[1], 0.5 * (w[0] + w[1])) for y in (q[0], q[1], 0.5 * (q[0] + q[1]))
        if y >= 0.0 and (x != 0.0 or y != 0.0))


def test_direction_cosine_is_exact_where_the_rest_reaches_zero():
    # a linear form of one sign and a rest whose lower end is 0: the outer
    # end is exactly 1 or -1, and both ends where the rest is [0, 0]
    assert direction_cosine(0.5, 2.0, 0.0, 3.0)[1] == 1.0
    assert direction_cosine(-2.0, -0.5, 0.0, 3.0)[0] == -1.0
    assert direction_cosine(0.25, 0.75, 0.0, 0.0) == (1.0, 1.0)
    assert direction_cosine(-0.75, -0.25, 0.0, 0.0) == (-1.0, -1.0)
    # a rest of one subnormal: not exact, but within a few ulps of 1
    lo, hi = direction_cosine(0.25, 0.75, 0.0, 5e-324)
    assert hi == 1.0 and 1.0 - 1e-15 < lo < 1.0


def test_direction_cosine_straddling_and_signed_zeros():
    assert direction_cosine(-1.0, 2.0, 0.0, 1.0) == (-1.0, 1.0)
    lo, hi = direction_cosine(-1.0, 2.0, 1.0, 1.0)
    assert lo <= -math.sqrt(0.5) and hi >= 2.0 / math.sqrt(5.0)
    assert lo > -math.sqrt(0.5) - 1e-15 and hi < 2.0 / math.sqrt(5.0) + 1e-15
    for w in ((-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)):
        assert direction_cosine(*w, 0.0, 1.0) == (0.0, 0.0)
    assert direction_cosine(-0.0, 1.0, 0.0, 1.0) == (0.0, 1.0)
    assert direction_cosine(-1.0, 0.0, 0.0, 1.0) == (-1.0, 0.0)
    # a rest whose lower end is below 0 is met with [0, inf)
    assert direction_cosine(0.5, 1.0, -3.0, 1.0) == direction_cosine(0.5, 1.0, 0.0, 1.0)


def test_direction_cosine_subnormals_and_infinite_ends():
    tiny = 5e-324
    for w, q in (((tiny, tiny), (tiny, tiny)), ((tiny, 1.0), (tiny, 2.0)),
                 ((-tiny, tiny), (0.0, tiny)), ((1.0, 1.0), (tiny, tiny)),
                 ((1e-200, 1e-160), (1e-300, 1e-310 + 1e-300))):
        assert _encloses(w, q), (w, q)
    for w, q in (((-INF, 1.0), (0.0, 1.0)), ((0.5, INF), (0.0, 1.0)),
                 ((0.5, 1.0), (1.0, INF)), ((-INF, INF), (0.0, INF))):
        assert direction_cosine(*w, *q) == (-1.0, 1.0)


def test_direction_cosine_encloses_sampled_rectangles():
    rng = random.Random("cosine")
    scales = (1e-300, 1e-160, 1e-8, 1.0, 1e8, 1e150, 1e300)
    for _ in range(3000):
        w = sorted(rng.uniform(-1.0, 1.0) * rng.choice(scales) for _ in range(2))
        q = sorted(abs(rng.uniform(-1.0, 1.0)) * rng.choice(scales + (0.0,)) for _ in range(2))
        assert _encloses(w, q), (w, q)
