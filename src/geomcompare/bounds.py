"""Certified sharp-constant search: interval branch-and-bound over the
configuration space of a presolved construction system.

The box lives over the independent coordinates (compactified onto (-1,1)
when unbounded) and the rotation-cosine pairs of regular chains. Length
variables are evaluated through their square-root definitions, solvable
centers (circumcenter, intersections, weighted centers) through division
definitions. Remaining equations act as constraints: they prune boxes by
interval evaluation and narrow them by hull consistency. Certified lower
bounds come from the box enclosures (natural extension intersected with a
first-order centered form); certified upper bounds come from witnesses,
configurations built exactly inside a box and evaluated with rational
interval arithmetic.

Box evaluation is generated code: building a `BoundProblem` writes its
definition chain, constraints, sign conditions, natural and centered forms
and gradient table out as straight-line float code (`boxcode`) and loads it
with `exec`. `evaluate_box` and `hull_contract` call it; their enclosures
are bit-identical to `FI` arithmetic on the same formulas, so a search
visits the same boxes as an interpreter would. `problem.evaluator_source`
gives the source.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .algebraic import AlgebraicNumber, RadicalForm, isolate_real_roots, to_radical
from .construction import Translation
from .boxcode import BoxEval, compile_evaluator, evaluator_source
from .float_intervals import FI, INF
from .instantiate import ExactVal, exact_interval, solve_for
from .intervals import Interval, NegativeRadicandError, eval_poly_interval, sqrt_interval
from .polynomials import Polynomial, poly_from_univariate

UNBOUNDED_AT = 1e9         # incumbent beyond this is unbounded evidence
MIN_DIM_WIDTH = 1e-13
NEAR_RADIUS = 8.0          # the near chart covers |x| <= R0 per coordinate;
                           # the far chart covers |point| >= R0 projectively


@dataclass(frozen=True)
class SqrtDef:
    var: str
    radicand: Polynomial

    @property
    def deps(self) -> set[str]:
        return self.radicand.support()

@dataclass(frozen=True)
class LinearDef:
    var: str
    num: Polynomial
    den: Polynomial

    @property
    def deps(self) -> set[str]:
        return self.num.support() | self.den.support()

Def = Union[SqrtDef, LinearDef]


@dataclass(frozen=True)
class Dim:
    var: str
    compactified: bool   # x = s/(1-s^2) over s in (-1,1); else x = s directly
    lo: float
    hi: float


@dataclass
class BoundProblem:
    dims: list[Dim]
    defs: list[Def]
    constraints: list[Polynomial]
    signconds: list[tuple[Polynomial, int]]
    margins: list[Polynomial]
    obj_num: Polynomial
    obj_den: Polynomial
    chart: str = "near"

    def __post_init__(self):
        names = [d.var for d in self.dims] + [d.var for d in self.defs]
        self.var_index = {v: i for i, v in enumerate(names)}
        self.n_dims = len(self.dims)
        self._compile()

    def _compile(self):
        # which dimensions feed each sign condition (directly or through
        # the definition chain) — undecided conditions get split priority
        dep_dims: dict[str, set[int]] = {d.var: {i} for i, d in enumerate(self.dims)}
        for d in self.defs:
            dep_dims[d.var] = set()
            for w in d.deps:
                dep_dims[d.var] |= dep_dims.get(w, set())
        self.signcond_dims = []
        for p, _ in self.signconds:
            dims: set[int] = set()
            for v in p.support():
                dims |= dep_dims.get(v, set())
            self.signcond_dims.append(frozenset(dims))
        entry = compile_evaluator(self)
        self.evaluate = entry["evaluate"]
        # generated only where the search contracts boxes
        self.contract_env = entry.get("contract_env")
        self.signs_hold = entry.get("signs_hold")
        self.narrowers = entry.get("NARROWERS", [])

    @property
    def evaluator_source(self) -> str:
        """The generated evaluator, generated again (the same text)."""
        return evaluator_source(self)


class CompileError(ValueError):
    pass


def compile_problem(t: Translation,
                    objective: Optional[tuple[Polynomial, Polynomial]] = None,
                    ) -> BoundProblem:
    """Turn a presolved translation into a box-search problem."""
    ndg_aux = t.ndg[1] if t.ndg is not None else None
    constants: dict[str, Fraction] = {}
    equations: list[Polynomial] = []
    for tp in t.polys:
        if tp.role == "witness":
            var = next(iter(tp.poly.support()))
            parts = tp.poly.coefficient_map(var)
            constants[var] = parts[0].constant_value() / -parts[1].constant_value()
        elif tp.role in ("construction", "length", "ndg"):
            equations.append(tp.poly)

    def subst_constants(p: Polynomial) -> Polynomial:
        for v, val in constants.items():
            if v in p.support():
                p = p.substitute(v, Polynomial.constant(val, p.vars))
        return p

    equations = [subst_constants(p) for p in equations]
    equations = [p for p in equations if not p.is_zero()]
    if any(p.is_constant() for p in equations):
        raise CompileError("inconsistent constant equation after presolve")

    defs: list[Def] = []
    defined: set[str] = set()
    occurrences: dict[str, int] = {}
    for p in equations:
        for v in p.support():
            occurrences[v] = occurrences.get(v, 0) + 1
    changed = True
    while changed:
        changed = False
        # square-root definitions for positive length variables
        for i, p in enumerate(equations):
            for v in sorted(p.support()):
                if v in defined or v not in t.posvars:
                    continue
                parts = p.coefficient_map(v)
                if set(parts) <= {0, 2} and 2 in parts and parts[2].is_constant():
                    c = parts[2].constant_value()
                    radicand = parts.get(0, Polynomial.zero(p.vars)) * (-1 / c)
                    if v in radicand.support():
                        continue
                    defs.append(SqrtDef(v, radicand))
                    defined.add(v)
                    del equations[i]
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # division definitions: a variable linear in its only equation;
        # rarely-occurring variables are preferred (reciprocal auxiliaries
        # occur once), keeping geometric coordinates searchable and the
        # division denominators measuring the degeneracy directly
        for i, p in enumerate(equations):
            cands = []
            for v in sorted(p.support(),
                            key=lambda w: (w != ndg_aux, occurrences.get(w, 0), w)):
                if v in defined:
                    continue
                others = sum(1 for j, q in enumerate(equations)
                             if j != i and v in q.support())
                if others:
                    continue
                parts = p.coefficient_map(v)
                if max(parts) != 1:
                    continue
                den = parts[1]
                num = -parts.get(0, Polynomial.zero(p.vars))
                if v in den.support() or v in num.support():
                    continue
                cands.append((v, num, den))
            if cands:
                v, num, den = cands[0]
                defs.append(LinearDef(v, num, den))
                defined.add(v)
                del equations[i]
                changed = True
                break

    # remaining equations: constraints; substitute even powers of sqrt vars
    sqrt_map = {d.var: d.radicand for d in defs if isinstance(d, SqrtDef)}
    constraints = [_even_substitute(p, sqrt_map) for p in equations]

    # objective
    if objective is None:
        if t.program.statement is None:
            raise CompileError("no statement and no explicit objective")
        from .construction import expr_to_polynomial
        lhs, rhs = t.program.statement
        num = expr_to_polynomial(lhs, t.seg_vars, t.universe)
        den = expr_to_polynomial(rhs, t.seg_vars, t.universe)
    else:
        num, den = objective
    num, den = subst_constants(num), subst_constants(den)

    signconds = [(subst_constants(p), s) for p, s in t.signconds]

    # margins: division denominators (the nondegeneracy measures); prune
    # definitions nothing in the value chain depends on — margins are
    # measured but do not constrain values, so they neither keep their
    # source definitions alive nor block symmetry reduction below
    margins = [d.den for d in defs if isinstance(d, LinearDef)]
    defs = _prune_defs(defs, constraints, [num, den], signconds, margins)

    # reduce the definition and objective polynomials modulo the constraint
    # equations: equal modulo the constraint ideal means equal on the
    # feasible surface, and reduction removes division artifacts (e.g. the
    # circumcenter height numerator of a right triangle is identically zero
    # on the Thales circle, making the circumradius finite at the corners)
    if constraints:
        defs = [SqrtDef(d.var, _constraint_reduce(d.radicand, constraints))
                if isinstance(d, SqrtDef) else
                LinearDef(d.var, _constraint_reduce(d.num, constraints), d.den)
                for d in defs]
        num = _constraint_reduce(num, constraints)
        den_obj = _constraint_reduce(den, constraints)
        if not den_obj.is_zero():
            den = den_obj

    # dimensions: whatever is still undefined in the value chain or margins
    value_polys = ([d.radicand for d in defs if isinstance(d, SqrtDef)] +
                   [d.num for d in defs if isinstance(d, LinearDef)] +
                   [d.den for d in defs if isinstance(d, LinearDef)] +
                   constraints + [num, den] + [p for p, _ in signconds])
    used: set[str] = set()
    for p in value_polys + margins:
        used |= p.support()
    defined = {d.var for d in defs}
    rot_names = {v for pair in t.rot_vars for v in pair[:2]}
    dim_vars = sorted((used - defined) - set(constants),
                      key=lambda v: t.universe.index(v) if v in t.universe else 10 ** 6)
    s0 = _unmap_point(NEAR_RADIUS)
    dims = []
    for v in dim_vars:
        if v in rot_names:
            dims.append(Dim(v, False, -1.0, 1.0))
        elif not signconds and all(_only_even(p, v) or v not in p.support()
                                   for p in value_polys):
            # the whole value chain is mirror-symmetric in v: search the
            # nonnegative half only
            dims.append(Dim(v, True, 0.0, s0))
        else:
            dims.append(Dim(v, True, -s0, s0))

    ordered = _toposort(defs)
    return BoundProblem(dims=dims, defs=ordered, constraints=constraints,
                        signconds=signconds, margins=margins,
                        obj_num=num, obj_den=den)


def compile_charts(t: Translation,
                   objective: Optional[tuple[Polynomial, Polynomial]] = None,
                   ) -> list[BoundProblem]:
    """The near chart plus, when one or two coordinates are unbounded, a
    projective chart at infinity: the unbounded pair becomes (cs, sn)/rho
    with rho in [0, 1/R0], every polynomial homogenized by rho-padding.
    Homogeneity of the compared expressions makes the ratio a polynomial
    quotient in chart variables, so enclosures stay tight at infinity.
    More than two unbounded coordinates raise `CompileError`: the near
    chart alone covers only |x| <= R0, so its bounds would not be bounds
    over the whole plane."""
    near = compile_problem(t, objective)
    unbounded = [d.var for d in near.dims if d.compactified]
    if len(unbounded) > 2:
        raise CompileError(f"{len(unbounded)} unbounded coordinates "
                           f"({', '.join(unbounded)}); at most two are supported")
    if not unbounded:
        return [near]
    charts = [near]
    for side in (1, -1):
        far = _far_chart(near, unbounded, side)
        if far is not None:
            charts.append(far)
    return charts


def _far_chart(near: BoundProblem, pair: list[str],
               side: int) -> Optional[BoundProblem]:
    weights: dict[str, int] = {}
    rename: dict[str, str] = {}
    for d in near.dims:
        weights[d.var] = 0
        rename[d.var] = d.var
    rename[pair[0]] = "_cs"
    weights[pair[0]] = 1
    circle: list[Polynomial] = []
    if len(pair) == 2:
        rename[pair[1]] = "_sn"
        weights[pair[1]] = 1
        cs = Polynomial.variable("_cs", ("_cs", "_sn"))
        sn = Polynomial.variable("_sn", ("_cs", "_sn"))
        circle = [cs * cs + sn * sn - 1]

    def transform(p: Polynomial) -> tuple[Polynomial, int]:
        degs = []
        for mono in p.terms:
            degs.append(sum(weights.get(p.vars[i], 0) * e
                            for i, e in enumerate(mono)))
        w = max(degs, default=0)
        universe = [rename.get(v, v) for v in p.vars]
        if "_rho" not in universe:
            universe = universe + ["_rho"]
        rho_slot = universe.index("_rho")
        terms = {}
        for mono, coef in p.terms.items():
            d = sum(weights.get(p.vars[i], 0) * e for i, e in enumerate(mono))
            new = list(mono) + [0] * (len(universe) - len(mono))
            new[rho_slot] += w - d
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + coef
        return _constraint_reduce(Polynomial.from_map(universe, terms), circle), w

    new_defs: list[Def] = []
    for d in near.defs:
        if isinstance(d, SqrtDef):
            r, w = transform(d.radicand)
            if w % 2:
                r = r * Polynomial.variable("_rho", r.vars)
                w += 1
            weights[d.var] = w // 2
            rename[d.var] = d.var
            new_defs.append(SqrtDef(d.var, r))
        else:
            n, wn = transform(d.num)
            dd, wd = transform(d.den)
            weights[d.var] = wn - wd
            rename[d.var] = d.var
            new_defs.append(LinearDef(d.var, n, dd))

    constraints = [transform(p)[0] for p in near.constraints]
    signconds = [(transform(p)[0], s) for p, s in near.signconds]
    margins = [transform(p)[0] for p in near.margins]
    num, wn = transform(near.obj_num)
    den, wd = transform(near.obj_den)
    if wn > wd:
        den = den * Polynomial.variable("_rho", den.vars) ** (wn - wd)
    elif wd > wn:
        num = num * Polynomial.variable("_rho", num.vars) ** (wd - wn)

    halved = {d.var: d.lo == 0.0 for d in near.dims}
    dims = [Dim("_rho", False, 0.0, 1.0 / NEAR_RADIUS)]
    if len(pair) == 2:
        # rational point on the unit circle: cs = ±(1-u^2)/(1+u^2),
        # sn = ±2u/(1+u^2); the two signs are separate charts covering
        # the two half-circles. Every chart polynomial was reduced modulo
        # cs^2+sn^2-1 above: the pair lies exactly on the circle (also in
        # exact witnesses), so values are unchanged, while interval
        # evaluation no longer overestimates the dependent sum cs^2+sn^2
        uv = ("u", "_rho")
        u = Polynomial.variable("u", uv)
        one = Polynomial.constant(1, uv)
        den_u = one + u * u
        cs_def = LinearDef("_cs", (one - u * u) * side, den_u)
        sn_def = LinearDef("_sn", u * (2 * side), den_u)
        new_defs = [cs_def, sn_def] + new_defs
        u_lo, u_hi = -1.0, 1.0
        if halved.get(pair[1]):       # sn >= 0 half
            u_lo, u_hi = (0.0, 1.0) if side > 0 else (-1.0, 0.0)
        dims.append(Dim("u", False, u_lo, u_hi))
    else:
        # one unbounded coordinate: the two rays are separate charts
        if halved.get(pair[0]) and side < 0:
            return None
        cs_def = LinearDef("_cs", Polynomial.constant(side, ("_rho",)),
                           Polynomial.constant(1, ("_rho",)))
        new_defs = [cs_def] + new_defs
    for d in near.dims:
        if d.var not in pair:
            dims.append(d)
    return BoundProblem(dims=dims, defs=new_defs, constraints=constraints,
                        signconds=signconds, margins=margins,
                        obj_num=num, obj_den=den, chart="far")


def _even_substitute(p: Polynomial, sqrt_map: dict[str, Polynomial]) -> Polynomial:
    for v, radicand in sqrt_map.items():
        deg = p.degree_in(v)
        if deg and deg % 2 == 0 and _only_even(p, v):
            parts = p.coefficient_map(v)
            acc = Polynomial.zero(p.vars)
            for e, coeff in parts.items():
                acc = acc + coeff * radicand ** (e // 2)
            p = acc
    return p


def _only_even(p: Polynomial, v: str) -> bool:
    return all(e % 2 == 0 for e in p.coefficient_map(v))


def _constraint_reduce(p: Polynomial, constraints: list[Polynomial]) -> Polynomial:
    """Remainder of p modulo the constraint polynomials (any reduction is
    value-preserving on the constraint surface); keeps the original when
    reduction only inflates the expression."""
    from .polynomials import TermOrder, reduce_poly
    basis = [c for c in constraints if not c.is_zero()]
    if not basis or p.is_zero():
        return p
    universe: list[str] = []
    for q in [p] + basis:
        for v in q.vars:
            if v not in universe:
                universe.append(v)
    try:
        r, _ = reduce_poly(p, basis, TermOrder(universe, "grevlex"))
    except ValueError:
        return p
    if len(r.terms) <= len(p.terms) + 2 and r.total_degree() <= p.total_degree():
        return r
    return p


def _prune_defs(defs: list[Def], constraints, objectives, signconds, margins):
    needed: set[str] = set()
    for p in constraints + objectives + margins + [q for q, _ in signconds]:
        needed |= p.support()
    by_var = {d.var: d for d in defs}
    keep: set[str] = set()
    frontier = [v for v in needed if v in by_var]
    while frontier:
        v = frontier.pop()
        if v in keep:
            continue
        keep.add(v)
        frontier.extend(w for w in by_var[v].deps if w in by_var)
    return [d for d in defs if d.var in keep]


def _toposort(defs: list[Def]) -> list[Def]:
    by_var = {d.var: d for d in defs}
    out: list[Def] = []
    state: dict[str, int] = {}

    def visit(v: str):
        if state.get(v) == 2 or v not in by_var:
            return
        if state.get(v) == 1:
            raise CompileError(f"cyclic definition through {v}")
        state[v] = 1
        d = by_var[v]
        for w in sorted(d.deps):
            visit(w)
        state[v] = 2
        out.append(d)

    for d in defs:
        visit(d.var)
    return out


# ---------------------------------------------------------------------------
# box evaluation
# ---------------------------------------------------------------------------

@dataclass
class Box:
    ivs: list[FI]                       # per-dim parameter intervals


def _split_metric(problem: BoundProblem, box: Box, i: int) -> float:
    """Width measure driving the split choice: parameter width for bounded
    dimensions, image width relative to the distance from zero for
    compactified ones (far-field boxes must shrink multiplicatively)."""
    iv = box.ivs[i]
    if not problem.dims[i].compactified:
        return iv.width()
    x = _map_real_line(iv)
    if x.hi == INF or x.lo == -INF:
        return INF
    magmin = 0.0 if x.lo <= 0.0 <= x.hi else min(abs(x.lo), abs(x.hi))
    return x.width() / (1.0 + magmin)


def split_box(problem: BoundProblem, box: Box,
              ev: Optional[BoxEval] = None) -> tuple[Box, Box]:
    """Bisect the dimension with the largest smear (|gradient| * width) when
    gradients are available, else the largest geometric metric, at the
    midpoint of its parameter interval."""
    i = None
    if ev is not None and ev.grads is not None:
        smears = []
        for j, g in enumerate(ev.grads):
            mag = max(abs(g.lo), abs(g.hi))
            if math.isinf(mag):
                smears = None
                break
            smear = mag * box.ivs[j].width()
            if j in ev.sign_active:
                # undecided sign conditions must also be resolved
                smear = max(smear, box.ivs[j].width())
            smears.append(smear)
        if smears and max(smears) > 0.0:
            i = max(range(len(smears)), key=lambda k: smears[k])
    if i is None:
        i = max(range(len(box.ivs)), key=lambda k: _split_metric(problem, box, k))
    iv = box.ivs[i]
    m = iv.mid()
    left, right = list(box.ivs), list(box.ivs)
    left[i] = FI(iv.lo, m)
    right[i] = FI(m, iv.hi)
    return Box(left), Box(right)


def _unmap_point(x: float) -> float:
    if x == 0.0:
        return 0.0
    return (math.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)


def _map_real_line(s: FI) -> FI:
    # x = s / (1 - s^2), increasing on (-1, 1)
    den = FI(1.0, 1.0) - s * s
    out = s.divide(den)
    return out if out is not None else FI(-INF, INF)


def _unmap_real_line(x_lo: float, x_hi: float) -> tuple[float, float]:
    # s = (sqrt(1 + 4x^2) - 1) / (2x), odd and increasing; outward by ulps
    def inv(x: float, direction: float) -> float:
        if x == 0.0:
            return 0.0
        s = (math.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)
        for _ in range(3):
            s = math.nextafter(s, direction)
        return max(-1.0, min(1.0, s))
    lo = -1.0 if x_lo == -INF else inv(x_lo, -INF)
    hi = 1.0 if x_hi == INF else inv(x_hi, INF)
    return lo, hi


def evaluate_box(problem: BoundProblem, box: Box,
                 prune_key: Optional[Callable[[FI], bool]] = None) -> BoxEval:
    """Enclose the ratio over a box: the natural extension, intersected with
    an iterated first-order centered form (Hansen & Walster) unless
    `prune_key` already accepts the natural enclosure. The work is done by
    the problem's generated evaluator (`boxcode`)."""
    return problem.evaluate(box.ivs, prune_key)


# ---------------------------------------------------------------------------
# hull contraction
# ---------------------------------------------------------------------------

_INFEASIBLE = object()


def hull_contract(problem: BoundProblem, box: Box, max_rounds: int = 6) -> Optional[Box]:
    """Narrow a box with each constraint treated as univariate (degree <= 2)
    in each dimension, interval coefficients from the rest; returns None when
    some constraint or sign condition excludes the whole box."""
    if not problem.constraints and not problem.signconds:
        return box
    ivs = list(box.ivs)
    for _ in range(max_rounds):
        env = problem.contract_env(ivs)     # flat [lo0, hi0, lo1, ...]
        if env is None:
            return None
        gain = 0.0
        for i, narrow in problem.narrowers:
            new_x = _narrow_univariate(*narrow(env))
            if new_x is _INFEASIBLE:
                return None
            if new_x is None:
                continue
            dim = problem.dims[i]
            if dim.compactified:
                s_lo, s_hi = _unmap_real_line(new_x.lo, new_x.hi)
                new_s = FI(s_lo, s_hi)
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
                x = _map_real_line(inter) if dim.compactified else inter
                env[2 * i], env[2 * i + 1] = x.lo, x.hi
        if not problem.signs_hold(env):
            return None
        if gain < 0.01:
            break
    return Box(ivs)


def _narrow_univariate(a0: FI, a1: FI, a2: Optional[FI]):
    """Solution hull of a constraint seen as univariate with interval
    coefficients (a2 None for degree 1); _INFEASIBLE when no real solution
    exists, None when the form gives no information."""
    if a2 is None:
        return (-a0).divide(a1)
    disc = a1 * a1 - (a2 * a0).scale(4.0)
    if disc.hi < 0.0:
        return _INFEASIBLE
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
# witnesses
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    ratio: Interval              # exact rational enclosure of the achieved ratio
    margin: float                # distance from the nondegeneracy boundary


_WITNESS_WINDOWS = ((1, 3), (5, 7))  # eighths


def _simple_point_in(rng: Interval, bias: int = 0) -> Fraction:
    """A small-denominator rational inside the interval (keeps the exact
    witness arithmetic cheap); bias picks the sampling window, the lower
    or the upper quarter-width band, to step off a degeneracy."""
    if rng.width() == 0:
        return rng.lo
    w = rng.width()
    a, b = _WITNESS_WINDOWS[bias % len(_WITNESS_WINDOWS)]
    return simplest_rational_in(rng.lo + w * a / 8, rng.lo + w * b / 8)


def witness_for_box(problem: BoundProblem, box: Box,
                    goal: Fraction = Fraction(1, 10 ** 9)) -> Optional[Witness]:
    """Build a configuration inside the box satisfying every constraint
    exactly: each constraint is solved for one dimension, the others take
    small rationals. The definition chain is then evaluated once, from the
    dimension values, and the ratio with rational interval arithmetic.
    A second attempt samples a higher window and flips the claim
    orientation, in case the first exact point sits on a degeneracy or
    outside a thin feasible sliver."""
    for bias in range(len(_WITNESS_WINDOWS)):
        w = _witness_attempt(problem, box, goal, bias)
        if w is not None:
            return w
    return None


def _witness_attempt(problem: BoundProblem, box: Box, goal: Fraction,
                     bias: int) -> Optional[Witness]:
    x_ranges: dict[str, Interval] = {}
    for i, dim in enumerate(problem.dims):
        s = box.ivs[i]
        lo, hi = Fraction(s.lo), Fraction(s.hi)
        if dim.compactified:
            x_ranges[dim.var] = Interval(lo / (1 - lo * lo), hi / (1 - hi * hi))
        else:
            x_ranges[dim.var] = Interval(lo, hi)

    values: dict[str, ExactVal] = {}
    # each constraint claims one dimension variable to solve for; odd bias
    # attempts flip the orientation (thin boxes may only be reachable by
    # solving for the other coordinate)
    claims: list[tuple[Polynomial, str]] = []
    claimed: set[str] = set()
    for poly in problem.constraints:
        cands = [v for v in sorted(poly.support())
                 if v in x_ranges and v not in claimed]
        if not cands:
            return None
        target = cands[-1] if bias % 2 == 0 else cands[0]
        claims.append((poly, target))
        claimed.add(target)
    for var, rng in x_ranges.items():
        if var not in claimed:
            values[var] = _simple_point_in(rng, bias)
    # quotients of rational values (a far chart's constant direction `_cs`),
    # for constraints that mention them
    for d in problem.defs:
        if isinstance(d, LinearDef) and \
                all(isinstance(values.get(v), Fraction) for v in d.deps):
            num, den = d.num.evaluate(values), d.den.evaluate(values)
            if num == 0:
                values[d.var] = Fraction(0)
            elif den != 0:
                values[d.var] = num / den

    # solve claims, later declarations first resolved when dependencies known
    pending = list(claims)
    guard = 0
    try:
        while pending:
            guard += 1
            if guard > 3 * len(claims) + 3:
                return None
            poly, target = pending.pop(0)
            rng = x_ranges[target]
            others = [v for v in poly.support() if v != target]
            if all(isinstance(values.get(v), Fraction) for v in others):
                roots = solve_for(poly, target, values)
                if roots is None:
                    values[target] = _simple_point_in(rng, bias)
                    continue
                inside = [r for r in roots if _meets(r, rng)]
                if not inside:
                    return None
                values[target] = inside[len(inside) // 2]
                continue
            if not all(v in values for v in others):
                pending.append((poly, target))
                continue
            # target^2 = Q with algebraic dependencies: the root of the sign
            # that meets the box, the side the range reaches tried first
            parts = poly.coefficient_map(target)
            if not (set(parts) <= {0, 2} and 2 in parts and parts[2].is_constant()):
                return None
            q = parts.get(0, Polynomial.zero(poly.vars)) * (-1 / parts[2].constant_value())
            signs = (1, -1) if rng.hi > 0 else (-1, 1)
            root = next((r for r in (_signed_sqrt(q, values, s) for s in signs)
                         if _meets(r, rng)), None)
            if root is None:
                return None
            values[target] = root
        return _evaluate_witness(
            problem, {d.var: values[d.var] for d in problem.dims}, goal)
    except NegativeRadicandError:       # a square-root claim below zero
        return None


def _meets(v: ExactVal, rng: Interval) -> bool:
    """Whether v, enclosed at 2^-40, meets the range: the root-in-box test."""
    return exact_interval(v, Fraction(1, 2 ** 40)).intersects(rng)


def _signed_sqrt(q: Polynomial, values: dict[str, ExactVal],
                 sign: int) -> Callable[[Fraction], Interval]:
    """sign * sqrt(q) as a refinable closure, q's variables at exact values."""
    def closure(precision: Fraction) -> Interval:
        env = {v: exact_interval(values[v], precision) for v in q.support()}
        body = sqrt_interval(eval_poly_interval(q, env), precision)
        return body if sign > 0 else -body
    return closure


def _evaluate_witness(problem: BoundProblem, dim_values: dict[str, ExactVal],
                      goal: Fraction) -> Optional[Witness]:
    """The witness of exact dimension values: evaluate the definition chain
    from them, then the constraints, sign conditions, margins and ratio;
    square the precision and evaluate again (five precisions at most) while
    a test is undecided or the ratio is wider than goal."""
    precision = Fraction(1, 2 ** 64)
    for _ in range(5):
        ok = True
        env = {var: exact_interval(v, precision) for var, v in dim_values.items()}
        for d in problem.defs:
            if isinstance(d, SqrtDef):
                rad = eval_poly_interval(d.radicand, env)
                if rad.hi < 0:
                    return None
                env[d.var] = sqrt_interval(rad, precision)
            else:
                numi = eval_poly_interval(d.num, env)
                if numi.lo == 0 == numi.hi:
                    env[d.var] = Interval.point(0)
                    continue
                den = eval_poly_interval(d.den, env)
                if den.lo <= 0 <= den.hi:
                    ok = False
                    break
                env[d.var] = numi / den
        if not ok:
            precision = precision * precision
            continue
        # constraints hold by construction; verify the residual is tiny
        for p in problem.constraints:
            iv = eval_poly_interval(p, env)
            if not iv.contains(0):
                return None
        margin = math.inf
        for comp, sign in problem.signconds:
            iv = eval_poly_interval(comp, env)
            val = iv.lo if sign > 0 else -iv.hi
            if val <= 0:
                if (sign > 0 and iv.hi <= 0) or (sign < 0 and iv.lo >= 0):
                    return None
                ok = False
                break
            margin = min(margin, float(val))
        if not ok:
            precision = precision * precision
            continue
        for p in problem.margins:
            iv = eval_poly_interval(p, env)
            if iv.contains(0):
                if iv.width() > goal:
                    ok = False
                    break
                return None  # sits on the degeneracy boundary
            margin = min(margin, float(min(abs(iv.lo), abs(iv.hi))))
        if not ok:
            precision = precision * precision
            continue
        den = eval_poly_interval(problem.obj_den, env)
        if den.lo <= 0 <= den.hi:
            precision = precision * precision
            continue
        ratio = eval_poly_interval(problem.obj_num, env) / den
        if ratio.width() > goal and precision > Fraction(1, 2 ** 512):
            precision = precision * precision
            continue
        if problem.chart == "far" and "_rho" in env:
            # the projective radius measures how far toward infinity the
            # configuration sits: a bound approached as rho -> 0 is a limit
            margin = min(margin, abs(float(env["_rho"].mid())))
        return Witness(ratio=ratio, margin=margin)
    return None


# ---------------------------------------------------------------------------
# rational and algebraic reconstruction of bounds
# ---------------------------------------------------------------------------

def simplest_rational_in(lo: Fraction, hi: Fraction) -> Fraction:
    """Stern-Brocot: the rational with the smallest denominator in [lo, hi]."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_rational_in(-hi, -lo)
    # continued-fraction walk down the Stern-Brocot tree
    a_lo, a_hi = lo, hi
    coefs: list[int] = []
    while True:
        fl = a_lo.numerator // a_lo.denominator
        fh = a_hi.numerator // a_hi.denominator
        if fl != fh:
            coefs.append(min(fl, fh) + 1)
            break
        coefs.append(fl)
        if a_lo == fl:
            break
        a_lo, a_hi = 1 / (a_hi - fh), 1 / (a_lo - fl)
    value = Fraction(coefs[-1])
    for c in reversed(coefs[:-1]):
        value = c + 1 / value
    return value


ALGEBRAIC_FIT_WIDTH = Fraction(1, 10 ** 8)
RATIONAL_FIT_DEN = 10 ** 4


@dataclass
class ExactBound:
    value: AlgebraicNumber
    radical: Optional[RadicalForm]

    def render(self) -> str:
        if self.radical is not None:
            return self.radical.render()
        from .algebraic import approx_decimal
        return approx_decimal(self.value, 12)


def exactify(bound: Interval) -> Optional[ExactBound]:
    """Recognize the bound: simplest rational inside the interval (with a
    small denominator), else a quadratic or biquadratic integer polynomial
    root inside it (attempted only for enclosures of width <= 1e-8)."""
    if bound.width() > Fraction(1, 10 ** 4):
        return None
    r = simplest_rational_in(bound.lo, bound.hi)
    if r.denominator <= RATIONAL_FIT_DEN:
        alg = AlgebraicNumber(
            poly_from_univariate(_clear([-r, Fraction(1)]), "m"),
            Interval.point(r), (r > 0) - (r < 0))
        return ExactBound(alg, RadicalForm.rational(r))
    if bound.width() > ALGEBRAIC_FIT_WIDTH:
        return None
    for transform in (1, 2):
        y = bound if transform == 1 else bound.power(2)
        fit = _fit_quadratic_relation(y)
        if fit is None:
            continue
        u, v = fit
        if transform == 1:
            coeffs = [-v, -u, Fraction(1)]                      # m^2 - u m - v
        else:
            coeffs = [-v, Fraction(0), -u, Fraction(0), Fraction(1)]
        cleared = _clear(coeffs)
        if max(abs(int(c)) for c in cleared) > 10 ** 4:
            continue
        poly = poly_from_univariate(cleared, "m")
        for root in isolate_real_roots(poly):
            tight = root.refined(bound.width() / 4).isolating
            if tight.intersects(bound):
                return ExactBound(root, to_radical(root))
    return None


def _clear(coeffs: list[Fraction]) -> list[Fraction]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [c * den for c in coeffs]


def _fit_quadratic_relation(y: Interval) -> Optional[tuple[Fraction, Fraction]]:
    """Search small-rational u with y^2 = u y + v, v reconstructed by
    continued fractions from the interval for y^2 - u y. Candidates are
    tried simplest-first so the first verified fit wins."""
    y2 = y.power(2)
    for qden in (1, 2, 3, 4, 6, 9, 12):
        for mag in range(0, 60 * qden + 1):
            for pnum in ((0,) if mag == 0 else (mag, -mag)):
                if qden > 1 and pnum % qden == 0:
                    continue  # already tried with a smaller denominator
                u = Fraction(pnum, qden)
                v_iv = y2 - y * u
                if v_iv.width() > Fraction(1, 10 ** 4):
                    return None
                v = simplest_rational_in(v_iv.lo, v_iv.hi)
                if v.denominator > 48 or (u == 0 and v == 0):
                    continue
                resid = y2 - y * u - v
                if resid.contains(0):
                    return (u, v)
    return None


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass
class SideResult:
    enclosure: Optional[Interval]
    attainment: str                     # attained | limit-conjectured |
                                        # unbounded-evidence | unknown
    witness_ratio: Optional[Interval] = None
    witness_margin: Optional[float] = None
    exact: Optional[ExactBound] = None


@dataclass
class BoundsResult:
    inf: SideResult
    sup: SideResult
    boxes: int = 0
    timed_out: bool = False


@dataclass
class _Side:
    floor: float
    incumbent: float
    witness: Optional[Witness]
    unbounded: bool
    timed_out: bool
    boxes: int


def _optimize(charts: list[BoundProblem], minimize: bool, tol: float,
              hard_goal: float, deadline: float, witness_goal: Fraction) -> _Side:
    """Best-first search for one side, in minimized coordinates: the
    supremum search minimizes -m, so heap keys are lower bounds either way.
    A polished witness per chart root seeds the incumbent; a witness on the
    first boxes and on every 8th box improves it. Stops: the gap test, a
    small rational pinned inside a gap below `tol`, an incumbent below
    -`UNBOUNDED_AT`, an emptied heap, or the deadline. Boxes narrower than
    `MIN_DIM_WIDTH` are dropped, their keys kept in the floor."""

    def low_key(ev: BoxEval) -> float:
        if ev.ratio is None:
            return -INF
        return ev.ratio.lo if minimize else -ev.ratio.hi

    def witness_value(w: Witness) -> float:
        return float(w.ratio.hi) if minimize else -float(w.ratio.lo)

    heap: list[tuple[float, int, int, Box, BoxEval]] = []
    counter = 0
    discard_floor = INF
    incumbent = INF
    best_witness: Optional[Witness] = None
    boxes = 0
    timed_out = False
    unbounded = False
    last_key = INF

    def prune_check(r: FI) -> bool:
        k = r.lo if minimize else -r.hi
        return k >= incumbent - hard_goal / 4

    def push(ci: int, box: Box):
        nonlocal counter
        ev = evaluate_box(charts[ci], box, prune_check)
        if ev.status == "infeasible":
            return
        heapq.heappush(heap, (low_key(ev), counter, ci, box, ev))
        counter += 1

    roots: list[tuple[int, Box]] = []
    for ci, problem in enumerate(charts):
        root = hull_contract(problem, Box([FI(d.lo, d.hi) for d in problem.dims]))
        if root is not None:
            roots.append((ci, root))
            push(ci, root)

    # seed the incumbent by local descent so pruning works immediately
    for ci, root in roots:
        w = _polished_witness(charts[ci], root, minimize, witness_goal)
        if w is not None and witness_value(w) < incumbent:
            incumbent = witness_value(w)
            best_witness = w
        if incumbent < -UNBOUNDED_AT:
            return _Side(floor=-INF, incumbent=incumbent, witness=best_witness,
                         unbounded=True, timed_out=False, boxes=0)

    while heap:
        if time.monotonic() > deadline:
            timed_out = True
            last_key = heap[0][0]
            break
        k, _, ci, box, ev = heapq.heappop(heap)
        problem = charts[ci]
        last_key = k
        boxes += 1
        gap = incumbent - k
        if not gap > hard_goal:      # also stops on a NaN gap (k = incumbent = inf)
            break
        if gap <= tol and math.isfinite(k):
            # a small rational already pinned inside the enclosure will not
            # change with further refinement
            r = simplest_rational_in(Fraction(k), Fraction(incumbent))
            if r.denominator <= 64:
                break

        if best_witness is None or boxes % 8 == 0:
            w = witness_for_box(problem, box, witness_goal)
            if w is not None and witness_value(w) < incumbent:
                incumbent = witness_value(w)
                best_witness = w
                if incumbent < -UNBOUNDED_AT:
                    unbounded = True
                    break

        if not box.ivs or max(iv.width() for iv in box.ivs) < MIN_DIM_WIDTH:
            discard_floor = min(discard_floor, k)
            continue
        reduced = _monotone_reduce(problem, box, ev, minimize)
        if reduced is not None:
            push(ci, reduced)
            continue
        for child in split_box(problem, box, ev):
            contracted = hull_contract(problem, child)
            if contracted is not None:
                push(ci, contracted)
    else:
        last_key = INF

    floor = min(last_key, discard_floor, incumbent)
    return _Side(floor=floor, incumbent=incumbent, witness=best_witness,
                 unbounded=unbounded, timed_out=timed_out, boxes=boxes)


def _descend(problem: BoundProblem, start: list[float], minimize: bool,
             rounds: int = 60) -> Optional[list[float]]:
    """Float coordinate descent over the whole chart domain (unconstrained
    problems only) — a cheap pre-search; only exact witness evaluation at
    the returned point certifies anything."""
    if problem.constraints or problem.signconds:
        return None

    if not problem.dims:
        return list(start)

    def value(s: list[float]) -> Optional[float]:
        ev = evaluate_box(problem, Box([FI(x, x) for x in s]),
                          prune_key=lambda r: True)
        if ev.status != "feasible" or ev.ratio is None:
            return None
        v = ev.ratio.mid()
        if not math.isfinite(v):
            return None
        return v if minimize else -v

    s = list(start)
    cur = value(s)
    if cur is None:
        return None
    steps = [max(1e-3, 0.05 * (d.hi - d.lo)) for d in problem.dims]
    for _ in range(rounds):
        improved = False
        for j, dim in enumerate(problem.dims):
            for sign in (1.0, -1.0):
                cand = list(s)
                cand[j] = min(max(cand[j] + sign * steps[j], dim.lo), dim.hi)
                v = value(cand)
                if v is not None and v < cur:
                    s, cur = cand, v
                    improved = True
                    break
        if not improved:
            steps = [st * 0.35 for st in steps]
            if max(steps) < 1e-13:
                break
    return s


def _polished_witness(problem: BoundProblem, box: Box, minimize: bool,
                      goal: Fraction) -> Optional[Witness]:
    start = [iv.mid() for iv in box.ivs]
    best = _descend(problem, start, minimize)
    if best is None:
        return None
    eps = 1e-12
    ivs = [FI(max(x - eps, d.lo), min(x + eps, d.hi))
           for x, d in zip(best, problem.dims)]
    return witness_for_box(problem, Box(ivs), goal)


def _monotone_reduce(problem: BoundProblem, box: Box, ev: BoxEval,
                     minimize: bool) -> Optional[Box]:
    """When the ratio is certainly monotone in a dimension over the box, the
    optimum lies on one face: pin that dimension (exact for the searched
    extremum). Only applies to unconstrained dimensions — faces of
    constrained boxes may be infeasible."""
    if problem.constraints or problem.signconds or ev.env is None:
        return None
    grads = ev.grads if ev.grads is not None \
        else problem.evaluate(box.ivs, None, ev.ratio)
    if grads is None:
        return None
    new_ivs = None
    for j, g in enumerate(grads):
        iv = box.ivs[j]
        if iv.width() <= 0.0:
            continue
        if g.lo > 0.0:
            pin = iv.lo if minimize else iv.hi
        elif g.hi < 0.0:
            pin = iv.hi if minimize else iv.lo
        else:
            continue
        if new_ivs is None:
            new_ivs = list(box.ivs)
        new_ivs[j] = FI(pin, pin)
    if new_ivs is None:
        return None
    return Box(new_ivs)


def _ray_probe(problem: BoundProblem, box: Box,
               goal: Fraction) -> Optional[Witness]:
    """Witnesses along a compactification ray (shrinking the projective
    radius geometrically): monotone growth of the ratio beyond
    `UNBOUNDED_AT` is the evidence that the supremum is unbounded."""
    rho_hi = box.ivs[0].hi              # a far chart's first dimension is _rho
    if rho_hi <= 0.0:
        return None
    last = None
    rho = Fraction(1, max(2, int(1.0 / max(rho_hi / 4, 1e-300))))
    for _ in range(12):
        ivs = list(box.ivs)
        ivs[0] = FI(float(rho), float(rho))
        w = witness_for_box(problem, Box(ivs), goal)
        if w is None:
            return None
        value = float(w.ratio.lo)
        if last is not None and value <= last:
            return None  # not monotone toward the pole
        last = value
        if value > UNBOUNDED_AT:
            return w
        rho = rho / 64
    return None


def _quick_unbounded(charts: list[BoundProblem],
                     witness_goal: Fraction) -> Optional[_Side]:
    """Detect an unbounded supremum up front: descent on each chart plus a
    ray probe on the projective charts."""
    for problem in charts:
        root = hull_contract(problem, Box([FI(d.lo, d.hi) for d in problem.dims]))
        if root is None:
            continue
        w = _polished_witness(problem, root, False, witness_goal)
        if (w is None or float(w.ratio.lo) <= UNBOUNDED_AT) and problem.chart == "far":
            w = _ray_probe(problem, root, witness_goal)
        if w is not None and float(w.ratio.lo) > UNBOUNDED_AT:
            return _Side(floor=-INF, incumbent=-float(w.ratio.lo), witness=w,
                         unbounded=True, timed_out=False, boxes=0)
    return None


def branch_and_bound(charts: Union[BoundProblem, list[BoundProblem]],
                     tol: Fraction = Fraction(1, 10 ** 6),
                     deadline: Optional[float] = None) -> BoundsResult:
    """Certified enclosures of the infimum and supremum of the ratio."""
    if isinstance(charts, BoundProblem):
        charts = [charts]
    if deadline is None:
        deadline = time.monotonic() + 5.0
    now = time.monotonic()
    budget = max(deadline - now, 0.1)
    ftol = float(tol)
    hard_goal = min(ftol, 1e-9)
    witness_goal = min(tol / 8, Fraction(1, 10 ** 9))

    # cheap pre-pass: a supremum that diverges along a compactification ray
    # resolves immediately and frees its reserve for the infimum search
    hi_side = _quick_unbounded(charts, witness_goal)
    reserve = max(1.5, 0.25 * budget) if hi_side is None else 0.05 * budget
    lo_side = _optimize(charts, True, ftol, hard_goal,
                        deadline - reserve, witness_goal)
    if hi_side is None:
        hi_side = _optimize(charts, False, ftol, hard_goal,
                            deadline - 0.02 * budget, witness_goal)

    inf_res = _assemble_side(lo_side, True, tol)
    sup_res = _assemble_side(hi_side, False, tol)
    return BoundsResult(inf=inf_res, sup=sup_res,
                        boxes=lo_side.boxes + hi_side.boxes,
                        timed_out=lo_side.timed_out or hi_side.timed_out)


def _assemble_side(side: _Side, minimize: bool, tol: Fraction) -> SideResult:
    if side.unbounded:
        return SideResult(None, "unbounded-evidence",
                          side.witness.ratio if side.witness else None,
                          side.witness.margin if side.witness else None)
    if side.witness is None or side.floor == INF or side.floor == -INF:
        return SideResult(None, "unknown")
    w = side.witness
    if minimize:
        enclosure = Interval(min(Fraction(side.floor), w.ratio.lo), w.ratio.hi)
    else:
        enclosure = Interval(w.ratio.lo, max(Fraction(-side.floor), w.ratio.hi))
    # classification gate: the enclosure keeps its true width either way;
    # attainment flags are only issued when the bound is localized to a few
    # tolerances, "unknown" beyond that
    gap_ok = (side.incumbent - side.floor) <= 8 * float(tol)
    exact = exactify(enclosure)
    if not gap_ok:
        return SideResult(enclosure, "unknown", w.ratio, w.margin, exact)
    # attained: the best witness sits interior, with a clear margin from the
    # degeneracy boundary (a near-quadratic boundary approach leaves margins
    # around sqrt(tol), hence the absolute floor on the threshold)
    attained = w.margin >= max(10 * float(tol), 1e-3)
    return SideResult(enclosure, "attained" if attained else "limit-conjectured",
                      w.ratio, w.margin, exact)
