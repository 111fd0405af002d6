"""Certified sharp-constant search: interval branch-and-bound over the
configuration space of a presolved construction system.

The box lives over the independent coordinates, each in [-R0, R0] on the
near chart (`NEAR_RADIUS`; the far charts cover the plane beyond), and the
rotation-cosine pairs of regular chains. Length
variables are evaluated through their square-root definitions, solvable
centers (circumcenter, intersections, weighted centers) through division
definitions. Remaining equations act as constraints: they prune boxes by
interval evaluation and narrow them by hull consistency. Certified lower
bounds come from the box enclosures (natural extension intersected with a
first-order centered form); certified upper bounds come from witnesses,
exact configurations inside a box whose ratio is enclosed over a float box
holding the configuration. Without constraints any point of the box is a
configuration, and the witness is a float point box; with constraints
each constraint is solved in floats for one coordinate, from the
hull-consistency coefficients, and the root's enclosure is proved to hold
a real root. Exact algebra is left to presenting the bounds (`exactify`,
the small-rational stop and `_assemble_side`).

Box evaluation is generated code: a `BoundProblem` writes its definition
chain, constraints, sign conditions, natural and centered forms and
gradient table out as straight-line float code (`boxcode`) and loads it
with `exec`, in three stages, each the first time the search needs it.
`evaluate_box`, `hull_contract` and the witnesses call it, so a chart's
definition chain is evaluated by this one piece of code. Its
enclosures are bit-identical to `FI` arithmetic on the same formulas, but
that operations whose result is exact (a product by a known 1, -1 or 0,
say) are not rounded (`boxcode`).
`problem.evaluator_source` gives the source.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .algebraic import AlgebraicNumber, RadicalForm, isolate_real_roots, to_radical
from .construction import Translation
from .boxcode import BoxEval, compile_stage, evaluator_source
from .float_intervals import FI, INF, up
from .intervals import Interval
from .polynomials import Polynomial, poly_from_univariate

UNBOUNDED_AT = 1e9         # incumbent beyond this is unbounded evidence
MIN_DIM_WIDTH = 1e-13
NEAR_RADIUS = 3.0          # the near chart covers |x| <= R0 per coordinate;
                           # the far chart covers |point| >= R0 projectively
CONTRACT_ROUNDS = 6        # hull-consistency sweeps per box, at most
DESCENT_ROUNDS = 60        # coordinate-descent sweeps of a seed witness


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
    unbounded: bool      # continues past +-R0 on the far chart
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
        # sign conditions and margins in FI arithmetic, for the witnesses
        self.witness_signconds = [(_fi_terms(p, self.var_index), s)
                                  for p, s in self.signconds]
        self.witness_margins = [_fi_terms(p, self.var_index) for p in self.margins]
        # stage 0, hull consistency, generated only where the search
        # contracts boxes; stages 1 and 2 are generated on first use
        entry = compile_stage(self, 0)
        self._natural = self._centred = None
        self._compiling = threading.Lock()
        self.contract_env = entry.get("contract_env")
        self.signs_hold = entry.get("signs_hold")
        self.narrowers = entry.get("NARROWERS", [])
        # the views a witness may solve for their dimension: those whose
        # coefficients do not reach it through the definition chain either,
        # with the dimensions the coefficients depend on
        self.witness_views = []
        for c, i, narrow in self.narrowers:
            needs: set[int] = set()
            for v in self.constraints[c].support() - {self.dims[i].var}:
                needs |= dep_dims.get(v, set())
            if i not in needs:
                self.witness_views.append((c, i, frozenset(needs), narrow))

    def evaluate(self, ivs: list[FI], prune_key: Optional[Callable[[FI], bool]]) -> BoxEval:
        """The BoxEval of a box: the natural form (stage 1), and where
        `prune_key` does not accept its enclosure, the centered form
        (stage 2), which continues from stage 1's locals."""
        out = (self._natural or self._stage(1))(ivs, prune_key)
        if type(out) is tuple:
            out = (self._centred or self._stage(2))(*out)
        return out

    def _stage(self, k: int) -> Callable:
        """Stage k's entry point, compiled by the first thread that needs
        it."""
        with self._compiling:
            if k == 1 and self._natural is None:
                self._natural = compile_stage(self, 1)["evaluate"]
            if k == 2 and self._centred is None:
                self._centred = compile_stage(self, 2)["centred"]
        return self._natural if k == 1 else self._centred

    @property
    def evaluator_source(self) -> str:
        """The generated evaluator, all three stages, generated again (the
        same text)."""
        return evaluator_source(self)


class CompileError(ValueError):
    pass


def _fi_terms(p: Polynomial, index: dict[str, int]) -> list[tuple[FI, list[tuple[int, int]]]]:
    """p's terms as (coefficient enclosure, [(slot, exponent), ...])."""
    return [(FI.from_fraction(c), [(index[p.vars[i]], e) for i, e in enumerate(mono) if e])
            for mono, c in p.terms.items()]


def _fi_value(terms: list[tuple[FI, list[tuple[int, int]]]], env: list[FI]) -> FI:
    """Outward enclosure of a polynomial from `_fi_terms` over a box's
    environment."""
    total = FI(0.0, 0.0)
    for coef, powers in terms:
        term = coef
        for slot, e in powers:
            term = term * env[slot].power(e)
        total = total + term
    return total


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
    dims = []
    for v in dim_vars:
        if v in rot_names:
            dims.append(Dim(v, False, -1.0, 1.0))
        elif not signconds and all(_only_even(p, v) or v not in p.support()
                                   for p in value_polys):
            # the whole value chain is mirror-symmetric in v: search the
            # nonnegative half only
            dims.append(Dim(v, True, 0.0, NEAR_RADIUS))
        else:
            dims.append(Dim(v, True, -NEAR_RADIUS, NEAR_RADIUS))

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
    unbounded = [d.var for d in near.dims if d.unbounded]
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
    # rounded up: the far chart reaches |point| = R0 with no sliver left out
    dims = [Dim("_rho", False, 0.0, up(1.0 / NEAR_RADIUS))]
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


def split_box(problem: BoundProblem, box: Box,
              ev: Optional[BoxEval] = None) -> tuple[Box, Box]:
    """Bisect the dimension with the largest smear (|gradient| * width) when
    gradients are available, else the widest dimension, at its midpoint."""
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
        i = max(range(len(box.ivs)), key=lambda k: box.ivs[k].width())
    iv = box.ivs[i]
    m = iv.mid()
    left, right = list(box.ivs), list(box.ivs)
    left[i] = FI(iv.lo, m)
    right[i] = FI(m, iv.hi)
    return Box(left), Box(right)


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


def hull_contract(problem: BoundProblem, box: Box) -> Optional[Box]:
    """Narrow a box with each constraint treated as univariate (degree <= 2)
    in each dimension, interval coefficients from the rest; returns None when
    some constraint or sign condition excludes the whole box."""
    if not problem.constraints and not problem.signconds:
        return box
    ivs = list(box.ivs)
    for _ in range(CONTRACT_ROUNDS):
        env = problem.contract_env(ivs)     # flat [lo0, hi0, lo1, ...]
        if env is None:
            return None
        gain = 0.0
        for _, i, narrow in problem.narrowers:
            new_x = _narrow_univariate(*narrow(env))
            if new_x is _INFEASIBLE:
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
                env[2 * i], env[2 * i + 1] = inter.lo, inter.hi
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
    branches = _branches(a1, a2, disc)
    if branches is None:
        return None
    return branches[0].hull(branches[1])


def _branches(a1: FI, a2: FI, disc: FI) -> Optional[tuple[FI, FI]]:
    """The two branches (-a1 -+ sqrt(disc)) / (2 a2) of the quadratic
    formula, None where a2 straddles 0."""
    root = disc.sqrt()
    two_a2 = a2.scale(2.0)
    lo_branch = ((-a1) - root).divide(two_a2)
    hi_branch = ((-a1) + root).divide(two_a2)
    if lo_branch is None or hi_branch is None:
        return None
    return lo_branch, hi_branch


def _proved_roots(a0: FI, a1: FI, a2: Optional[FI]) -> list[FI]:
    """Enclosures of real roots of a2 x^2 + a1 x + a0, ascending, each
    holding one root for every choice of the coefficients in their
    enclosures (an interval existence proof: Kearfott, *Rigorous Global
    Search*, 1996). Linear (a2 None or exactly 0): a1 excludes 0 and the
    root is -a0/a1. Quadratic: a2 excludes 0 and the discriminant's lower
    end is >= 0, so each branch of the formula is a real root. Empty where
    the form proves nothing."""
    if a2 is None or a2.lo == 0.0 == a2.hi:
        root = (-a0).divide(a1)
        return [] if root is None else [root]
    disc = a1 * a1 - (a2 * a0).scale(4.0)
    if disc.lo < 0.0:
        return []
    branches = _branches(a1, a2, disc)
    return [] if branches is None else sorted(branches, key=lambda r: r.lo)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    ratio: FI                    # certified enclosure of the achieved ratio
    margin: float                # distance from the nondegeneracy boundary


_WITNESS_WINDOWS = ((1, 3), (5, 7))  # eighths


def _window_point(iv: FI, bias: int) -> float:
    """The centre of an eighths window of a float interval."""
    a, b = _WITNESS_WINDOWS[bias % len(_WITNESS_WINDOWS)]
    return min(max(iv.lo + (iv.hi - iv.lo) * ((a + b) / 16), iv.lo), iv.hi)


def witness_for_box(problem: BoundProblem, box: Box) -> Optional[Witness]:
    """A configuration inside the box, with its ratio enclosed by the
    chart's generated evaluator (`_evaluate_witness`) over a float box
    that holds it. Each dimension sits at the centre of an eighths window
    of its interval. Each constraint claims one dimension and is solved
    for it in floats: the root enclosure of its univariate view, proved to
    hold one real root (`_proved_roots`), replaces the window point.
    Without constraints there are no claims and the witness is a point
    box. A constraint of degree above 2 in each of its dimensions has no
    view to claim, and its chart has no witness. A second attempt samples
    the other window (and flips the claim orientation), in case the first
    point sits on a degeneracy or outside a thin feasible sliver."""
    for bias in range(len(_WITNESS_WINDOWS)):
        ivs = _witness_box(problem, box, bias)
        w = None if ivs is None else _evaluate_witness(problem, ivs)
        if w is not None:
            return w
    return None


def _claims(problem: BoundProblem, bias: int) -> Optional[list[tuple]]:
    """One view per constraint, each for a dimension of its own: the last
    candidate in the variable order, the first on odd bias attempts (thin
    boxes may only be reachable by solving for the other coordinate).
    None when a constraint has no candidate left."""
    claims = []
    claimed: set[int] = set()
    for c in range(len(problem.constraints)):
        cands = [v for v in problem.witness_views if v[0] == c and v[1] not in claimed]
        if not cands:
            return None
        view = cands[-1] if bias % 2 == 0 else cands[0]
        claims.append(view)
        claimed.add(view[1])
    return claims


def _witness_box(problem: BoundProblem, box: Box, bias: int) -> Optional[list[FI]]:
    """The float box of one witness attempt, or None where a claim has no
    existence proof or no root meets the box. A claim is solved once each
    dimension its coefficients depend on is unclaimed (at its window point)
    or solved (at its root enclosure); its coefficients are enclosed over
    that environment, the claimed dimension spanning the box's range. Of
    the roots that meet that range the middle one is taken, as it is."""
    claims = _claims(problem, bias)
    if claims is None:
        return None
    pending = {i for _, i, _, _ in claims}
    ivs = [iv if i in pending else FI.point(_window_point(iv, bias))
           for i, iv in enumerate(box.ivs)]
    while pending:
        ready = [v for v in claims if v[1] in pending and not v[2] & pending]
        if not ready:
            return None
        for _, i, _, narrow in ready:
            env = problem.contract_env(ivs)
            if env is None:
                return None
            lo, hi = env[2 * i], env[2 * i + 1]
            inside = [r for r in _proved_roots(*narrow(env)) if r.lo <= hi and lo <= r.hi]
            if not inside:
                return None
            ivs[i] = inside[len(inside) // 2]
            pending.discard(i)
    return ivs


def _evaluate_witness(problem: BoundProblem, ivs: list[FI]) -> Optional[Witness]:
    """The witness of a float box holding one exact configuration, from the
    chart's generated evaluator. A `feasible` box with no undecided sign
    condition shows that every constraint's enclosure holds 0, every sign
    condition holds strictly and no divisor of the definition chain
    straddles 0, and its ratio enclosure holds the configuration's ratio.
    The margins also hold the divisors of pruned definitions (the
    collinearity determinant, say), which the chain never evaluates: each
    is enclosed in `FI` arithmetic over the box's environment and must
    exclude 0, or the configuration may be degenerate. The margin is the
    smallest distance of a sign condition or margin enclosure from 0."""
    ev = problem.evaluate(ivs, lambda r: True)
    if ev.status != "feasible" or ev.sign_active or \
            not (math.isfinite(ev.ratio.lo) and math.isfinite(ev.ratio.hi)):
        return None
    margin = INF
    for terms, sign in problem.witness_signconds:
        iv = _fi_value(terms, ev.env)
        val = iv.lo if sign > 0 else -iv.hi
        if not val > 0.0:
            return None
        margin = min(margin, val)
    for terms in problem.witness_margins:
        iv = _fi_value(terms, ev.env)
        if iv.straddles_zero():
            return None     # may sit on the degeneracy boundary
        margin = min(margin, abs(iv.lo), abs(iv.hi))
    if problem.chart == "far":
        # the projective radius measures how far toward infinity the
        # configuration sits: a bound approached as rho -> 0 is a limit
        margin = min(margin, abs(ev.env[problem.var_index["_rho"]].mid()))
    return Witness(ratio=ev.ratio, margin=margin)


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


def _optimize(charts: list[BoundProblem], roots: list[tuple[int, Box]],
              seeds: Iterable[Optional[Witness]], minimize: bool, tol: float,
              hard_goal: float, deadline: float) -> _Side:
    """Best-first search for one side from the contracted chart roots, in
    minimized coordinates: the supremum search minimizes -m, so heap keys
    are lower bounds either way. The seeds, a polished witness per root,
    set the first incumbent; a witness on the first boxes and on every 8th
    box improves it. Stops: the gap test, a small rational pinned inside a
    gap below `tol`, an incumbent below -`UNBOUNDED_AT`, an emptied heap,
    or the deadline. Boxes narrower than `MIN_DIM_WIDTH` are dropped, their
    keys kept in the floor. A box that is weakly monotone in some dimension
    is replaced by its face (`_monotone_reduce`), so a limit along a face is
    searched on it. With the direction-cosine gradients of distances
    (`boxcode`) the face's boxes close at once: `medians` certifies its
    inf in 104 boxes, `triangle_inequality` in 109."""

    def low_key(ev: BoxEval) -> float:
        if ev.ratio is None:
            return -INF
        return ev.ratio.lo if minimize else -ev.ratio.hi

    def witness_value(w: Witness) -> float:
        return w.ratio.hi if minimize else -w.ratio.lo

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

    for ci, root in roots:
        push(ci, root)

    # seed the incumbent by local descent so pruning works immediately
    for w in seeds:
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
            w = witness_for_box(problem, box)
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


def _descend(problem: BoundProblem, start: list[float],
             minimize: bool) -> Optional[list[float]]:
    """Float coordinate descent over the whole chart domain (unconstrained
    problems only) — a cheap pre-search; only a witness at the returned
    point certifies anything."""
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
    for _ in range(DESCENT_ROUNDS):
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


def _polished_witness(problem: BoundProblem, box: Box,
                      minimize: bool) -> Optional[Witness]:
    start = [iv.mid() for iv in box.ivs]
    best = _descend(problem, start, minimize)
    if best is None:
        return None
    eps = 1e-12
    ivs = [FI(max(x - eps, d.lo), min(x + eps, d.hi))
           for x, d in zip(best, problem.dims)]
    return witness_for_box(problem, Box(ivs))


def _monotone_reduce(problem: BoundProblem, box: Box, ev: BoxEval,
                     minimize: bool) -> Optional[Box]:
    """Pin each dimension in which the ratio is weakly monotone over the box
    to the face that holds the searched extremum (Hansen & Walster's
    monotonicity test, made non-strict; Kearfott reduces boundary optima to
    their face the same way).

    A gradient enclosure with g.lo >= 0 (or g.hi <= 0; a -0.0 end is 0)
    bounds the partial derivative over the closed box, so by the mean value
    theorem every point of the box has a value at or above (below) the one
    it projects to on the lower face, and the face keeps the box's inf
    (sup). The derivative may be 0 somewhere on the box: an inf that is a
    limit along a face where the ratio is constant collapses onto that face
    and becomes a search of one dimension less. The argument needs the ratio
    differentiable over the whole box; where it is not (a root whose lower
    end reaches 0, a divisor that straddles 0) the generated gradient rows
    are the whole line, which no test pins. Charts with constraints or sign
    conditions are excluded: a face of such a box may be infeasible."""
    if problem.constraints or problem.signconds or ev.grads is None:
        return None
    new_ivs = None
    for j, g in enumerate(ev.grads):
        iv = box.ivs[j]
        if iv.width() <= 0.0:
            continue
        if g.lo >= 0.0:
            pin = iv.lo if minimize else iv.hi
        elif g.hi <= 0.0:
            pin = iv.hi if minimize else iv.lo
        else:
            continue
        if new_ivs is None:
            new_ivs = list(box.ivs)
        new_ivs[j] = FI(pin, pin)
    if new_ivs is None:
        return None
    return Box(new_ivs)


def _ray_probe(problem: BoundProblem, box: Box) -> Optional[Witness]:
    """Witnesses along a ray toward infinity (shrinking the projective
    radius geometrically): monotone growth of the ratio beyond
    `UNBOUNDED_AT` is the evidence that the supremum is unbounded."""
    rho_hi = box.ivs[0].hi              # a far chart's first dimension is _rho
    if rho_hi <= 0.0:
        return None
    last = None
    rho = 1.0 / max(2, int(1.0 / max(rho_hi / 4, 1e-300)))
    for _ in range(12):
        ivs = list(box.ivs)
        ivs[0] = FI.point(rho)
        w = witness_for_box(problem, Box(ivs))
        if w is None:
            return None
        value = w.ratio.lo
        if last is not None and value <= last:
            return None  # not monotone toward the pole
        last = value
        if value > UNBOUNDED_AT:
            return w
        rho = rho / 64
    return None


def _quick_unbounded(charts: list[BoundProblem], roots: list[tuple[int, Box]]
                     ) -> tuple[Optional[_Side], list[Optional[Witness]]]:
    """Detect an unbounded supremum up front: descent on each chart root
    plus a ray probe on the projective charts. Returns the unbounded side,
    else None, with the descent witnesses, which seed the supremum search."""
    seeds = []
    for ci, root in roots:
        problem = charts[ci]
        w = _polished_witness(problem, root, False)
        seeds.append(w)
        if (w is None or w.ratio.lo <= UNBOUNDED_AT) and problem.chart == "far":
            w = _ray_probe(problem, root)
        if w is not None and w.ratio.lo > UNBOUNDED_AT:
            return _Side(floor=-INF, incumbent=-w.ratio.lo, witness=w,
                         unbounded=True, timed_out=False, boxes=0), seeds
    return None, seeds


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

    roots = []
    for ci, problem in enumerate(charts):
        root = hull_contract(problem, Box([FI(d.lo, d.hi) for d in problem.dims]))
        if root is not None:
            roots.append((ci, root))

    # cheap pre-pass: a supremum that diverges along a ray toward infinity
    # resolves immediately and frees its reserve for the infimum search
    hi_side, sup_seeds = _quick_unbounded(charts, roots)
    reserve = max(1.5, 0.25 * budget) if hi_side is None else 0.05 * budget
    inf_seeds = (_polished_witness(charts[ci], root, True) for ci, root in roots)
    lo_side = _optimize(charts, roots, inf_seeds, True, ftol, hard_goal,
                        deadline - reserve)
    if hi_side is None:
        hi_side = _optimize(charts, roots, sup_seeds, False, ftol, hard_goal,
                            deadline - 0.02 * budget)

    inf_res = _assemble_side(lo_side, True, tol)
    sup_res = _assemble_side(hi_side, False, tol)
    return BoundsResult(inf=inf_res, sup=sup_res,
                        boxes=lo_side.boxes + hi_side.boxes,
                        timed_out=lo_side.timed_out or hi_side.timed_out)


def _assemble_side(side: _Side, minimize: bool, tol: Fraction) -> SideResult:
    w = side.witness
    ratio = Interval(Fraction(w.ratio.lo), Fraction(w.ratio.hi)) if w else None
    if side.unbounded:
        return SideResult(None, "unbounded-evidence", ratio, w.margin if w else None)
    if w is None or side.floor == INF or side.floor == -INF:
        return SideResult(None, "unknown")
    if minimize:
        enclosure = Interval(min(Fraction(side.floor), ratio.lo), ratio.hi)
    else:
        enclosure = Interval(ratio.lo, max(Fraction(-side.floor), ratio.hi))
    # classification gate: the enclosure keeps its true width either way;
    # attainment flags are only issued when the bound is localized to a few
    # tolerances, "unknown" beyond that
    gap_ok = (side.incumbent - side.floor) <= 8 * float(tol)
    exact = exactify(enclosure)
    if not gap_ok:
        return SideResult(enclosure, "unknown", ratio, w.margin, exact)
    # attained: the best witness sits interior, with a clear margin from the
    # degeneracy boundary (a near-quadratic boundary approach leaves margins
    # around sqrt(tol), hence the absolute floor on the threshold)
    attained = w.margin >= max(10 * float(tol), 1e-3)
    return SideResult(enclosure, "attained" if attained else "limit-conjectured",
                      ratio, w.margin, exact)
