"""Exact configurations, shared by the sampler and the bounds witnesses.

An exact value (`ExactVal`) is a rational, a real algebraic number or a
closure that refines an interval on demand; `exact_interval` encloses one
at a requested precision, and `solve_for` solves a constraint for one
coordinate with the others rational. Every derived point, rotation pair and
length is evaluated as a rational-endpoint interval at a requested leaf
precision.

The sampler solves each equality constraint exactly for its highest free
coordinate, so instantiations are genuine figure positions. For each draw
of the coordinates it enumerates the combinations of regular-chain branches
(cosine root x sine sign) in a shuffled order and keeps the first that is
nondegenerate and satisfies the sign conditions.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .algebraic import AlgebraicNumber, isolate_real_roots
from .construction import (
    Circumcenter,
    ConstructionProgram,
    EqualLength,
    FreePoint,
    Incenter,
    IntersectLines,
    LineThrough,
    Midpoint,
    PerpFoot,
    RegularChain,
    RightAngle,
    SegmentDecl,
    Translation,
    expr_to_polynomial,
)
from .intervals import Interval, eval_poly_interval, sqrt_interval
from .polynomials import Polynomial

ExactVal = Union[Fraction, AlgebraicNumber, Callable[[Fraction], Interval]]


class DegenerateInstance(ValueError):
    """A division by a near-zero quantity at the requested precision."""


def exact_interval(v: ExactVal, precision: Fraction) -> Interval:
    """A rational-endpoint interval containing v, of width about precision
    for algebraic and closure values (a point for rationals)."""
    if isinstance(v, AlgebraicNumber):
        return v.refined(precision).isolating
    if callable(v):
        return v(precision)
    return Interval.point(v)


def solve_for(poly: Polynomial, target: str,
              values: dict[str, ExactVal]) -> Optional[list[ExactVal]]:
    """The real values of target solving poly = 0, ascending, with every
    other variable of poly at its value in values (each one a Fraction);
    rational roots come back as Fractions. None when poly vanishes there for
    every value of target; an empty list when no value solves it."""
    inst = poly
    for name in poly.support() - {target}:
        inst = inst.substitute(name, Polynomial.constant(values[name], inst.vars))
    if inst.is_zero():
        return None
    if inst.is_constant():
        return []
    return [r.rational_value() if r.is_rational() else r
            for r in isolate_real_roots(inst.restrict([target]))]


# chain branch: (cos root index ascending, sin sign)
Branches = dict[int, tuple[int, int]]


@dataclass
class Figure:
    """Interval values for every variable of a translation at one position."""

    env: dict[str, Interval]
    precision: Fraction


@functools.cache
def cos_choices(n: int) -> tuple[Fraction | AlgebraicNumber, ...]:
    """Real choices for the exterior-angle cosine of a regular n-chain,
    ascending (for n=5 both the star and the convex variant). Cached:
    `AlgebraicNumber.refined` returns a new number, so callers never
    change the shared roots."""
    from .construction import EXTERIOR_COS_MINPOLY
    from .polynomials import poly_from_univariate
    coeffs = EXTERIOR_COS_MINPOLY[n]
    if len(coeffs) == 2:
        return (-coeffs[0] / coeffs[1],)
    return tuple(isolate_real_roots(poly_from_univariate(coeffs, "c")))


def evaluate_figure(t: Translation, coords: dict[str, ExactVal],
                    branches: Optional[Branches] = None,
                    precision: Fraction = Fraction(1, 2 ** 64)) -> Figure:
    """Evaluate every construction step; coords maps non-pinned free
    coordinates to values; branches picks regular-chain variants."""
    prog = t.program
    branches = branches or {}
    env: dict[str, Interval] = {}
    for name, value in t.pinned.items():
        env[name] = Interval.point(value)
    points: dict[str, tuple[Interval, Interval]] = {}
    chain_steps = [i for i, s in enumerate(prog.steps) if isinstance(s, RegularChain)]
    chain_rots = {i: t.rot_vars[k][:2] for k, i in enumerate(chain_steps)}

    def setpt(name: str, x: Interval, y: Interval):
        vx, vy = t.point_vars[name]
        env[vx], env[vy] = x, y
        points[name] = (x, y)

    def getpt(name: str) -> tuple[Interval, Interval]:
        return points[name]

    def safe_div(num: Interval, den: Interval) -> Interval:
        if den.lo <= 0 <= den.hi:
            raise DegenerateInstance("division by interval containing zero")
        return num / den

    for idx, step in enumerate(prog.steps):
        if isinstance(step, FreePoint):
            vx, vy = t.point_vars[step.name]
            if vx in env:            # pinned
                points[step.name] = (env[vx], env[vy])
            else:
                setpt(step.name,
                      exact_interval(coords[vx], precision),
                      exact_interval(coords[vy], precision))
        elif isinstance(step, Midpoint):
            (px, py), (qx, qy) = getpt(step.p), getpt(step.q)
            setpt(step.name, (px + qx) * Fraction(1, 2), (py + qy) * Fraction(1, 2))
        elif isinstance(step, LineThrough):
            continue
        elif isinstance(step, IntersectLines):
            (x1, y1), (x2, y2) = (getpt(p) for p in _line(prog, step.line1))
            (x3, y3), (x4, y4) = (getpt(p) for p in _line(prog, step.line2))
            det = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
            c1 = x1 * y2 - y1 * x2
            c2 = x3 * y4 - y3 * x4
            setpt(step.name,
                  safe_div(c1 * (x3 - x4) - (x1 - x2) * c2, det),
                  safe_div(c1 * (y3 - y4) - (y1 - y2) * c2, det))
        elif isinstance(step, PerpFoot):
            (ux, uy), (vx, vy) = (getpt(p) for p in _line(prog, step.line))
            px, py = getpt(step.point)
            dx, dy = vx - ux, vy - uy
            tpar = safe_div((px - ux) * dx + (py - uy) * dy, dx * dx + dy * dy)
            setpt(step.name, ux + tpar * dx, uy + tpar * dy)
        elif isinstance(step, Circumcenter):
            (ax, ay), (bx, by), (cx, cy) = (getpt(p) for p in (step.a, step.b, step.c))
            # 2(B-A).O = |B|^2-|A|^2 ; 2(C-A).O = |C|^2-|A|^2
            a11, a12 = 2 * (bx - ax), 2 * (by - ay)
            a21, a22 = 2 * (cx - ax), 2 * (cy - ay)
            r1 = bx * bx + by * by - ax * ax - ay * ay
            r2 = cx * cx + cy * cy - ax * ax - ay * ay
            det = a11 * a22 - a12 * a21
            setpt(step.name, safe_div(r1 * a22 - a12 * r2, det),
                  safe_div(a11 * r2 - r1 * a21, det))
        elif isinstance(step, Incenter):
            (ax, ay), (bx, by), (cx, cy) = (getpt(p) for p in (step.a, step.b, step.c))
            da = sqrt_interval((bx - cx).power(2) + (by - cy).power(2), precision)
            db = sqrt_interval((cx - ax).power(2) + (cy - ay).power(2), precision)
            dc = sqrt_interval((ax - bx).power(2) + (ay - by).power(2), precision)
            tot = da + db + dc
            setpt(step.name,
                  safe_div(da * ax + db * bx + dc * cx, tot),
                  safe_div(da * ay + db * by + dc * cy, tot))
        elif isinstance(step, RegularChain):
            root_idx, sin_sign = branches.get(idx, (0, 1))
            roots = cos_choices(step.n)
            cval = exact_interval(roots[root_idx % len(roots)], precision)
            sin_sq = -cval.power(2) + 1
            sval = sqrt_interval(sin_sq, precision)
            if sin_sign < 0:
                sval = -sval
            cvar, svar = chain_rots[idx]
            env[cvar], env[svar] = cval, sval
            chain = [step.base_a, step.base_b, *step.new_names]
            for i in range(len(chain) - 2):
                (x0, y0), (x1, y1) = getpt(chain[i]), getpt(chain[i + 1])
                ex, ey = x1 - x0, y1 - y0
                setpt(chain[i + 2], x1 + cval * ex - sval * ey,
                      y1 + sval * ex + cval * ey)
        elif isinstance(step, SegmentDecl):
            var = t.seg_vars[step.name]
            if var not in env:
                (px, py), (qx, qy) = getpt(step.p), getpt(step.q)
                env[var] = sqrt_interval((px - qx).power(2) + (py - qy).power(2),
                                         precision)

    # internal incenter lengths that had no declared segment
    for var, radicand in t.sqrt_defs.items():
        if var not in env:
            env[var] = sqrt_interval(eval_poly_interval(radicand, env), precision)

    # reciprocal-trick variable
    if t.ndg is not None:
        poly, aux = t.ndg
        parts = poly.coefficient_map(aux)
        det = parts.get(1)
        det_iv = eval_poly_interval(det, env)
        if det_iv.lo <= 0 <= det_iv.hi:
            raise DegenerateInstance("nondegeneracy determinant straddles zero")
        env[aux] = Interval.point(1) / det_iv

    return Figure(env=env, precision=precision)


def _line(prog: ConstructionProgram, name: str) -> tuple[str, str]:
    for s in prog.steps:
        if isinstance(s, LineThrough) and s.name == name:
            return (s.p, s.q)
    raise KeyError(name)


def figure_with_statement(t: Translation, fig: Figure) -> dict[str, Interval]:
    """Extend a figure environment with w1/w2/m/n values."""
    env = dict(fig.env)
    lhs, rhs = t.program.statement
    num = eval_poly_interval(expr_to_polynomial(lhs, t.seg_vars, t.universe), env)
    den = eval_poly_interval(expr_to_polynomial(rhs, t.seg_vars, t.universe), env)
    if den.lo <= 0 <= den.hi:
        raise DegenerateInstance("denominator straddles zero")
    env["w1"] = num
    if t.w2_var:
        env["w2"] = den
    env["m"] = num / den
    env["n"] = Interval.point(1) / den
    return env


# ---------------------------------------------------------------------------
# feasible sampling
# ---------------------------------------------------------------------------

def _constraint_coord_polys(t: Translation) -> list[Polynomial]:
    out = []
    for con in t.program.constraints:
        if isinstance(con, RightAngle):
            px, py = (Polynomial.variable(v, t.universe) for v in t.point_vars[con.p])
            qx, qy = (Polynomial.variable(v, t.universe) for v in t.point_vars[con.vertex])
            rx, ry = (Polynomial.variable(v, t.universe) for v in t.point_vars[con.r])
            out.append((px - qx) * (rx - qx) + (py - qy) * (ry - qy))
        elif isinstance(con, EqualLength):
            s, u = t.seg_vars[con.s], t.seg_vars[con.t]
            out.append(t.sqrt_defs[s] - t.sqrt_defs[u])
    return out


def free_coordinates(t: Translation) -> list[str]:
    """Non-pinned coordinates of free points, in declaration order."""
    out = []
    for name in t.program.free_points():
        for v in t.point_vars[name]:
            if v not in t.pinned:
                out.append(v)
    return out


_DRAWS = 200   # coordinate draws before sampling gives up


def _branch_combinations(t: Translation) -> list[Branches]:
    """Every choice of (cosine root, sine sign) for every regular chain."""
    chains = [(idx, len(cos_choices(step.n)))
              for idx, step in enumerate(t.program.steps)
              if isinstance(step, RegularChain)]
    per_chain = [[(root, sign) for root in range(n) for sign in (1, -1)]
                 for _, n in chains]
    return [dict(zip((idx for idx, _ in chains), combo))
            for combo in itertools.product(*per_chain)]


def sample_configuration(t: Translation, rng: random.Random,
                         branches: Optional[Branches] = None,
                         ) -> tuple[dict[str, ExactVal], Branches]:
    """A random nondegenerate configuration satisfying all constraints.

    Equality constraints are solved exactly for their highest free
    coordinate. For each draw of the coordinates every combination of chain
    branches is tried in a shuffled order, and the first one that is
    nondegenerate and satisfies the sign conditions is returned; a caller's
    branches are the only combination tried."""
    combos = _branch_combinations(t) if branches is None else [branches]
    freevars = free_coordinates(t)
    con_polys = _constraint_coord_polys(t)

    # assign each constraint its highest-indexed free coordinate to solve for
    solved_for: dict[str, Polynomial] = {}
    for poly in con_polys:
        cands = [v for v in freevars if v in poly.support() and v not in solved_for]
        if not cands:
            raise DegenerateInstance("constraint has no free coordinate to solve")
        solved_for[cands[-1]] = poly

    # with no free coordinate every draw gives the same configuration
    for _ in range(_DRAWS if freevars else 1):
        values = _draw_coordinates(t, rng, freevars, solved_for)
        if values is None:
            continue
        rng.shuffle(combos)
        for combo in combos:
            try:
                fig = evaluate_figure(t, values, combo)
            except DegenerateInstance:
                continue
            if _signconds_hold(t, fig):
                return values, combo
    raise DegenerateInstance("could not sample a feasible configuration")


def _draw_coordinates(t: Translation, rng: random.Random, freevars: list[str],
                      solved_for: dict[str, Polynomial],
                      ) -> Optional[dict[str, ExactVal]]:
    """Random rationals for the unsolved free coordinates and a random real
    root of each constraint for its solved one; None when a constraint has
    no solution or needs an irrational coordinate of another."""
    values: dict[str, ExactVal] = {}
    exact: dict[str, ExactVal] = dict(t.pinned)
    for v in freevars:
        if v not in solved_for:
            values[v] = exact[v] = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
    for v, poly in solved_for.items():
        if not poly.support() - {v} <= exact.keys():
            return None
        roots = solve_for(poly, v, exact)
        if roots is None:
            values[v] = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        elif not roots:
            return None
        else:
            values[v] = roots[rng.randrange(len(roots))]
        if isinstance(values[v], Fraction):
            exact[v] = values[v]
    return values


def _signconds_hold(t: Translation, fig: Figure) -> bool:
    for poly, sign in t.signconds:
        iv = eval_poly_interval(poly, fig.env)
        if sign > 0 and not iv.lo > 0:
            return False
        if sign < 0 and not iv.hi < 0:
            return False
    return True


def residual_check(t: Translation, fig: Figure, tolerance: Fraction) -> bool:
    """Every emitted equation holds at the figure within tolerance."""
    env = figure_with_statement(t, fig)
    for tp in t.polys:
        iv = eval_poly_interval(tp.poly, env)
        if not (iv.lo <= tolerance and iv.hi >= -tolerance):
            return False
    return True
