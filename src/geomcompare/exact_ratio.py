"""The elimination-first comparison path: decide whether the two compared
quantities keep a constant ratio, and if so return every candidate value as
an exact algebraic number with an optional radical rendering.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebraic import (
    AlgebraicNumber,
    RadicalForm,
    approx_decimal,
    isolate_real_roots,
    to_radical,
)
from .construction import Translation
from .instantiate import (
    Branches,
    DegenerateInstance,
    evaluate_figure,
    figure_with_statement,
    sample_configuration,
)
from .intervals import Interval
from .polynomials import BuchbergerLimits, Polynomial, eliminate


class NoPositiveRootError(ValueError):
    """The eliminated polynomial admits no positive ratio value."""


class NoCandidateWitnessedError(RuntimeError):
    """No exact candidate matches any numeric instantiation: the
    algebraization and the elimination disagree, which is a hard bug."""


@dataclass
class RatioCandidate:
    value: AlgebraicNumber
    radical: Optional[RadicalForm]
    witnessed: Optional[bool] = None

    def decimal(self, digits: int = 10) -> str:
        return approx_decimal(self.value, digits)

    def render(self) -> str:
        if self.radical is not None:
            return self.radical.render()
        return f"root({self.value.minpoly!r} ~ {self.decimal(10)})"


@dataclass
class ExactRatioResult:
    candidates: list[RatioCandidate]
    eliminated_poly: Polynomial


def eliminate_to_mu(t: Translation, limits: Optional[BuchbergerLimits] = None,
                    ) -> Optional[Polynomial]:
    """Generator of the elimination ideal in the ratio variable alone, or
    None when the ideal is zero (no constant ratio: fall through to the
    bounds path)."""
    if t.w1_var is None:
        raise ValueError("statement equations missing")
    polys = [tp.poly for tp in t.polys]
    occurring: set[str] = set()
    for p in polys:
        occurring |= p.support()
    drop = [v for v in t.universe if v in occurring and v != "m"]
    nonzero = set(t.posvars) | {"n"}
    if t.ndg is not None:
        nonzero.add(t.ndg[1])
    gens = eliminate(polys, drop, limits, nonzero=nonzero)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return None
    if any(g.is_constant() for g in gens):
        raise NoPositiveRootError("construction admits no nondegenerate instance")
    # the reduced basis of an ideal of Q[m] is a single generator
    gens.sort(key=lambda g: g.degree_in("m"))
    p = gens[0]
    if p.degree_in("m") == 0:
        return None
    return _integer_normalized(p)


def _integer_normalized(p: Polynomial) -> Polynomial:
    coeffs = p.univariate_coeffs("m")
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    scaled = [c * den for c in coeffs]
    g = 0
    for c in scaled:
        g = math.gcd(g, abs(int(c)))
    g = g or 1
    from .polynomials import poly_from_univariate
    out = [c / g for c in scaled]
    if out[-1] < 0:
        out = [-c for c in out]
    return poly_from_univariate(out, "m")


def solve_mu(p: Polynomial) -> ExactRatioResult:
    """Positive real roots of the eliminated polynomial, with radicals."""
    if p.is_zero() or p.is_constant():
        raise ValueError("need a nonzero, non-constant polynomial")
    roots = isolate_real_roots(p)
    positive = [r for r in roots if r.sign > 0]
    if not positive:
        raise NoPositiveRootError("no positive root for the ratio")
    candidates = [RatioCandidate(r, to_radical(r)) for r in positive]
    return ExactRatioResult(candidates, p)


def ratio_sample(t: Translation, rng: random.Random,
                 branches: Optional[Branches] = None,
                 precision: Fraction = Fraction(1, 2 ** 96),
                 ) -> tuple[Interval, Branches]:
    """Ratio of the compared quantities at a random feasible configuration,
    and the chain branches of that configuration."""
    coords, br = sample_configuration(t, rng, branches=branches)
    fig = evaluate_figure(t, coords, br, precision)
    return figure_with_statement(t, fig)["m"], br


def constant_ratio_evidence(t: Translation, rng: random.Random,
                            samples: int = 3) -> Optional[tuple[Interval, Interval]]:
    """Two instantiations with a fixed branch choice whose ratios differ by
    more than 1e-6, or None when every sampled pair agrees (suggesting a
    constant ratio per branch). Used to justify skipping elimination. The
    branches are those of the first configuration sampled."""
    threshold = Fraction(1, 10 ** 6)
    if not _has_free_coordinates(t):
        return None
    branches: Optional[Branches] = None
    ratios: list[Interval] = []
    for _ in range(samples):
        try:
            ratio, branches = ratio_sample(t, rng, branches=branches)
        except DegenerateInstance:
            continue
        ratios.append(ratio)
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            a, b = ratios[i], ratios[j]
            gap = max(b.lo - a.hi, a.lo - b.hi, Fraction(0))
            if gap > threshold:
                return (a, b)
    return None


def _has_free_coordinates(t: Translation) -> bool:
    from .instantiate import free_coordinates
    from .construction import EqualLength, RightAngle
    n_free = len(free_coordinates(t))
    n_constraints = sum(1 for c in t.program.constraints
                        if isinstance(c, (EqualLength, RightAngle)))
    return n_free - n_constraints > 0


def numeric_crosscheck(result: ExactRatioResult, t: Translation, trials: int,
                       rng: Optional[random.Random] = None) -> list[bool]:
    """Mark each candidate witnessed/never-witnessed against random
    instantiations; at least one candidate must be witnessed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng or random.Random(20210903)
    tight = Fraction(1, 10 ** 22)
    refined = [c.value.refined(tight) for c in result.candidates]
    witnessed = [False] * len(result.candidates)
    for _ in range(trials):
        try:
            ratio = ratio_sample(t, rng, precision=Fraction(1, 2 ** 128))[0]
        except DegenerateInstance:
            continue
        for i, cand in enumerate(refined):
            if ratio.intersect(cand.isolating.hull(cand.isolating)) is not None or \
               _close(ratio, cand.isolating, Fraction(1, 10 ** 20)):
                witnessed[i] = True
    if not any(witnessed):
        raise NoCandidateWitnessedError(
            "no exact ratio candidate matches any sampled configuration")
    for c, w in zip(result.candidates, witnessed):
        c.witnessed = w
    return witnessed


def _close(a: Interval, b: Interval, tol: Fraction) -> bool:
    gap = max(b.lo - a.hi, a.lo - b.hi, Fraction(0))
    return gap <= tol

