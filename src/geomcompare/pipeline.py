"""Comparison orchestration: the elimination path first, the certified
bounds fallback when no constant ratio exists, per-phase timings.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebraic import approx_decimal
from .bounds import BoundsResult, CompileError, SideResult, branch_and_bound, compile_charts
from .construction import (
    ConstructionProgram,
    DegreeMismatchError,
    NotHomogeneousError,
    Translation,
    check_homogeneity,
    parse_construction,
    translate,
)
from .exact_ratio import (
    ExactRatioResult,
    NoCandidateWitnessedError,
    NoPositiveRootError,
    constant_ratio_evidence,
    eliminate_to_mu,
    numeric_crosscheck,
    solve_mu,
)
from .polynomials import BuchbergerLimits, ResourceLimitError
from .presolve import PresolveReport, presolve


@dataclass
class CompareConfig:
    timeout: float = 5.0                      # seconds, the default time limit
    tol: Fraction = Fraction(1, 10 ** 6)
    mode: str = "auto"                        # auto | eq | bounds
    crosscheck_trials: int = 8
    rng_seed: int = 20210903


@dataclass
class CompareResult:
    variant: str                              # exact | bounds | inconclusive
    reason: Optional[str] = None              # for inconclusive
    exact: Optional[ExactRatioResult] = None
    bounds: Optional[BoundsResult] = None
    timings_ms: dict = field(default_factory=dict)
    transcript: Optional[PresolveReport] = None
    translation: Optional[Translation] = None

    def is_definite(self) -> bool:
        return self.variant != "inconclusive"


def compare(prog: ConstructionProgram, config: Optional[CompareConfig] = None,
            ) -> CompareResult:
    """Full pipeline: homogeneity gate, algebraization, pinning, statement
    equations, presolve, elimination, bounds fallback."""
    config = config or CompareConfig()
    deadline = time.monotonic() + config.timeout
    timings: dict[str, float] = {}
    rng = random.Random(config.rng_seed)

    if prog.statement is None:
        return CompareResult("inconclusive", reason="no statement",
                             timings_ms=timings)
    try:
        check_homogeneity(*prog.statement)
    except NotHomogeneousError:
        return CompareResult("inconclusive", reason="not-homogeneous",
                             timings_ms=timings)
    except DegreeMismatchError:
        return CompareResult("inconclusive", reason="degree-mismatch",
                             timings_ms=timings)

    t0 = time.monotonic()
    t = translate(prog)
    timings["algebraize"] = 1000 * (time.monotonic() - t0)

    t0 = time.monotonic()
    t, report = presolve(t)
    timings["presolve"] = 1000 * (time.monotonic() - t0)

    result = CompareResult("inconclusive", timings_ms=timings, transcript=report,
                           translation=t)

    # elimination first; in auto mode a numeric pre-sample showing the ratio
    # varies justifies skipping straight to the bounds search
    exact_result: Optional[ExactRatioResult] = None
    if config.mode in ("auto", "eq"):
        t0 = time.monotonic()
        evidence = None
        if config.mode == "auto":
            evidence = constant_ratio_evidence(t, rng)
        if evidence is None:
            try:
                limits = BuchbergerLimits(deadline=deadline)
                mu_poly = eliminate_to_mu(t, limits)
                if mu_poly is not None:
                    exact_result = solve_mu(mu_poly)
            except ResourceLimitError:
                timings["eliminate"] = 1000 * (time.monotonic() - t0)
                if config.mode == "eq":
                    result.reason = "resource-limit"
                    return result
            except NoPositiveRootError:
                timings["eliminate"] = 1000 * (time.monotonic() - t0)
                result.reason = "no-positive-root"
                return result
        timings["eliminate"] = 1000 * (time.monotonic() - t0)

    if exact_result is not None:
        t0 = time.monotonic()
        try:
            numeric_crosscheck(exact_result, t, config.crosscheck_trials, rng)
        except NoCandidateWitnessedError:
            result.reason = "no-candidate-witnessed"
            return result
        timings["crosscheck"] = 1000 * (time.monotonic() - t0)
        result.variant = "exact"
        result.exact = exact_result
        if config.mode == "auto" and t.signconds and len(
                [c for c in exact_result.candidates]) > 1:
            # sign conditions can single out one variant: confirm via bounds
            t0 = time.monotonic()
            bres = _run_bounds(t, config, deadline)
            timings["bounds"] = 1000 * (time.monotonic() - t0)
            if bres is not None and bres.inf.enclosure and bres.sup.enclosure:
                from .intervals import Interval
                window = Interval(bres.inf.enclosure.lo, bres.sup.enclosure.hi)
                kept = [c for c in exact_result.candidates
                        if c.value.refined(config.tol / 4).isolating.intersects(window)]
                if kept:
                    exact_result.candidates = kept
        return result

    if config.mode == "eq":
        result.reason = "timeout" if time.monotonic() > deadline else \
            "no-constant-ratio"
        return result

    t0 = time.monotonic()
    bres = _run_bounds(t, config, deadline)
    timings["bounds"] = 1000 * (time.monotonic() - t0)
    if bres is None:
        result.reason = "compile-error"
        return result
    result.variant = "bounds"
    result.bounds = bres
    if bres.inf.enclosure is None and bres.sup.enclosure is None \
            and bres.inf.attainment == "unknown":
        result.variant = "inconclusive"
        result.reason = "timeout" if bres.timed_out else "resource-limit"
    return result


def _run_bounds(t: Translation, config: CompareConfig,
                deadline: float) -> Optional[BoundsResult]:
    """The bounds search, or None when the problem does not compile."""
    try:
        charts = compile_charts(t)
    except CompileError:
        return None
    return branch_and_bound(charts, config.tol, deadline)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_value(side: SideResult) -> str:
    if side.exact is not None:
        return side.exact.render()
    if side.enclosure is not None:
        mid = side.enclosure.mid()
        return _decimal(mid)
    return "?"


def _decimal(x: Fraction, digits: int = 12) -> str:
    from .algebraic import AlgebraicNumber
    from .intervals import Interval
    from .polynomials import poly_from_univariate
    alg = AlgebraicNumber(poly_from_univariate([-x, Fraction(1)], "m"),
                          Interval.point(x), (x > 0) - (x < 0))
    return approx_decimal(alg, digits)


def render_bound_text(b: BoundsResult) -> str:
    """The wire grammar: 'm = R', 'm > R', 'm >= R', 'R1 <= m < R2',
    'm unbounded above', 'timeout'."""
    inf, sup = b.inf, b.sup
    inf_known = inf.enclosure is not None and inf.attainment != "unknown"
    sup_known = sup.enclosure is not None and sup.attainment != "unknown"
    sup_unbounded = sup.attainment == "unbounded-evidence"

    if inf_known and sup_known and inf.exact is not None and sup.exact is not None \
            and inf.exact.render() == sup.exact.render():
        return f"m = {inf.exact.render()}"
    if inf_known:
        left = render_value(inf)
        if sup_unbounded or not sup_known:
            op = ">=" if inf.attainment == "attained" else ">"
            return f"m {op} {left}"
        lop = "<=" if inf.attainment == "attained" else "<"
        rop = "<=" if sup.attainment == "attained" else "<"
        return f"{left} {lop} m {rop} {render_value(sup)}"
    if sup_unbounded:
        return "m unbounded above"
    if sup_known:
        op = "<=" if sup.attainment == "attained" else "<"
        return f"m {op} {render_value(sup)}"
    return "timeout" if b.timed_out else "inconclusive"


def render_exact_text(r: ExactRatioResult) -> str:
    parts = []
    for c in r.candidates:
        parts.append(c.render() + (" (witnessed)" if c.witnessed else ""))
    return "m = " + " or ".join(parts)


def render_compare_text(result: CompareResult, prog: ConstructionProgram) -> str:
    from .construction import expr_render
    if result.variant == "exact":
        names = {s: s for s in _leaf_names(prog)}
        lhs, rhs = prog.statement
        cands = result.exact.candidates
        lhs_s, rhs_s = expr_render(lhs, names), expr_render(rhs, names)
        if len(cands) == 1:
            return f"({lhs_s}) = {cands[0].render()} * ({rhs_s})"
        body = render_exact_text(result.exact)
        return f"({lhs_s}) / ({rhs_s}): {body}"
    if result.variant == "bounds":
        names = {s: s for s in _leaf_names(prog)}
        lhs, rhs = prog.statement
        lhs_s, rhs_s = expr_render(lhs, names), expr_render(rhs, names)
        inf = result.bounds.inf
        sup = result.bounds.sup
        if inf.enclosure is not None and sup.attainment == "unbounded-evidence" \
                and inf.exact is not None:
            op = ">=" if inf.attainment == "attained" else ">"
            return f"({lhs_s}) {op} {_wrap(inf.exact.render())} * ({rhs_s})"
        return f"({lhs_s}) vs ({rhs_s}): {render_bound_text(result.bounds)}"
    return f"inconclusive: {result.reason}"


def _wrap(text: str) -> str:
    if text.startswith("(") or text.replace("-", "").isdigit():
        return text
    return f"({text})"


def _leaf_names(prog: ConstructionProgram) -> set[str]:
    from .construction import expr_leaves
    lhs, rhs = prog.statement
    return expr_leaves(lhs) | expr_leaves(rhs)


def compare_source(src: str, config: Optional[CompareConfig] = None) -> CompareResult:
    t0 = time.monotonic()
    prog = parse_construction(src)
    parse_ms = 1000 * (time.monotonic() - t0)
    result = compare(prog, config)
    result.timings_ms["parse"] = parse_ms
    return result
