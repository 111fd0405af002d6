"""Symbolic comparison of quantities on planar geometric constructions.

Either proves an exact relation mu * w1 = w2 by polynomial elimination, or
finds certified sharp constants m, M with m * w1 <= w2 <= M * w1 by interval
branch-and-bound over the construction's configuration space.
"""

from .algebraic import AlgebraicNumber, RadicalForm, approx_decimal, isolate_real_roots, to_radical
from .bounds import BoundsResult, SideResult, branch_and_bound, compile_charts, exactify
from .construction import (
    ConstructionProgram,
    Translation,
    algebraize,
    check_homogeneity,
    parse_construction,
    pin_coordinates,
    statement_polys,
    translate,
)
from .exact_ratio import ExactRatioResult, eliminate_to_mu, numeric_crosscheck, solve_mu
from .intervals import Interval, eval_interval
from .pipeline import CompareConfig, CompareResult, compare, compare_source
from .polynomials import Polynomial, TermOrder, buchberger, eliminate, parse_polynomial, reduce_poly, render, s_polynomial
from .presolve import PresolveReport, presolve

__all__ = [
    "AlgebraicNumber", "BoundsResult", "CompareConfig", "CompareResult",
    "ConstructionProgram", "ExactRatioResult", "Interval", "Polynomial",
    "PresolveReport", "RadicalForm", "SideResult", "TermOrder", "Translation",
    "algebraize", "approx_decimal", "branch_and_bound", "buchberger",
    "check_homogeneity", "compare", "compare_source", "compile_charts",
    "eliminate", "eliminate_to_mu", "eval_interval", "exactify",
    "isolate_real_roots", "numeric_crosscheck", "parse_construction",
    "parse_polynomial", "pin_coordinates", "presolve", "reduce_poly",
    "render", "s_polynomial", "solve_mu", "statement_polys",
    "to_radical", "translate",
]
