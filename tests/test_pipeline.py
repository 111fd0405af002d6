from fractions import Fraction

import pytest

from geomcompare.construction import parse_construction
from geomcompare.pipeline import (
    CompareConfig,
    compare,
    compare_source,
    render_bound_text,
    render_compare_text,
)


def _run(name, timeout=10.0, mode="auto"):
    src = open(f"benchmarks/{name}.gct").read()
    prog = parse_construction(src)
    result = compare_source(src, CompareConfig(timeout=timeout, mode=mode))
    return prog, result


def test_exact_path_skips_bounds_phase():
    _, result = _run("pythagoras_right", timeout=2.0)
    assert result.variant == "exact"
    assert "bounds" not in result.timings_ms


def test_bounds_path_records_phases():
    _, result = _run("pythagoras_relaxed", timeout=10.0)
    assert result.variant == "bounds"
    for phase in ("algebraize", "presolve", "eliminate", "bounds"):
        assert phase in result.timings_ms


def test_not_homogeneous_inconclusive():
    src = "point A\npoint B\nsegment s A B\ncompare s+s*s vs s"
    result = compare_source(src)
    assert result.variant == "inconclusive"
    assert result.reason == "not-homogeneous"


def test_degree_mismatch_inconclusive():
    src = "point A\npoint B\nsegment s A B\nsegment t A B\ncompare s*t vs s"
    result = compare_source(src)
    assert result.variant == "inconclusive"
    assert result.reason == "degree-mismatch"


def test_render_medians():
    prog, result = _run("medians")
    text = render_compare_text(result, prog)
    assert text == "(f+g) > (3/2) * (c)"
    assert render_bound_text(result.bounds) == "m > 3/2"


def test_render_two_sided():
    prog, result = _run("sum_square_vs_products")
    assert render_bound_text(result.bounds) == "3 <= m < 4"


def test_pentagon_convex_auto_reports_single_candidate():
    prog, result = _run("pentagon_diagonal_convex")
    assert result.variant == "exact"
    assert len(result.exact.candidates) == 1
    assert result.exact.candidates[0].radical.render() == "(1+sqrt(5))/2"


def test_eq_mode_on_varying_ratio_is_inconclusive():
    _, result = _run("medians", timeout=4.0, mode="eq")
    assert result.variant == "inconclusive"


def test_compile_crash_is_not_reported_as_timeout(monkeypatch):
    import geomcompare.pipeline as pipeline

    def crash(t):
        raise RuntimeError("bug in chart compilation")

    monkeypatch.setattr(pipeline, "compile_charts", crash)
    src = open("benchmarks/pythagoras_relaxed.gct").read()
    with pytest.raises(RuntimeError, match="bug in chart compilation"):
        compare_source(src, CompareConfig(timeout=10.0, mode="bounds"))


def test_compile_error_is_reported_as_compile_error(monkeypatch):
    import geomcompare.pipeline as pipeline
    from geomcompare.bounds import CompileError

    def refuse(t):
        raise CompileError("no statement and no explicit objective")

    monkeypatch.setattr(pipeline, "compile_charts", refuse)
    src = open("benchmarks/pythagoras_relaxed.gct").read()
    result = compare_source(src, CompareConfig(timeout=10.0, mode="bounds"))
    assert result.variant == "inconclusive"
    assert result.reason == "compile-error"


def test_presample_crash_propagates(monkeypatch):
    import geomcompare.pipeline as pipeline

    def crash(t, rng):
        raise RuntimeError("bug in the pre-sample")

    monkeypatch.setattr(pipeline, "constant_ratio_evidence", crash)
    src = open("benchmarks/medians.gct").read()
    with pytest.raises(RuntimeError, match="bug in the pre-sample"):
        compare_source(src, CompareConfig(timeout=10.0))
