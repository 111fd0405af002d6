import random
from fractions import Fraction

from geomcompare.construction import parse_construction, translate
from geomcompare.instantiate import evaluate_figure, figure_with_statement, sample_configuration
from geomcompare.intervals import eval_poly_interval
from geomcompare.presolve import LinearStep, PositiveRootStep, presolve
from geomcompare.polynomials import parse_polynomial

MEDIANS = open("benchmarks/medians.gct").read()
SUMSQ = open("benchmarks/sum_square_vs_products.gct").read()


def test_median_counts_match_log():
    _, report = presolve(translate(parse_construction(MEDIANS)))
    assert (report.input_equations, report.input_variables) == (10, 12)
    assert (report.output_equations, report.output_variables) == (6, 8)


def test_median_step_sequence():
    _, report = presolve(translate(parse_construction(MEDIANS)))
    acts = [s for s in report.steps
            if isinstance(s, (PositiveRootStep, LinearStep))]
    assert isinstance(acts[0], PositiveRootStep)
    assert acts[0].var == "v11" and acts[0].value == 1
    assert acts[0].witness == "1-v11"
    linear = [s for s in acts[1:] if isinstance(s, LinearStep)]
    assert [s.var for s in linear] == ["v5", "v6", "v7", "v8"]
    assert linear[0].replacement == "2*v7-1"


def test_median_transcript_golden():
    _, report = presolve(translate(parse_construction(MEDIANS)))
    lines = report.lines
    assert lines[0] == "Input: 10 eqs in 12 vars"
    assert lines[1] == "Considering positive roots of -v11^2+1=0 in variable v11"
    assert lines[2] == "{v11=-1,v11=1}"
    assert lines[3] == "Positive root is 1"
    assert "Keeping 1-v11" in lines
    assert lines[-1] == "Output: 6 eqs in 8 vars"
    # the surviving system: two median-length quadrics, the reciprocal
    # nondegeneracy relation, the two protected statement equations, witness
    final = lines[-2]
    assert final == ("Set after presolve: {"
                     "-v12^2+v10^2+v9^2-2*v9+1,"
                     "-v13^2+v10^2+v9^2+v9+1/4,"
                     "2*v14*v10-1,"
                     "-w1+(v13+v12)^1,"
                     "m-w1,"
                     "1-v11}")


def test_presolve_idempotent():
    t, _ = presolve(translate(parse_construction(MEDIANS)))
    _, second = presolve(t)
    acts = [s for s in second.steps
            if isinstance(s, (PositiveRootStep, LinearStep))]
    assert acts == []
    assert second.input_equations == second.output_equations


def test_counts_never_increase():
    for src in (MEDIANS, SUMSQ):
        _, report = presolve(translate(parse_construction(src)))
        assert report.output_equations <= report.input_equations
        assert report.output_variables <= report.input_variables


def test_untouched_when_nothing_linear():
    src = """
point A
point B
point C
segment a B C
segment b C A
compare a vs b
"""
    t = translate(parse_construction(src))
    _, report = presolve(t)
    # lengths are quadratic and protected; only the ndg stays nonlinear;
    # no positive-root candidates except none exist
    linear = [s for s in report.steps if isinstance(s, LinearStep)]
    assert linear == []


def test_solution_set_preserved_on_samples():
    """Sampled feasible figures satisfy the presolved system; 100 samples."""
    rng = random.Random(5)
    checked = 0
    for src in (MEDIANS, SUMSQ):
        t = translate(parse_construction(src))
        t2, _ = presolve(t)
        for _ in range(50):
            coords, branches, _ = sample_configuration(t, rng)
            fig = evaluate_figure(t, coords, branches, Fraction(1, 2 ** 160))
            env = figure_with_statement(t, fig)
            for tp in t2.polys:
                iv = eval_poly_interval(tp.poly, env)
                tol = Fraction(1, 10 ** 20)
                assert iv.lo <= tol and iv.hi >= -tol
            checked += 1
    assert checked == 100
