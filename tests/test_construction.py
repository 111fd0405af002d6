import random
from fractions import Fraction

import pytest

from geomcompare.construction import (
    ArityError,
    DegreeMismatchError,
    GctSyntaxError,
    NotEnoughFreePointsError,
    NotHomogeneousError,
    UndeclaredNameError,
    algebraize,
    check_homogeneity,
    giac_listing,
    parse_construction,
    pin_coordinates,
    statement_polys,
    translate,
)
from geomcompare.instantiate import (
    evaluate_figure,
    figure_with_statement,
    residual_check,
    sample_configuration,
)
from geomcompare.polynomials import parse_polynomial

MEDIANS = """
point A
point B
point C
midpoint D C B
midpoint E C A
segment c B A
segment g E B
segment f D A
compare f+g vs c
"""

TRIANGLE_SUMSQ = """
point A
point B
point C
segment a B C
segment b C A
segment c A B
compare (a+b+c)^2 vs a*b+b*c+c*a
"""

PENTAGON = """
point A
point B
regular A B C D E 5
segment f A B
segment k A C
compare k vs f
"""


def test_parse_basic_counts():
    prog = parse_construction(TRIANGLE_SUMSQ)
    assert prog.free_points() == ["A", "B", "C"]
    assert prog.segment_names() == ["a", "b", "c"]
    assert prog.statement is not None


def test_parse_degenerate_midpoint_is_fine():
    prog = parse_construction("point A\nmidpoint M A A")
    assert prog.point_names() == ["A", "M"]


def test_parse_undeclared_in_compare():
    with pytest.raises(UndeclaredNameError):
        parse_construction("point A\npoint B\nsegment s A B\ncompare x vs s")


def test_parse_errors():
    with pytest.raises(GctSyntaxError):
        parse_construction("pointt A")
    with pytest.raises(ArityError):
        parse_construction("point A B")
    with pytest.raises(UndeclaredNameError):
        parse_construction("midpoint M A B")
    with pytest.raises(GctSyntaxError):
        parse_construction("point A; point A")
    with pytest.raises(GctSyntaxError):
        parse_construction("point v1")  # protocol variable names are reserved


def test_semicolon_and_newline_separators():
    prog = parse_construction("point A; point B\nsegment s A B")
    assert prog.free_points() == ["A", "B"]


# --- the worked-example golden listing -------------------------------------

PAPER_LISTING = (
    "2*v7-v5-v3,2*v8-v6-v4,2*v9-v5-v1,2*v10-v6-v2,"
    "-v12^2+v10^2+v9^2-2*v10*v4+v4^2-2*v9*v3+v3^2,"
    "-v11^2+v4^2+v3^2-2*v4*v2+v2^2-2*v3*v1+v1^2,"
    "-v13^2+v8^2+v7^2-2*v8*v2+v2^2-2*v7*v1+v1^2,"
    "-1-v14*v5*v4+v14*v6*v3+v14*v5*v2-v14*v3*v2-v14*v6*v1+v14*v4*v1,"
    "-w1+(v13+v12)^1,v11*m-(w1),(v11)*n-1"
)


def test_median_listing_strings_match_wire_format():
    listing = giac_listing(parse_construction(MEDIANS))
    # identical equation strings; the two length equations are emitted in
    # declaration order (v11 before v12) rather than the reference order
    assert sorted(listing.split(",")) == sorted(PAPER_LISTING.split(","))
    expected = (
        "2*v7-v5-v3,2*v8-v6-v4,2*v9-v5-v1,2*v10-v6-v2,"
        "-v11^2+v4^2+v3^2-2*v4*v2+v2^2-2*v3*v1+v1^2,"
        "-v12^2+v10^2+v9^2-2*v10*v4+v4^2-2*v9*v3+v3^2,"
        "-v13^2+v8^2+v7^2-2*v8*v2+v2^2-2*v7*v1+v1^2,"
        "-1-v14*v5*v4+v14*v6*v3+v14*v5*v2-v14*v3*v2-v14*v6*v1+v14*v4*v1,"
        "-w1+(v13+v12)^1,v11*m-(w1),(v11)*n-1"
    )
    assert listing == expected


def test_listing_roundtrip_reparses_identically():
    t = statement_polys(algebraize(parse_construction(MEDIANS)))
    for tp in t.polys:
        assert parse_polynomial(tp.source, t.universe) == tp.poly


def test_variable_numbering_convention():
    t = algebraize(parse_construction(MEDIANS))
    assert t.point_vars["A"] == ("v1", "v2")
    assert t.point_vars["D"] == ("v7", "v8")
    assert t.seg_vars == {"c": "v11", "g": "v12", "f": "v13"}
    assert t.ndg is not None and t.ndg[1] == "v14"


def test_midpoint_only_figure_has_no_ndg():
    t = algebraize(parse_construction("point A\nmidpoint M A A"))
    assert t.ndg is None
    assert [tp.role for tp in t.polys] == ["construction", "construction"]


def test_pentagon_system_contains_both_variants():
    t = algebraize(parse_construction(PENTAGON))
    # one rotation pair, quadratic cosine relation: both pentagon and
    # pentagram satisfy the same system
    assert len(t.rot_vars) == 1
    cvar = t.rot_vars[0][0]
    minpoly = [tp.poly for tp in t.polys if tp.poly.support() == {cvar}]
    assert len(minpoly) == 1
    assert minpoly[0].degree_in(cvar) == 2


# --- homogeneity -------------------------------------------------------------

def test_homogeneity_degrees():
    prog = parse_construction(TRIANGLE_SUMSQ)
    assert check_homogeneity(*prog.statement) == 2
    prog2 = parse_construction(MEDIANS)
    assert check_homogeneity(*prog2.statement) == 1


def test_degree_mismatch():
    src = """
point A
point B
regular A B C D E 5
segment f A B
segment k A C
segment l A D
segment j A E
midpoint M A B
segment R A M
compare f*k*l*j vs R
"""
    prog = parse_construction(src)
    with pytest.raises(DegreeMismatchError):
        check_homogeneity(*prog.statement)


def test_not_homogeneous_mixed_sum():
    prog = parse_construction(
        "point A\npoint B\nsegment s A B\ncompare s+s*s vs s")
    with pytest.raises(NotHomogeneousError):
        check_homogeneity(*prog.statement)


# --- pinning -----------------------------------------------------------------

def test_pinning_median_system():
    t = pin_coordinates(algebraize(parse_construction(MEDIANS)))
    sources = [tp.source for tp in t.polys]
    assert sources[0] == "2*v7-v5-1"
    assert sources[1] == "2*v8-v6"
    assert "-v11^2+1" in sources
    assert "-1+v14*v6" in sources or "v14*v6-1" in sources


def test_pinning_requires_two_free_points():
    src = "point A\nmidpoint M A A\nsegment s A M\ncompare s vs s"
    with pytest.raises(NotEnoughFreePointsError):
        pin_coordinates(algebraize(parse_construction(src)))


def test_pinning_idempotent():
    t = pin_coordinates(algebraize(parse_construction(MEDIANS)))
    assert pin_coordinates(t) is t


# --- statement equations -------------------------------------------------------

def test_statement_polys_median():
    t = translate(parse_construction(MEDIANS))
    roles = [tp.role for tp in t.polys]
    assert roles.count("w1def") == 1
    assert roles.count("ratio") == 1
    assert roles.count("nonvanishing") == 1
    assert t.denom_var == "v11"
    assert t.w2_var is None
    assert t.protected == {"m", "w1", "v11", "v12", "v13"}
    # the presolver and the bounds path see 10 equations in 12 variables
    assert len(t.working_polys()) == 10
    assert len(t.working_vars()) == 12


def test_statement_polys_introduces_w2_for_composite_rhs():
    t = translate(parse_construction(TRIANGLE_SUMSQ))
    assert t.w2_var == "w2"
    assert t.denom_var == "w2"
    sources = [tp.source for tp in t.polys]
    assert "-w1+((a+b+c)^2)^1".replace("a", "v7").replace("b", "v8").replace("c", "v9") \
        in sources or any("-w1+" in s for s in sources)


# --- numeric instantiation ------------------------------------------------------

def test_random_instantiations_satisfy_equations():
    """100 random instantiations: every emitted equation holds to 1e-20."""
    rng = random.Random(11)
    for src in (MEDIANS, TRIANGLE_SUMSQ, PENTAGON):
        t = translate(parse_construction(src))
        for _ in range(34):
            coords, branches, _ = sample_configuration(t, rng)
            fig = evaluate_figure(t, coords, branches, Fraction(1, 2 ** 160))
            assert residual_check(t, fig, Fraction(1, 10 ** 20))


def test_pentagon_branches_give_golden_ratios():
    t = translate(parse_construction(PENTAGON))
    chain_idx = 2  # regular statement is the third step
    convex_ratio = None
    star_ratio = None
    for root_idx in (0, 1):
        fig = evaluate_figure(t, {}, {chain_idx: (root_idx, 1)}, Fraction(1, 2 ** 96))
        r = figure_with_statement(t, fig)["m"]
        value = float(r.mid())
        if value > 1:
            convex_ratio = value
        else:
            star_ratio = value
    assert convex_ratio is not None and abs(convex_ratio - 1.618033988749895) < 1e-12
    assert star_ratio is not None and abs(star_ratio - 0.618033988749895) < 1e-12
