import random
import time
from fractions import Fraction

import pytest

from geomcompare import CompareConfig
from geomcompare.construction import parse_construction, translate
from geomcompare.exact_ratio import (
    NoCandidateWitnessedError,
    NoPositiveRootError,
    constant_ratio_evidence,
    eliminate_to_mu,
    numeric_crosscheck,
    ratio_sample,
    solve_mu,
)
from geomcompare.instantiate import DegenerateInstance, sample_configuration
from geomcompare.pipeline import CROSSCHECK_TRIALS, RNG_SEED, compare_source
from geomcompare.presolve import presolve
from geomcompare.polynomials import parse_polynomial, poly_from_univariate, render


def _prepared(name):
    src = open(f"benchmarks/{name}.gct").read()
    return presolve(translate(parse_construction(src)))[0]


def test_right_triangle_ratio_is_one():
    p = eliminate_to_mu(_prepared("pythagoras_right"))
    assert p is not None
    result = solve_mu(p)
    assert len(result.candidates) == 1
    assert result.candidates[0].value.rational_value() == 1


def test_medians_elimination_absent():
    p = eliminate_to_mu(_prepared("medians"))
    assert p is None


def test_medians_fallthrough_justified_by_samples():
    t = _prepared("medians")
    evidence = constant_ratio_evidence(t, random.Random(3))
    assert evidence is not None
    a, b = evidence
    assert min(abs(a.lo - b.hi), abs(b.lo - a.hi)) > Fraction(1, 10 ** 6)


def test_pentagon_candidates_and_radicals():
    p = eliminate_to_mu(_prepared("pentagon_diagonal"))
    assert render(p) == "m^4-3*m^2+1"
    result = solve_mu(p)
    assert [c.radical.render() for c in result.candidates] == \
        ["(sqrt(5)-1)/2", "(1+sqrt(5))/2"]


def _matches_at(result, t, branches):
    """Which candidates match the ratio at one configuration on the given
    chain branches."""
    ratio, _ = ratio_sample(t, random.Random(7), branches, Fraction(1, 2 ** 128))
    return [abs(ratio.mid() - c.value.refined(Fraction(1, 10 ** 22)).isolating.mid())
            < Fraction(1, 10 ** 20) for c in result.candidates]


def test_pentagon_crosscheck_convex_witnesses_golden_ratio():
    t = _prepared("pentagon_diagonal")
    result = solve_mu(eliminate_to_mu(t))
    # chain step index 2 in the program; root index 1 = larger cosine = convex
    assert _matches_at(result, t, {2: (1, 1)}) == [False, True]
    assert _matches_at(result, t, {2: (0, 1)}) == [True, False]


def test_pentagon_crosscheck_random_trials_witness_both():
    t = _prepared("pentagon_diagonal")
    result = solve_mu(eliminate_to_mu(t))
    witnessed = numeric_crosscheck(result, t, trials=12, rng=random.Random(4))
    assert any(witnessed)


def test_crosscheck_under_sign_conditions_evaluates_few_figures(monkeypatch):
    """The half-plane conditions admit only the convex pentagon; the
    sampler reaches it by enumerating chain branches, not by rejection."""
    import geomcompare.instantiate as instantiate
    t = _prepared("pentagon_diagonal_convex")
    result = solve_mu(eliminate_to_mu(t))
    calls = []
    original = instantiate.evaluate_figure

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(instantiate, "evaluate_figure", counting)
    witnessed = numeric_crosscheck(result, t, trials=8, rng=random.Random(5))
    assert [c.radical.render() for c in result.candidates] == \
        ["(sqrt(5)-1)/2", "(1+sqrt(5))/2"]
    assert witnessed == [False, True]
    assert len(calls) <= 64


def test_sampler_keeps_caller_branches():
    """A caller's branches are the only combination tried: they come back
    unchanged and are never edited, or the sampler gives up. The half-plane
    conditions admit only the convex pentagon (cosine root 1) with the
    square on the left of AB."""
    t = _prepared("pentagon_diagonal_convex")
    returned = []
    for pentagon in ((0, 1), (0, -1), (1, 1), (1, -1)):
        for square in (1, -1):
            given = {2: pentagon, 3: (0, square)}
            try:
                _, got, _ = sample_configuration(t, random.Random(1), branches=given)
            except DegenerateInstance:
                pass
            else:
                assert got == {2: pentagon, 3: (0, square)}
                returned.append((pentagon, square))
            assert given == {2: pentagon, 3: (0, square)}
    assert returned == [((1, 1), 1), ((1, -1), 1)]


def test_kochanski_constant():
    t = _prepared("kochanski_pi")
    p = eliminate_to_mu(t)
    assert render(p) == "9*m^4-240*m^2+1492"
    result = solve_mu(p)
    near_pi = result.candidates[0]
    assert near_pi.radical.render() == "sqrt(40/3-2*sqrt(3))"
    assert near_pi.decimal(8) == "3.1415333"
    witnessed = numeric_crosscheck(result, t, trials=8, rng=random.Random(9))
    assert witnessed[0]


def test_square_and_hexagon():
    sq = solve_mu(eliminate_to_mu(_prepared("square_diagonal")))
    assert [c.radical.render() for c in sq.candidates] == ["sqrt(2)"]
    hexa = solve_mu(eliminate_to_mu(_prepared("hexagon_long_diagonal")))
    assert [c.value.rational_value() for c in hexa.candidates] == [2]


def test_square_with_large_prime_weight_renders_within_seconds():
    # the ratio's discriminant is 8*(10^9+7)^2; trial division up to its
    # square root took minutes and did not see the comparison's timeout
    src = open("benchmarks/square_diagonal.gct").read().replace(
        "compare d vs f", "compare 1000000007*d vs f")
    start = time.perf_counter()
    result = compare_source(src, CompareConfig(timeout=30))
    assert [c.radical.render() for c in result.exact.candidates] == ["1000000007*sqrt(2)"]
    assert time.perf_counter() - start < 10


def test_solve_mu_simple_cases():
    m = solve_mu(poly_from_univariate([-1, 1], "m"))
    assert m.candidates[0].value.rational_value() == 1
    with pytest.raises(NoPositiveRootError):
        solve_mu(poly_from_univariate([1, 1], "m"))  # root -1 only


def test_crosscheck_rejects_wrong_candidates():
    t = _prepared("pythagoras_right")
    fake = solve_mu(poly_from_univariate([-7, 1], "m"))  # claims ratio 7
    with pytest.raises(NoCandidateWitnessedError):
        numeric_crosscheck(fake, t, trials=4, rng=random.Random(2))


def test_reported_equality_holds_under_perturbation():
    """The witnessed ratio persists across many perturbed nondegenerate
    instantiations of the right-triangle figure."""
    t = _prepared("pythagoras_right")
    result = solve_mu(eliminate_to_mu(t))
    mu = result.candidates[0].value.rational_value()
    rng = random.Random(31)
    for _ in range(200):
        ratio, _ = ratio_sample(t, rng, precision=Fraction(1, 2 ** 128))
        assert ratio.lo - Fraction(1, 10 ** 20) <= mu <= ratio.hi + Fraction(1, 10 ** 20)


def test_eliminated_poly_vanishes_at_sampled_ratios():
    for name, expected in (("pentagon_diagonal", "m^4-3*m^2+1"),
                           ("square_diagonal", "m^2-2")):
        t = _prepared(name)
        p = eliminate_to_mu(t)
        assert render(p) == expected
        rng = random.Random(13)
        for _ in range(6):
            ratio, _ = ratio_sample(t, rng, precision=Fraction(1, 2 ** 128))
            coeffs = p.univariate_coeffs("m")
            val = sum(c * ratio.mid() ** i for i, c in enumerate(coeffs))
            assert abs(val) < Fraction(1, 10 ** 20)


# -- crosscheck sampling stops once every candidate is witnessed ------------------

EXACT_SUITE_CASES = ("pythagoras_right", "pentagon_diagonal", "pentagon_diagonal_convex",
                     "kochanski_pi", "square_diagonal", "hexagon_long_diagonal")


def _pipeline_rng(t):
    """The random state `compare` hands to the crosscheck in auto mode: the
    default seed, after the constant-ratio pre-sample."""
    rng = random.Random(RNG_SEED)
    assert constant_ratio_evidence(t, rng) is None
    return rng


def _flags_of_every_trial(result, t, trials, rng):
    """The crosscheck's flags when all `trials` configurations are sampled."""
    refined = [c.value.refined(Fraction(1, 10 ** 22)).isolating for c in result.candidates]
    flags = [False] * len(refined)
    for _ in range(trials):
        try:
            ratio, _ = ratio_sample(t, rng, precision=Fraction(1, 2 ** 128))
        except DegenerateInstance:
            continue
        for i, iso in enumerate(refined):
            gap = max(iso.lo - ratio.hi, ratio.lo - iso.hi, Fraction(0))
            flags[i] = flags[i] or gap <= Fraction(1, 10 ** 20)
    return flags


def test_crosscheck_stops_once_every_candidate_is_witnessed(monkeypatch):
    import geomcompare.exact_ratio as exact_ratio
    t = _prepared("pythagoras_right")
    result = solve_mu(eliminate_to_mu(t))
    calls = []
    original = exact_ratio.ratio_sample

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(exact_ratio, "ratio_sample", counting)
    assert numeric_crosscheck(result, t, trials=8, rng=random.Random(5)) == [True]
    assert len(calls) == 1


@pytest.mark.parametrize("name", EXACT_SUITE_CASES)
def test_crosscheck_flags_equal_those_of_every_trial(name):
    t = _prepared(name)
    result = solve_mu(eliminate_to_mu(t))
    trials = CROSSCHECK_TRIALS
    want = _flags_of_every_trial(result, t, trials, _pipeline_rng(t))
    assert numeric_crosscheck(result, t, trials, _pipeline_rng(t)) == want
    assert any(want)
