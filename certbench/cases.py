"""The benchmark's inputs and their expected answers.

Every input is .gct text; the program under test receives nothing else.
Expected answers come from the benchmark's own computations: closed forms
for every bounds case, and the float geometry of `geometry.py` over the
star variants for every exact case.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from geometry import PINNED, chain_sizes, evaluate, variant_ratios

ATTAINED = "attained"
LIMIT = "limit-conjectured"
UNBOUNDED = "unbounded-evidence"

TRIANGLE = """point A
point B
point C
segment a B C
segment b C A
segment c A B
"""

RIGHT = """point A
point B
point C
rightangle A C B
segment a B C
segment b C A
segment c A B
"""

# The twelve constructions of the repository's example suite, plus the
# general Euler inequality. They are copied here so that the benchmark's
# inputs do not move when the example files do.
SUITE = {
    "pythagoras_right": RIGHT + "compare a^2+b^2 vs c^2\n",
    "square_diagonal": """point A
point B
regular A B P Q 4
segment f A B
segment d A P
compare d vs f
""",
    "hexagon_long_diagonal": """point A
point B
regular A B C D 6
segment f A B
segment g A D
compare g vs f
""",
    "pentagon_diagonal": """point A
point B
regular A B C D E 5
segment f A B
segment k A C
compare k vs f
""",
    "pentagon_diagonal_convex": """point A
point B
regular A B C D E 5
regular A B P Q 4
samehalfplane P A B
samehalfplane C P B
segment f A B
segment k A C
compare k vs f
""",
    "kochanski_pi": """point A
point B
segment R A B
regular A B H 3
midpoint N B H
regular A B P 4
regular B A P2 4
midpoint O2 A B
line ax A B
line yax A P2
line tang B P
line ray A N
line vhalf O2 H
intersect C ray tang
line lop O2 P
intersect Q2 yax lop
line lap A P
intersect W vhalf lap
line lq2w Q2 W
intersect X2 tang lq2w
line lax2 A X2
intersect G vhalf lax2
line lq2g Q2 G
intersect X3 tang lq2g
line lx3o X3 O2
intersect X3m yax lx3o
midpoint V C X3m
line lav A V
intersect D tang lav
line lbw B W
intersect Q2p yax lbw
line lq2px2 Q2p X2
intersect Bm ax lq2px2
segment d Bm D
compare d vs R
""",
    "sum_square_vs_products": TRIANGLE + "compare (a+b+c)^2 vs a*b+b*c+c*a\n",
    "medians": """point A
point B
point C
midpoint D C B
midpoint E C A
segment c B A
segment g E B
segment f D A
compare f+g vs c
""",
    "triangle_inequality": TRIANGLE + "compare a+b vs c\n",
    "pythagoras_relaxed": TRIANGLE + "compare a^2+b^2 vs c^2\n",
    "euler_inequality": """point A
point B
point C
circumcenter O A B C
incenter I A B C
line ab A B
perpfoot F I ab
segment R O A
segment r I F
compare R vs r
""",
    "right_triangle_perimeter_vs_circumradius":
        RIGHT + "circumcenter O A B C\nsegment R O A\ncompare a+b+c vs R\n",
    "euler_inequality_isosceles": """point A
point B
point C
segment u C A
segment v C B
equal u v
circumcenter O A B C
incenter I A B C
line ab A B
perpfoot F I ab
segment R O A
segment r I F
compare R vs r
""",
}

# general Euler R >= 2r: the program's inf enclosure is [0, 2] with
# attainment "unknown" (not timed out), so the case renders
# "m unbounded above" although 2 is attained at the equilateral triangle
EULER_FAULT = "inf of R/r certified as [0, 2] with attainment unknown"


@dataclass(frozen=True)
class Side:
    value: Optional[float]          # None when unbounded
    attainment: str


@dataclass(frozen=True)
class Case:
    name: str
    gct: str
    family: str                     # free-point family for soundness samples
    exact: Optional[tuple[float, ...]] = None   # star-variant ratios
    convex: Optional[float] = None  # the ratio with every chain convex
    inf: Optional[Side] = None
    sup: Optional[Side] = None
    known_fault: Optional[str] = None


# a reference configuration of the exact cases' families, A and B pinned as
# in the program
REFERENCE = {
    "pair": PINNED,
    "right": {**PINNED, "C": (0.5 + 0.5 * math.cos(1.1), 0.5 * math.sin(1.1))},
}


def exact_case(name: str, gct: str, family: str) -> Case:
    """An exact-ratio case; its expected candidates are the ratios of every
    star variant at the family's reference configuration."""
    free = REFERENCE[family]
    values = tuple(sorted(set(round(r, 12) for r in variant_ratios(gct, free))))
    convex = evaluate(gct, free, [1] * len(chain_sizes(gct)))
    return Case(name, gct, family, exact=values, convex=convex)


def bounds_case(name: str, gct: str, family: str, inf: Side, sup: Side,
                known_fault: Optional[str] = None) -> Case:
    return Case(name, gct, family, inf=inf, sup=sup, known_fault=known_fault)


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def draw_weights(rng: random.Random, descending: bool = False) -> tuple[Fraction, Fraction]:
    """Two distinct positive rationals p, q with small terms; with
    `descending`, p > q."""
    while True:
        p = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        q = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        if p != q and (not descending or p > q):
            return p, q


# seeded pairs per chain size, two on the hexagon
CHAIN_PAIRS = ((3, "a"), (4, "a"), (5, "a"), (6, "a"), (6, "b"))


def chain_cases(rng: random.Random) -> list[Case]:
    """Seeded pairs of cases on the regular chains n = 3..6 (every vertex
    listed, base A B): the distance from a midpoint of two vertices to a
    third vertex, and a diagonal (a second midpoint case when n = 3), each
    over the side AB. The midpoint cases come first, then the others."""
    mids, others = [], []
    letters = "ABCDEF"
    for n, tag in CHAIN_PAIRS:
        verts = letters[:n]
        head = f"point A\npoint B\nregular {' '.join(verts)} {n}\nsegment f A B\n"
        i, j = sorted(rng.sample(range(n), 2))
        far = rng.choice([v for v in range(n) if v not in (i, j)])
        mid = (head + f"midpoint M {verts[i]} {verts[j]}\n"
               f"segment k M {verts[far]}\ncompare k vs f\n")
        mids.append(exact_case(
            f"chain{n}{tag}_mid_{verts[i]}{verts[j]}_{verts[far]}", mid, "pair"))
        if n == 3:
            i, j = sorted(rng.sample(range(n), 2))
            far = rng.choice([v for v in range(n) if v not in (i, j)])
            second = (head + f"midpoint M {verts[i]} {verts[j]}\n"
                      f"segment k {verts[far]} M\ncompare k vs f\n")
            others.append(exact_case(
                f"chain3{tag}_mid_{verts[far]}_{verts[i]}{verts[j]}", second, "pair"))
        else:
            span = rng.randint(2, n - 2)
            i = rng.randrange(n - span)
            diag = head + f"segment k {verts[i]} {verts[i + span]}\ncompare k vs f\n"
            others.append(exact_case(
                f"chain{n}{tag}_diag_{verts[i]}{verts[i + span]}", diag, "pair"))
    return mids + others


def weighted_squares(p: Fraction, q: Fraction) -> Case:
    """p*a^2+q*b^2 vs c^2 on free triangles: inf pq/(p+q), strict;
    unbounded above."""
    return bounds_case(
        f"weighted_squares_{_frac(p)}_{_frac(q)}",
        TRIANGLE + f"compare {_frac(p)}*a^2+{_frac(q)}*b^2 vs c^2\n", "triangle",
        Side(float(p * q / (p + q)), LIMIT), Side(None, UNBOUNDED))


def weighted_sides(p: Fraction, q: Fraction) -> Case:
    """p*a+q*b vs c on free triangles: inf min(p,q), strict; unbounded
    above."""
    return bounds_case(
        f"weighted_sides_{_frac(p)}_{_frac(q)}",
        TRIANGLE + f"compare {_frac(p)}*a+{_frac(q)}*b vs c\n", "triangle",
        Side(float(min(p, q)), LIMIT), Side(None, UNBOUNDED))


def weighted_right_case(rng: random.Random) -> Case:
    """p*a+q*b vs c on right triangles: range (min(p,q), sqrt(p^2+q^2)].
    The seed draws p > q: with p < q the same search costs 10 to 90 times
    more boxes (see README), which would make the workload's cost follow
    the seed rather than the program."""
    p, q = draw_weights(rng, descending=True)
    return bounds_case(
        f"right_weighted_sides_{_frac(p)}_{_frac(q)}",
        RIGHT + f"compare {_frac(p)}*a+{_frac(q)}*b vs c\n", "right",
        Side(float(q), LIMIT), Side(math.hypot(p, q), ATTAINED))


def suite_exact() -> list[Case]:
    return [exact_case("pythagoras_right", SUITE["pythagoras_right"], "right")] + [
        exact_case(name, SUITE[name], "pair")
        for name in ("square_diagonal", "hexagon_long_diagonal",
                     "pentagon_diagonal", "pentagon_diagonal_convex",
                     "kochanski_pi")]


def suite_free() -> list[Case]:
    return [
        bounds_case("sum_square_vs_products", SUITE["sum_square_vs_products"],
                    "triangle", Side(3.0, ATTAINED), Side(4.0, LIMIT)),
        bounds_case("medians", SUITE["medians"], "triangle",
                    Side(1.5, LIMIT), Side(None, UNBOUNDED)),
        bounds_case("triangle_inequality", SUITE["triangle_inequality"],
                    "triangle", Side(1.0, LIMIT), Side(None, UNBOUNDED)),
        bounds_case("pythagoras_relaxed", SUITE["pythagoras_relaxed"],
                    "triangle", Side(0.5, LIMIT), Side(None, UNBOUNDED)),
        bounds_case("euler_inequality", SUITE["euler_inequality"], "triangle",
                    Side(2.0, ATTAINED), Side(None, UNBOUNDED),
                    known_fault=EULER_FAULT),
    ]


def suite_constrained() -> list[Case]:
    return [
        bounds_case("right_triangle_perimeter_vs_circumradius",
                    SUITE["right_triangle_perimeter_vs_circumradius"], "right",
                    Side(4.0, LIMIT), Side(2 + 2 * math.sqrt(2), ATTAINED)),
        bounds_case("euler_inequality_isosceles",
                    SUITE["euler_inequality_isosceles"], "isosceles",
                    Side(2.0, ATTAINED), Side(None, UNBOUNDED)),
        bounds_case("right_product_vs_square", RIGHT + "compare a*b vs c^2\n",
                    "right", Side(0.0, LIMIT), Side(0.5, ATTAINED)),
    ]


def workload(name: str, seed: int) -> list[Case]:
    """The comparisons of one round of a workload, in the order they run.
    Each workload draws from its own stream of the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "exact":
        # the seeded cases alternate with the fixed ones, so that cases of
        # both kinds are timed on either side of the long
        # pentagon_diagonal_convex
        chains = chain_cases(rng)
        order = []
        for i, fixed in enumerate(suite_exact()):
            order += [chains[i], fixed]
        return order + chains[len(suite_exact()):]
    if name == "bounds_free":
        return suite_free() + [weighted_squares(*draw_weights(rng)),
                               weighted_sides(*draw_weights(rng))]
    if name == "bounds_constrained":
        return suite_constrained() + [weighted_right_case(rng)]
    if name == "service":
        # a fixed mix of requests of a similar size (0.02 to 0.25 s alone),
        # so that each client's requests meet the other's all through a
        # round; the seed does not enter
        exact = [c for c in suite_exact()
                 if c.name not in ("pentagon_diagonal_convex",)]
        p, q = Fraction(2), Fraction(3)
        free = [c for c in suite_free() if c.name == "pythagoras_relaxed"]
        free += [weighted_squares(p, q), weighted_sides(p, q)]
        return exact + free
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact", "bounds_free", "bounds_constrained", "service")
