"""Float geometry of .gct constructions, written apart from geomcompare.

This is the benchmark's independent reference: it evaluates a construction
in plain floats at given free points and a given turn for each regular
chain, and samples configurations of the three triangle families the
workloads use. Nothing here imports the program under test.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Sequence

Point = tuple[float, float]


def star_steps(n: int) -> list[int]:
    """Turn steps k of the regular star polygons {n/k}: a chain turns by
    2*pi*k/n at each vertex; k and n-k are mirror images."""
    return [k for k in range(1, n) if math.gcd(k, n) == 1]


def star_ratio(n: int, k: int, span: int) -> float:
    """Distance between chain vertices `span` steps apart over the side, in
    the star variant with step k."""
    return abs(math.sin(span * k * math.pi / n) / math.sin(k * math.pi / n))


def _sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


def _cross(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


class Degenerate(ArithmeticError):
    pass


def _intersect(l1: tuple[Point, Point], l2: tuple[Point, Point]) -> Point:
    (p, p2), (q, q2) = l1, l2
    r, s = _sub(p2, p), _sub(q2, q)
    den = _cross(r, s)
    scale = math.hypot(*r) * math.hypot(*s)
    if scale == 0.0 or abs(den) <= 1e-12 * scale:
        raise Degenerate("parallel lines")
    t = _cross(_sub(q, p), s) / den
    return (p[0] + t * r[0], p[1] + t * r[1])


def _circumcenter(a: Point, b: Point, c: Point) -> Point:
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        raise Degenerate("collinear triangle")
    a2, b2, c2 = (p[0] ** 2 + p[1] ** 2 for p in (a, b, c))
    return ((a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d,
            (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d)


def _incenter(a: Point, b: Point, c: Point) -> Point:
    la, lb, lc = _dist(b, c), _dist(c, a), _dist(a, b)
    s = la + lb + lc
    return ((la * a[0] + lb * b[0] + lc * c[0]) / s,
            (la * a[1] + lb * b[1] + lc * c[1]) / s)


def _foot(p: Point, line: tuple[Point, Point]) -> Point:
    a, b = line
    d = _sub(b, a)
    t = ((p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]) / (d[0] ** 2 + d[1] ** 2)
    return (a[0] + t * d[0], a[1] + t * d[1])


def chain_sizes(gct: str) -> list[int]:
    """The vertex count n of every `regular` step, in order."""
    return [int(line.split()[-1]) for line in _lines(gct)
            if line.split()[0] == "regular"]


def _lines(gct: str) -> list[str]:
    out = []
    for raw in gct.replace(";", "\n").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def evaluate(gct: str, free: dict[str, Point],
             turns: Sequence[int] = ()) -> Optional[float]:
    """The ratio lhs/rhs of the `compare` statement.

    `free` places every `point`; the i-th `regular` chain turns by
    2*pi*turns[i]/n at each vertex. `rightangle` and `equal` are the
    caller's to satisfy (see `residual`). Returns None when the figure is
    degenerate or a `samehalfplane` condition fails."""
    pts: dict[str, Point] = {}
    lines: dict[str, tuple[Point, Point]] = {}
    segs: dict[str, float] = {}
    chain = 0
    statement = None
    try:
        for line in _lines(gct):
            head, *args = line.split()
            if head == "point":
                pts[args[0]] = free[args[0]]
            elif head == "midpoint":
                p, q = pts[args[1]], pts[args[2]]
                pts[args[0]] = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
            elif head == "line":
                lines[args[0]] = (pts[args[1]], pts[args[2]])
            elif head == "intersect":
                pts[args[0]] = _intersect(lines[args[1]], lines[args[2]])
            elif head == "perpfoot":
                pts[args[0]] = _foot(pts[args[1]], lines[args[2]])
            elif head == "circumcenter":
                pts[args[0]] = _circumcenter(*(pts[a] for a in args[1:]))
            elif head == "incenter":
                pts[args[0]] = _incenter(*(pts[a] for a in args[1:]))
            elif head == "regular":
                n = int(args[-1])
                angle = 2 * math.pi * turns[chain] / n
                chain += 1
                cs, sn = math.cos(angle), math.sin(angle)
                names = args[:-1]
                prev, cur = pts[names[0]], pts[names[1]]
                for name in names[2:]:
                    ex, ey = _sub(cur, prev)
                    nxt = (cur[0] + cs * ex - sn * ey, cur[1] + sn * ex + cs * ey)
                    pts[name] = nxt
                    prev, cur = cur, nxt
            elif head == "segment":
                segs[args[0]] = _dist(pts[args[1]], pts[args[2]])
            elif head == "samehalfplane":
                p, a, b = (pts[x] for x in args)
                if _cross(_sub(b, a), _sub(p, a)) <= 0.0:
                    return None
            elif head == "compare":
                statement = line[len("compare"):].split(" vs ")
            elif head in ("rightangle", "equal"):
                pass
            else:
                raise ValueError(f"unknown step {head!r}")
        lhs, rhs = (_expr(side, segs) for side in statement)
    except (Degenerate, ZeroDivisionError):
        return None
    if rhs == 0.0 or not math.isfinite(lhs / rhs):
        return None
    return lhs / rhs


def _expr(text: str, segs: dict[str, float]) -> float:
    # the statements are the benchmark's own text: +,-,*,^, rationals, names
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, dict(segs)))


def residual(gct: str, free: dict[str, Point]) -> float:
    """Largest violation of the `rightangle`/`equal` constraints that
    involve only free points and segments between them."""
    worst = 0.0
    segs = {}
    for line in _lines(gct):
        head, *args = line.split()
        if head == "segment" and all(a in free for a in args[1:]):
            segs[args[0]] = _dist(free[args[1]], free[args[2]])
        elif head == "rightangle":
            p, v, q = (free[a] for a in args)
            u, w = _sub(p, v), _sub(q, v)
            worst = max(worst, abs(u[0] * w[0] + u[1] * w[1]))
        elif head == "equal":
            worst = max(worst, abs(segs[args[0]] - segs[args[1]]))
    return worst


def variant_ratios(gct: str, free: dict[str, Point]) -> list[float]:
    """The ratio in every star variant of every chain (each chain's step
    chosen independently), degenerate variants left out."""
    steps = [star_steps(n) for n in chain_sizes(gct)]
    out = []
    for turns in itertools.product(*steps):
        r = evaluate(gct, free, turns)
        if r is not None:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# configuration families: the free points A, B, C of each workload
# ---------------------------------------------------------------------------

PINNED = {"A": (0.0, 0.0), "B": (1.0, 0.0)}


def sample_free(family: str, rng: random.Random) -> dict[str, Point]:
    """Random free points of one family, anywhere in the plane:
    `pair` (A, B only), `triangle`, `right` (right angle at C) or
    `isosceles` (CA = CB)."""
    a = (rng.gauss(0, 3), rng.gauss(0, 3))
    b = (rng.gauss(0, 3), rng.gauss(0, 3))
    if family == "pair":
        return {"A": a, "B": b}
    if family == "triangle":
        return {"A": a, "B": b, "C": (rng.gauss(0, 3), rng.gauss(0, 3))}
    m = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    if family == "right":
        t = rng.uniform(0, 2 * math.pi)
        half = _dist(a, b) / 2
        return {"A": a, "B": b, "C": (m[0] + half * math.cos(t),
                                      m[1] + half * math.sin(t))}
    if family == "isosceles":
        h = rng.choice((-1, 1)) * math.exp(rng.uniform(-4, 4))
        d = _sub(b, a)
        return {"A": a, "B": b, "C": (m[0] - h * d[1], m[1] + h * d[0])}
    raise ValueError(family)


def dense_free(family: str) -> list[dict[str, Point]]:
    """A dense deterministic cover of one family with A, B pinned at
    (0,0), (1,0): fine in the interior, geometric toward every degenerate
    boundary (C near the line AB, near A or B, and far away)."""
    out = []
    if family == "triangle":
        xs = [i / 200 for i in range(-200, 401)]
        ys = [10 ** (e / 4) for e in range(-28, 25)]
        for x in xs:
            for y in ys:
                out.append({**PINNED, "C": (x, y)})
        for e in range(-28, 1):
            r = 10 ** (e / 4)
            for j in range(1, 24):
                t = math.pi * j / 24
                out.append({**PINNED, "C": (r * math.cos(t), r * math.sin(t))})
                out.append({**PINNED, "C": (1 - r * math.cos(t), r * math.sin(t))})
        # near the equilateral apex, where interior extrema sit
        for i in range(-50, 51):
            for j in range(-50, 51):
                out.append({**PINNED, "C": (0.5 + i / 5000,
                                            math.sqrt(3) / 2 + j / 5000)})
    elif family == "right":
        steps = 4000
        for i in range(1, steps):
            t = math.pi * i / steps
            out.append({**PINNED, "C": (0.5 + 0.5 * math.cos(t), 0.5 * math.sin(t))})
        for e in range(-32, -8):
            t = 10 ** (e / 4)
            for tt in (t, math.pi - t):
                out.append({**PINNED, "C": (0.5 + 0.5 * math.cos(tt),
                                            0.5 * math.sin(tt))})
    elif family == "isosceles":
        for e in range(-2400, 2401):
            out.append({**PINNED, "C": (0.5, 10 ** (e / 400))})
    else:
        raise ValueError(family)
    return out
