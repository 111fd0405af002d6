"""Checks one answer of the program against the benchmark's own
computations (`cases.py`, `geometry.py`).

An answer is the program's result reduced to plain data, so that results
from `compare_source` and documents from `POST /compare` are checked by the
same code. `check` returns the list of reasons the answer is wrong; an
empty list means it passed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from cases import UNBOUNDED, Case
from geometry import sample_free, variant_ratios

SOUNDNESS_SAMPLES = 48


@dataclass
class Bound:
    lo: Optional[Fraction]          # None when the side has no enclosure
    hi: Optional[Fraction]
    attainment: str


@dataclass
class Answer:
    variant: str
    candidates: list[float] = field(default_factory=list)
    inf: Optional[Bound] = None
    sup: Optional[Bound] = None
    timed_out: bool = False         # some bounds search stopped on its deadline


def answer_from_result(result, timed_out: bool) -> Answer:
    """Plain data from a `CompareResult`."""
    ans = Answer(result.variant, timed_out=timed_out)
    if result.exact is not None:
        ans.candidates = [float(c.decimal(15)) for c in result.exact.candidates]
    if result.bounds is not None:
        sides = []
        for side in (result.bounds.inf, result.bounds.sup):
            enc = side.enclosure
            sides.append(Bound(enc.lo if enc else None, enc.hi if enc else None,
                               side.attainment))
        ans.inf, ans.sup = sides
    return ans


def answer_from_document(doc: dict, timed_out: bool) -> Answer:
    """Plain data from a `POST /compare` JSON document."""
    ans = Answer(doc["variant"], timed_out=timed_out)
    ans.candidates = [float(c["decimal"]) for c in doc.get("candidates", [])]
    sides = []
    for key in ("inf", "sup"):
        side = doc.get(key)
        if side is None:
            sides.append(None)
            continue
        enc = side.get("enclosure")
        sides.append(Bound(Fraction(enc[0]) if enc else None,
                           Fraction(enc[1]) if enc else None, side["attained"]))
    ans.inf, ans.sup = sides
    return ans


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _slack(v: float) -> Fraction:
    # the expected values are floats of closed forms: allow their rounding
    return Fraction(1, 10 ** 12) * max(1, abs(Fraction(v)))


@functools.lru_cache(maxsize=None)
def soundness_samples(gct: str, family: str, seed: int) -> tuple[float, ...]:
    """The ratio at independently sampled configurations of the family, in
    every star variant."""
    rng = random.Random(f"soundness:{gct}:{seed}")
    out = []
    for _ in range(SOUNDNESS_SAMPLES):
        out += variant_ratios(gct, sample_free(family, rng))
    return tuple(out)


def check(case: Case, ans: Answer, tol: Fraction, seed: int) -> list[str]:
    errors = []
    if ans.timed_out:
        errors.append("a bounds search stopped on its deadline")
    samples = soundness_samples(case.gct, case.family, seed)

    if case.exact is not None:
        if ans.variant != "exact":
            return errors + [f"variant {ans.variant}, expected exact"]
        if not ans.candidates:
            errors.append("no candidate")
        for c in ans.candidates:
            if not any(_close(c, v) for v in case.exact):
                errors.append(f"candidate {c} is no star variant's ratio")
        if case.convex is not None and \
                not any(_close(case.convex, c) for c in ans.candidates):
            errors.append(f"convex ratio {case.convex} missing")
        for r in samples:
            if not any(_close(r, c, 1e-7) for c in ans.candidates):
                errors.append(f"sampled ratio {r} matches no candidate")
                break
        return errors

    if ans.variant != "bounds":
        return errors + [f"variant {ans.variant}, expected bounds"]
    for label, want, got in (("inf", case.inf, ans.inf), ("sup", case.sup, ans.sup)):
        if got is None or got.attainment != want.attainment:
            errors.append(f"{label} attainment "
                          f"{got.attainment if got else None}, "
                          f"expected {want.attainment}")
            continue
        if want.attainment == UNBOUNDED:
            continue
        if got.lo is None:
            errors.append(f"{label} has no enclosure")
            continue
        v, slack = Fraction(want.value), _slack(want.value)
        if not got.lo - slack <= v <= got.hi + slack:
            errors.append(f"{label} enclosure [{float(got.lo)}, {float(got.hi)}] "
                          f"misses {want.value}")
        if got.hi - got.lo > 8 * tol:
            errors.append(f"{label} enclosure wider than 8*tol: "
                          f"{float(got.hi - got.lo):.3g}")
    lo = ans.inf.lo if ans.inf else None
    hi = ans.sup.hi if ans.sup else None
    if lo is not None and hi is not None and lo > hi:
        errors.append("inf above sup")
    for r in samples:
        fr = Fraction(r)
        if (lo is not None and fr < lo - _slack(r)) or \
                (hi is not None and fr > hi + _slack(r)):
            errors.append(f"sampled ratio {r} outside [{lo}, {hi}]")
            break
    return errors
