"""Sparse multivariate polynomials over exact rationals.

Monomials are exponent tuples aligned with a polynomial's variable universe;
coefficients are `fractions.Fraction`. Everything is immutable and canonical:
no zero coefficients are stored and equality ignores padding variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

Exponents = tuple[int, ...]


class ResourceLimitError(Exception):
    """Raised when a basis computation exceeds its size or time budget."""


class PolynomialParseError(ValueError):
    """Raised on malformed polynomial text."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class Polynomial:
    """A polynomial as {exponent tuple: coefficient} over an ordered universe."""

    vars: tuple[str, ...]
    terms: Mapping[Exponents, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "terms", dict(self.terms))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str] = ()) -> "Polynomial":
        return Polynomial(tuple(vars), {})

    @staticmethod
    def constant(c, vars: Sequence[str] = ()) -> "Polynomial":
        c = _as_fraction(c)
        if c == 0:
            return Polynomial.zero(vars)
        return Polynomial(tuple(vars), {(0,) * len(vars): c})

    @staticmethod
    def variable(name: str, vars: Sequence[str]) -> "Polynomial":
        vars = tuple(vars)
        expo = [0] * len(vars)
        expo[vars.index(name)] = 1
        return Polynomial(vars, {tuple(expo): Fraction(1)})

    @staticmethod
    def from_map(vars: Sequence[str], terms: Mapping[Exponents, Fraction]) -> "Polynomial":
        clean = {m: _as_fraction(c) for m, c in terms.items() if c != 0}
        return Polynomial(tuple(vars), clean)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[(0,) * len(self.vars)]

    def support(self) -> set[str]:
        """Variables that actually occur with a nonzero exponent."""
        out: set[str] = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    out.add(self.vars[i])
        return out

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((m[i] for m in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coefficient_map(self, name: str) -> dict[int, "Polynomial"]:
        """Split into {exponent of `name`: coefficient polynomial}."""
        i = self.vars.index(name) if name in self.vars else None
        if i is None:
            return {0: self}
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            rest = mono[:i] + (0,) + mono[i + 1:]
            buckets.setdefault(e, {})[rest] = buckets.get(e, {}).get(rest, Fraction(0)) + c
        return {e: Polynomial.from_map(self.vars, t) for e, t in buckets.items()}

    def restrict(self, vars: Sequence[str]) -> "Polynomial":
        """Re-express over a (super- or sub-)universe containing the support."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        idx = {v: i for i, v in enumerate(vars)}
        terms: dict[Exponents, Fraction] = {}
        for mono, c in self.terms.items():
            new = [0] * len(vars)
            for i, e in enumerate(mono):
                if e:
                    v = self.vars[i]
                    if v not in idx:
                        raise ValueError(f"variable {v} not in target universe")
                    new[idx[v]] = e
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + c
        return Polynomial.from_map(vars, terms)

    def _canonical_items(self) -> frozenset:
        items = []
        for mono, c in self.terms.items():
            named = frozenset((self.vars[i], e) for i, e in enumerate(mono) if e)
            items.append((named, c))
        return frozenset(items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        return self._canonical_items() == other._canonical_items()

    def __hash__(self):
        return hash(self._canonical_items())

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if self.vars == other.vars:
            return self, other
        merged = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return self.restrict(merged), other.restrict(merged)

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.vars)
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for mono, c in b.terms.items():
            s = terms.get(mono, Fraction(0)) + c
            if s == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = s
        return Polynomial(a.vars, terms)

    def __radd__(self, other) -> "Polynomial":
        return self + other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _as_fraction(other)
            if c == 0:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars, {m: k * c for m, k in self.terms.items()})
        a, b = self._aligned(other)
        terms: dict[Exponents, Fraction] = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                s = terms.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = s
        return Polynomial(a.vars, terms)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        return self * _as_fraction(c)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for i, e in enumerate(mono):
                if e:
                    val *= _as_fraction(assignment[self.vars[i]]) ** e
            total += val
        return total

    def substitute(self, name: str, replacement: "Polynomial") -> "Polynomial":
        """Exact substitution of a variable by a polynomial (Horner in `name`)."""
        if name not in self.vars or self.degree_in(name) == 0:
            return self
        parts = self.coefficient_map(name)
        top = max(parts)
        acc = parts.get(top, Polynomial.zero(self.vars))
        for e in range(top - 1, -1, -1):
            acc = acc * replacement + parts.get(e, Polynomial.zero(self.vars))
        return acc

    # -- univariate helpers ---------------------------------------------

    def univariate_in(self) -> Optional[str]:
        sup = self.support()
        if len(sup) == 1:
            return next(iter(sup))
        return None

    def univariate_coeffs(self, name: str) -> list[Fraction]:
        """Dense coefficient list [c0, c1, ...] — requires support ⊆ {name}."""
        if not self.support() <= {name}:
            raise ValueError("not univariate")
        i = self.vars.index(name) if name in self.vars else 0
        deg = self.degree_in(name)
        coeffs = [Fraction(0)] * (deg + 1)
        for mono, c in self.terms.items():
            coeffs[mono[i] if name in self.vars else 0] += c
        return coeffs

    def derivative(self, name: str) -> "Polynomial":
        if name not in self.vars:
            return Polynomial.zero(self.vars)
        i = self.vars.index(name)
        terms: dict[Exponents, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                new = mono[:i] + (e - 1,) + mono[i + 1:]
                terms[new] = terms.get(new, Fraction(0)) + c * e
        return Polynomial.from_map(self.vars, terms)

    def __repr__(self):
        return f"Polynomial({render(self)!r})"


def poly_from_univariate(coeffs: Sequence, name: str = "x") -> Polynomial:
    terms = {(e,): _as_fraction(c) for e, c in enumerate(coeffs) if c != 0}
    return Polynomial((name,), terms)


# ---------------------------------------------------------------------------
# Term orders
# ---------------------------------------------------------------------------

class TermOrder:
    """A monomial order realized as a sort key over exponent tuples.

    Kinds: "lex", "grevlex", and "block" (eliminate one variable block
    before the other, grevlex within each block). Keys compare so that a
    larger key means a larger monomial.
    """

    def __init__(self, vars: Sequence[str], kind: str = "grevlex",
                 drop: Iterable[str] = ()):
        self.vars = tuple(vars)
        self.kind = kind
        self.drop = tuple(v for v in self.vars if v in set(drop))
        if kind == "block":
            keep = [v for v in self.vars if v not in set(self.drop)]
            self._drop_idx = [self.vars.index(v) for v in self.drop]
            self._keep_idx = [self.vars.index(v) for v in keep]
        elif kind not in ("lex", "grevlex"):
            raise ValueError(f"unknown term order kind: {kind}")

    @staticmethod
    def _grevlex_key(exps: Sequence[int]) -> tuple:
        return (sum(exps), tuple(-e for e in reversed(exps)))

    def key(self, mono: Exponents) -> tuple:
        if self.kind == "lex":
            return tuple(mono)
        if self.kind == "grevlex":
            return self._grevlex_key(mono)
        return (self._grevlex_key([mono[i] for i in self._drop_idx]),
                self._grevlex_key([mono[i] for i in self._keep_idx]))

    def leading(self, p: Polynomial) -> tuple[Exponents, Fraction]:
        if p.is_zero():
            raise ValueError("zero polynomial has no leading term")
        mono = max(p.terms, key=self.key)
        return mono, p.terms[mono]


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def _mono_times_poly(mono: Exponents, coef: Fraction, p: Polynomial) -> Polynomial:
    return Polynomial(p.vars, {monomial_mul(mono, m): c * coef for m, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Division, S-polynomials, Buchberger
# ---------------------------------------------------------------------------

def reduce_poly(f: Polynomial, basis: Sequence[Polynomial], order: TermOrder,
                ) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division: f = sum(q_i g_i) + r, no term of r divisible
    by any leading term of the basis."""
    universe = order.vars
    f = f.restrict(universe)
    gs = [g.restrict(universe) for g in basis]
    if not gs or any(g.is_zero() for g in gs):
        raise ValueError("basis must be nonempty with no zero polynomials")
    lts = [order.leading(g) for g in gs]
    quotients = [Polynomial.zero(universe) for _ in gs]
    remainder: dict[Exponents, Fraction] = {}
    work = dict(f.terms)
    while work:
        mono = max(work, key=order.key)
        coef = work[mono]
        for i, (lm, lc) in enumerate(lts):
            if monomial_divides(lm, mono):
                q_mono = monomial_div(mono, lm)
                q_coef = coef / lc
                quotients[i] = quotients[i] + Polynomial(universe, {q_mono: q_coef})
                sub = _mono_times_poly(q_mono, q_coef, gs[i])
                for m, c in sub.terms.items():
                    s = work.get(m, Fraction(0)) - c
                    if s == 0:
                        work.pop(m, None)
                    else:
                        work[m] = s
                break
        else:
            remainder[mono] = coef
            del work[mono]
    return Polynomial(universe, remainder), quotients


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """Combination cancelling the leading terms of f and g."""
    universe = order.vars
    f = f.restrict(universe)
    g = g.restrict(universe)
    (lmf, lcf), (lmg, lcg) = order.leading(f), order.leading(g)
    lcm = monomial_lcm(lmf, lmg)
    left = _mono_times_poly(monomial_div(lcm, lmf), 1 / lcf, f)
    right = _mono_times_poly(monomial_div(lcm, lmg), 1 / lcg, g)
    return left - right


@dataclass
class BuchbergerLimits:
    max_pairs: int = 200_000
    max_basis: int = 400
    deadline: Optional[float] = None  # absolute time.monotonic() value

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("basis computation exceeded deadline")


def buchberger(polys: Sequence[Polynomial], order: TermOrder,
               limits: Optional[BuchbergerLimits] = None) -> list[Polynomial]:
    """Reduced Groebner basis via Buchberger's algorithm.

    Uses the normal selection strategy (smallest pair lcm first) and both
    classic pruning criteria (coprime leading terms, chain criterion).
    """
    limits = limits or BuchbergerLimits()
    universe = order.vars
    basis: list[Polynomial] = []
    for p in polys:
        p = p.restrict(universe)
        if not p.is_zero():
            basis.append(_make_monic(p, order))
    if not basis:
        return []

    lms = [order.leading(g)[0] for g in basis]
    pairs: set[tuple[int, int]] = set()

    def add_pairs(j: int):
        for i in range(j):
            pairs.add((i, j))

    for j in range(len(basis)):
        add_pairs(j)

    processed: set[tuple[int, int]] = set()
    while pairs:
        limits.check_time()
        if len(pairs) > limits.max_pairs:
            raise ResourceLimitError("pair queue exceeded limit")
        # normal strategy: smallest lcm in the term order
        i, j = min(pairs, key=lambda ij: order.key(monomial_lcm(lms[ij[0]], lms[ij[1]])))
        pairs.discard((i, j))
        processed.add((i, j))
        lcm = monomial_lcm(lms[i], lms[j])
        # first criterion: coprime leading monomials
        if lcm == monomial_mul(lms[i], lms[j]):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in processed and b in processed:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r, _ = reduce_poly(s, basis, order)
        if not r.is_zero():
            basis.append(_make_monic(r, order))
            lms.append(order.leading(r)[0])
            if len(basis) > limits.max_basis:
                raise ResourceLimitError("basis size exceeded limit")
            add_pairs(len(basis) - 1)

    return _autoreduce(basis, order)


def _make_monic(p: Polynomial, order: TermOrder) -> Polynomial:
    _, lc = order.leading(p)
    return p if lc == 1 else p.scale(1 / lc)


def _autoreduce(basis: list[Polynomial], order: TermOrder) -> list[Polynomial]:
    # minimalize: drop polys whose leading term is divisible by another's
    lms = [order.leading(g)[0] for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if any(j != i and monomial_divides(lms[j], lms[i])
               and (not monomial_divides(lms[i], lms[j]) or j < i) for j in range(len(basis))):
            continue
        keep.append(g)
    # full autoreduction: reduce every element against the others
    reduced = list(keep)
    changed = True
    while changed:
        changed = False
        for i in range(len(reduced)):
            others = reduced[:i] + reduced[i + 1:]
            if not others:
                continue
            r, _ = reduce_poly(reduced[i], others, order)
            if r.is_zero():
                reduced.pop(i)
                changed = True
                break
            r = _make_monic(r, order)
            if r != reduced[i]:
                reduced[i] = r
                changed = True
    return sorted(reduced, key=lambda p: order.key(order.leading(p)[0]))


# ---------------------------------------------------------------------------
# Elimination ideals
# ---------------------------------------------------------------------------

def _nonzero_factor_cancel(polys: list[Polynomial], nonzero: set[str]) -> list[Polynomial]:
    """Divide out monomial factors made of provably-nonzero variables.

    A variable is provably nonzero when it is positivity-constrained, has a
    defining equation x^2 = c with c > 0, or appears in a reciprocal-style
    relation  c1 * (monomial) + c0 = 0  with rational c0, c1 != 0.
    """
    certified = set(nonzero)
    for p in polys:
        if len(p.terms) == 2:
            monos = list(p.terms)
            trivial = [m for m in monos if not any(m)]
            if len(trivial) == 1:
                other = monos[0] if monos[1] == trivial[0] else monos[1]
                sup = [p.vars[i] for i, e in enumerate(other) if e]
                # x^k = c with c/lead > 0 certifies x != 0; a 2-term relation
                # mono = c != 0 certifies every variable of the monomial.
                certified.update(sup)
    out = []
    for p in polys:
        if p.is_zero():
            continue
        common = None
        for mono in p.terms:
            common = mono if common is None else tuple(min(a, b) for a, b in zip(common, mono))
        if common and any(common):
            strip = tuple(e if p.vars[i] in certified else 0
                          for i, e in enumerate(common))
            if any(strip):
                p = Polynomial(p.vars, {monomial_div(m, strip): c for m, c in p.terms.items()})
        out.append(p)
    return out


def _linear_drop_pass(current: list[Polynomial], remaining: set[str],
                      nonzero: set[str]) -> list[Polynomial]:
    """Eliminate drop variables occurring linearly with a rational
    coefficient by direct substitution (the quotient by a polynomial linear
    in x is an isomorphism, so the elimination ideal is preserved)."""
    changed = True
    while changed:
        changed = False
        current[:] = [p for p in _nonzero_factor_cancel(current, nonzero)
                      if not p.is_zero()]
        for i, p in enumerate(current):
            for v in sorted(p.support() & remaining):
                parts = p.coefficient_map(v)
                if max(parts) != 1:
                    continue
                coeff = parts[1]
                if not coeff.is_constant() or coeff.is_zero():
                    continue
                rest = parts.get(0, Polynomial.zero(p.vars))
                replacement = rest * (Fraction(-1) / coeff.constant_value())
                del current[i]
                current[:] = [q.substitute(v, replacement) for q in current]
                remaining.discard(v)
                changed = True
                break
            if changed:
                break
    return current


def eliminate(polys: Sequence[Polynomial], drop: Iterable[str],
              limits: Optional[BuchbergerLimits] = None,
              nonzero: Iterable[str] = ()) -> list[Polynomial]:
    """Generators of <polys> ∩ k[vars − drop], via stepwise block elimination.

    Variables are dropped one at a time (each step is a block-order Groebner
    basis over only the involved polynomials), which keeps the intermediate
    bases small; the final ideal is the same as a single block elimination.
    Drop variables that appear linearly with a rational coefficient are
    substituted out directly, and monomial factors that are provably nonzero
    (positive lengths, x^2 = c > 0 definitions, reciprocal relations) are
    cancelled between rounds.
    """
    limits = limits or BuchbergerLimits()
    drop = set(drop)
    universe: list[str] = []
    for p in polys:
        for v in p.vars:
            if v not in universe:
                universe.append(v)
    drop = drop & set(universe)
    nonzero = set(nonzero)
    current = [p for p in polys if not p.is_zero()]
    remaining = set(drop)
    current = _linear_drop_pass(current, remaining, nonzero)
    while remaining:
        limits.check_time()
        # cheapest variable first: fewest occurrences, then lowest max degree
        def cost(v: str):
            occ = sum(1 for p in current if v in p.support())
            deg = max((p.degree_in(v) for p in current), default=0)
            return (occ, deg)
        v = min(sorted(remaining), key=cost)
        remaining.discard(v)
        if not any(v in p.support() for p in current):
            continue
        # work over the small universe actually present
        active: list[str] = []
        for p in current:
            for w in sorted(p.support()):
                if w not in active:
                    active.append(w)
        order = TermOrder(active, "block", drop=[v])
        basis = buchberger([p.restrict(active) for p in current], order, limits)
        current = [p for p in basis if v not in p.support()]
        current = _linear_drop_pass(current, remaining, nonzero)
        if any(p.is_constant() and not p.is_zero() for p in current):
            # unit ideal: nothing else to learn
            keep = [w for w in universe if w not in drop]
            return [Polynomial.constant(1, keep)]
    keep = [w for w in universe if w not in drop]
    return [p.restrict(keep) for p in current]


# ---------------------------------------------------------------------------
# Text rendering and parsing (the wire format)
# ---------------------------------------------------------------------------

def _render_coef(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def render(p: Polynomial) -> str:
    """Canonical text form: integer/rational coefficients, `*`, `^`.

    Terms are emitted in descending graded order with later universe
    variables ranked higher, e.g. "2*v14*v8-1".
    """
    if p.is_zero():
        return "0"
    n = len(p.vars)

    def mono_key(m: Exponents):
        return (sum(m), tuple(m[i] for i in range(n - 1, -1, -1)))

    parts: list[str] = []
    for mono in sorted(p.terms, key=mono_key, reverse=True):
        c = p.terms[mono]
        factors = []
        for i in range(n - 1, -1, -1):
            e = mono[i]
            if e == 1:
                factors.append(p.vars[i])
            elif e > 1:
                factors.append(f"{p.vars[i]}^{e}")
        mag = abs(c)
        if not factors:
            body = _render_coef(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _render_coef(mag) + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        parts.append(sign + body)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


class _Tok:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch


def parse_polynomial(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse the wire text grammar (+ - * ^ parentheses, rational literals)."""
    vars = tuple(vars)
    tok = _Tok(text)

    def parse_expr() -> Polynomial:
        node = parse_term()
        while tok.peek() in ("+", "-"):
            op = tok.take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Polynomial:
        node = parse_power()
        while True:
            ch = tok.peek()
            if ch == "*":
                tok.take()
                node = node * parse_power()
            elif ch == "/":
                tok.take()
                rhs = parse_power()
                if not rhs.is_constant() or rhs.is_zero():
                    raise PolynomialParseError("division only by nonzero constants")
                node = node * (1 / rhs.constant_value())
            else:
                return node

    def parse_power() -> Polynomial:
        if tok.peek() == "-":
            tok.take()
            return -parse_power()
        if tok.peek() == "+":
            tok.take()
            return parse_power()
        base = parse_atom()
        if tok.peek() == "^":
            tok.take()
            if tok.peek() == "^":
                raise PolynomialParseError("malformed exponent '^^'")
            if tok.peek() == "-":
                raise PolynomialParseError("negative exponents not allowed")
            digits = ""
            while tok.peek().isdigit():
                digits += tok.take()
            if not digits:
                raise PolynomialParseError("missing exponent")
            return base ** int(digits)
        return base

    def parse_atom() -> Polynomial:
        ch = tok.peek()
        if ch == "(":
            tok.take()
            node = parse_expr()
            if tok.peek() != ")":
                raise PolynomialParseError("missing ')'")
            tok.take()
            return node
        if ch.isdigit():
            digits = ""
            while tok.peek().isdigit():
                digits += tok.take()
            return Polynomial.constant(Fraction(int(digits)), vars)
        if ch.isalpha() or ch == "_":
            name = ""
            while tok.peek().isalnum() or tok.peek() == "_":
                name += tok.take()
            if name not in vars:
                raise PolynomialParseError(f"unknown variable {name!r}")
            return Polynomial.variable(name, vars)
        raise PolynomialParseError(f"unexpected character {ch!r} at {tok.pos}")

    result = parse_expr()
    if tok.peek():
        raise PolynomialParseError(f"trailing input at {tok.pos}: {text[tok.pos:]!r}")
    return result.restrict(vars)
