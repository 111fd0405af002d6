"""Generated straight-line float code for the box evaluator of one
`BoundProblem` (`bounds.py`).

`compile_stage` writes Python source for one stage of a problem's evaluator
and loads it with `exec`; nothing is generated at import. A problem compiles
each stage the first time its search needs it (`BoundProblem`), so a chart
whose root box contracts to empty compiles no box evaluation, and a chart
whose boxes are all pruned on their natural enclosure no centered form.
The generated functions work on float locals, one `lo`/`hi` pair per
interval, instead of `FI` objects. `FI.__mul__`'s sign cases, `FI.power`,
`FI.sqrt`, `FI.divide` and the outward rounding of `down`/`up` are written
out inline, and each power of a variable is computed once per function and
shared by every polynomial that uses it.

Contract: every enclosure is bit-identical to the same formula evaluated
with `FI` arithmetic, except that operations whose result is exact are not
rounded (the exact-operation rule below), so a search visits the same boxes
as an interpreter that follows the rule. Every other floating-point
operation happens in the same order, with the same rounding:

* the exact-operation rule, decided when the code is written: a product
  with a known factor of exactly 1.0 or -1.0 is the other factor or its
  negation, a product with a known factor of exactly 0.0 is the known
  [0, 0] (`ZERO`), a sum or difference with a `ZERO` second operand
  is its first operand, and the square root of a known constant is its
  float root where that root is exact (`root_of_constant`). No other
  operation is exact: a sum or product of two unknowns, a power, a square
  root, an inverse or a scale by another constant is rounded;
* a polynomial accumulates term by term in the order of its term
  dictionary, each term coefficient first; its first term x starts the
  sum as x + 0.0, which is exact and turns -0.0 into +0.0;
* quadratics are evaluated as completed squares plus a residual;
* `down`/`up` keep their special cases (NaN, infinities, +0.0/-0.0), a
  0*inf corner of a product contributes 0, a division whose divisor
  straddles zero gives no quotient, and a square root clamps a negative
  lower end to 0.0;
* an operation is folded at generation time only when all its operands
  are known constants, and then it is folded with `FI` itself (after the
  exact-operation rule); an infinite constant is written by name (`INF`,
  `NINF`);
* the gradient table works in the box's coordinates, which are those of
  the definition chain: a dimension's row is its unit vector, and the
  ratio's gradient is (gnum - r * gden) / den. A root whose radicand is a
  sum of completed squares sum(a_i L_i^2) plus a constant r >= 0 (every
  distance) has the row sum(sqrt(a_i) u_i dL_i), each direction cosine u_i
  enclosed by `float_intervals.direction_cosine` over sqrt(a_i) L_i and the
  sum of the radicand's other terms; the generated code calls that function
  as it is.
  Other roots have the row dR / (2 sqrt(R)), and a root whose lower end
  reaches 0 the whole line.

Interval endpoints are never NaN, lower ends are never +inf and upper ends
never -inf (`down`/`up` cannot return them), so the NaN test after a
product is left out where one factor is a finite nonzero constant.

The stages, each loaded into a namespace of its own:

0. hull consistency, built with the problem where it has constraints or
   sign conditions: `contract_env(ivs)`, `signs_hold(env)` and
   `NARROWERS`, one coefficient function per univariate view of a
   constraint, listed with the indices of its constraint and dimension;
1. the natural form, built at the first box or witness:
   `evaluate(ivs, prune_key)`, the definition chain, constraints, sign
   conditions and natural quotient. It returns the `BoxEval` where the box
   is excluded or `prune_key` accepts the natural enclosure, and otherwise
   the tuple of its locals that stage 2 reads;
2. the centered form, built at the first box that is not pruned:
   `centred(...)` takes that tuple and runs the centre value, gradient table
   and centered-form iterations. Its source is written by the generator
   run through stage 1 again, so both stages name the same values alike.

`mul`, the product of two intervals of unknown signs, is the same for
every problem and is compiled once per process.
"""

from __future__ import annotations

import functools
import keyword
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .float_intervals import (FI, INF, direction_cosine, down, one_sided_quotient,
                              root_of_constant, up)
from .polynomials import Polynomial


@dataclass
class BoxEval:
    status: str                  # "feasible" | "infeasible" | "indeterminate"
    env: Optional[list[FI]] = None
    ratio: Optional[FI] = None
    grads: Optional[list[FI]] = None   # d(ratio)/d(param) over the box
    sign_active: frozenset = frozenset()   # dims in undecided sign conditions


def complete_squares(poly: Polynomial) -> tuple[list[tuple[FI, Polynomial]], Polynomial]:
    """A quadratic as sum(a_i * linear_i^2) + residual: completing squares
    keeps distance-squared radicands tight where the expanded form
    straddles zero (e.g. (x-1)^2 + y^2 near (1, 0))."""
    rest = poly
    squares: list[tuple[FI, Polynomial]] = []
    for v in sorted(poly.support()):
        parts = rest.coefficient_map(v)
        if parts.get(2) is None or not parts[2].is_constant():
            continue
        a = parts[2].constant_value()
        if a <= 0 or max(parts) > 2:
            continue
        lin = parts.get(1, Polynomial.zero(rest.vars))
        if v in lin.support() or lin.total_degree() > 1:
            continue
        # a*(v + lin/(2a))^2 ; the correction re-expands exactly
        shift = lin * (Fraction(1, 2) / a)
        form = Polynomial.variable(v, rest.vars) + shift
        rest = rest - (form * form) * a
        squares.append((FI.from_fraction(a), form))
    return squares, rest


# ---------------------------------------------------------------------------
# emitting one function
# ---------------------------------------------------------------------------

class V:
    """An interval operand: each end a local name or a known float. `pos`
    records that the lower end is +0.0 or above (never -0.0): then
    `lo >= 0.0` holds, and sums and products of such operands keep it."""

    __slots__ = ("lo", "hi", "pos")

    def __init__(self, lo, hi, pos: bool = False):
        self.lo, self.hi = lo, hi
        lo_known = not isinstance(lo, str)
        self.pos = pos or (lo_known and (lo > 0.0 or (lo == 0.0 and math.copysign(1.0, lo) > 0)))

    @property
    def known(self) -> bool:
        return not isinstance(self.lo, str) and not isinstance(self.hi, str)

    def fi(self) -> FI:
        return FI(self.lo, self.hi)

    def source(self) -> str:
        return f"FI({_lit(self.lo)}, {_lit(self.hi)})"


def _known(x: FI) -> V:
    return V(x.lo, x.hi)


ZERO = V(0.0, 0.0)
ONE = V(1.0, 1.0)
WHOLE = V(-INF, INF)


def _lit(x) -> str:
    if isinstance(x, str):
        return x
    if x == INF:
        return "INF"
    if x == -INF:
        return "NINF"
    return repr(x)


def _is_zero(v: V) -> bool:
    return v.known and v.lo == 0.0 == v.hi


def _unit(v: V):
    """1.0 or -1.0 for a known point interval of that value, else None."""
    if v.known and v.lo == v.hi and v.lo in (1.0, -1.0):
        return v.lo
    return None


def _finite_nonzero(v: V) -> bool:
    return v.known and all(math.isfinite(x) and x != 0.0 for x in (v.lo, v.hi))


def _product(x, y) -> str:
    return f"{_lit(x)} * {_lit(y)}"


def _cmp(x, op: str, y: float = 0.0):
    """`x op y` decided now when x is a known float, else as source."""
    if isinstance(x, str):
        return f"{x} {op} {_lit(y)}"
    return {"<=": x <= y, ">=": x >= y, "==": x == y, "<": x < y}[op]


def _straddles(v: V):
    if v.known:
        return v.lo <= 0.0 <= v.hi
    return f"{_lit(v.lo)} <= 0.0 <= {_lit(v.hi)}"


def _not(cond):
    return (not cond) if isinstance(cond, bool) else f"not ({cond})"


def _any(*conds):
    if any(c is True for c in conds):
        return True
    rest = [f"({c})" for c in conds if c is not False]
    return " or ".join(rest) if rest else False


def _decide(facts: dict, x, op: str, then, other):
    """A decision tree on `x op 0.0` (op '>=' or '<='). `then` and `other`
    build the two subtrees from the facts that hold on each side; a test
    whose outcome is known, from a constant or from the facts, is left out,
    and so is a test whose two subtrees are equal."""
    known = facts.get((x, op)) if isinstance(x, str) else _cmp(x, op)
    if known is True:
        return then(facts)
    if known is False:
        return other(facts)
    yes = then({**facts, (x, op): True})
    flip = "<=" if op == ">=" else ">="
    no = other({**facts, (x, op): False, (x, flip): True})
    return yes if yes == no else ("if", f"{x} {op} 0.0", yes, no)


PIECE_LINES = 60

# the helpers the generated code reads from its namespace; `compile_stage`
# adds `mul` and `SD`, the problem's sign-condition dims
_HELPERS = {
    "FI": FI, "BoxEval": BoxEval, "one_sided": one_sided_quotient,
    "INF": INF, "NINF": -INF, "nextafter": math.nextafter,
    "copysign": math.copysign, "sqrt": math.sqrt, "EMPTY": frozenset(),
    "cosine": direction_cosine,
}
# generated functions that others call
_CALLEES = frozenset(("mul", "centre"))
# names a piece never passes on to the next: the namespace's and keywords
_GLOBALS = _CALLEES | _HELPERS.keys() | {"SD"} | frozenset(keyword.kwlist)
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_DEF = re.compile(r"^def (\w+)\(", re.M)
_QUOTED = re.compile(r"'[^']*'")


def _names(text: str) -> set[str]:
    """Identifiers of generated lines, outside string literals and
    attribute names."""
    if "'" in text:
        text = _QUOTED.sub("", text)
    return set(_NAME.findall(text))


def product_source() -> str:
    """`mul(a, b, c, d)`: FI.__mul__ on floats, emitted like every inline
    product, for the products whose operand signs are both unknown."""
    f = Emitter("def mul(a, b, c, d):", shared_product=False)
    r = f.mul(V("a", "b"), V("c", "d"))
    f.emit(f"return {r.lo}, {r.hi}")
    return f.source()


class Emitter:
    """The lines of one generated function, fresh local names, and a
    scoped cache of values computed on every path to the current line."""

    def __init__(self, header: str, shared_product: bool = True):
        self.shared_product = shared_product
        self.lines = [header]
        self.depth = 1
        self.count = 0
        self.scopes: list[dict] = [{}]

    def fresh(self) -> str:
        self.count += 1
        return f"t{self.count}"

    def pair(self) -> tuple[str, str]:
        return (self.fresh(), self.fresh())

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    @contextmanager
    def block(self, header: str):
        self.emit(header)
        self.depth += 1
        self.scopes.append(dict(self.scopes[-1]))
        start = len(self.lines)
        try:
            yield
        finally:
            if len(self.lines) == start:
                self.emit("pass")
            self.scopes.pop()
            self.depth -= 1

    def branch(self, cond, then, other=None) -> None:
        """`then()` where cond holds, `other()` elsewhere; a known cond
        emits one side only."""
        if cond is True:
            then()
        elif cond is False:
            if other is not None:
                other()
        else:
            with self.block(f"if {cond}:"):
                then()
            if other is not None:
                with self.block("else:"):
                    other()

    def tree(self, node, leaf, keyword: str = "if") -> None:
        """Emit a decision tree from `_decide`, `leaf(node)` at the leaves."""
        if node[0] != "if":
            leaf(node)
            return
        _, cond, then, other = node
        with self.block(f"{keyword} {cond}:"):
            self.tree(then, leaf)
        if other[0] == "if":
            self.tree(other, leaf, keyword="elif")
        else:
            with self.block("else:"):
                self.tree(other, leaf)

    def lookup(self, key):
        return self.scopes[-1].get(key)

    def remember(self, key, value) -> None:
        self.scopes[-1][key] = value

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def pieces(self) -> list[str]:
        """The function as pieces of at most about `PIECE_LINES` lines, cut
        between top-level statements, in the order they must be defined
        (the last first); each piece ends by returning the call of the next
        one with the locals the later pieces read.

        Parsing takes memory in proportion to the source being parsed (2 to
        10 kB a line here), and a process's peak memory includes its largest
        parse, so pieces bound it. A piece binds the names it passes on but
        did not receive to None on entry: a piece reads a local only where
        the whole function would have assigned it, so no None is read.
        Generated functions that a piece calls are bound as defaults, so
        the namespace need not hold them (see `compile_stage`)."""
        header, body = self.lines[0], self.lines[1:]
        units: list[list[str]] = []
        for line in body:
            top = not line.startswith("        ") and not line.lstrip().startswith(("elif", "else"))
            if top or not units:
                units.append([])
            units[-1].append(line)
        chunks: list[list[str]] = [[]]
        for unit in units:
            if chunks[-1] and len(chunks[-1]) + len(unit) > PIECE_LINES:
                chunks.append([])
            chunks[-1].extend(unit)
        name = header[4:header.index("(")]
        params = _names(header[header.index("("):])
        used = [_names("\n".join(chunk)) for chunk in chunks]
        passed, seen = [], set(params)
        for k in range(1, len(chunks)):
            seen |= used[k - 1]
            later = set().union(*used[k:])
            passed.append(sorted((later & seen) - _GLOBALS))
        out = []
        for k, chunk in enumerate(chunks):
            last = k + 1 == len(chunks)
            received = params if k == 0 else set(passed[k - 1])
            head = header if k == 0 else f"def {name}_{k}({', '.join(passed[k - 1])}):"
            callees = sorted(used[k] & _CALLEES) + ([] if last else [f"{name}_{k + 1}"])
            if callees:
                head = head[:-2] + (", " if head[-3] != "(" else "") + \
                    ", ".join(f"{c}={c}" for c in callees) + "):"
            lines = [head]
            bound = [] if last else sorted(set(passed[k]) - received)
            if bound:
                lines.append("    " + " = ".join(bound) + " = None")
            lines += chunk
            if not last:
                lines.append(f"    return {name}_{k + 1}({', '.join(passed[k])})")
            out.append("\n".join(lines) + "\n")
        return out[::-1]

    # -- rounding ----------------------------------------------------------

    def down(self, x: str, maybe_nan: bool = False, value: str = "") -> None:
        """x = down(value), value defaulting to x; a value is computed into
        x first."""
        self._round(x, "NINF", "<", maybe_nan, value)

    def up(self, x: str, maybe_nan: bool = False, value: str = "") -> None:
        self._round(x, "INF", ">", maybe_nan, value)

    def _round(self, x: str, toward: str, zero_sign: str, maybe_nan: bool,
               value: str) -> None:
        if value:
            self.emit(f"{x} = {value}")
        # a zero is moved only when its sign points the rounding's way
        expr = f"nextafter({x}, {toward}) if {x} or copysign(1.0, {x}) {zero_sign} 0 else 0.0"
        if maybe_nan:
            expr = f"({expr}) if {x} == {x} else {toward}"
        self.emit(f"{x} = {expr}")

    # -- interval operations, each as FI does it ---------------------------

    def _out(self, v: V, into) -> V:
        if into is None:
            return v
        self.assign(into, v)
        return V(into[0], into[1], v.pos)

    def assign(self, into, v: V) -> None:
        self.emit(f"{into[0]} = {_lit(v.lo)}")
        self.emit(f"{into[1]} = {_lit(v.hi)}")

    def neg(self, v: V, into=None) -> V:
        """-v, which is exact."""
        if v.known:
            return self._out(V(-v.hi, -v.lo), into)
        lo, hi = into or self.pair()
        self.emit(f"{lo} = -{_lit(v.hi)}")
        self.emit(f"{hi} = -{_lit(v.lo)}")
        return V(lo, hi)

    def add(self, a: V, b: V, into=None) -> V:
        if _is_zero(b):
            return self._out(a, into)
        if a.known and b.known:
            return self._out(_known(a.fi() + b.fi()), into)
        lo, hi = into or self.pair()
        self.emit(f"{lo} = {_lit(a.lo)} + {_lit(b.lo)}")
        self.down(lo, maybe_nan=True)
        self.emit(f"{hi} = {_lit(a.hi)} + {_lit(b.hi)}")
        self.up(hi, maybe_nan=True)
        return V(lo, hi, a.pos and b.pos)

    def start_sum(self, term: V) -> V:
        """The first term of a sum as term + 0.0: exact, and -0.0 becomes
        +0.0."""
        if term.known:
            return _known(FI(term.lo + 0.0, term.hi + 0.0))
        lo, hi = self.pair()
        self.emit(f"{lo} = {term.lo} + 0.0")
        self.emit(f"{hi} = {term.hi} + 0.0")
        return V(lo, hi, term.pos)

    def sub(self, a: V, b: V, into=None) -> V:
        if _is_zero(b):
            return self._out(a, into)
        if a.known and b.known:
            return self._out(_known(a.fi() - b.fi()), into)
        lo, hi = into or self.pair()
        self.emit(f"{lo} = {_lit(a.lo)} - {_lit(b.hi)}")
        self.down(lo, maybe_nan=True)
        self.emit(f"{hi} = {_lit(a.hi)} - {_lit(b.lo)}")
        self.up(hi, maybe_nan=True)
        return V(lo, hi)

    def mul(self, x: V, y: V, into=None) -> V:
        if _is_zero(x) or _is_zero(y):
            return self._out(ZERO, into)
        for p, q in ((x, y), (y, x)):
            unit = _unit(p)
            if unit is not None:
                return self._out(q, into) if unit > 0 else self.neg(q, into)
        if x.known and y.known:
            return self._out(_known(x.fi() * y.fi()), into)
        a, b, c, d = x.lo, x.hi, y.lo, y.hi
        facts = {}
        for v in (x, y):
            if v.pos and isinstance(v.lo, str):
                facts[(v.lo, ">=")] = True

        def leaf(p, q):
            return ("leaf", _product(*p), _product(*q))

        def by_y(facts, pos, neg, mixed):
            return _decide(facts, c, ">=", lambda f: pos,
                           lambda f: _decide(f, d, "<=", lambda g: neg, lambda g: mixed))

        tree = _decide(
            facts, a, ">=",
            lambda f: by_y(f, leaf((a, c), (b, d)), leaf((b, c), (a, d)),
                           leaf((b, c), (b, d))),
            lambda f: _decide(
                f, b, "<=",
                lambda g: by_y(g, leaf((a, d), (b, c)), leaf((b, d), (a, c)),
                               leaf((a, d), (a, c))),
                lambda g: by_y(g, leaf((a, d), (b, d)), leaf((b, c), (a, c)),
                               ("minmax",))))
        lo, hi = into or self.pair()
        if self.shared_product and tree[0] != "leaf":
            # the corners depend on signs known only at run time: one call
            # keeps the generated code small (inlining them measured no
            # faster and a quarter slower to compile)
            self.emit(f"{lo}, {hi} = mul({_lit(a)}, {_lit(b)}, {_lit(c)}, {_lit(d)})")
            return V(lo, hi, x.pos and y.pos)
        if tree[0] == "leaf" and (_finite_nonzero(x) or _finite_nonzero(y)):
            # one corner, never NaN: round straight from the product
            self.down(lo, value=tree[1])
            self.up(hi, value=tree[2])
            return V(lo, hi, x.pos and y.pos)

        def emit_leaf(node):
            if node[0] == "leaf":
                self.emit(f"{lo} = {node[1]}")
                self.emit(f"{hi} = {node[2]}")
                return
            p, q = self.pair()
            self.emit(f"{p} = {_product(a, d)}")
            self.emit(f"{q} = {_product(b, c)}")
            self.emit(f"{lo} = {p} if {p} < {q} else {q}")
            self.emit(f"{p} = {_product(a, c)}")
            self.emit(f"{q} = {_product(b, d)}")
            self.emit(f"{hi} = {p} if {p} > {q} else {q}")

        self.tree(tree, emit_leaf)
        if not (_finite_nonzero(x) or _finite_nonzero(y)):
            # 0 * inf at a chosen corner: that corner contributes 0
            self.emit(f"if {lo} != {lo}: {lo} = 0.0")
            self.emit(f"if {hi} != {hi}: {hi} = 0.0")
        self.down(lo)
        self.up(hi)
        return V(lo, hi, x.pos and y.pos)

    def power(self, v: V, n: int) -> V:
        if n == 0:
            return ONE
        if n == 1:
            return v
        if v.known:
            return _known(v.fi().power(n))
        a, b = _lit(v.lo), _lit(v.hi)
        lo, hi = self.pair()
        if n % 2:
            self.emit(f"{lo} = {a} ** {n}")
            self.emit(f"{hi} = {b} ** {n}")
        else:
            facts = {(v.lo, ">="): True} if v.pos else {}
            tree = _decide(facts, v.lo, ">=", lambda f: ("leaf", a, b),
                           lambda f: _decide(f, v.hi, "<=", lambda g: ("leaf", b, a),
                                             lambda g: ("even",)))

            def emit_leaf(node):
                if node[0] == "leaf":
                    self.emit(f"{lo} = {node[1]} ** {n}")
                    self.emit(f"{hi} = {node[2]} ** {n}")
                    return
                # straddles zero: [0, max]; down(0.0) below keeps the 0.0
                p, q = self.pair()
                self.emit(f"{p} = {a} ** {n}")
                self.emit(f"{q} = {b} ** {n}")
                self.emit(f"{lo} = 0.0")
                self.emit(f"{hi} = {q} if {q} > {p} else {p}")

            self.tree(tree, emit_leaf)
        self.down(lo)
        self.up(hi)
        return V(lo, hi, n % 2 == 0 or v.pos)

    def inverse(self, v: V) -> V:
        """[1/hi, 1/lo] outward, for a divisor that does not straddle zero."""
        if v.known:
            return V(down(1.0 / v.hi), up(1.0 / v.lo))
        lo, hi = self.pair()
        self.emit(f"{lo} = 1.0 / {_lit(v.hi)}")
        self.down(lo)
        self.emit(f"{hi} = 1.0 / {_lit(v.lo)}")
        self.up(hi)
        return V(lo, hi, v.pos)

    def scale(self, v: V, c: float) -> V:
        if v.known:
            return _known(v.fi().scale(c))
        lo, hi = self.pair()
        first, second = (v.lo, v.hi) if c >= 0 else (v.hi, v.lo)
        self.emit(f"{lo} = {_product(first, c)}")
        self.down(lo)
        self.emit(f"{hi} = {_product(second, c)}")
        self.up(hi)
        return V(lo, hi, v.pos and c >= 0)

    def cosine(self, w: V, q: V) -> V:
        """`direction_cosine` of w over q, called as it is."""
        if w.known and q.known:
            return _known(FI(*direction_cosine(w.lo, w.hi, q.lo, q.hi)))
        lo, hi = self.pair()
        self.emit(f"{lo}, {hi} = cosine({_lit(w.lo)}, {_lit(w.hi)}, {_lit(q.lo)}, {_lit(q.hi)})")
        return V(lo, hi)

    def sqrt(self, v: V) -> V:
        """For a radicand whose upper end is >= 0."""
        if v.known:
            return _known(v.fi().sqrt())
        a, b = _lit(v.lo), _lit(v.hi)
        lo, hi = self.pair()
        self.emit(f"{lo} = nextafter(sqrt({a}), NINF) if {a} > 0.0 else 0.0")
        self.emit(f"{hi} = sqrt({b})")
        self.up(hi)
        return V(lo, hi, True)


# ---------------------------------------------------------------------------
# the functions of one problem
# ---------------------------------------------------------------------------

class _Env:
    """Slot values of one evaluation point: the box, its centre, or an
    environment handed in as a flat list."""

    def __init__(self, key: str):
        self.key = key
        self.slots: dict[int, V] = {}
        # quotient definitions: slot -> (divisor, whether it may still be None)
        self.dens: dict[int, tuple] = {}

    def source(self) -> str:
        return "[" + ", ".join(v.source() for _, v in sorted(self.slots.items())) + "]"


class _Generator:
    def __init__(self, problem):
        self.problem = problem
        self.index = problem.var_index
        self.n = problem.n_dims
        self.n_slots = len(problem.var_index)
        self.squares: dict = {}
        self.partials: dict = {}

    def narrow_views(self) -> list[tuple[int, int, dict[int, Polynomial]]]:
        """Each constraint as univariate, degree <= 2, in each dimension:
        (constraint index, dimension index, coefficients)."""
        dim_ix = {d.var: i for i, d in enumerate(self.problem.dims)}
        out = []
        for c, p in enumerate(self.problem.constraints):
            for var in sorted(p.support()):
                if var not in dim_ix:
                    continue
                parts = p.coefficient_map(var)
                if max(parts) > 2 or any(var in cp.support() for cp in parts.values()):
                    continue
                out.append((c, dim_ix[var], parts))
        return out

    def partials_of(self, p: Polynomial) -> dict[str, Polynomial]:
        key = (p.vars, tuple(p.terms.items()))
        if key not in self.partials:
            self.partials[key] = {v: p.derivative(v) for v in sorted(p.support())}
        return self.partials[key]

    # -- polynomials -------------------------------------------------------

    @staticmethod
    def accumulate(f: Emitter, total: V, term: V) -> V:
        """total + term for a product `term`; the sum starts at its first
        term that is not `ZERO`."""
        if _is_zero(total) and not _is_zero(term):
            return f.start_sum(term)
        return f.add(total, term)

    def poly(self, f: Emitter, env: _Env, p: Polynomial, quad: bool = False) -> V:
        """Value of p; a total-degree-2 p with quad=True as completed
        squares plus residual."""
        quad = quad and p.total_degree() == 2
        key = (p.vars, tuple(p.terms.items()))
        hit = f.lookup(("poly", env.key, quad, key))
        if hit is not None:
            return hit
        if quad:
            squares, residual = self.completed(p)
            total = self.poly(f, env, residual)
            for a, form in squares:
                total = self.accumulate(f, total, self.square_term(f, env, a, form)[1])
        else:
            total = ZERO
            for mono, coef in p.terms.items():
                term = _known(FI.from_fraction(coef))
                for i, e in enumerate(mono):
                    if e:
                        term = f.mul(term, self.power_of(f, env, self.index[p.vars[i]], e))
                total = self.accumulate(f, total, term)
        f.remember(("poly", env.key, quad, key), total)
        return total

    def completed(self, p: Polynomial) -> tuple[list[tuple[FI, Polynomial]], Polynomial]:
        """`complete_squares(p)`, computed once per problem."""
        key = (p.vars, tuple(p.terms.items()))
        if key not in self.squares:
            self.squares[key] = complete_squares(p)
        return self.squares[key]

    def square_term(self, f: Emitter, env: _Env, a: FI, form: Polynomial) -> tuple[V, V]:
        """A completed square's linear form and a * form^2."""
        key = ("square", env.key, a.lo, a.hi, form.vars, tuple(form.terms.items()))
        hit = f.lookup(key)
        if hit is None:
            lin = self.poly(f, env, form)
            hit = (lin, f.mul(_known(a), f.power(lin, 2)))
            f.remember(key, hit)
        return hit

    def power_of(self, f: Emitter, env: _Env, slot: int, e: int) -> V:
        if e == 1:
            return env.slots[slot]
        key = ("pow", env.key, slot, e)
        hit = f.lookup(key)
        if hit is None:
            hit = f.power(env.slots[slot], e)
            f.remember(key, hit)
        return hit

    # -- environments --------------------------------------------------------

    def load_box(self, f: Emitter, points: bool = False) -> list[V]:
        """Parameter intervals from `ivs`, or centre coordinates c0, c1, ...
        (point intervals) when `points`."""
        if points:
            return [V(f"c{i}", f"c{i}") for i in range(self.n)]
        out = []
        for i in range(self.n):
            f.emit(f"s{i}l = ivs[{i}].lo")
            f.emit(f"s{i}h = ivs[{i}].hi")
            out.append(V(f"s{i}l", f"s{i}h"))
        return out

    def load_flat(self, f: Emitter) -> _Env:
        env = _Env("flat")
        for k in range(self.n_slots):
            f.emit(f"x{k}l = e[{2 * k}]")
            f.emit(f"x{k}h = e[{2 * k + 1}]")
            env.slots[k] = V(f"x{k}l", f"x{k}h")
        return env

    def build_env(self, f: Emitter, box: list[V], key: str,
                  on_infeasible: str, on_indeterminate: str) -> _Env:
        """The definition chain over the box, in topological order. A
        square root of a radicand below zero runs `on_infeasible`; a
        quotient with a straddling divisor runs `on_indeterminate` and is
        the whole line."""
        env = _Env(key)
        env.slots.update(enumerate(box))
        for d in self.problem.defs:
            slot = self.index[d.var]
            if hasattr(d, "radicand"):
                rad = self.poly(f, env, d.radicand, quad=True)
                f.branch(_cmp(rad.hi, "<"), lambda: f.emit(on_infeasible))
                dead = rad.known and rad.hi < 0.0
                env.slots[slot] = WHOLE if dead else f.sqrt(rad)
            else:
                env.slots[slot] = self.quotient_def(f, env, d, slot, on_indeterminate)
        return env

    def quotient_def(self, f: Emitter, env: _Env, d, slot: int,
                     on_indeterminate: str) -> V:
        n = self.poly(f, env, d.num)
        if n.known and n.lo == 0.0 == n.hi:
            # an identically-zero numerator: the value is 0 wherever the
            # figure is nondegenerate (the denominator vanishes only at
            # degeneracies)
            return ZERO
        out = f.pair()
        hoist = n.known or not self.new_powers(f, env, d.den)
        den_at = self.poly(f, env, d.den) if hoist else f.pair()

        def quotient():
            den = den_at if hoist else self.poly(f, env, d.den)
            if not hoist:
                f.assign(den_at, den)

            def whole():
                f.emit(on_indeterminate)
                f.assign(out, WHOLE)

            f.branch(_straddles(den), whole,
                     lambda: f.mul(n, f.inverse(den), into=out))

        if n.known:
            quotient()
        else:
            # FI evaluates the divisor only for a nonzero numerator; it is
            # evaluated before the test only when that takes no new power
            # (plain float products and sums cannot raise). Otherwise the
            # gradient table evaluates it where it is still None.
            if not hoist:
                f.emit(f"{den_at[0]} = {den_at[1]} = None")
            f.branch(f"{n.lo} == 0.0 == {n.hi}", lambda: f.assign(out, ZERO), quotient)
        env.dens[slot] = (den_at, not hoist)
        return V(*out)

    def new_powers(self, f: Emitter, env: _Env, p: Polynomial) -> bool:
        """Whether evaluating p computes a power not computed yet."""
        return any(e > 1 and f.lookup(("pow", env.key, self.index[p.vars[i]], e)) is None
                   for mono in p.terms for i, e in enumerate(mono))

    # -- gradients -----------------------------------------------------------

    def poly_grad(self, f: Emitter, env: _Env, rows: dict, parts: dict) -> list[V]:
        out = [ZERO] * self.n
        for vname, dp in parts.items():
            slot = self.index[vname]
            coeff = self.poly(f, env, dp)
            for j in range(self.n):
                out[j] = self.accumulate(f, out[j], f.mul(coeff, rows[slot][j]))
        return out

    def grad_table(self, f: Emitter, env: _Env) -> tuple[list[V], list[V]]:
        """Gradient rows of every dimension and definition over the box;
        returns the objective numerator and denominator gradients."""
        rows: dict[int, list[V]] = {}
        for i in range(self.n):
            row = [ZERO] * self.n
            row[i] = ONE
            rows[i] = row
        for d in self.problem.defs:
            slot = self.index[d.var]
            names = [f.pair() for _ in range(self.n)]
            if hasattr(d, "radicand"):
                self.sqrt_row(f, env, rows, d, slot, names)
            else:
                self.quotient_row(f, env, rows, d, slot, names)
            rows[slot] = [V(*name) for name in names]
        gnum = self.poly_grad(f, env, rows, self.partials_of(self.problem.obj_num))
        gden = self.poly_grad(f, env, rows, self.partials_of(self.problem.obj_den))
        return gnum, gden

    @staticmethod
    def fill(f: Emitter, names: list, value: V) -> None:
        for name in names:
            f.assign(name, value)

    def cosine_form(self, radicand: Polynomial):
        """The completed squares and residual of a radicand sum(a_i L_i^2) + r
        with r a constant >= 0 (every distance), else None; every a_i > 0."""
        if radicand.total_degree() != 2:
            return None
        squares, residual = self.completed(radicand)
        if not squares or not residual.is_constant() or residual.constant_value() < 0:
            return None
        return squares, residual

    def sqrt_row(self, f: Emitter, env: _Env, rows: dict, d, slot: int, names: list) -> None:
        # d sqrt(R) = dR / (2 sqrt(R)), or by direction cosines for a sum of
        # squares; the whole line where the root reaches 0
        root = env.slots[slot]
        cosines = self.cosine_form(d.radicand)

        def derivative():
            if cosines is not None:
                self.cosine_row(f, env, rows, *cosines, names)
                return
            base = self.poly_grad(f, env, rows, self.partials_of(d.radicand))
            two_root = f.scale(root, 2.0)

            def divide():
                inv = f.inverse(two_root)
                for j, name in enumerate(names):
                    f.mul(base[j], inv, into=name)

            f.branch(_straddles(two_root), lambda: self.fill(f, names, WHOLE), divide)

        f.branch(_cmp(root.lo, "<="), lambda: self.fill(f, names, WHOLE), derivative)

    def cosine_row(self, f: Emitter, env: _Env, rows: dict, squares: list,
                   residual: Polynomial, names: list) -> None:
        """d sqrt(R) = sum(sqrt(a_i) u_i dL_i) with u_i = sqrt(a_i) L_i / sqrt(R),
        enclosed by `direction_cosine` over sqrt(a_i) L_i and the rest of R.
        Where L_i keeps one sign and the rest of R reaches 0, u_i is -1 or 1,
        so distances along a line have exact unit derivatives."""
        terms = [self.square_term(f, env, a, form) for a, form in squares]
        out = [ZERO] * self.n
        for i, (a, form) in enumerate(squares):
            rest = self.poly(f, env, residual)
            for k, (_, term) in enumerate(terms):
                if k != i:
                    rest = self.accumulate(f, rest, term)
            root_a = _known(root_of_constant(a))
            u = f.cosine(f.mul(root_a, terms[i][0]), rest)
            weight = f.mul(root_a, u)
            dform = self.poly_grad(f, env, rows, self.partials_of(form))
            for j in range(self.n):
                out[j] = self.accumulate(f, out[j], f.mul(weight, dform[j]))
        for name, v in zip(names, out):
            f.assign(name, v)

    def quotient_row(self, f: Emitter, env: _Env, rows: dict, d, slot: int,
                     names: list) -> None:
        # d(N/D) = (dN - v dD) / D; zero for a constant N at v = 0, the whole
        # line where D straddles zero or v is unbounded
        v = env.slots[slot]
        pnum = self.partials_of(d.num)

        def derivative():
            den = self.def_den(f, env, d, slot)

            def divide():
                gn = self.poly_grad(f, env, rows, pnum)
                gd = self.poly_grad(f, env, rows, self.partials_of(d.den))
                inv = f.inverse(den)
                for j, name in enumerate(names):
                    f.mul(f.sub(gn[j], f.mul(v, gd[j])), inv, into=name)

            undefined = _any(_straddles(den), _cmp(v.lo, "==", -INF), _cmp(v.hi, "==", INF))
            f.branch(undefined, lambda: self.fill(f, names, WHOLE), divide)

        if pnum:
            derivative()
        else:
            zero = (v.lo == 0.0 == v.hi) if v.known else f"{v.lo} == 0.0 == {v.hi}"
            f.branch(zero, lambda: self.fill(f, names, ZERO), derivative)

    def def_den(self, f: Emitter, env: _Env, d, slot: int) -> V:
        """The divisor of a quotient definition, evaluated again only where
        the definition chain did not evaluate it."""
        at = env.dens.get(slot)
        if at is None:
            return self.poly(f, env, d.den)
        den, maybe_none = at
        if not maybe_none:
            return den
        with f.block(f"if {den[0]} is None:"):
            f.assign(den, self.poly(f, env, d.den))
        return V(*den)

    # -- generated functions -------------------------------------------------

    def ratio(self, f: Emitter, env: _Env) -> tuple[V, V]:
        den = self.poly(f, env, self.problem.obj_den, quad=True)
        num = self.poly(f, env, self.problem.obj_num, quad=True)
        return num, den

    def centre(self) -> list[str]:
        f = Emitter(f"def centre({', '.join(f'c{i}' for i in range(self.n))}):")
        box = self.load_box(f, points=True)
        env = self.build_env(f, box, "centre", "return None", "return None")
        num, den = self.ratio(f, env)
        f.branch(_straddles(den), lambda: f.emit("return None"))
        q = f.mul(num, f.inverse(den))
        f.emit(f"return ({_lit(q.lo)}, {_lit(q.hi)})")
        return f.pieces()

    def evaluate(self, centred: bool) -> list[str]:
        """Stage 1, `evaluate(ivs, prune_key)`: the BoxEval of the box from the
        natural form, or the tuple of its locals that stage 2 may read. Those
        hold the box, the definition chain, the ratio and every value cached
        on all paths to the end of stage 1, the only values the centered form
        takes from the natural one. With `centred`, stage 2 instead:
        `centred(...)` over that tuple, the BoxEval from the iterated
        centered form, with `centre`, which it calls."""
        f = Emitter("def evaluate(ivs, prune_key):")
        infeasible = "return BoxEval('infeasible')"
        box = self.load_box(f)
        f.emit("status = 'feasible'")
        env = self.build_env(f, box, "box", infeasible, "status = 'indeterminate'")
        for c in self.problem.constraints:
            v = self.poly(f, env, c, quad=True)
            f.branch(_not(_straddles(v)), lambda: f.emit(infeasible))
        f.emit("act = EMPTY")
        for i, (c, sign) in enumerate(self.problem.signconds):
            v = self.poly(f, env, c, quad=True)
            if sign > 0:
                f.branch(_cmp(v.hi, "<="), lambda: f.emit(infeasible))
            if sign < 0:
                f.branch(_cmp(v.lo, ">="), lambda: f.emit(infeasible))
            f.branch(_straddles(v), lambda i=i: f.emit(f"act = act | SD[{i}]"))
        num, den = self.ratio(f, env)
        f.emit(f"env = {env.source()}")
        f.branch(_straddles(den), lambda: f.emit(
            f"return BoxEval('indeterminate', env, one_sided({num.source()}, "
            f"{den.source()}), None, act)"))
        inv = f.inverse(den)
        ratio = f.mul(num, inv, into=("rl", "rh"))
        f.emit("r = FI(rl, rh)")
        f.emit("if prune_key is not None and prune_key(r):")
        f.emit("    return BoxEval(status, env, r, None, act)")
        values = [*box, *env.slots.values(), ratio, inv,
                  *(V(*den) if none else den for den, none in env.dens.values())]
        for hit in f.scopes[-1].values():
            values += hit if isinstance(hit, tuple) else [hit]
        names = {x for v in values for x in (v.lo, v.hi) if isinstance(x, str)}
        handed = ", ".join(sorted(names | {"status", "env", "act", "r"}))
        if not centred:
            f.emit(f"return {handed}")
            return f.pieces()
        # stage 2 goes on with stage 1's names and cached values
        f.lines = [f"def centred({handed}):"]
        # centered form, iterated: a tighter ratio enclosure tightens the
        # quotient-rule combination (the gradient table is reused)
        for i in range(self.n):
            f.emit(f"m{i} = 0.5 * (s{i}l + s{i}h)")
        f.emit(f"c = centre({', '.join(f'm{i}' for i in range(self.n))})")
        f.emit("if c is None:")
        f.emit("    return BoxEval(status, env, r, None, act)")
        f.emit("crl, crh = c")
        gnum, gden = self.grad_table(f, env)
        grads = [(f"g{j}l", f"g{j}h") for j in range(self.n)]
        listed = "[" + ", ".join(f"FI({g[0]}, {g[1]})" for g in grads) + "]"
        with f.block("for _ in (0, 1):"):
            # den does not straddle zero here: the natural quotient exists
            for j in range(self.n):
                f.mul(f.sub(gnum[j], f.mul(ratio, gden[j])), inv, into=grads[j])
            total = V("crl", "crh")
            for j in range(self.n):
                half = f.sub(box[j], V(f"m{j}", f"m{j}"))
                total = f.add(total, f.mul(V(*grads[j]), half))
            f.emit(f"lo = {total.lo} if {total.lo} > rl else rl")
            f.emit(f"hi = {total.hi} if {total.hi} < rh else rh")
            f.emit("if not lo <= hi:")
            f.emit("    break")
            f.emit("if hi - lo > 0.9 * (rh - rl):")
            f.emit("    rl = lo")
            f.emit("    rh = hi")
            f.emit("    break")
            f.emit("rl = lo")
            f.emit("rh = hi")
        f.emit(f"return BoxEval(status, env, FI(rl, rh), {listed}, act)")
        return [*self.centre(), *f.pieces()]

    def contract_env(self) -> list[str]:
        """The environment as a flat list [lo0, hi0, lo1, ...], or None when
        the definition chain or a constraint excludes the box."""
        f = Emitter("def contract_env(ivs):")
        box = self.load_box(f)
        env = self.build_env(f, box, "box", "return None", "pass")
        for c in self.problem.constraints:
            v = self.poly(f, env, c, quad=True)
            f.branch(_not(_straddles(v)), lambda: f.emit("return None"))
        f.emit("return [" + ", ".join(f"{_lit(v.lo)}, {_lit(v.hi)}"
                                      for _, v in sorted(env.slots.items())) + "]")
        return f.pieces()

    def signs_hold(self) -> list[str]:
        f = Emitter("def signs_hold(e):")
        env = self.load_flat(f)
        for c, sign in self.problem.signconds:
            v = self.poly(f, env, c, quad=True)
            if sign > 0:
                f.branch(_cmp(v.hi, "<="), lambda: f.emit("return False"))
            if sign < 0:
                f.branch(_cmp(v.lo, ">="), lambda: f.emit("return False"))
        f.emit("return True")
        return f.pieces()

    def narrower(self, k: int, parts: dict[int, Polynomial]) -> list[str]:
        """Interval coefficients (a0, a1, a2) of one univariate view; a
        missing a0 or a1 is [0, 0], a missing a2 is None."""
        f = Emitter(f"def narrow{k}(e):")
        env = self.load_flat(f)
        coeffs = {e: self.poly(f, env, cp) for e, cp in parts.items()}
        out = [coeffs.get(0, ZERO).source(), coeffs.get(1, ZERO).source(),
               coeffs[2].source() if 2 in coeffs else "None"]
        f.emit(f"return ({', '.join(out)})")
        return f.pieces()

    def stage(self, k: int) -> list[str]:
        """The source of each function of stage k. Stage 0 is empty for
        problems without constraints or sign conditions: their search does
        not contract."""
        if k:
            return self.evaluate(centred=k == 2)
        if not (self.problem.constraints or self.problem.signconds):
            return []
        views = self.narrow_views()
        parts = [*self.contract_env(), *self.signs_hold()]
        parts += [p for j, (_, _, view) in enumerate(views) for p in self.narrower(j, view)]
        parts.append("NARROWERS = [" + ", ".join(
            f"({c}, {i}, narrow{j})" for j, (c, i, _) in enumerate(views)) + "]\n")
        return parts


@functools.cache
def _malloc_trim():
    """glibc's `malloc_trim`, or None where the C library has none."""
    import ctypes
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


@functools.cache
def _compiled_mul():
    """`mul`, compiled once per process: its source is the same for every
    problem."""
    namespace = dict(_HELPERS)
    exec(compile(product_source(), "<box evaluator: mul>", "exec"), namespace)
    return namespace.pop("mul")


def evaluator_source(problem) -> str:
    """The source of `mul` and of the problem's three stages."""
    generator = _Generator(problem)
    return "\n".join([product_source(), *(p for k in range(3) for p in generator.stage(k))])


def compile_stage(problem, k: int) -> dict:
    """Generate and load stage k of the evaluator of `problem`; returns its
    entry points by name (stage 0: `contract_env`, `signs_hold` and
    `NARROWERS`, or nothing; stage 1: `evaluate`; stage 2: `centred`).

    The generated names are taken out of the namespace the functions read
    their helpers from: a namespace holding its own functions would be a
    reference cycle, and each finished problem's code would stay in memory
    until a full garbage collection. Neither the generator nor the source
    outlives the call, so a later stage generates its source again."""
    parts = _Generator(problem).stage(k)
    namespace = {**_HELPERS, "mul": _compiled_mul(), "SD": list(problem.signcond_dims)}
    filename = f"<box evaluator: {problem.chart} chart, stage {k}>"
    # one piece at a time: the parser's peak follows the largest piece
    for part in parts:
        exec(compile(part, filename, "exec"), namespace)
    # The parser's memory is freed but stays in the compiling thread's heap:
    # glibc gives each thread but the main one a heap of its own and trims
    # one only when its free top exceeds a threshold, which it raises as
    # large blocks are freed. Each server thread that compiled would keep a
    # parser's peak.
    trim = _malloc_trim()
    if parts and trim is not None:
        trim(0)
    generated = {m.group(1) for part in parts for m in _DEF.finditer(part)} | {"NARROWERS"}
    return {name: namespace.pop(name) for name in list(namespace) if name in generated}
