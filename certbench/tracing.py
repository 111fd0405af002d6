"""Spans around the public functions of geomcompare's modules.

`Tracer.install()` replaces each listed function, in every loaded
geomcompare module that holds it, by a wrapper that records a span (name,
start, end, parent, outcome) in memory; `uninstall()` puts the originals
back. Spans are per thread, so the threaded HTTP server can be traced too.
`layer_metrics` turns the spans of one round into the per-layer metrics.

The interval arithmetic modules (`float_intervals`, `intervals`) are inner
loops that a wrapper would distort; they are measured through
`bounds.evaluate_box`.
"""

from __future__ import annotations

import gzip
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

# (module, function): the span is named "<module>.<function>"
WRAPPED = (
    ("construction", "parse_construction"),
    ("construction", "translate"),
    ("presolve", "presolve"),
    ("exact_ratio", "constant_ratio_evidence"),
    ("exact_ratio", "eliminate_to_mu"),
    ("exact_ratio", "solve_mu"),
    ("exact_ratio", "numeric_crosscheck"),
    ("polynomials", "buchberger"),
    ("algebraic", "isolate_real_roots"),
    ("algebraic", "to_radical"),
    ("instantiate", "evaluate_figure"),
    ("instantiate", "sample_configuration"),
    ("bounds", "compile_charts"),
    ("bounds", "branch_and_bound"),
    ("bounds", "evaluate_box"),
    ("bounds", "witness_for_box"),
    ("bounds", "hull_contract"),
    ("bounds", "split_box"),
    ("bounds", "exactify"),
    ("pipeline", "compare_source"),
)

# span: (name, start, end, parent index or -1, outermost of its name, ok)
Span = tuple[str, float, float, int, bool, bool]


def replace_everywhere(original: Callable, replacement: Callable) -> list:
    """Bind `replacement` wherever a geomcompare module binds `original`;
    returns what to restore."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("geomcompare") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.depth = defaultdict(int)
        return st

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else -1
            outermost = st.depth[name] == 0
            index = len(spans)
            spans.append(None)          # reserve the slot so children can point here
            st.stack.append(index)
            st.depth[name] += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = result is not None
                return result
            finally:
                end = clock()
                st.depth[name] -= 1
                st.stack.pop()
                spans[index] = (name, start, end, parent, outermost, ok)
        return wrapper

    def install(self) -> None:
        import importlib
        for modname, fn in WRAPPED:
            module = importlib.import_module(f"geomcompare.{modname}")
            original = getattr(module, fn)
            self._undo += replace_everywhere(
                original, self._wrap(f"{modname}.{fn}", original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts afresh."""
        spans = list(self.spans)
        self.spans.clear()          # in place: the wrappers hold this list
        return spans


def write_spans(path: str, rounds: list[list[Span]]) -> None:
    """One tab-separated line per span: round, index, name, start, end,
    parent, outermost, ok."""
    with gzip.open(path, "wt") as out:
        out.write("round\tindex\tname\tstart\tend\tparent\touter\tok\n")
        for r, spans in enumerate(rounds):
            for i, (name, start, end, parent, outer, ok) in enumerate(spans):
                out.write(f"{r}\t{i}\t{name}\t{start:.9f}\t{end:.9f}\t"
                          f"{parent}\t{int(outer)}\t{int(ok)}\n")


def _per_name(spans: list[Span]):
    total = defaultdict(float)      # outermost spans only: no double counting
    calls = defaultdict(int)
    hits = defaultdict(int)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    for i, (name, start, end, parent, outer, ok) in enumerate(spans):
        calls[name] += 1
        hits[name] += ok
        if outer:
            total[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] += (end - start) - child_time.get(i, 0.0)
    return total, calls, hits, self_time


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one round, as totals over the round."""
    total, calls, hits, self_time = _per_name(spans)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ev_calls = calls["bounds.evaluate_box"]
    return {
        "bounds.evaluate_box_s": total["bounds.evaluate_box"],
        "bounds.evaluate_box_calls": ev_calls,
        "bounds.evaluate_box_us": 1e6 * ratio(total["bounds.evaluate_box"], ev_calls),
        "bounds.witness_for_box_s": total["bounds.witness_for_box"],
        "bounds.witness_for_box_calls": calls["bounds.witness_for_box"],
        "bounds.witness_found_ratio": ratio(hits["bounds.witness_for_box"],
                                            calls["bounds.witness_for_box"]),
        "bounds.hull_contract_s": total["bounds.hull_contract"],
        "bounds.hull_contract_kept_ratio": ratio(hits["bounds.hull_contract"],
                                                 calls["bounds.hull_contract"]),
        "bounds.split_box_calls": calls["bounds.split_box"],
        "bounds.compile_charts_s": total["bounds.compile_charts"],
        "bounds.exactify_s": total["bounds.exactify"],
        "bounds.search_self_s": self_time["bounds.branch_and_bound"],
        "instantiate.evaluate_figure_s": total["instantiate.evaluate_figure"],
        "instantiate.evaluate_figure_calls": calls["instantiate.evaluate_figure"],
        "instantiate.accepted_ratio": ratio(hits["instantiate.sample_configuration"],
                                            calls["instantiate.evaluate_figure"]),
        "exact_ratio.numeric_crosscheck_s": total["exact_ratio.numeric_crosscheck"],
        "exact_ratio.eliminate_to_mu_s": total["exact_ratio.eliminate_to_mu"],
        "exact_ratio.solve_mu_s": total["exact_ratio.solve_mu"],
        "exact_ratio.constant_ratio_evidence_s":
            total["exact_ratio.constant_ratio_evidence"],
        "polynomials.buchberger_s": total["polynomials.buchberger"],
        "polynomials.buchberger_calls": calls["polynomials.buchberger"],
        "algebraic.isolate_real_roots_s": total["algebraic.isolate_real_roots"],
        "algebraic.to_radical_s": total["algebraic.to_radical"],
        "construction.parse_s": total["construction.parse_construction"],
        "construction.translate_s": total["construction.translate"],
        "presolve.presolve_s": total["presolve.presolve"],
        "pipeline.compare_s": total["pipeline.compare_source"],
        "pipeline.self_s": self_time["pipeline.compare_source"],
    }
