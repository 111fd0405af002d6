"""Benchmark harness: run a suite of construction cases, compare against
expected renderings, emit CSV and a single-file HTML table.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .construction import GctError, parse_construction
from .pipeline import CompareConfig, compare_source, render_compare_text

CSV_COLUMNS = ["name", "variant", "result", "ms_parse", "ms_algebraize",
               "ms_presolve", "ms_eliminate", "ms_bounds", "status"]


@dataclass
class BenchCase:
    name: str
    source: str
    expected: Optional[str] = None       # substring of the rendered result
    time_limit: float = 5.0


@dataclass
class BenchRow:
    name: str
    variant: str
    result: str
    timings_ms: dict
    status: str            # pass | fail | timeout | error

    def csv_cells(self) -> list[str]:
        t = self.timings_ms
        return [self.name, self.variant, self.result,
                f"{t.get('parse', 0):.1f}", f"{t.get('algebraize', 0):.1f}",
                f"{t.get('presolve', 0):.1f}", f"{t.get('eliminate', 0):.1f}",
                f"{t.get('bounds', 0):.1f}", self.status]


def load_suite(path: str | Path) -> list[BenchCase]:
    path = Path(path)
    spec = json.loads(path.read_text())
    cases = []
    for entry in spec["cases"]:
        src = (path.parent / entry["file"]).read_text()
        cases.append(BenchCase(name=entry["name"], source=src,
                               expected=entry.get("expected"),
                               time_limit=float(entry.get("timeout", 5.0))))
    return cases


def run_case(case: BenchCase) -> BenchRow:
    config = CompareConfig(timeout=case.time_limit)
    try:
        prog = parse_construction(case.source)
        result = compare_source(case.source, config)
    except GctError as e:
        return BenchRow(case.name, "error", str(e), {}, "error")
    except Exception as e:
        return BenchRow(case.name, "error", f"{type(e).__name__}: {e}", {}, "error")
    text = render_compare_text(result, prog)
    timed = (result.variant == "inconclusive" and result.reason == "timeout") \
        or (result.bounds is not None and result.bounds.timed_out)
    if case.expected is not None and case.expected in text:
        status = "pass"
    elif timed:
        status = "timeout"
    elif case.expected is None and result.is_definite():
        status = "pass"
    else:
        status = "fail"
    return BenchRow(case.name, result.variant, text, result.timings_ms, status)


def run_suite(cases: list[BenchCase]) -> list[BenchRow]:
    rows = []
    for case in cases:
        rows.append(run_case(case))
    return rows


def to_csv(rows: list[BenchRow]) -> str:
    out = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = [c.replace(",", ";") for c in row.csv_cells()]
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def to_html(rows: list[BenchRow]) -> str:
    body = ["<!DOCTYPE html><html><head><meta charset='utf-8'>",
            "<title>comparison benchmark</title>",
            "<style>table{border-collapse:collapse;font-family:monospace}"
            "td,th{border:1px solid #888;padding:4px 8px}"
            ".pass{background:#cfc}.fail{background:#fcc}"
            ".timeout{background:#ffc}.error{background:#fcc}</style>",
            "</head><body><h1>comparison benchmark</h1><table><tr>"]
    body += [f"<th>{c}</th>" for c in CSV_COLUMNS]
    body.append("</tr>")
    for row in rows:
        body.append(f"<tr class='{row.status}'>")
        body += [f"<td>{html.escape(c)}</td>" for c in row.csv_cells()]
        body.append("</tr>")
    passed = sum(1 for r in rows if r.status == "pass")
    body.append(f"</table><p>{passed}/{len(rows)} passed</p></body></html>")
    return "".join(body)
