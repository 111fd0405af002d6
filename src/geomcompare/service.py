"""HTTP service: the plain-text solver protocol plus a structured compare
endpoint.

GET /euclideansolver?lhs=w1&rhs=v11&polys=...&vars=...&posvariables=...
    runs the certified-bounds search over the wire polynomial system and
    answers in the bound grammar ("m > 3/2"). The first four variables of
    `vars` are pinned to 0,0,1,0.

POST /compare
    accepts a .gct construction body (UTF-8, at most MAX_BODY bytes, with a
    Content-Length), answers a structured JSON document.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .bounds import branch_and_bound, compile_charts
from .construction import ConstructionProgram, GctError, TaggedPoly, Translation
from .pipeline import (
    CompareConfig,
    CompareResult,
    compare_source,
    render_bound_text,
    render_compare_text,
    render_value,
)
from .polynomials import Polynomial, PolynomialParseError, parse_polynomial, render
from .presolve import presolve


MAX_BODY = 1 << 20     # bytes: larger POST /compare bodies are refused (413)


class WireError(ValueError):
    pass


def translation_from_wire(polys_text: str, vars_text: str, posvars_text: str,
                          lhs: str, rhs: str) -> Translation:
    """Reconstruct a workable translation from the wire parameters."""
    universe = [v.strip() for v in vars_text.split(",") if v.strip()]
    if lhs not in universe or rhs not in universe:
        raise WireError("lhs/rhs must appear in vars")
    if "m" not in universe:
        universe = universe + ["m"]
    posvars = {v.strip() for v in posvars_text.split(",") if v.strip()}
    polys: list[TaggedPoly] = []
    for chunk in _split_polys(polys_text):
        try:
            p = parse_polynomial(chunk, universe)
        except PolynomialParseError as e:
            raise WireError(f"bad polynomial {chunk!r}: {e}")
        polys.append(TaggedPoly(p, "construction", chunk))
    if not polys:
        raise WireError("no polynomials")
    # the ratio equation is composed server side: w1 - m * rhs
    w1 = Polynomial.variable(lhs, universe)
    mvar = Polynomial.variable("m", universe)
    denom = Polynomial.variable(rhs, universe)
    ratio = w1 - mvar * denom
    polys.append(TaggedPoly(ratio, "ratio", f"({lhs})-m*({rhs})"))

    original = [v.strip() for v in vars_text.split(",") if v.strip()]
    pins = {}
    if len(original) >= 5:
        # the first two free points sit at (0,0) and (1,0)
        for name, value in zip(original[:4], (0, 0, 1, 0)):
            pins[name] = Fraction(value)
    pinned_polys = []
    for tp in polys:
        p = tp.poly
        for name, value in pins.items():
            p = p.substitute(name, Polynomial.constant(value, p.vars))
        pinned_polys.append(TaggedPoly(p, tp.role, render(p) if p != tp.poly
                                       else tp.source))

    t = Translation(
        universe=universe, polys=pinned_polys, varmap={}, point_vars={},
        seg_vars={}, posvars=posvars, signconds=[], ndg=None,
        sqrt_defs={}, rot_vars=[], program=ConstructionProgram([], []),
        pinned=pins, w1_var=lhs, w2_var=None, denom_var=rhs,
        protected={"m", lhs, rhs} | posvars)
    return t


def _split_polys(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [c for c in out if c]


def solve_wire(params: dict[str, str], timeout: float,
               tol: Fraction = Fraction(1, 10 ** 6)) -> str:
    t = translation_from_wire(params.get("polys", ""), params.get("vars", ""),
                              params.get("posvariables", ""),
                              params.get("lhs", "w1"), params.get("rhs", ""))
    t, _report = presolve(t)
    lhs_poly = Polynomial.variable(t.w1_var, t.universe)
    rhs_poly = Polynomial.variable(t.denom_var, t.universe)
    charts = compile_charts(t, objective=(lhs_poly, rhs_poly))
    result = branch_and_bound(charts, tol, time.monotonic() + timeout)
    return render_bound_text(result)


# ---------------------------------------------------------------------------
# structured result document
# ---------------------------------------------------------------------------

def result_document(result: CompareResult, prog: ConstructionProgram) -> dict:
    doc = {
        "variant": result.variant,
        "result": render_compare_text(result, prog) if prog.statement else "",
        "candidates": [],
        "inf": None,
        "sup": None,
        "timings": {k: round(v, 3) for k, v in sorted(result.timings_ms.items())},
        "transcript": list(result.transcript.lines) if result.transcript else [],
    }
    if result.reason:
        doc["reason"] = result.reason
    if result.exact is not None:
        for c in result.exact.candidates:
            doc["candidates"].append({
                "value": c.render(),
                "decimal": c.decimal(10),
                "witnessed": bool(c.witnessed),
            })
    if result.bounds is not None:
        for key, side in (("inf", result.bounds.inf), ("sup", result.bounds.sup)):
            if side.enclosure is None and side.attainment == "unbounded-evidence":
                doc[key] = {"value": None, "attained": "unbounded-evidence"}
            elif side.enclosure is None:
                doc[key] = {"value": None, "attained": "unknown"}
            else:
                doc[key] = {
                    "value": render_value(side),
                    "attained": side.attainment,
                    "enclosure": [str(side.enclosure.lo), str(side.enclosure.hi)],
                }
    return doc


def render_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------

def make_handler(timeout: float):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def _send(self, code: int, body: str, ctype: str = "text/plain"):
            data = body.encode()
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            url = urlparse(self.path)
            if url.path != "/euclideansolver":
                self._send(404, "not found")
                return
            raw = parse_qs(url.query, keep_blank_values=True)
            params = {k: v[0] for k, v in raw.items()}
            try:
                body = solve_wire(params, timeout)
            except (WireError, PolynomialParseError) as e:
                self._send(400, f"bad request: {e}")
                return
            except Exception as e:
                self._send(500, f"error: {e}")
                return
            if body == "timeout":
                self._send(408, "timeout")
                return
            self._send(200, body)

        def do_POST(self):
            url = urlparse(self.path)
            if url.path != "/compare":
                self._send(404, "not found")
                return
            raw = (self.headers.get("Content-Length") or "").strip()
            if not (raw.isascii() and raw.isdigit()):
                self._send(400, "bad request: missing or invalid Content-Length")
                return
            length = int(raw)
            if length > MAX_BODY:
                self._send(413, f"body over {MAX_BODY} bytes")
                return
            try:
                src = self.rfile.read(length).decode("utf-8")
            except UnicodeDecodeError:
                self._send(400, "bad request: body is not UTF-8")
                return
            try:
                from .construction import parse_construction
                prog = parse_construction(src)
                result = compare_source(src, CompareConfig(timeout=timeout))
            except GctError as e:
                self._send(400, f"bad construction: {e}")
                return
            except Exception as e:
                self._send(500, f"error: {e}")
                return
            doc = result_document(result, prog)
            self._send(200, render_document(doc), "application/json")

    return Handler


def serve(host: str = "127.0.0.1", port: int = 8765,
          timeout: float = 5.0) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer((host, port), make_handler(timeout))
    return server


def serve_forever(host: str = "127.0.0.1", port: int = 8765,
                  timeout: float = 5.0):
    server = serve(host, port, timeout)
    print(f"listening on http://{host}:{port} "
          f"(GET /euclideansolver, POST /compare, timeout {timeout:g}s)")
    server.serve_forever()
