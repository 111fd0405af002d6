"""HTTP service: the plain-text solver protocol plus a structured compare
endpoint.

GET /euclideansolver?lhs=w1&rhs=v11&polys=...&vars=...&posvariables=...
    runs the certified-bounds search over the wire polynomial system and
    answers in the bound grammar ("m > 3/2"). The first four variables of
    `vars` are pinned to 0,0,1,0. A system the search cannot compile (more
    than two unbounded coordinates, say) gets 422.

POST /compare
    accepts a .gct construction body (UTF-8, at most MAX_BODY bytes, with a
    Content-Length), answers a structured JSON document.

The HTTP threads only read, validate and write; a pool of forked worker
processes computes every response (`Server`). Each request writes one JSON
line to standard error.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .bounds import CompileError, branch_and_bound, compile_charts
from .construction import (
    ConstructionProgram,
    GctError,
    TaggedPoly,
    Translation,
    parse_construction,
)
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
PR_SET_PDEATHSIG = 1   # <linux/prctl.h>


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

TEXT, JSON = "text/plain", "application/json"


def respond(path: str, payload: str, timeout: float) -> tuple[int, str, str]:
    """(status, body, content type) of a request the HTTP thread has read and
    validated: `payload` is the query string of GET /euclideansolver or the
    body of POST /compare. Runs in a worker process; the time limit starts
    here."""
    if path == "/compare":
        try:
            prog = parse_construction(payload)
            # the module global, looked up now: a worker runs whatever the
            # host bound there before it forked
            result = compare_source(payload, CompareConfig(timeout=timeout))
        except GctError as e:
            return 400, f"bad construction: {e}", TEXT
        except Exception as e:
            return 500, f"error: {e}", TEXT
        return 200, render_document(result_document(result, prog)), JSON
    raw = parse_qs(payload, keep_blank_values=True)
    try:
        body = solve_wire({k: v[0] for k, v in raw.items()}, timeout)
    except (WireError, PolynomialParseError) as e:
        return 400, f"bad request: {e}", TEXT
    except CompileError as e:
        return 422, f"not searchable: {e}", TEXT
    except Exception as e:
        return 500, f"error: {e}", TEXT
    if body == "timeout":
        return 408, "timeout", TEXT
    return 200, body, TEXT


def _timed_respond(path: str, payload: str, timeout: float):
    """`respond` with this worker's pid, its start on the monotonic clock
    (one clock for every process on Linux) and its compute seconds."""
    start = time.monotonic()
    response = respond(path, payload, timeout)
    return response, os.getpid(), start, time.monotonic() - start


def _init_worker(host: int) -> None:
    # Ctrl-C at a terminal reaches the whole process group: the host stops
    # the workers, which must not die mid-request on their own
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # and a SIGKILLed host takes its workers with it
    import ctypes
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != host:        # the host died before the prctl
        os._exit(1)


class Handler(BaseHTTPRequestHandler):
    """Reads, validates and writes; `respond` computes in a worker."""

    server: "Server"

    def log_message(self, fmt, *args):
        pass

    def _send(self, code: int, body: str, ctype: str = TEXT,
              worker: tuple = (None, None, None)):
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        pid, queue_s, compute_s = worker
        sys.stderr.write(json.dumps({
            "method": self.command, "path": urlparse(self.path).path,
            "status": code, "bytes": len(data), "queue_s": queue_s,
            "compute_s": compute_s, "pid": pid}) + "\n")

    def do_GET(self):
        url = urlparse(self.path)
        if url.path != "/euclideansolver":
            self._send(404, "not found")
            return
        self._send(*self.server.compute(url.path, url.query))

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
        self._send(*self.server.compute(url.path, src))


class Server(ThreadingHTTPServer):
    """HTTP threads that hand every response to a pool of forked worker
    processes, one per CPU this process may run on.

    Workers are forked, not spawned, so they run the code the host has
    loaded, including functions it has rebound since import. A worker dies
    with the thread that forked it, so the pool is forked only by the thread
    that creates the server and, after a worker crash, by the thread running
    `serve_forever`; both live as long as the server. `server_close` stops
    and joins the workers."""

    def __init__(self, address: tuple[str, int], timeout: float):
        super().__init__(address, Handler)
        self.compute_timeout = timeout
        self._lock = threading.Lock()       # guards replacing a broken pool
        self._ready = threading.Event()     # clear while the pool is broken
        try:
            self.pool = self._start_pool()
        except BaseException:
            super().server_close()
            raise
        self._ready.set()

    def _start_pool(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(
            len(os.sched_getaffinity(0)), multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(os.getpid(),))
        # with fork, the first submit starts every worker
        pool.submit(int).result()
        return pool

    def compute(self, path: str, payload: str) -> tuple:
        """`Handler._send` arguments for the response from a worker."""
        from concurrent.futures.process import BrokenProcessPool
        received = time.monotonic()
        self._ready.wait()
        pool = self.pool
        try:
            (code, body, ctype), pid, start, compute_s = pool.submit(
                _timed_respond, path, payload, self.compute_timeout).result()
        except BrokenProcessPool as e:
            with self._lock:
                if self.pool is pool:
                    self._ready.clear()
            return 500, f"error: a worker process crashed: {e}", TEXT
        return code, body, ctype, (pid, round(start - received, 6),
                                   round(compute_s, 6))

    def service_actions(self):
        # runs on the thread in `serve_forever`: the one to fork from
        if not self._ready.is_set():
            with self._lock:
                broken, self.pool = self.pool, self._start_pool()
                self._ready.set()
            broken.shutdown()

    def server_close(self):
        super().server_close()
        self.pool.shutdown(cancel_futures=True)


def serve(host: str = "127.0.0.1", port: int = 8765,
          timeout: float = 5.0) -> Server:
    """Bind the server and fork its workers; call `serve_forever` next."""
    return Server((host, port), timeout)


def serve_forever(host: str = "127.0.0.1", port: int = 8765,
                  timeout: float = 5.0):
    server = serve(host, port, timeout)
    try:
        print(f"listening on http://{host}:{server.server_address[1]} "
              f"(GET /euclideansolver, POST /compare, timeout {timeout:g}s, "
              f"{len(os.sched_getaffinity(0))} worker processes)", flush=True)
        server.serve_forever()
    finally:
        server.server_close()
