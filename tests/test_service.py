import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from geomcompare.service import (
    render_document,
    result_document,
    serve,
    solve_wire,
    translation_from_wire,
)

MEDIAN_POLYS = (
    "2*v7-v5-v3,2*v8-v6-v4,2*v9-v5-v1,2*v10-v6-v2,"
    "-v12^2+v10^2+v9^2-2*v10*v4+v4^2-2*v9*v3+v3^2,"
    "-v11^2+v4^2+v3^2-2*v4*v2+v2^2-2*v3*v1+v1^2,"
    "-v13^2+v8^2+v7^2-2*v8*v2+v2^2-2*v7*v1+v1^2,"
    "-1-v14*v5*v4+v14*v6*v3+v14*v5*v2-v14*v3*v2-v14*v6*v1+v14*v4*v1,"
    "-w1+(v13+v12)^1"
)
MEDIAN_VARS = "v1,v2,v3,v4,v5,v6,v7,v8,v9,v10,v11,v12,v13,v14,w1"


def _start(timeout=8.0):
    """A served `serve()` on a free port, and its base URL."""
    srv = serve("127.0.0.1", 0, timeout=timeout)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv, f"http://127.0.0.1:{srv.server_address[1]}"


def _stop(srv):
    srv.shutdown()
    srv.server_close()


@pytest.fixture(scope="module")
def server():
    srv, base = _start()
    yield base
    _stop(srv)


def _get(base, params):
    q = urllib.parse.urlencode(params)
    with urllib.request.urlopen(f"{base}/euclideansolver?{q}") as r:
        return r.read().decode()


def test_wire_fidelity_reference_request(server):
    body = _get(server, {"lhs": "w1", "rhs": "v11", "polys": MEDIAN_POLYS,
                         "vars": MEDIAN_VARS, "posvariables": "v11,v12,v13"})
    assert body == "m > 3/2"


def test_wire_constant_ratio(server):
    body = _get(server, {"lhs": "x", "rhs": "x", "polys": "x-1", "vars": "x",
                         "posvariables": "x"})
    assert body == "m = 1"


def test_wire_malformed_polynomial(server):
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(server, {"lhs": "x", "rhs": "x", "polys": "x^^2", "vars": "x",
                      "posvariables": ""})
    assert e.value.code == 400


def test_wire_too_many_unbounded_coordinates(server):
    # C = (v5, v6) and D = (v7, v8) both free: four unbounded coordinates
    with pytest.raises(urllib.error.HTTPError) as e:
        _get(server, {"lhs": "w1", "rhs": "e",
                      "polys": "-e^2+(v7-v5)^2+(v8-v6)^2,"
                               "-f^2+(v3-v1)^2+(v4-v2)^2,-w1+e+f",
                      "vars": "v1,v2,v3,v4,v5,v6,v7,v8,e,f,w1",
                      "posvariables": "e,f"})
    assert e.value.code == 422


def test_post_compare_document(server):
    src = open("benchmarks/pythagoras_right.gct").read()
    req = urllib.request.Request(f"{server}/compare", data=src.encode())
    with urllib.request.urlopen(req) as r:
        body = r.read().decode()
    doc = json.loads(body)
    assert doc["variant"] == "exact"
    assert doc["candidates"][0]["value"] == "1"
    assert doc["candidates"][0]["witnessed"] is True
    # round-trip is byte-identical under the canonical rendering
    assert render_document(json.loads(body)) == body


def test_post_compare_parse_error(server):
    req = urllib.request.Request(f"{server}/compare", data=b"pointt A")
    with pytest.raises(urllib.error.HTTPError) as e:
        urllib.request.urlopen(req)
    assert e.value.code == 400


def test_wire_translation_counts():
    t = translation_from_wire(MEDIAN_POLYS, MEDIAN_VARS, "v11,v12,v13",
                              "w1", "v11")
    from geomcompare.presolve import presolve
    _, report = presolve(t)
    assert (report.input_equations, report.input_variables) == (10, 12)
    assert (report.output_equations, report.output_variables) == (6, 8)


def _post_raw(base, headers, body=b""):
    """POST /compare with the given headers, none added; (status, body)."""
    import http.client
    host, port = base.split("//")[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.putrequest("POST", "/compare", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def test_post_compare_without_content_length(server):
    assert _post_raw(server, {})[0] == 400


@pytest.mark.parametrize("length", ["abc", "1.5", "-1", "1_0", ""])
def test_post_compare_invalid_content_length(server, length):
    # -1 once made the server read until the client hung up
    assert _post_raw(server, {"Content-Length": length})[0] == 400


def test_post_compare_body_too_large(server):
    from geomcompare.service import MAX_BODY
    status, _ = _post_raw(server, {"Content-Length": str(MAX_BODY + 1)})
    assert status == 413


def test_post_compare_body_not_utf8(server):
    body = b"point A\n\xff\xfe\n"
    status, text = _post_raw(server, {"Content-Length": str(len(body))}, body)
    assert status == 400 and "UTF-8" in text


def test_post_compare_still_answers_after_bad_requests(server):
    src = open("benchmarks/pythagoras_right.gct").read().encode()
    status, body = _post_raw(server, {"Content-Length": str(len(src))}, src)
    assert status == 200 and json.loads(body)["variant"] == "exact"


def _post(base, src):
    req = urllib.request.Request(f"{base}/compare", data=src.encode())
    with urllib.request.urlopen(req, timeout=60) as r:
        return r.read().decode()


def _without_timings(doc):
    return render_document({k: v for k, v in doc.items() if k != "timings"})


def test_concurrent_posts_match_in_process(server):
    from geomcompare.construction import parse_construction
    from geomcompare.pipeline import CompareConfig, compare_source

    sources = [Path(f"benchmarks/{name}.gct").read_text()
               for name in ("pythagoras_relaxed", "medians")]
    replies = {}

    def client(i):
        replies[i] = _post(server, sources[i])

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    for i, src in enumerate(sources):
        result = compare_source(src, CompareConfig(timeout=8.0))
        doc = result_document(result, parse_construction(src))
        assert _without_timings(json.loads(replies[i])) == _without_timings(doc)


def test_one_log_line_per_request(server, capfd):
    capfd.readouterr()
    assert _get(server, {"lhs": "x", "rhs": "x", "polys": "x-1", "vars": "x",
                         "posvariables": "x"}) == "m = 1"
    lines = []
    deadline = time.monotonic() + 5
    while not lines and time.monotonic() < deadline:
        # the line is written after the reply
        lines = [json.loads(line) for line in capfd.readouterr().err.splitlines()
                 if line.startswith("{")]
        time.sleep(0.01)
    assert len(lines) == 1
    line = lines[0]
    assert {k: line[k] for k in ("method", "path", "status", "bytes")} == {
        "method": "GET", "path": "/euclideansolver", "status": 200, "bytes": 5}
    assert line["queue_s"] >= 0 and line["compute_s"] >= 0
    assert line["pid"] != os.getpid()


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def test_worker_crash_is_a_500_and_the_pool_is_rebuilt():
    before = _children()
    srv, base = _start()
    try:
        workers = _children() - before
        os.kill(next(iter(workers)), signal.SIGKILL)
        # the pool stops its other workers once it sees the crash
        deadline = time.monotonic() + 10
        while _children() & workers and time.monotonic() < deadline:
            time.sleep(0.01)
        src = Path("benchmarks/pythagoras_right.gct").read_bytes()
        status, body = _post_raw(base, {"Content-Length": str(len(src))}, src)
        assert status == 500 and "crashed" in body
        status, body = _post_raw(base, {"Content-Length": str(len(src))}, src)
        assert status == 200 and json.loads(body)["variant"] == "exact"
    finally:
        _stop(srv)
    assert _children() == before


def test_server_close_joins_every_worker():
    before = _children()
    srv, _ = _start()
    assert len(_children() - before) == len(os.sched_getaffinity(0))
    _stop(srv)
    assert _children() == before


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _child_pids(ppid):
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    if int(f.read().rsplit(")", 1)[1].split()[1]) == ppid:
                        pids.append(int(entry))
            except (FileNotFoundError, ProcessLookupError):
                pass
    return pids


def test_sigkilled_serve_leaves_no_worker():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-c", "from geomcompare.cli import main; "
         "main(['serve', '--port', '0'])"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stdout.readline().startswith("listening on http://")
        workers = _child_pids(proc.pid)
        assert len(workers) == len(os.sched_getaffinity(0))
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _alive(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left


def test_importing_geomcompare_leaves_the_service_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, geomcompare; "
         "print('geomcompare.service' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH="src"))
    assert out.stdout.strip() == "False"
