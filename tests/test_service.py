import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

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


@pytest.fixture(scope="module")
def server():
    srv = serve("127.0.0.1", 18970, timeout=8.0)
    th = threading.Thread(target=srv.serve_forever, daemon=True)
    th.start()
    time.sleep(0.1)
    yield "http://127.0.0.1:18970"
    srv.shutdown()


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
