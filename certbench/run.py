"""certbench: time and boxes to a certified answer.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a geomcompare checkout. Generates the workload's .gct
inputs from the seed, then runs whole rounds (every comparison of the
workload once) until S seconds have passed, at least one round. Every
answer is checked against the benchmark's own computations. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics, or with --trace 1 the per-layer
metrics). See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import cases as casegen
from check import Answer, answer_from_document, answer_from_result, check
from speed import Speedometer
from tracing import Tracer, layer_metrics, replace_everywhere, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# far above what any search of the workloads needs (the slowest, medians,
# certifies in about 13 s on a 2-core machine), so every search ends on its
# own test: gap, small rational or stall
COMPARE_TIMEOUT = 60.0


def process_age() -> float:
    """Seconds since this process started."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class InProcess:
    """Comparisons through `compare_source` in this process."""

    def __init__(self, cases):
        import geomcompare.pipeline as pipeline
        from geomcompare import CompareConfig

        self.cases = cases
        self.traced_spans: list = []
        self.config = CompareConfig(timeout=COMPARE_TIMEOUT)
        self.tol = self.config.tol
        self.pipeline = pipeline        # looked up per call: the tracer rebinds it
        self.searches: list = []
        search = pipeline.branch_and_bound

        def counted_search(*a, **kw):
            result = search(*a, **kw)
            self.searches.append((result.boxes, result.timed_out))
            return result
        replace_everywhere(search, counted_search)

    def round(self, tracer=None):
        """One round: (wall seconds, per comparison (case, answer, latency,
        boxes), per-layer metrics or None)."""
        if tracer is not None:
            tracer.install()
        rows = []
        start = time.perf_counter()
        for case in self.cases:
            self.searches.clear()
            t = time.perf_counter()
            try:
                result = self.pipeline.compare_source(case.gct, self.config)
            except Exception as e:      # a crash is a wrong answer, not a stop
                result = e
            latency = time.perf_counter() - t
            searches = list(self.searches)
            timed_out = any(s[1] for s in searches)
            answer = Answer(f"error {result!r}") if isinstance(result, Exception) \
                else answer_from_result(result, timed_out)
            rows.append((case, answer, latency, sum(s[0] for s in searches)))
        wall = time.perf_counter() - start
        layers = None
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.take()
            self.traced_spans.append(spans)
            layers = layer_metrics(spans)
            inside = layers["pipeline.compare_s"]
            layers["service.server_s"] = inside
            layers["service.wait_s"] = sum(r[2] for r in rows) - inside
        return wall, rows, layers

    def close(self):
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Service:
    """Comparisons through `POST /compare` of `geomcompare serve`, run by
    serve.py in its own process; two closed-loop clients."""

    CLIENTS = 2

    def __init__(self, cases, seed: int):
        from geomcompare import CompareConfig
        self.cases = cases
        self.tol = CompareConfig().tol
        self.seed = seed
        self.rounds_done = 0
        self.server = None
        self.traced_spans: list = []
        self.start_server(trace=False)

    def start_server(self, trace: bool):
        tag = f"{self.seed}-{os.getpid()}-{self.rounds_done}"
        self.stats_path = os.path.join(OUT, f"service-stats-{tag}.jsonl")
        self.trace_path = os.path.join(OUT, f"service-trace-{tag}") if trace else ""
        cmd = [sys.executable, os.path.join(HERE, "serve.py"),
               "--src", os.path.join(ROOT, "src"), "--stats", self.stats_path,
               "--timeout", str(COMPARE_TIMEOUT)]
        if trace:
            cmd += ["--trace", self.trace_path]
        self.server = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = self.server.stdout.readline()
        if not line.strip():
            self.stop_server()
            raise RuntimeError("server did not start")
        self.port = int(line)
        # the server answers: anything but a connection error will do
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/")
            conn.getresponse().read()
        finally:
            conn.close()

    def stop_server(self):
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None
        if os.path.exists(self.stats_path):
            os.remove(self.stats_path)

    def post(self, body: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=170)
        try:
            t = time.perf_counter()
            conn.request("POST", "/compare", body.encode(),
                         {"Content-Type": "text/plain"})
            resp = conn.getresponse()
            data = resp.read()
            latency = time.perf_counter() - t
        finally:
            conn.close()
        if resp.status != 200:
            return latency, f"HTTP {resp.status}: {data[:200]!r}"
        return latency, json.loads(data)

    def round(self, tracer=None):
        if (tracer is not None) != bool(self.trace_path):
            self.stop_server()
            self.start_server(trace=tracer is not None)
        r = self.rounds_done
        self.rounds_done += 1
        replies: dict[tuple[int, int], tuple] = {}
        errors: list = []

        n = len(self.cases)

        def client(k: int):
            # every client sends the whole mix, each from its own offset
            try:
                for j in range(n):
                    i = (j + k * n // self.CLIENTS) % n
                    body = f"# certbench request {r}-{k}-{i}\n" + self.cases[i].gct
                    replies[k, i] = self.post(body)
            except Exception as e:      # reported below, after the join
                errors.append(e)

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(self.CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]
        server = {}
        with open(self.stats_path) as f:
            for line in f:
                rec = json.loads(line)
                server[rec["id"]] = rec
        rows = []
        for (k, i), (latency, doc) in sorted(replies.items()):
            rec = server[f"{r}-{k}-{i}"]
            answer = Answer(f"error {doc}") if isinstance(doc, str) \
                else answer_from_document(doc, rec["timed_out"])
            rows.append((self.cases[i], answer, latency, rec["boxes"]))
        layers = None
        if tracer is not None:
            path = self.trace_path
            self.stop_server()
            with open(path + ".json") as f:
                layers = json.load(f)
            os.remove(path + ".json")
            inside = sum(server[f"{r}-{k}-{i}"]["server_s"] for k, i in replies)
            layers["service.server_s"] = inside
            layers["service.wait_s"] = sum(row[2] for row in rows) - inside
        return wall, rows, layers

    def close(self):
        self.stop_server()

    def peak_rss_mb(self) -> float:
        # the largest child waited for: the server
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "geomcompare")):
        print(f"no geomcompare sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    cases = casegen.workload(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "service":
        runner = Service(cases, args.seed)
    else:
        runner = InProcess(cases)
    setup_s = process_age()

    tracer = Tracer() if args.trace else None
    plain, traced = [], []          # (wall, rows, layers) per round
    speed = Speedometer()
    speed.start()
    start = time.perf_counter()
    try:
        # whole rounds; a round starts only if, at the pace so far, it ends
        # within the run's seconds (the first round always runs)
        while True:
            plain.append(runner.round())
            if tracer is not None:
                traced.append(runner.round(tracer))
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
    finally:
        speed.stop()
        runner.close()
    peak_rss_mb = runner.peak_rss_mb()

    attempted = failed = 0
    correct = True
    for _wall, rows, _layers in plain + traced:
        for case, answer, _latency, _boxes in rows:
            attempted += 1
            errors = check(case, answer, runner.tol, args.seed)
            if errors:
                failed += 1
                if case.known_fault is None:
                    correct = False
                print(f"FAIL {case.name}: {'; '.join(errors)}"
                      + (f" (known fault: {case.known_fault})"
                         if case.known_fault else ""), file=sys.stderr)

    boxes = [sum(row[3] for row in rows) for _w, rows, _l in plain + traced]
    if len(set(boxes)) != 1:
        print(f"boxes differ between rounds: {boxes}", file=sys.stderr)
    if runner.traced_spans:
        write_spans(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.tsv.gz"),
                    runner.traced_spans)
    # every time is reported in reference seconds (see speed.py)
    factor = speed.factor()
    if tracer is not None:
        layers = {}
        for name in traced[0][2]:
            layers[name] = statistics.median(t[2][name] for t in traced)
        layers["trace.overhead_ratio"] = (
            statistics.median(t[0] for t in traced)
            / statistics.median(p[0] for p in plain))
        metrics = {}
        for name, v in layers.items():
            unit = layer_unit(name)
            metrics[name] = {"value": v * factor if unit in ("s", "us") else v,
                             "unit": unit}
    else:
        wall = {
            "setup_s": setup_s,
            "solve_s": statistics.fmean(p[0] for p in plain),
            "compare_mean_s": statistics.fmean(row[2] for p in plain for row in p[1]),
        }
        metrics = {name: {"value": v * factor, "unit": "s"} for name, v in wall.items()}
        metrics["boxes"] = {"value": boxes[0], "unit": "count"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print("wall seconds: " + " ".join(f"{k} {v:.4f}" for k, v in wall.items()),
              file=sys.stderr)
    print(f"speed factor {factor:.4f} over {len(speed.slowness)} slices; slowness "
          + " ".join(f"{x:.2f}" for x in speed.slowness), file=sys.stderr)
    print("round seconds: " + " ".join(f"{p[0]:.3f}" for p in plain)
          + (" | traced: " + " ".join(f"{t[0]:.3f}" for t in traced) if traced else ""),
          file=sys.stderr)
    per_case: dict[str, list] = {}
    for _wall, rows, _layers in plain:
        for case, _answer, latency, box in rows:
            per_case.setdefault(case.name, [box]).append(latency)
    for name, (box, *latencies) in per_case.items():
        print(f"{name:48s} {statistics.median(latencies):8.3f} s {box:7d} boxes  "
              + " ".join(f"{x:.4f}" for x in latencies), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
