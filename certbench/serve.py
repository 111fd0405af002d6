"""Launcher of `geomcompare serve` for the `service` workload.

Runs the program's own HTTP server (`geomcompare.service.serve`) on a free
port of 127.0.0.1 and prints the port as its first line. Around
`compare_source` it records, per request, the time spent inside it, the
boxes of its bounds searches and whether any of them timed out, and appends
one JSON line per request to STATS. With --trace it also records spans
(see tracing.py) and writes them to the given path when it ends. It ends on
SIGTERM.

    python3 certbench/serve.py --src SRC --stats STATS [--trace PATH]
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys
import threading
import time

REQUEST_ID = re.compile(r"^# certbench request (\S+)$", re.M)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--stats", required=True)
    ap.add_argument("--timeout", type=float, required=True)
    ap.add_argument("--trace", default="")
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    import geomcompare.pipeline as pipeline
    from geomcompare.service import serve

    from tracing import Tracer, layer_metrics, replace_everywhere, write_spans

    local = threading.local()
    lock = threading.Lock()
    stats = open(args.stats, "a")

    search = pipeline.branch_and_bound

    def counted_search(*a, **kw):
        result = search(*a, **kw)
        local.searches.append((result.boxes, result.timed_out))
        return result

    compare_source = pipeline.compare_source

    def timed_compare(src, config=None):
        local.searches = []
        start = time.perf_counter()
        try:
            return compare_source(src, config)
        finally:
            elapsed = time.perf_counter() - start
            m = REQUEST_ID.search(src)
            record = {"id": m.group(1) if m else None, "server_s": elapsed,
                      "boxes": sum(b for b, _ in local.searches),
                      "timed_out": any(t for _, t in local.searches)}
            with lock:
                stats.write(json.dumps(record) + "\n")
                stats.flush()

    replace_everywhere(search, counted_search)
    replace_everywhere(compare_source, timed_compare)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    server = serve("127.0.0.1", 0, args.timeout)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(
        target=server.shutdown, daemon=True).start())
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        stats.close()
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.take()
            write_spans(args.trace + ".tsv.gz", [spans])
            with open(args.trace + ".json", "w") as out:
                json.dump(layer_metrics(spans), out)


if __name__ == "__main__":
    main()
