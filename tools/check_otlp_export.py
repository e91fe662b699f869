#!/usr/bin/env python
"""CI smoke test for the OTLP push pipeline.

Boots an in-process stub collector whose first response is a 500, then
mines a small table with ``otlp_endpoint`` pointed at it and checks
the pipeline's three operational guarantees:

1. batched push: documents arrive on both ``/v1/traces`` and
   ``/v1/metrics`` and every accepted batch validates against the
   library's OTLP validators;
2. retry on 5xx: the scripted 500 is retried and the same batch is
   still delivered (nothing drops);
3. graceful drain: closing the run's observability flushes everything
   outstanding before the process moves on — no telemetry is lost to
   the background interval.

Exit status 0 on success, 1 with a diagnostic otherwise.  Run from
the repository root::

    python tools/check_otlp_export.py
"""

import json
import sys
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NUM_RECORDS = 200
CONFIG = {
    "min_support": 0.3,
    "min_confidence": 0.5,
    "max_itemset_size": 2,
}


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"check_otlp_export: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class _CollectorHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        document = json.loads(self.rfile.read(length))
        with self.server.lock:
            script = self.server.fail_script
            status = script.popleft() if script else 200
            self.server.requests.append((self.path, status, document))
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def start_collector(fail_script):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CollectorHandler)
    server.lock = threading.Lock()
    server.requests = []
    server.fail_script = deque(fail_script)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def main() -> int:
    from repro.core import mine_quantitative_rules
    from repro.data import generate_credit_table
    from repro.obs import validate_otlp_metrics, validate_otlp_traces

    collector, thread = start_collector(fail_script=[500])
    endpoint = f"http://127.0.0.1:{collector.server_address[1]}"
    print(f"check_otlp_export: stub collector at {endpoint} "
          "(first response is a 500)")
    try:
        table = generate_credit_table(NUM_RECORDS, seed=5)
        result = mine_quantitative_rules(
            table, observability={"otlp_endpoint": endpoint}, **CONFIG
        )
        obs = result.observability
        if obs is None or obs.pusher is None:
            fail("otlp_endpoint alone should enable observability "
                 "with a pusher attached")
        # Graceful drain: everything recorded must leave on close.
        obs.close()
        stats = dict(obs.pusher.stats)

        with collector.lock:
            requests = list(collector.requests)
    finally:
        collector.shutdown()
        thread.join(timeout=10)
        collector.server_close()

    by_path = {}
    for path, status, document in requests:
        by_path.setdefault(path, []).append((status, document))
    for path in ("/v1/traces", "/v1/metrics"):
        if path not in by_path:
            fail(f"collector never received a POST on {path}")
    statuses = [status for status, _ in by_path["/v1/traces"]] + [
        status for status, _ in by_path["/v1/metrics"]
    ]
    if 500 not in statuses:
        fail("the scripted 500 was never consumed")
    if stats["retries"] < 1:
        fail(f"expected at least one retry after the 500, got {stats}")
    if stats["dropped_batches"]:
        fail(f"retryable 500 must not drop the batch: {stats}")
    if stats["pushed_batches"] < 2:
        fail(f"expected both signals pushed, got {stats}")
    if stats["pushed_spans"] != len(obs.tracer.spans()):
        fail(
            f"drain lost spans: pushed {stats['pushed_spans']} of "
            f"{len(obs.tracer.spans())}"
        )

    for status, document in by_path["/v1/traces"]:
        if status >= 300:
            continue
        errors = validate_otlp_traces(document)
        if errors:
            fail("trace batch invalid: " + "; ".join(errors[:3]))
    for status, document in by_path["/v1/metrics"]:
        if status >= 300:
            continue
        errors = validate_otlp_metrics(document)
        if errors:
            fail("metrics batch invalid: " + "; ".join(errors[:3]))

    print(
        f"check_otlp_export: OK — {stats['pushed_batches']} batches "
        f"({stats['pushed_spans']} spans) delivered, "
        f"{stats['retries']} retry after the 500, all batches validate"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
