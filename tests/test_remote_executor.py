"""Distributed counting: RemoteExecutor against real worker servers.

Three tiers:

- config/unit: address parsing, fn tokens, the restricted unpickler,
  :class:`~repro.core.config.RemoteConfig` normalization and validation;
- wire protocol: the ``/v1/shards/*`` routes exercised over real HTTP —
  publish/list/count round trips, every 400/403/404 contract, and the
  worker-side shard-count cache;
- equivalence: full mines through the remote executor are bit-identical
  to serial under both counting structures, including when a worker dies
  mid-pass (fault-injected via ``fail_after_counts``) and when the
  whole fleet is unreachable (local fallback / hard failure).
"""

import base64
import json
import pickle
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    MinerConfig,
    QuantitativeMiner,
    RemoteConfig,
)
from repro.data import generate_credit_table
from repro.engine import (
    RemoteDispatchError,
    RemoteExecutor,
    parse_worker_address,
    resolve_executor,
    restricted_loads,
    shard_artifact_key,
    worker_fn_token,
)
from repro.obs import Observability
from repro.obs.export import span_to_record, validate_span_record
from repro.serve import (
    MiningHTTPServer,
    MiningService,
    ShardWorker,
)
from repro.table import save_csv

BASE = {
    "min_support": 0.3,
    "min_confidence": 0.5,
    "max_itemset_size": 2,
}


# ----------------------------------------------------------------------
# Worker fleet plumbing
# ----------------------------------------------------------------------
class Fleet:
    """A handful of in-process worker servers behind real sockets."""

    def __init__(self, workers):
        self.servers = []
        self.services = []
        self.threads = []
        self.workers = workers
        for worker in workers:
            service = MiningService(
                observability=Observability(), shard_worker=worker
            ).start()
            server = MiningHTTPServer(("127.0.0.1", 0), service)
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            self.servers.append(server)
            self.services.append(service)
            self.threads.append(thread)

    @property
    def addresses(self):
        return [
            f"127.0.0.1:{server.server_address[1]}"
            for server in self.servers
        ]

    def close(self):
        for server, thread in zip(self.servers, self.threads):
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
        for service in self.services:
            service.shutdown(drain_seconds=0)


@pytest.fixture
def fleet():
    built = []

    def build(num_workers=2, fail_after_counts=()):
        workers = [
            ShardWorker(
                fail_after_counts=(
                    fail_after_counts[i]
                    if i < len(fail_after_counts)
                    else None
                )
            )
            for i in range(num_workers)
        ]
        group = Fleet(workers)
        built.append(group)
        return group

    yield build
    for group in built:
        group.close()


def remote_config(base, addresses, observability=None, **remote_overrides):
    blocks = {}
    if observability is not None:
        blocks["observability"] = observability
    return MinerConfig(
        **base,
        execution={"executor": "remote", "shard_size": 32},
        remote={"workers": addresses, **remote_overrides},
        **blocks,
    )


def request(address, method, path, body=None, content_type=None):
    headers = {"Content-Type": content_type} if content_type else {}
    req = urllib.request.Request(
        f"http://{address}{path}", data=body, method=method,
        headers=headers,
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def publish_view(address, view_fp="abc123", records=8, attributes=2):
    matrix = np.arange(records * attributes, dtype=np.int64).reshape(
        attributes, records
    ) % 3
    blob = pickle.dumps(
        {
            "matrix": matrix,
            "cardinalities": [3] * attributes,
            "num_records": records,
        }
    )
    status, payload = request(
        address,
        "PUT",
        f"/v1/shards/tables/{view_fp}",
        blob,
        "application/octet-stream",
    )
    return status, payload, matrix


def count_request(view="abc123", start=0, stop=4, **extra):
    body = {
        "view": view,
        "start": start,
        "stop": stop,
        "fn": "repro.core.frequent_items:_histogram_shard",
        "payload": base64.b64encode(pickle.dumps(None)).decode("ascii"),
    }
    body.update(extra)
    return body


def post_count(address, body):
    return request(
        address,
        "POST",
        "/v1/shards/count",
        json.dumps(body).encode(),
        "application/json",
    )


# ----------------------------------------------------------------------
# Unit: addresses, tokens, restricted pickle, RemoteConfig
# ----------------------------------------------------------------------
class TestUnits:
    def test_parse_worker_address(self):
        assert parse_worker_address("localhost:8765") == (
            "localhost", 8765
        )
        assert parse_worker_address(" 10.0.0.2:80 ") == ("10.0.0.2", 80)
        for bad in ("nohost", ":80", "host:", "host:0", "host:99999",
                    "host:abc", ""):
            with pytest.raises(ValueError):
                parse_worker_address(bad)

    def test_worker_fn_token(self):
        from repro.core.frequent_items import _histogram_shard

        token = worker_fn_token(_histogram_shard)
        assert token == "repro.core.frequent_items:_histogram_shard"
        # Closures, lambdas, and non-repro callables are not remotable.
        assert worker_fn_token(lambda view, payload: None) is None
        assert worker_fn_token(json.dumps) is None
        assert worker_fn_token(TestUnits.test_worker_fn_token) is None

    def test_restricted_loads_rejects_foreign_modules(self):
        import os

        evil = pickle.dumps(os.getcwd)
        with pytest.raises(pickle.UnpicklingError):
            restricted_loads(evil)
        # Friendly payloads still round-trip.
        friendly = {"a": np.arange(3), "b": [(1, 2)]}
        loaded = restricted_loads(pickle.dumps(friendly))
        assert list(loaded["a"]) == [0, 1, 2]

    def test_shard_artifact_key_matches_shard_cache_formula(self):
        from repro.engine.fingerprint import fingerprint

        expected = fingerprint(
            "shard-counts", "pass_2", "sfp", "efp", "pfp"
        )
        assert shard_artifact_key("pass_2", "sfp", "efp", "pfp") == (
            expected
        )

    def test_remote_config_normalization(self):
        config = RemoteConfig(workers="a:1, b:2")
        assert config.workers == ("a:1", "b:2")
        round_trip = MinerConfig(
            remote={"workers": ["a:1"]}
        ).to_dict()["remote"]
        assert round_trip["workers"] == ("a:1",)
        again = MinerConfig.from_dict(
            {"remote": {"workers": ["a:1"], "max_retries": 5}}
        )
        assert again.remote.max_retries == 5

    def test_remote_config_validation(self):
        with pytest.raises(ValueError):
            RemoteConfig(workers="nohost")
        with pytest.raises(ValueError):
            RemoteConfig(workers="a:1", task_timeout=0)
        with pytest.raises(ValueError):
            RemoteConfig(workers="a:1", max_retries=-1)
        with pytest.raises(ValueError):
            RemoteConfig(workers="a:1", backoff_seconds=-0.5)

    def test_remote_executor_needs_workers(self):
        with pytest.raises(ValueError, match="workers"):
            MinerConfig(execution={"executor": "remote"})
        with pytest.raises(ValueError, match="worker addresses"):
            resolve_executor("remote")
        with pytest.raises(ValueError):
            RemoteExecutor([])

    def test_executor_surface(self):
        executor = RemoteExecutor(["127.0.0.1:1"])
        try:
            assert executor.name == "remote"
            assert executor.num_workers == 1
            assert executor.worker_addresses == ["127.0.0.1:1"]
            # The generic map() surface stays in-process.
            assert list(executor.map(str.upper, ["a", "b"])) == [
                "A", "B"
            ]
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestWorkerRoutes:
    def test_publish_list_count_round_trip(self, fleet):
        address = fleet(num_workers=1).addresses[0]
        status, listing = request(address, "GET", "/v1/shards/tables")
        assert (status, listing) == (200, {"views": []})

        status, described, matrix = publish_view(address)
        assert status == 201
        assert described == {
            "view": "abc123", "records": 8, "attributes": 2,
        }
        status, listing = request(address, "GET", "/v1/shards/tables")
        assert (status, listing) == (200, {"views": ["abc123"]})

        status, payload = post_count(address, count_request(stop=8))
        assert status == 200, payload
        histograms = restricted_loads(
            base64.b64decode(payload["result"])
        )
        for attribute, histogram in enumerate(histograms):
            expected = np.bincount(matrix[attribute], minlength=3)
            assert list(histogram) == list(expected)
        assert payload["cache"] == "uncached"
        assert payload["seconds"] >= 0

    def test_count_cache_hit_on_artifact_key(self, fleet):
        address = fleet(num_workers=1).addresses[0]
        publish_view(address)
        body = count_request(artifact_key="k1", stage="pass_2")
        status, first = post_count(address, body)
        status2, second = post_count(address, body)
        assert (status, status2) == (200, 200)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert second["result"] == first["result"]

    def test_routes_disabled_without_worker_mode(self):
        service = MiningService(observability=Observability()).start()
        server = MiningHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            address = f"127.0.0.1:{server.server_address[1]}"
            status, payload = request(
                address, "GET", "/v1/shards/tables"
            )
            assert status == 403
            assert "--worker" in payload["error"]["message"]
            status, _ = post_count(address, count_request())
            assert status == 403
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.shutdown(drain_seconds=0)

    def test_unknown_view_404(self, fleet):
        address = fleet(num_workers=1).addresses[0]
        status, payload = post_count(
            address, count_request(view="ghost")
        )
        assert status == 404
        assert "ghost" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "mutate",
        [
            {"start": "0"},
            {"start": True},
            {"start": 5, "stop": 2},
            {"start": -1},
            {"fn": "os.system"},
            {"fn": "repro.core"},
            {"fn": "repro.core:a:b"},
            {"fn": ":broken"},
            {"payload": 42},
            {"surprise": 1},
            {"artifact_key": ""},
        ],
        ids=lambda m: next(iter(m.items()))[0] + "="
        + repr(next(iter(m.items()))[1]),
    )
    def test_malformed_count_requests_400(self, fleet, mutate):
        address = fleet(num_workers=1).addresses[0]
        publish_view(address)
        status, payload = post_count(address, count_request(**mutate))
        assert status == 400, payload
        assert "error" in payload

    def test_malformed_count_shapes_400(self, fleet):
        address = fleet(num_workers=1).addresses[0]
        publish_view(address)
        # Not a JSON object at all.
        status, _ = request(
            address, "POST", "/v1/shards/count",
            json.dumps([1, 2]).encode(), "application/json",
        )
        assert status == 400
        # Not JSON at all.
        status, _ = request(
            address, "POST", "/v1/shards/count",
            b"not json", "application/json",
        )
        assert status == 400
        # Missing a required field.
        body = count_request()
        del body["fn"]
        status, _ = post_count(address, body)
        assert status == 400
        # Payload that is not base64.
        status, _ = post_count(
            address, count_request(payload="!!!not-b64!!!")
        )
        assert status == 400
        # Range past the published view's records (8).
        status, _ = post_count(address, count_request(stop=9))
        assert status == 400
        # An unresolvable (but well-formed) fn token.
        status, _ = post_count(
            address, count_request(fn="repro.no_such_module:fn")
        )
        assert status == 400

    def test_publish_rejects_bad_blobs(self, fleet):
        address = fleet(num_workers=1).addresses[0]
        for blob in (
            b"not a pickle",
            pickle.dumps({"matrix": [1, 2]}),
            pickle.dumps(
                {
                    "matrix": np.zeros((2, 4), dtype=np.int64),
                    "cardinalities": [3],
                    "num_records": 4,
                }
            ),
        ):
            status, payload = request(
                address, "PUT", "/v1/shards/tables/xyz", blob,
                "application/octet-stream",
            )
            assert status == 400, payload


# ----------------------------------------------------------------------
# Equivalence: remote mining == serial mining, bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table():
    return generate_credit_table(600, seed=11)


#: Configs by the structure that counts them: the default budget (the
#: array) and budget 0 (the R*-tree everywhere), whose coarse partitions
#: keep its pure-Python pass 2 to a fraction of a second.
CONFIGS = {
    "array": BASE,
    "rtree": dict(
        BASE, memory_budget_bytes=0, num_partitions=5, max_support=0.6
    ),
}


@pytest.fixture(scope="module")
def serial_results(table):
    return {
        backend: QuantitativeMiner(table, MinerConfig(**config)).mine()
        for backend, config in CONFIGS.items()
    }


def assert_same_mining(remote, serial):
    assert remote.support_counts == serial.support_counts
    assert [str(r) for r in remote.rules] == [
        str(r) for r in serial.rules
    ]
    assert [str(r) for r in remote.interesting_rules] == [
        str(r) for r in serial.interesting_rules
    ]


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["array", "rtree"])
    def test_remote_matches_serial(
        self, fleet, table, serial_results, backend
    ):
        group = fleet(num_workers=2)
        config = remote_config(CONFIGS[backend], group.addresses)
        remote = QuantitativeMiner(table, config).mine()
        assert_same_mining(remote, serial_results[backend])
        assert set(remote.stats.counting_groups_by_backend) - {"mask"} == {
            backend
        }
        execution = remote.stats.execution
        assert execution.executor == "remote"
        assert execution.remote_tasks > 0
        assert execution.remote_worker_deaths == 0
        assert execution.remote_local_fallbacks == 0
        assert set(execution.remote_worker_tasks) == set(
            group.addresses
        )

    @pytest.mark.parametrize("backend", ["array"])
    def test_worker_death_mid_pass_is_bit_identical(
        self, fleet, table, serial_results, backend
    ):
        # Worker 0 serves exactly one count, then fails every request:
        # the coordinator must mark it dead and re-dispatch its shard
        # tasks to worker 1 without changing a single count.
        group = fleet(num_workers=2, fail_after_counts=(1, None))
        config = remote_config(
            CONFIGS[backend],
            group.addresses,
            observability={"enabled": True},
            backoff_seconds=0.01,
        )
        remote = QuantitativeMiner(table, config).mine()
        assert_same_mining(remote, serial_results[backend])
        execution = remote.stats.execution
        assert execution.remote_worker_deaths >= 1
        assert execution.remote_retries >= 1
        # The survivor carried the remainder of the run.
        survivor = group.addresses[1]
        assert execution.remote_worker_tasks[survivor] > 0
        # The fault shows up in the labeled telemetry too: retries and
        # the death accounted against the failed worker's address, and
        # a remote_retry event span under some dispatch span.
        dead = group.addresses[0]
        counters = remote.observability.metrics.snapshot()["counters"]
        assert counters[f'remote.retries{{worker="{dead}"}}'] >= 1
        assert counters[f'remote.dead_workers{{worker="{dead}"}}'] == 1
        spans = remote.observability.tracer.spans()
        retry_events = [
            s for s in spans
            if s.kind == "event" and s.name == "remote_retry"
        ]
        assert retry_events
        span_ids = {s.span_id for s in spans}
        assert all(e.parent_id in span_ids for e in retry_events)

    def test_whole_fleet_dead_falls_back_local(
        self, table, serial_results
    ):
        config = remote_config(
            BASE, ["127.0.0.1:9", "127.0.0.1:10"],
            backoff_seconds=0.0, task_timeout=0.5,
        )
        remote = QuantitativeMiner(table, config).mine()
        assert_same_mining(remote, serial_results["array"])
        execution = remote.stats.execution
        assert execution.remote_local_fallbacks > 0
        assert execution.remote_worker_deaths == 2

    def test_whole_fleet_dead_raises_without_fallback(self, table):
        config = remote_config(
            BASE, ["127.0.0.1:9"],
            backoff_seconds=0.0, task_timeout=0.5,
            fallback_local=False,
        )
        with pytest.raises(RemoteDispatchError):
            QuantitativeMiner(table, config).mine()

    def test_worker_cache_reused_across_runs(self, fleet, table):
        group = fleet(num_workers=2)
        config = remote_config(BASE, group.addresses)
        first = QuantitativeMiner(table, config).mine()
        second = QuantitativeMiner(table, config).mine()
        assert_same_mining(second, first)
        assert second.stats.execution.remote_cache_hits > 0

    def test_workers_override_implies_remote_executor(
        self, fleet, table, tmp_path, capsys
    ):
        # The CLI's --workers alone selects the remote executor.
        group = fleet(num_workers=2)
        path = tmp_path / "credit.csv"
        save_csv(table, path)
        args = [
            "mine", str(path),
            "--min-support", str(BASE["min_support"]),
            "--min-confidence", str(BASE["min_confidence"]),
            "--max-itemset-size", str(BASE["max_itemset_size"]),
            "--all-rules", "--stats",
        ]
        assert main(args) == 0
        serial = capsys.readouterr()
        assert main(
            args
            + ["--workers", ",".join(group.addresses), "--shard-size", "32"]
        ) == 0
        remote = capsys.readouterr()
        assert "=>" in serial.out
        assert remote.out == serial.out
        assert "remote counting:" in remote.err
        assert "remote counting:" not in serial.err

    def test_summary_mentions_remote_lane(self, fleet, table):
        group = fleet(num_workers=2)
        config = remote_config(BASE, group.addresses)
        result = QuantitativeMiner(table, config).mine()
        summary = result.stats.summary()
        assert "remote counting:" in summary
        for address in group.addresses:
            assert address in summary


class TestFleetTelemetry:
    """Distributed trace propagation and per-worker labeled metrics."""

    def mine_with_obs(self, fleet, table, **kwargs):
        group = fleet(num_workers=2)
        config = remote_config(
            BASE, group.addresses,
            observability={"enabled": True}, **kwargs,
        )
        return group, QuantitativeMiner(table, config).mine()

    def test_worker_spans_stitch_under_coordinator_trace(
        self, fleet, table
    ):
        group, result = self.mine_with_obs(fleet, table)
        tracer = result.observability.tracer
        spans = tracer.spans()
        dispatches = [s for s in spans if s.kind == "remote_dispatch"]
        shard_counts = [s for s in spans if s.kind == "worker_shard"]
        assert dispatches and shard_counts
        dispatch_ids = {s.span_id for s in dispatches}
        for span in shard_counts:
            assert span.name == "shard_count"
            assert span.trace_id == tracer.trace_id
            assert span.parent_id in dispatch_ids
            assert span.attributes["worker"] in group.addresses
        # The merged log is one self-contained tree: every parent
        # resolves, and every record round-trips through the exported
        # schema (trace_id included).
        span_ids = {s.span_id for s in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in span_ids
            assert validate_span_record(span_to_record(span)) == []

    def test_worker_spans_place_on_coordinator_clock(
        self, fleet, table
    ):
        _, result = self.mine_with_obs(fleet, table)
        tracer = result.observability.tracer
        by_id = {s.span_id: s for s in tracer.spans()}
        for span in by_id.values():
            if span.kind != "worker_shard":
                continue
            parent = by_id[span.parent_id]
            # Rebasing start_unix onto the tracer epoch keeps the
            # worker's work inside (or within clock skew of) its
            # dispatch span's window.
            assert span.start >= parent.start - 1.0
            assert span.duration <= parent.duration + 1.0

    def test_worker_metrics_labeled_by_address(self, fleet, table):
        group, result = self.mine_with_obs(fleet, table)
        labeled = result.observability.metrics.labeled_snapshot()
        counted = {
            c["labels"]["worker"]
            for c in labeled["counters"]
            if c["name"] == "worker.counts" and c["value"] > 0
        }
        assert counted == set(group.addresses)
        latency_workers = {
            h["labels"]["worker"]
            for h in labeled["histograms"]
            if h["name"] == "remote.count_seconds"
        }
        assert latency_workers == set(group.addresses)
        for hist in labeled["histograms"]:
            if hist["name"] == "remote.count_seconds":
                assert hist["buckets"] is not None
                assert sum(hist["buckets"]["counts"]) == hist["count"]

    def test_dead_worker_leaves_stitchable_truncated_trace(
        self, fleet, table
    ):
        # Worker 0 dies mid-pass: its completed shard_count spans stay
        # in the trace, its failed request contributes none, and the
        # log remains a valid tree (no dangling parents).
        group = fleet(num_workers=2, fail_after_counts=(1, None))
        config = remote_config(
            BASE, group.addresses,
            observability={"enabled": True},
            backoff_seconds=0.01,
        )
        result = QuantitativeMiner(table, config).mine()
        tracer = result.observability.tracer
        spans = tracer.spans()
        span_ids = {s.span_id for s in spans}
        for span in spans:
            assert span.parent_id is None or span.parent_id in span_ids
            assert validate_span_record(span_to_record(span)) == []
        survivors = {
            s.attributes["worker"]
            for s in spans
            if s.kind == "worker_shard"
        }
        assert group.addresses[1] in survivors

    def test_disabled_observability_adds_no_wire_telemetry(
        self, fleet, table
    ):
        # Without obs the coordinator must not send traceparent, so
        # workers skip span fabrication entirely.
        group = fleet(num_workers=2)
        config = remote_config(BASE, group.addresses)
        result = QuantitativeMiner(table, config).mine()
        assert result.observability is None
