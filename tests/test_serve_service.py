"""Integration tests for repro.serve.MiningService (no sockets).

Contracts under test: submissions are durable before they mine,
server-mined rules are bit-identical to the direct miner, event streams
replay the full lifecycle and end with the rules, cancellation and
timeouts journal a reason, and a store left by a dead service recovers
its unfinished jobs.
"""

import time

import pytest

from repro.core import MinerConfig, mine_quantitative_rules
from repro.core.export import result_to_document
from repro.obs import Observability
from repro.serve import (
    DiskJobStore,
    JobRecord,
    MiningService,
    ServiceClosed,
    TableRegistry,
)

CSV = "age,income,married\n" + "\n".join(
    f"{20 + i % 30},{1000 + 137 * (i % 17)},{'yes' if i % 3 else 'no'}"
    for i in range(60)
)
CONFIG = {"min_support": 0.2, "min_confidence": 0.5, "max_support": 0.5}


def wait_done(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.get_record(job_id)
        if record is not None and record.status not in (
            "queued", "running"
        ):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture
def service():
    svc = MiningService(observability=Observability()).start()
    svc.tables.put_csv("people", CSV, categorical=["married"])
    yield svc
    svc.shutdown(drain_seconds=0)


class TestSubmitAndComplete:
    def test_job_completes_with_stats(self, service):
        record = service.submit_job(table_name="people", config=CONFIG)
        # The job may already be running (or even done) by the time the
        # handle returns; what matters is that the submission is durable.
        assert service.get_record(record.job_id) is not None
        done = wait_done(service, record.job_id)
        assert done.status == "completed"
        assert done.started_at is not None
        assert done.finished_at is not None
        assert done.stats["status"] == "completed"
        assert done.stats["num_rules"] > 0

    def test_rules_bit_identical_to_direct_miner(self, service):
        record = service.submit_job(table_name="people", config=CONFIG)
        wait_done(service, record.job_id)
        document = service.result_document(record.job_id)

        direct = mine_quantitative_rules(
            service.tables.get("people"), MinerConfig.from_dict(CONFIG)
        )
        expected = result_to_document(direct)
        assert document["rules"] == expected["rules"]
        assert document["num_records"] == expected["num_records"]
        assert document["config"] == expected["config"]

    def test_inline_csv_registers_content_named_table(self, service):
        record = service.submit_job(
            csv=CSV, categorical=["married"], config=CONFIG
        )
        assert record.table_ref.startswith("inline-")
        assert record.table_ref in service.tables
        done = wait_done(service, record.job_id)
        assert done.status == "completed"

    def test_event_stream_ends_with_rules(self, service):
        record = service.submit_job(table_name="people", config=CONFIG)
        events = list(service.event_stream(record.job_id).subscribe())
        kinds = [e["event"] for e in events]
        assert kinds[0] == "status"
        assert "stage" in kinds
        assert kinds[-1] == "completed"
        assert events[-1]["result"]["format"] == "repro.mining_result"
        assert events[-1]["stats"]["num_rules"] > 0
        # The stream replays: a late subscriber sees the same history.
        replay = list(service.event_stream(record.job_id).subscribe())
        assert replay == events

    def test_unknown_table_rejected_before_journaling(self, service):
        with pytest.raises(KeyError):
            service.submit_job(table_name="ghost", config=CONFIG)
        assert service.list_records() == []

    def test_traversal_job_id_rejected_before_journaling(self, service):
        # Defense in depth below the HTTP layer: library callers get
        # the same charset check parse_submission applies.
        with pytest.raises(ValueError, match="job id"):
            service.submit_job(
                table_name="people",
                config=CONFIG,
                job_id="../../../../tmp/evil",
            )
        assert service.list_records() == []

    def test_bad_config_rejected_before_journaling(self, service):
        with pytest.raises(ValueError):
            service.submit_job(
                table_name="people", config={"min_support": 2.0}
            )
        assert service.list_records() == []

    def test_submit_after_shutdown_rejected(self):
        svc = MiningService().start()
        svc.shutdown(drain_seconds=0)
        with pytest.raises(ServiceClosed):
            svc.submit_job(csv=CSV, config=CONFIG)


class TestCancelAndTimeout:
    def test_cancel_queued_job_records_reason(self):
        svc = MiningService(max_concurrent_jobs=1).start()
        try:
            svc.tables.put_csv("people", CSV, categorical=["married"])
            first = svc.submit_job(table_name="people", config=CONFIG)
            second = svc.submit_job(table_name="people", config=CONFIG)
            assert svc.cancel_job(second.job_id, reason="changed my mind")
            done = wait_done(svc, second.job_id)
            assert done.status == "cancelled"
            assert done.cancel_reason == "changed my mind"
            assert wait_done(svc, first.job_id).status == "completed"
        finally:
            svc.shutdown(drain_seconds=0)

    def test_cancel_unknown_job_returns_false(self, service):
        assert not service.cancel_job("ghost")

    def test_timeout_journals_reason(self, service):
        record = service.submit_job(
            table_name="people", config=CONFIG, timeout=0.0001
        )
        done = wait_done(service, record.job_id)
        assert done.status == "timed_out"
        assert "wall-clock budget" in done.cancel_reason
        assert done.timeout == 0.0001

    def test_terminal_stream_event_carries_reason(self, service):
        record = service.submit_job(
            table_name="people", config=CONFIG, timeout=0.0001
        )
        events = list(service.event_stream(record.job_id).subscribe())
        assert events[-1]["event"] == "timed_out"
        assert "wall-clock budget" in events[-1]["cancel_reason"]


class TestRecovery:
    def seed_dead_server(self, tmp_path):
        """A store + table dir as a killed server would leave them."""
        store = DiskJobStore(tmp_path / "store")
        tables = TableRegistry(tmp_path / "tables")
        tables.put_csv("people", CSV, categorical=["married"])
        store.create(
            JobRecord(
                job_id="job-queued",
                table_ref="people",
                config=CONFIG,
                submitted_at=time.time(),
            )
        )
        store.create(
            JobRecord(
                job_id="job-running",
                table_ref="people",
                config=CONFIG,
                status="running",
                submitted_at=time.time(),
            )
        )
        store.create(
            JobRecord(
                job_id="job-done",
                table_ref="people",
                config=CONFIG,
                status="completed",
                submitted_at=time.time(),
            )
        )
        store.close()
        return tmp_path

    def test_recover_requeues_and_completes(self, tmp_path):
        root = self.seed_dead_server(tmp_path)
        svc = MiningService(
            store=DiskJobStore(root / "store"),
            tables=TableRegistry(root / "tables"),
        ).start()
        try:
            requeued = svc.recover()
            assert sorted(r.job_id for r in requeued) == [
                "job-queued", "job-running",
            ]
            for job_id in ("job-queued", "job-running"):
                done = wait_done(svc, job_id)
                assert done.status == "completed"
                assert done.recovered == 1
                assert svc.result_document(job_id) is not None
            # The completed job was left alone.
            assert svc.get_record("job-done").recovered == 0
        finally:
            svc.shutdown(drain_seconds=0)

    def test_recovered_rules_bit_identical(self, tmp_path):
        root = self.seed_dead_server(tmp_path)
        svc = MiningService(
            store=DiskJobStore(root / "store"),
            tables=TableRegistry(root / "tables"),
        ).start()
        try:
            svc.recover()
            wait_done(svc, "job-queued")
            document = svc.result_document("job-queued")
            direct = mine_quantitative_rules(
                svc.tables.get("people"), MinerConfig.from_dict(CONFIG)
            )
            assert document["rules"] == result_to_document(direct)["rules"]
        finally:
            svc.shutdown(drain_seconds=0)

    def test_recovery_accepts_stored_counting_choice(self, tmp_path):
        """A journaled config from when the counting structure was an
        option still recovers, and mines the same rules."""
        self.assert_recovers(tmp_path, dict(CONFIG, counting="bitmap"))

    def test_recovery_accepts_stored_async_block(self, tmp_path):
        """A journaled config from when ``async_mining`` was a config
        block still recovers, and mines the same rules."""
        self.assert_recovers(
            tmp_path,
            dict(
                CONFIG,
                async_mining={"max_concurrent_jobs": 2, "job_timeout": None},
            ),
        )

    @staticmethod
    def assert_recovers(tmp_path, stored_config):
        store = DiskJobStore(tmp_path / "store")
        tables = TableRegistry(tmp_path / "tables")
        tables.put_csv("people", CSV, categorical=["married"])
        store.create(
            JobRecord(
                job_id="job-old",
                table_ref="people",
                config=stored_config,
                submitted_at=time.time(),
            )
        )
        store.close()
        svc = MiningService(
            store=DiskJobStore(tmp_path / "store"),
            tables=TableRegistry(tmp_path / "tables"),
        ).start()
        try:
            assert [r.job_id for r in svc.recover()] == ["job-old"]
            assert wait_done(svc, "job-old").status == "completed"
            direct = mine_quantitative_rules(
                svc.tables.get("people"), MinerConfig.from_dict(CONFIG)
            )
            document = svc.result_document("job-old")
            assert document["rules"] == result_to_document(direct)["rules"]
        finally:
            svc.shutdown(drain_seconds=0)

    def test_recovery_fails_job_with_missing_table(self, tmp_path):
        store = DiskJobStore(tmp_path / "store")
        store.create(
            JobRecord(
                job_id="orphan", table_ref="ghost", config=CONFIG,
                submitted_at=time.time(),
            )
        )
        store.close()
        svc = MiningService(store=DiskJobStore(tmp_path / "store")).start()
        try:
            assert svc.recover() == []
            record = svc.get_record("orphan")
            assert record.status == "failed"
            assert "no longer registered" in record.error
        finally:
            svc.shutdown(drain_seconds=0)

    def test_shutdown_interrupts_unfinished_jobs(self, tmp_path):
        store_dir = tmp_path / "store"
        tables_dir = tmp_path / "tables"
        svc = MiningService(
            store=DiskJobStore(store_dir),
            tables=TableRegistry(tables_dir),
            max_concurrent_jobs=1,
        ).start()
        svc.tables.put_csv("people", CSV, categorical=["married"])
        # Queue several; with concurrency 1 most are still pending when
        # the drain deadline (0s) fires, so shutdown must cancel them.
        ids = [
            svc.submit_job(table_name="people", config=CONFIG).job_id
            for _ in range(4)
        ]
        svc.shutdown(drain_seconds=0)

        reopened = DiskJobStore(store_dir)
        statuses = {
            job_id: reopened.get(job_id).status for job_id in ids
        }
        assert set(statuses.values()) <= {"completed", "interrupted"}
        interrupted = [
            j for j, s in statuses.items() if s == "interrupted"
        ]
        assert interrupted, f"expected interrupted jobs, got {statuses}"
        reopened.close()

        # Round trip: a fresh service recovers and finishes them all.
        svc2 = MiningService(
            store=DiskJobStore(store_dir),
            tables=TableRegistry(tables_dir),
        ).start()
        try:
            requeued = svc2.recover()
            assert sorted(r.job_id for r in requeued) == sorted(interrupted)
            for job_id in ids:
                assert wait_done(svc2, job_id).status == "completed"
        finally:
            svc2.shutdown(drain_seconds=0)

    def test_cold_event_stream_replays_stored_outcome(self, tmp_path):
        root = self.seed_dead_server(tmp_path)
        store = DiskJobStore(root / "store")
        store.save_result("job-done", {"format": "repro.mining_result"})
        svc = MiningService(
            store=store, tables=TableRegistry(root / "tables")
        ).start()
        try:
            events = list(svc.event_stream("job-done").subscribe())
            assert [e["event"] for e in events] == [
                "status", "completed",
            ]
            assert events[-1]["result"] == {
                "format": "repro.mining_result"
            }
            with pytest.raises(KeyError):
                svc.event_stream("ghost")
        finally:
            svc.shutdown(drain_seconds=0)


class TestRetention:
    def test_finished_job_handles_released(self, service):
        record = service.submit_job(table_name="people", config=CONFIG)
        wait_done(service, record.job_id)
        # The MiningJob handle (holding the full MiningResult) must not
        # outlive finalization; the outcome lives in the store.
        deadline = time.monotonic() + 10
        while record.job_id in service._jobs:
            assert time.monotonic() < deadline, "job handle never evicted"
            time.sleep(0.02)
        assert service.result_document(record.job_id) is not None

    def test_stream_retention_capped_with_store_fallback(self):
        svc = MiningService(retain_finished=1).start()
        try:
            svc.tables.put_csv("people", CSV, categorical=["married"])
            first = svc.submit_job(table_name="people", config=CONFIG)
            wait_done(svc, first.job_id)
            second = svc.submit_job(table_name="people", config=CONFIG)
            wait_done(svc, second.job_id)
            deadline = time.monotonic() + 10
            while first.job_id in svc._streams:
                assert time.monotonic() < deadline, "stream never evicted"
                time.sleep(0.02)
            # Late subscribers of the evicted job still end up holding
            # the rules, via the store-synthesized replay.
            events = list(svc.event_stream(first.job_id).subscribe())
            assert events[-1]["event"] == "completed"
            assert events[-1]["result"]["format"] == "repro.mining_result"
            runner = svc._runner
            assert len(runner.jobs) <= 1
            assert len(runner.stats.jobs) <= 1
            assert runner.stats.completed == 2
        finally:
            svc.shutdown(drain_seconds=0)

    def test_cold_unfinished_record_stream_closes(self, tmp_path):
        # A job journaled 'interrupted' by a dead server, viewed by a
        # new server started WITHOUT --recover: nothing in this process
        # will ever append to its stream, so a subscriber must drain
        # the synthesized replay and return instead of blocking the
        # handler thread forever.
        store = DiskJobStore(tmp_path / "store")
        store.create(
            JobRecord(
                job_id="stranded",
                table_ref="people",
                config=CONFIG,
                status="interrupted",
                submitted_at=time.time(),
                cancel_reason="server shutdown",
            )
        )
        store.close()
        svc = MiningService(store=DiskJobStore(tmp_path / "store")).start()
        try:
            stream = svc.event_stream("stranded")
            assert stream.closed
            events = list(stream.subscribe())
            assert [e["event"] for e in events] == ["status"]
            assert events[0]["status"] == "interrupted"
        finally:
            svc.shutdown(drain_seconds=0)


class TestObservability:
    def test_jobs_recorded_in_shared_registry(self, service):
        record = service.submit_job(table_name="people", config=CONFIG)
        wait_done(service, record.job_id)
        snapshot = service.observability.metrics.snapshot()
        assert snapshot["counters"]["jobs.completed"] >= 1
        kinds = {
            s.kind for s in service.observability.tracer.spans()
        }
        assert "job" in kinds
