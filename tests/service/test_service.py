"""Tests for the TransactionService: sessions, admission, monitoring."""

import threading

import pytest

from repro.core.errors import StoreError, TransactionAborted
from repro.monitor import ConsistencyMonitor, MonitorError
from repro.mvcc import SIEngine, SerializableEngine
from repro.mvcc.runtime import ReadOp, WriteOp
from repro.service import ServiceMetrics, TransactionService


def incr(obj, amount=1):
    def tx():
        value = yield ReadOp(obj)
        yield WriteOp(obj, value + amount)

    return tx


class TestExplicitControl:
    def test_begin_read_write_commit(self):
        service = TransactionService(SIEngine({"x": 0}))
        session = service.session("alice")
        session.begin()
        assert session.read("x") == 0
        session.write("x", 7)
        outcome = session.commit()
        assert outcome.attempts == 1
        service.drain()
        assert service.violations == []
        assert outcome.record.session == "alice"
        assert service.metrics.commits == 1
        assert service.metrics.in_flight == 0

    def test_two_transactions_in_one_session_rejected(self):
        service = TransactionService(SIEngine({"x": 0}))
        session = service.session()
        session.begin()
        with pytest.raises(StoreError):
            session.begin()

    def test_operations_without_begin_rejected(self):
        service = TransactionService(SIEngine({"x": 0}))
        session = service.session()
        with pytest.raises(StoreError):
            session.read("x")
        with pytest.raises(StoreError):
            session.commit()

    def test_client_abort_frees_the_session(self):
        service = TransactionService(SIEngine({"x": 0}))
        session = service.session()
        session.begin()
        session.write("x", 1)
        session.abort()
        assert service.metrics.aborts == 1
        session.begin()
        assert session.read("x") == 0  # the abort discarded the write
        session.commit()

    def test_first_committer_wins_surfaces_as_abort(self):
        service = TransactionService(SIEngine({"x": 0}))
        s1, s2 = service.session(), service.session()
        s1.begin(), s2.begin()
        s1.write("x", 1), s2.write("x", 2)
        s1.commit()
        with pytest.raises(TransactionAborted):
            s2.commit()
        assert service.metrics.aborts == 1
        assert service.metrics.in_flight == 0

    def test_run_convenience_uses_fresh_sessions(self):
        service = TransactionService(SIEngine({"x": 0}))
        for _ in range(3):
            service.run(incr("x"))
        sessions = {r.session for r in service.engine.committed}
        assert len(sessions) == 3


class TestAdmission:
    def test_admission_limit_bounds_in_flight(self):
        service = TransactionService(
            SIEngine({"x": 0}), max_concurrent=2, backoff_base=0
        )
        s1, s2, s3 = (service.session() for _ in range(3))
        s1.begin(), s2.begin()
        admitted = threading.Event()

        def third():
            s3.begin()
            admitted.set()
            s3.commit()

        thread = threading.Thread(target=third, daemon=True)
        thread.start()
        assert not admitted.wait(0.1)  # queued behind the limit
        assert service.metrics.peak_in_flight == 2
        s1.commit()
        assert admitted.wait(2.0)
        thread.join(2.0)
        s2.commit()
        assert service.metrics.peak_in_flight == 2
        assert service.metrics.peak_admission_waiting == 1

    def test_admission_slot_released_on_abort(self):
        engine = SIEngine({"x": 0})
        service = TransactionService(
            engine, max_concurrent=1, backoff_base=0
        )
        session = service.session()
        session.begin()
        session.abort()
        # If the slot leaked this would deadlock; a fresh begin succeeds.
        other = service.session()
        other.begin()
        other.commit()

    def test_invalid_limits_rejected(self):
        with pytest.raises(StoreError):
            TransactionService(SIEngine({}), max_concurrent=0)
        with pytest.raises(StoreError):
            TransactionService(SIEngine({}), max_retries=-1)


class TestMonitorIntegration:
    def test_commits_certified_in_commit_order(self):
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 0}, window=16)
        service = TransactionService(SIEngine({"x": 0, "y": 0}), monitor)
        for obj in ("x", "y", "x"):
            service.run(incr(obj))
        service.drain()  # the monitor holds the certifier's state
        assert monitor.commit_count == 3
        assert monitor.consistent
        assert service.violations == []

    def test_ser_monitor_flags_si_write_skew(self):
        initial = {"a": 70, "b": 80}
        monitor = ConsistencyMonitor("SER", dict(initial), window=16)
        service = TransactionService(SIEngine(dict(initial)), monitor)
        alice, bob = service.session("alice"), service.session("bob")
        alice.begin(), bob.begin()
        alice.read("a"), alice.read("b")
        bob.read("a"), bob.read("b")
        alice.write("a", -30)
        bob.write("b", -20)
        alice.commit()
        second = bob.commit()
        service.drain()
        assert [v.tid for v in service.violations] == [second.record.tid]
        assert service.metrics.violations == 1
        assert len(service.violations) == 1
        # The commit itself stood: the engine accepted both.
        assert len(service.engine.committed) == 2

    def test_monitor_error_does_not_leak_the_admission_slot(self):
        # The monitor has no initial value for 'x', so a read of the
        # engine's initial 0 is unattributable in strict mode.
        monitor = ConsistencyMonitor("SI", {}, window=16)
        service = TransactionService(
            SIEngine({"x": 0}), monitor, max_concurrent=1
        )
        session = service.session()
        session.begin()
        session.read("x")
        session.commit()  # the commit stands; the certifier objects
        with pytest.raises(MonitorError, match="matches no committed write"):
            service.drain()
        # Slot free and session reusable despite the monitor blow-up.
        fresh = service.session()
        fresh.begin()
        fresh.write("x", 1)
        fresh.commit()
        service.drain()  # each monitor error is raised once
        service.close()


class TestConcurrentUse:
    @pytest.mark.parametrize(
        "engine_factory", [SIEngine, SerializableEngine]
    )
    def test_concurrent_increments_lose_no_updates(self, engine_factory):
        service = TransactionService(
            engine_factory({"counter": 0}),
            max_concurrent=4,
            backoff_base=0.0001,
            max_retries=200,
        )
        threads_n, per_thread = 8, 15

        def worker(index):
            session = service.session(f"w{index}")
            for _ in range(per_thread):
                session.run(incr("counter"))

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        def probe_tx():
            yield ReadOp("counter")

        final = service.run(probe_tx)
        probe = service.engine.committed[-1]
        assert probe.events[-1].value == threads_n * per_thread
        assert service.metrics.commits == threads_n * per_thread + 1
        assert final.attempts >= 1

    def test_metrics_json_roundtrip(self):
        import json

        service = TransactionService(SIEngine({"x": 0}))
        service.run(incr("x"))
        snapshot = json.loads(service.metrics.to_json())
        assert snapshot["counters"]["commits"] == 1
        assert snapshot["latency_seconds"]["count"] == 1
        assert snapshot["abort_rate"] == 0.0


class TestHealthFeeds:
    @pytest.mark.parametrize("with_wal", [False, True])
    @pytest.mark.parametrize("enforce", [False, True])
    def test_one_evaluation_per_committed_attempt(
        self, tmp_path, with_wal, enforce
    ):
        from repro.service import HealthPolicy
        from repro.wal import WriteAheadLog

        wal = None
        if with_wal:
            wal = WriteAheadLog(
                str(tmp_path / "wal"), fsync_policy="group",
                meta={"engine": "SI", "init": {"x": 0},
                      "init_tid": "t_init", "model": "SI"},
            )
        service = TransactionService(
            SIEngine({"x": 0}), wal=wal,
            health_policy=HealthPolicy(enforce=enforce),
        )
        tracker = service.health
        evaluations = []
        evaluate = tracker._evaluate_locked

        def counting():
            evaluations.append(None)
            evaluate()

        tracker._evaluate_locked = counting
        for _ in range(10):
            service.run(incr("x"))
        # An enforcing breaker evaluates at admission too.
        assert len(evaluations) == 10 * (2 if enforce else 1)
        if with_wal:
            assert tracker.wal_latency() > 0
        service.close()
