"""Graceful degradation: the health state machine, deadlines, the
admission breaker, and the WAL-failure policies."""

import time

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    RetryExhausted,
    ServiceOverloaded,
    ServiceReadOnly,
    TransactionAborted,
)
from repro.faults import FaultPlan, FaultRule, armed
from repro.mvcc import SIEngine
from repro.mvcc.runtime import ReadOp, WriteOp
from repro.service import (
    HealthPolicy,
    ServiceMetrics,
    TransactionService,
)
from repro.service.health import DEGRADED, HEALTHY, SHEDDING
from repro.wal import WalPoisoned, WriteAheadLog

META = {"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
        "model": "SI"}


def incr(obj):
    def tx():
        value = yield ReadOp(obj)
        yield WriteOp(obj, value + 1)

    return tx


def read_only(obj):
    def tx():
        yield ReadOp(obj)

    return tx


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestHealthTracker:
    """The state machine, fed through the service's ledger."""

    def make(self, **overrides):
        policy = HealthPolicy(
            enforce=True, window=8, min_samples=4, cooldown=1.0,
            **overrides,
        )
        clock = FakeClock()
        metrics = ServiceMetrics(policy, clock=clock)
        return metrics, metrics.health, clock

    def feed(self, metrics, aborted, n):
        for _ in range(n):
            metrics.record_begin()
            if aborted:
                metrics.record_abort()
            else:
                metrics.record_commit(0.001)

    def test_cold_service_is_healthy(self):
        _, tracker, _ = self.make()
        assert tracker.state == HEALTHY
        assert tracker.allow_admission()

    def test_abort_storm_escalates_immediately(self):
        metrics, tracker, _ = self.make()
        self.feed(metrics, aborted=True, n=8)
        assert tracker.state == SHEDDING
        assert tracker.transitions[-1][2] == SHEDDING

    def test_under_sampled_window_never_escalates(self):
        metrics, tracker, _ = self.make()
        self.feed(metrics, aborted=True, n=3)  # below min_samples
        assert tracker.state == HEALTHY

    def test_deescalation_is_hysteretic_and_stepped(self):
        metrics, tracker, clock = self.make()
        self.feed(metrics, aborted=True, n=8)
        assert tracker.state == SHEDDING
        # Clean attempts push the windowed rate to zero...
        self.feed(metrics, aborted=False, n=8)
        # ...but the state steps down only after a full cooldown each.
        assert tracker.state == SHEDDING
        clock.advance(1.1)
        assert tracker.state == DEGRADED
        assert tracker.state == DEGRADED  # one step per cooldown
        clock.advance(1.1)
        assert tracker.state == HEALTHY

    def test_wal_latency_gauge_escalates(self):
        metrics, tracker, _ = self.make()
        for _ in range(4):
            metrics.record_begin()
            # Way past every threshold.
            metrics.record_commit(0.001, wal_latency=10.0)
        assert tracker.state == SHEDDING

    def test_wal_failure_floor_is_sticky(self):
        metrics, tracker, clock = self.make()
        metrics.record_wal_failure()
        assert tracker.state == DEGRADED
        self.feed(metrics, aborted=False, n=8)
        clock.advance(10.0)
        assert tracker.state == DEGRADED  # can never be healthy again
        assert tracker.wal_failed

    def test_shedding_breaker_admits_probes(self):
        metrics, tracker, clock = self.make(probe_interval=5.0)
        self.feed(metrics, aborted=True, n=8)
        assert tracker.state == SHEDDING
        clock.advance(6.0)
        assert tracker.allow_admission()  # the probe
        assert not tracker.allow_admission()  # refused until next probe
        clock.advance(5.1)
        assert tracker.allow_admission()

    def test_observe_only_policy_never_sheds(self):
        metrics = ServiceMetrics(
            HealthPolicy(enforce=False, window=8, min_samples=4)
        )
        tracker = metrics.health
        self.feed(metrics, aborted=True, n=8)
        assert tracker.state == SHEDDING
        assert tracker.allow_admission()  # tracked, not enforced

    def test_snapshot_shape(self):
        _, tracker, _ = self.make()
        snap = tracker.snapshot()
        assert snap["state"] == HEALTHY
        assert snap["enforce"] is True
        assert snap["wal_failed"] is False


class StormEngine(SIEngine):
    """An SI engine whose commit always aborts."""

    def commit(self, ctx):
        self.abort(ctx, "engineered conflict")
        raise TransactionAborted(ctx.tid, "engineered conflict")


class TestDeadlines:
    def test_deadline_bounds_a_hopeless_retry_loop(self):
        service = TransactionService(
            StormEngine({"x": 0}), backoff_base=0.01, backoff_cap=0.05
        )
        session = service.session("bounded")
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as excinfo:
            session.run(incr("x"), deadline=0.2)
        elapsed = time.perf_counter() - started
        # Backoff never sleeps past the deadline: the loop ends within
        # one attempt (plus scheduling slop) of the budget.
        assert elapsed < 1.0
        err = excinfo.value
        assert err.attempts >= 1
        assert err.elapsed_seconds >= 0.2
        assert len(err.attempt_latencies) == err.attempts
        assert err.last_reason == "engineered conflict"
        assert service.metrics.deadline_exceeded == 1
        assert service.metrics.retry_exhausted == 0

    def test_default_deadline_comes_from_the_service(self):
        service = TransactionService(
            StormEngine({"x": 0}),
            backoff_base=0,
            max_retries=10**9,  # the deadline must be the binding bound
            default_deadline=0.05,
        )
        with pytest.raises(DeadlineExceeded):
            service.session().run(incr("x"))

    def test_session_is_reusable_after_deadline(self):
        service = TransactionService(
            StormEngine({"x": 0}), backoff_base=0, max_retries=10**9
        )
        session = service.session()
        with pytest.raises(DeadlineExceeded):
            session.run(incr("x"), deadline=0.02)
        healthy = TransactionService(SIEngine({"x": 0})).session()
        assert healthy.run(incr("x")).record.writes == {"x": 1}
        # The original session's logical state was reset too.
        with pytest.raises(DeadlineExceeded) as excinfo:
            session.run(incr("x"), deadline=0.02)
        assert excinfo.value.attempts >= 1

    def test_retry_exhausted_carries_attempt_latencies(self):
        service = TransactionService(
            StormEngine({"x": 0}), max_retries=3, backoff_base=0
        )
        with pytest.raises(RetryExhausted) as excinfo:
            service.session().run(incr("x"))
        err = excinfo.value
        assert err.attempts == 4
        assert len(err.attempt_latencies) == 4
        assert all(lat >= 0 for lat in err.attempt_latencies)
        assert err.last_reason == "engineered conflict"


class TestAdmissionBreaker:
    def test_shedding_service_refuses_with_service_overloaded(self):
        policy = HealthPolicy(
            enforce=True, window=8, min_samples=4, probe_interval=60.0
        )
        service = TransactionService(
            StormEngine({"x": 0}), backoff_base=0, health_policy=policy
        )
        session = service.session("victim")
        # Drive the windowed abort rate to 1.0 (each run = 4 attempts).
        for _ in range(3):
            with pytest.raises((RetryExhausted, ServiceOverloaded)):
                session.run(incr("x"), max_retries=3)
        assert service.health.state == SHEDDING
        with pytest.raises(ServiceOverloaded) as excinfo:
            session.run(incr("x"))
        assert excinfo.value.state == SHEDDING
        assert service.metrics.shed >= 1
        # Shed transactions never started an engine attempt.
        assert service.metrics.begins == service.metrics.aborts

    def test_healthy_service_unaffected_by_enforcement(self):
        service = TransactionService(
            SIEngine({"x": 0}),
            health_policy=HealthPolicy(enforce=True),
        )
        for _ in range(5):
            service.session().run(incr("x"))
        assert service.health.state == HEALTHY
        assert service.metrics.shed == 0


def poison_plan():
    """Kill the WAL's first write."""
    return FaultPlan(
        [FaultRule("wal.write", "io_error", detail="dead disk")],
        name="kill-wal",
    )


class TestWalFailurePolicies:
    def make_service(self, tmp_path, policy):
        engine = SIEngine({"x": 0})
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="group", meta=META,
        )
        service = TransactionService(
            engine, wal=wal, on_wal_failure=policy, backoff_base=0
        )
        return service

    def test_fail_stop_surfaces_chained_poison_per_commit(self, tmp_path):
        service = self.make_service(tmp_path, "fail_stop")
        session = service.session()
        with armed(poison_plan()):
            with pytest.raises(WalPoisoned) as excinfo:
                session.run(incr("x"))
            assert isinstance(excinfo.value.root, OSError)
            assert excinfo.value.first_failed_seq == 1
            # Every later commit fails too, still chained to the root.
            with pytest.raises(WalPoisoned) as again:
                session.run(incr("x"))
        assert again.value.first_failed_seq == 1
        assert isinstance(again.value.root, OSError)
        assert not service.read_only
        assert service.health.wal_failed
        assert service.metrics.wal_failures >= 2

    def test_read_only_absorbs_failure_and_refuses_writes(self, tmp_path):
        service = self.make_service(tmp_path, "read_only")
        session = service.session()
        with armed(poison_plan()):
            # The poisoning commit itself succeeds: the in-memory
            # commit stands, the service absorbs the durability loss.
            outcome = session.run(incr("x"))
            assert outcome.record.writes == {"x": 1}
        assert service.read_only
        assert service.health.state == DEGRADED
        # Updates are refused, chained to the WAL's root failure...
        with pytest.raises(ServiceReadOnly) as excinfo:
            session.run(incr("x"))
        assert isinstance(excinfo.value.__cause__, WalPoisoned)
        # ...but reads keep flowing.
        assert session.run(read_only("x")).record is not None
        assert service.metrics.read_only_refused >= 1
        service.close()  # must not raise despite the poisoned log

    def test_read_only_refusals_do_not_shed(self, tmp_path):
        service = self.make_service(tmp_path, "read_only")
        session = service.session()
        with armed(poison_plan()):
            session.run(incr("x"))
        for _ in range(30):
            with pytest.raises(ServiceReadOnly):
                session.run(incr("x"))
        # Refusals are administrative: the state floor stays degraded,
        # reads are still admitted.
        assert service.health.state == DEGRADED
        assert session.run(read_only("x")).record is not None
