"""Tests for the online consistency monitor."""

import pytest

from repro.core.events import read, write
from repro.monitor import ConsistencyMonitor, MonitorError, watch_engine
from repro.mvcc import (
    PSIEngine,
    Scheduler,
    SerializableEngine,
    SIEngine,
)
from repro.mvcc.workloads import (
    long_fork_sessions,
    lost_update_sessions,
    random_workload,
    write_skew_sessions,
)


def run_write_skew_engine():
    engine = SIEngine({"acct1": 70, "acct2": 80})
    Scheduler(engine, write_skew_sessions()).run_schedule(
        ["alice"] * 3 + ["bob"] * 3
    )
    return engine


def run_long_fork_engine():
    engine = PSIEngine({"x": 0, "y": 0})
    for reader in ("r1", "r2"):
        engine.replica_of(reader)
    sched = Scheduler(engine, long_fork_sessions())
    sched.step("w1"), sched.step("w1")
    sched.step("w2"), sched.step("w2")
    tids = {r.session: r.tid for r in engine.committed}
    engine.deliver(tids["w1"], "r_r1")
    engine.deliver(tids["w2"], "r_r2")
    sched.run_round_robin()
    return engine


class TestBasicObservation:
    def test_serial_run_clean_under_all_models(self):
        for model in ConsistencyMonitor.MODELS:
            monitor = ConsistencyMonitor(model, {"x": 0})
            assert monitor.observe_commit(
                "t1", "s1", [read("x", 0), write("x", 1)]
            ) is None
            assert monitor.observe_commit(
                "t2", "s2", [read("x", 1), write("x", 2)]
            ) is None
            assert monitor.consistent
            assert monitor.commit_count == 2

    def test_duplicate_tid_rejected(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        monitor.observe_commit("t1", "s1", [write("x", 1)])
        with pytest.raises(MonitorError):
            monitor.observe_commit("t1", "s1", [write("x", 2)])

    def test_unknown_model_rejected(self):
        with pytest.raises(MonitorError):
            ConsistencyMonitor("RC")

    def test_unattributable_read_rejected_in_strict_mode(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        with pytest.raises(MonitorError):
            monitor.observe_commit("t1", "s1", [read("x", 42)])

    def test_rejected_commit_leaves_no_state(self):
        """Reads are attributed before anything is recorded, so a
        rejected commit can be fed again once corrected."""
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 0})
        monitor.observe_commit("t1", "s1", [write("x", 1)])
        with pytest.raises(MonitorError):
            monitor.observe_commit(
                "t2", "s1", [read("x", 1), read("y", 42), write("y", 2)]
            )
        assert monitor.commit_count == 1
        assert monitor.state_size()["fresh_readers"] == 0
        assert monitor.observe_commit(
            "t2", "s1", [read("x", 1), read("y", 0), write("y", 2)]
        ) is None
        assert monitor.dependency_edges()["SO"] == {("t1", "t2")}

    def test_ambiguous_value_rejected_in_strict_mode(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        monitor.observe_commit("t1", "s1", [write("x", 7)])
        monitor.observe_commit("t2", "s2", [read("x", 7), write("x", 7)])
        with pytest.raises(MonitorError):
            monitor.observe_commit("t3", "s3", [read("x", 7)])

    def test_non_strict_mode_attributes_latest(self):
        monitor = ConsistencyMonitor("SI", {"x": 0}, strict_values=False)
        monitor.observe_commit("t1", "s1", [write("x", 7)])
        monitor.observe_commit("t2", "s2", [read("x", 7), write("x", 7)])
        assert monitor.observe_commit("t3", "s3", [read("x", 7)]) is None

    def test_dependency_edges_exposed(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        monitor.observe_commit("t1", "s1", [write("x", 1)])
        monitor.observe_commit("t2", "s1", [read("x", 1)])
        edges = monitor.dependency_edges()
        assert ("t1", "t2") in edges["SO"]
        assert ("t1", "t2") in edges["WR"]


class TestReducedGraph:
    def test_single_session_single_object_edges_stay_linear(self):
        """Each commit adds edges for its own reads and writes only: a
        session that rewrites one object holds O(1) edges per commit,
        not the SO and WW closures (about 2 * 10^6 pairs each here)."""
        commits = 2000
        monitor = ConsistencyMonitor("SI", {"x": 0})
        for i in range(commits):
            assert monitor.observe_commit(
                f"t{i}", "s", [read("x", i), write("x", i + 1)]
            ) is None
        assert monitor.state_size()["edges"] <= 4 * commits


class TestAnomalyDetection:
    def test_write_skew_flagged_under_ser_only(self):
        engine = run_write_skew_engine()
        monitor_si, v_si = watch_engine(engine, model="SI")
        monitor_ser, v_ser = watch_engine(engine, model="SER")
        assert monitor_si.consistent and not v_si
        assert not monitor_ser.consistent
        assert len(v_ser) == 1
        assert v_ser[0].model == "SER"
        assert v_ser[0].cycle[0] == v_ser[0].cycle[-1]

    def test_long_fork_flagged_under_si_not_psi(self):
        engine = run_long_fork_engine()
        monitor_psi, v_psi = watch_engine(engine, model="PSI")
        monitor_si, v_si = watch_engine(engine, model="SI")
        assert monitor_psi.consistent and not v_psi
        assert not monitor_si.consistent
        # The violation is detected at the second reader's commit — the
        # first point at which the behaviour leaves HistSI.
        assert v_si[0].tid == engine.committed[-1].tid

    def test_lost_update_flagged_by_all(self):
        # Simulate a buggy engine by feeding a lost-update stream
        # manually: both increments read the initial value.
        for model in ConsistencyMonitor.MODELS:
            monitor = ConsistencyMonitor(model, {"acct": 0})
            assert monitor.observe_commit(
                "t1", "s1", [read("acct", 0), write("acct", 50)]
            ) is None
            violation = monitor.observe_commit(
                "t2", "s2", [read("acct", 0), write("acct", 25)]
            )
            assert violation is not None, model
            assert violation.tid == "t2"

    def test_monitoring_continues_after_violation(self):
        monitor = ConsistencyMonitor("SI", {"acct": 0, "other": 0})
        monitor.observe_commit(
            "t1", "s1", [read("acct", 0), write("acct", 50)]
        )
        monitor.observe_commit(
            "t2", "s2", [read("acct", 0), write("acct", 25)]
        )
        assert not monitor.consistent
        # A later unrelated commit is still processed.
        assert monitor.observe_commit(
            "t3", "s3", [read("other", 0), write("other", 1)]
        ) is not None or monitor.commit_count == 3


class TestEngineCleanliness:
    """Engines never trip the monitor for their own model."""

    @pytest.mark.parametrize("seed", range(5))
    def test_si_runs_clean(self, seed):
        wl = random_workload(seed)
        engine = SIEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        monitor, violations = watch_engine(engine, model="SI")
        assert monitor.consistent, violations

    @pytest.mark.parametrize("seed", range(5))
    def test_ser_runs_clean(self, seed):
        wl = random_workload(seed)
        engine = SerializableEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        monitor, violations = watch_engine(engine, model="SER")
        assert monitor.consistent, violations

    @pytest.mark.parametrize("seed", range(5))
    def test_psi_runs_clean(self, seed):
        wl = random_workload(seed)
        engine = PSIEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        monitor, violations = watch_engine(engine, model="PSI")
        assert monitor.consistent, violations

    @pytest.mark.parametrize("seed", range(5))
    def test_2pl_runs_clean_even_under_ser(self, seed):
        from repro.mvcc import TwoPhaseLockingEngine

        wl = random_workload(seed)
        engine = TwoPhaseLockingEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        monitor, violations = watch_engine(engine, model="SER")
        assert monitor.consistent, violations


class TestLazyTables:
    """Per-object writer and value tables are built on an object's
    first write, from the shared initial values."""

    KEYSPACE = 100_000

    def _tables(self, monitor):
        return (len(monitor._writers) + len(monitor._value_writer)
                + len(monitor._latest_value))

    def test_large_monitor_starts_with_no_tables(self):
        initial = {f"o{i}": 0 for i in range(self.KEYSPACE)}
        monitor = ConsistencyMonitor("SI", initial)
        assert self._tables(monitor) == 0
        assert monitor._initial is initial
        assert monitor.state_size()["value_attributions"] == self.KEYSPACE

    def test_reads_build_nothing_and_writes_build_one_object(self):
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 5})
        monitor.observe_commit("t1", "s1", [read("x", 0), read("y", 5)])
        assert self._tables(monitor) == 0
        monitor.observe_commit("t2", "s2", [read("y", 5), write("y", 6)])
        assert set(monitor._writers) == {"y"}
        assert monitor._writers["y"] == ["t_init", "t2"]
        assert monitor._value_writer["y"] == {5: "t_init", 6: "t2"}
        assert monitor.state_size()["value_attributions"] == 3
        edges = monitor.dependency_edges()
        assert ("t1", "t2") in edges["RW"]
        assert not edges["WR"]

    def test_unwritten_object_reads_still_checked(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        with pytest.raises(MonitorError):
            monitor.observe_commit("t1", "s1", [read("x", 1)])
        lenient = ConsistencyMonitor("SI", {"x": 0}, strict_values=False)
        assert lenient.observe_commit("t1", "s1", [read("x", 1)]) is None

    def test_certified_service_shares_the_engine_initial(self):
        from repro.service import TransactionService

        engine = SIEngine({"x": 0})
        service = TransactionService.certified(engine)
        assert service.monitor._initial is engine.initial
