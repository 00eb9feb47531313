"""Tests for the online consistency monitor."""

import pytest

from repro.core.events import read, write
from repro.monitor import (
    ConsistencyMonitor,
    MonitorError,
    SourcedCommit,
    sourced_commits,
    watch_engine,
)
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
from tests.monitor.streams import observe


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
            assert observe(
                monitor, "t1", "s1", [read("x", 0), write("x", 1)]
            ) is None
            assert observe(
                monitor, "t2", "s2", [read("x", 1), write("x", 2)]
            ) is None
            assert monitor.consistent
            assert monitor.commit_count == 2

    def test_duplicate_tid_rejected(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        observe(monitor, "t1", "s1", [write("x", 1)])
        with pytest.raises(MonitorError):
            observe(monitor, "t1", "s1", [write("x", 2)])

    def test_unknown_model_rejected(self):
        with pytest.raises(MonitorError):
            ConsistencyMonitor("RC")

    def test_unattributable_read_rejected_in_strict_mode(self):
        # A black-box read of a value nobody wrote has no source.
        monitor = ConsistencyMonitor("SI", {"x": 0})
        with pytest.raises(MonitorError, match="matches no committed"):
            observe(monitor, "t1", "s1", [read("x", 42)])

    def test_rejected_commit_leaves_no_state(self):
        """Sources are checked before anything is recorded, so a
        rejected commit can be fed again once corrected."""
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 0})
        monitor.observe_commit(SourcedCommit("t1", "s1", 1,
                                             (write("x", 1),), ()))
        events = (read("x", 1), read("y", 42), write("y", 2))
        with pytest.raises(MonitorError, match="wrote 0"):
            # y's initial version (#0) holds 0, not 42.
            monitor.observe_commit(SourcedCommit("t2", "s1", 2, events,
                                                 (1, 0)))
        assert monitor.commit_count == 1
        assert monitor.state_size()["fresh_readers"] == 0
        events = (read("x", 1), read("y", 0), write("y", 2))
        assert monitor.observe_commit(
            SourcedCommit("t2", "s1", 2, events, (1, 0))
        ) is None
        assert monitor.dependency_edges()["SO"] == {("t1", "t2")}

    @pytest.mark.parametrize("sources, reason", [
        ((), "0 source"),                 # too few
        ((0, 0), "2 source"),             # too many
        ((2,), "has not observed"),       # its own commit_ts
        ((-1,), "has not observed"),
        ((1,), "did not write y"),        # t1 wrote x only
    ])
    def test_bad_sources_rejected(self, sources, reason):
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 0})
        monitor.observe_commit(SourcedCommit("t1", "s1", 1,
                                             (write("x", 1),), ()))
        with pytest.raises(MonitorError, match=reason):
            monitor.observe_commit(
                SourcedCommit("t2", "s2", 2, (read("y", 0),), sources)
            )
        assert monitor.commit_count == 1

    def test_commit_ts_must_rise(self):
        # Sources name writers by commit_ts, so a commit_ts may not be
        # observed twice, even under a fresh tid.
        monitor = ConsistencyMonitor("SI", {"x": 0})
        monitor.observe_commit(SourcedCommit("t1", "s1", 5,
                                             (write("x", 1),), ()))
        for ts in (5, 4):
            with pytest.raises(MonitorError, match="does not rise"):
                monitor.observe_commit(
                    SourcedCommit("t2", "s1", ts, (write("x", 2),), ())
                )

    def test_repeated_values_read_by_source(self):
        # Two commits write x=7; each read names its version, so no
        # value is ambiguous and the stale read's anti-dependency lands
        # on the right overwriter.
        monitor = ConsistencyMonitor("SI", {"x": 7})
        stream = [
            SourcedCommit("t1", "s1", 1, (read("x", 7), write("x", 7)),
                          (0,)),
            SourcedCommit("t2", "s2", 2, (read("x", 7), write("x", 7)),
                          (1,)),
            SourcedCommit("t3", "s3", 3, (read("x", 7),), (1,)),
        ]
        assert all(monitor.observe_commit(c) is None for c in stream)
        edges = monitor.dependency_edges()
        assert ("t1", "t3") in edges["WR"] and ("t3", "t2") in edges["RW"]

    def test_ambiguous_value_rejected_in_strict_mode(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        observe(monitor, "t1", "s1", [write("x", 7)])
        observe(monitor, "t2", "s2", [read("x", 7), write("x", 7)])
        with pytest.raises(MonitorError, match="ambiguous"):
            observe(monitor, "t3", "s3", [read("x", 7)])

    def test_non_strict_mode_attributes_latest(self):
        commits = list(sourced_commits([
            ("t1", "s1", [write("x", 7)]),
            ("t2", "s2", [read("x", 7), write("x", 7)]),
            ("t3", "s3", [read("x", 7)]),
        ], {"x": 0}, lenient=True))
        assert commits[2].sources == (2,)
        monitor = ConsistencyMonitor("SI", {"x": 0})
        assert all(monitor.observe_commit(c) is None for c in commits)

    def test_dependency_edges_exposed(self):
        monitor = ConsistencyMonitor("SI", {"x": 0})
        observe(monitor, "t1", "s1", [write("x", 1)])
        observe(monitor, "t2", "s1", [read("x", 1)])
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
            assert observe(
                monitor, f"t{i}", "s", [read("x", i), write("x", i + 1)]
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
            assert observe(
                monitor, "t1", "s1", [read("acct", 0), write("acct", 50)]
            ) is None
            violation = observe(
                monitor, "t2", "s2", [read("acct", 0), write("acct", 25)]
            )
            assert violation is not None, model
            assert violation.tid == "t2"

    def test_monitoring_continues_after_violation(self):
        monitor = ConsistencyMonitor("SI", {"acct": 0, "other": 0})
        observe(
            monitor, "t1", "s1", [read("acct", 0), write("acct", 50)]
        )
        observe(
            monitor, "t2", "s2", [read("acct", 0), write("acct", 25)]
        )
        assert not monitor.consistent
        # A later unrelated commit is still processed.
        assert observe(
            monitor, "t3", "s3", [read("other", 0), write("other", 1)]
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
    """An object's writer sequence is built on its first write, from
    the shared initial values."""

    KEYSPACE = 100_000

    def _tables(self, monitor):
        return len(monitor._writers)

    def test_large_monitor_starts_with_no_tables(self):
        initial = {f"o{i}": 0 for i in range(self.KEYSPACE)}
        monitor = ConsistencyMonitor("SI", initial)
        assert self._tables(monitor) == 0
        assert monitor._initial is initial
        assert monitor.state_size()["written_objects"] == 0

    def test_reads_build_nothing_and_writes_build_one_object(self):
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 5})
        observe(monitor, "t1", "s1", [read("x", 0), read("y", 5)])
        assert self._tables(monitor) == 0
        observe(monitor, "t2", "s2", [read("y", 5), write("y", 6)])
        assert set(monitor._writers) == {"y"}
        assert monitor._writers["y"] == ["t_init", "t2"]
        assert monitor.state_size()["written_objects"] == 1
        edges = monitor.dependency_edges()
        assert ("t1", "t2") in edges["RW"]
        assert not edges["WR"]

    def test_unwritten_object_reads_still_checked(self):
        # A read of the initial version (#0) must return its value, even
        # for an object that has no writer sequence.
        monitor = ConsistencyMonitor("SI", {"x": 0})
        with pytest.raises(MonitorError, match="wrote 0"):
            monitor.observe_commit(
                SourcedCommit("t1", "s1", 1, (read("x", 1),), (0,))
            )
        assert monitor.observe_commit(
            SourcedCommit("t1", "s1", 1, (read("x", 0),), (0,))
        ) is None
        assert self._tables(monitor) == 0

    def test_certified_service_shares_the_engine_initial(self):
        from repro.service import TransactionService

        engine = SIEngine({"x": 0})
        service = TransactionService.certified(engine)
        # The certifier process inherits this monitor by fork.
        assert service.monitor.monitor._initial is engine.initial
        service.close()
