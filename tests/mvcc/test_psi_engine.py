"""Unit tests for the replicated parallel-SI engine."""

import pytest

from repro.core.errors import ScheduleError, TransactionAborted
from repro.core.models import PSI, SI
from repro.graphs.classify import in_graph_psi, in_graph_si
from repro.graphs.extraction import graph_of
from repro.mvcc.psi import PSIEngine, Replica


@pytest.fixture
def engine():
    return PSIEngine({"x": 0, "y": 0})


def commit_write(engine, session, obj, value):
    t = engine.begin(session)
    engine.write(t, obj, value)
    return engine.commit(t)


class TestReplication:
    def test_local_commit_visible_locally(self, engine):
        commit_write(engine, "s1", "x", 1)
        t = engine.begin("s1")
        assert engine.read(t, "x") == 1
        engine.commit(t)

    def test_remote_commit_invisible_until_delivered(self, engine):
        # Create s2's replica first so it exists before s1 commits.
        engine.replica_of("s2")
        rec = commit_write(engine, "s1", "x", 1)
        t = engine.begin("s2")
        assert engine.read(t, "x") == 0
        engine.commit(t)
        engine.deliver(rec.tid, "r_s2")
        t2 = engine.begin("s2")
        assert engine.read(t2, "x") == 1
        engine.commit(t2)

    def test_backfill_for_late_replicas(self, engine):
        rec = commit_write(engine, "s1", "x", 1)
        engine.replica_of("s2")  # created after the commit
        assert (rec.tid, "r_s2") in engine.pending_deliveries()

    def test_auto_deliver_mode(self):
        engine = PSIEngine({"x": 0}, auto_deliver=True)
        engine.replica_of("s2")
        commit_write(engine, "s1", "x", 1)
        t = engine.begin("s2")
        assert engine.read(t, "x") == 1
        engine.commit(t)

    def test_session_pinning(self):
        engine = PSIEngine(
            {"x": 0}, session_replicas={"s1": "dc1", "s2": "dc1"}
        )
        commit_write(engine, "s1", "x", 1)
        t = engine.begin("s2")
        assert engine.read(t, "x") == 1  # same replica
        engine.commit(t)


class TestCausalDelivery:
    def test_delivery_respects_causality(self, engine):
        engine.replica_of("s2")
        engine.replica_of("s3")
        rec1 = commit_write(engine, "s1", "x", 1)
        engine.deliver(rec1.tid, "r_s2")
        t = engine.begin("s2")
        assert engine.read(t, "x") == 1
        engine.write(t, "y", 2)
        rec2 = engine.commit(t)
        # rec2 observed rec1; delivering rec2 to s3 before rec1 must fail.
        assert not engine.deliverable(rec2.tid, "r_s3")
        with pytest.raises(ScheduleError):
            engine.deliver(rec2.tid, "r_s3")
        engine.deliver(rec1.tid, "r_s3")
        engine.deliver(rec2.tid, "r_s3")

    def test_deliver_all_drains_in_causal_order(self, engine):
        engine.replica_of("s2")
        engine.replica_of("s3")
        rec1 = commit_write(engine, "s1", "x", 1)
        engine.deliver(rec1.tid, "r_s2")
        t = engine.begin("s2")
        engine.read(t, "x")
        engine.write(t, "y", 2)
        engine.commit(t)
        count = engine.deliver_all()
        assert count >= 2
        assert engine.pending_deliveries() == []

    def test_unknown_delivery_rejected(self, engine):
        with pytest.raises(ScheduleError):
            engine.deliver("t99", "r_s1")


class TestSnapshotDescriptor:
    def test_frontier_advances_as_gaps_fill(self):
        replica = Replica("r", {})
        replica.mark_applied(2, "t2")
        replica.mark_applied(4, "t4")
        assert (replica.frontier, replica.ahead) == (0, {2: "t2", 4: "t4"})
        assert replica.has_applied(2) and not replica.has_applied(1)
        replica.mark_applied(1, "t1")
        assert (replica.frontier, replica.ahead) == (2, {4: "t4"})
        replica.mark_applied(3, "t3")
        assert (replica.frontier, replica.ahead) == (4, {})

    def test_out_of_order_arrival_is_recorded_in_extra(self):
        # Two concurrent commits from one shared replica reach a third
        # replica in the opposite order: a per-origin prefix would
        # claim the first is visible; the descriptor names only the
        # second.
        engine = PSIEngine(
            {"x": 0, "y": 0, "z": 0},
            session_replicas={"a": "dc", "b": "dc"},
        )
        engine.replica_of("c")
        ta, tb = engine.begin("a"), engine.begin("b")
        engine.write(ta, "x", 1)
        engine.write(tb, "y", 1)
        rec_a, rec_b = engine.commit(ta), engine.commit(tb)
        assert rec_a.snapshot == rec_b.snapshot == 0
        engine.deliver(rec_b.tid, "r_c")
        t = engine.begin("c")
        assert engine.read(t, "x") == 0 and engine.read(t, "y") == 1
        engine.write(t, "y", 2)  # its writer is visible via extra
        rec_c = engine.commit(t)
        assert (rec_c.snapshot, rec_c.extra) == (0, frozenset({rec_b.tid}))
        vis = engine.abstract_execution().vis
        seen = {a.tid for a, b in vis if b.tid == rec_c.tid}
        assert seen == {"t_init", rec_b.tid}
        t = engine.begin("c")
        engine.write(t, "x", 2)  # rec_a is above the frontier, unseen
        with pytest.raises(TransactionAborted):
            engine.commit(t)

    def test_late_join_delivers_in_one_pass(self):
        engine = PSIEngine({"x": 0}, auto_deliver=True)
        for i in range(1000):
            commit_write(engine, "s1", "x", i)
        checks = []
        deliverable = engine.deliverable

        def counting(tid, name):
            checks.append(tid)
            return deliverable(tid, name)

        engine.deliverable = counting
        t = engine.begin("late")
        assert engine.read(t, "x") == 999
        engine.commit(t)
        assert engine.pending_deliveries() == []
        assert len(checks) <= 2 * 1000


class TestConflictDetection:
    def test_concurrent_writers_conflict_globally(self, engine):
        engine.replica_of("s2")
        t1 = engine.begin("s1")
        t2 = engine.begin("s2")
        engine.write(t1, "x", 1)
        engine.write(t2, "x", 2)
        engine.commit(t1)
        with pytest.raises(TransactionAborted) as excinfo:
            engine.commit(t2)
        assert "write-write conflict" in str(excinfo.value)

    def test_undelivered_writer_conflicts(self, engine):
        # s1 commits x; s2 never received it, writes x -> abort.
        engine.replica_of("s2")
        commit_write(engine, "s1", "x", 1)
        t = engine.begin("s2")
        engine.write(t, "x", 2)
        with pytest.raises(TransactionAborted):
            engine.commit(t)

    def test_delivered_writer_no_conflict(self, engine):
        engine.replica_of("s2")
        rec = commit_write(engine, "s1", "x", 1)
        engine.deliver(rec.tid, "r_s2")
        t = engine.begin("s2")
        engine.write(t, "x", 2)
        engine.commit(t)  # writer visible: fine
        assert engine.stats.commits == 2


class TestLongFork:
    def test_long_fork_reproducible(self, engine):
        """The Figure 2(c) anomaly: readers on different replicas observe
        the two writes in opposite orders."""
        engine.replica_of("r1")
        engine.replica_of("r2")
        rec_w1 = commit_write(engine, "w1", "x", 1)
        rec_w2 = commit_write(engine, "w2", "y", 1)
        engine.deliver(rec_w1.tid, "r_r1")
        engine.deliver(rec_w2.tid, "r_r2")
        t1 = engine.begin("r1")
        assert engine.read(t1, "x") == 1
        assert engine.read(t1, "y") == 0
        engine.commit(t1)
        t2 = engine.begin("r2")
        assert engine.read(t2, "x") == 0
        assert engine.read(t2, "y") == 1
        engine.commit(t2)
        x = engine.abstract_execution()
        assert PSI.satisfied_by(x)
        assert not SI.satisfied_by(x)
        g = graph_of(x)
        assert in_graph_psi(g)
        assert not in_graph_si(g)

    def test_runs_always_in_exec_psi(self, engine):
        engine.replica_of("s2")
        rec = commit_write(engine, "s1", "x", 1)
        t = engine.begin("s2")
        engine.read(t, "x")
        engine.write(t, "y", 5)
        engine.commit(t)
        engine.deliver_all()
        assert PSI.satisfied_by(engine.abstract_execution())


class TestReplicaStores:
    """A replica's state is a multi-version store stamped with its own
    apply counter, so a snapshot is a counter value, not a copy."""

    def test_begin_copies_no_state(self):
        import tracemalloc

        engine = PSIEngine({f"o{i}": i for i in range(100_000)})
        commit_write(engine, "s", "o7", -7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = engine.begin("s")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # A copy of 100,000 objects takes megabytes.
        assert grown < 64 * 1024, grown
        assert engine.read(t, "o7") == -7
        assert engine.read(t, "o8") == 8
        replica = engine.replica_of("s")
        assert replica.clock == 1 and replica.store.chain_count == 1

    def test_snapshot_reads_ignore_later_applies(self, engine):
        t = engine.begin("s1")
        commit_write(engine, "s2", "x", 1)
        engine.deliver_all()
        assert engine.replica_of("s1").state == {"x": 1, "y": 0}
        assert engine.read(t, "x") == 0
        engine.commit(t)
        t = engine.begin("s1")
        assert engine.read(t, "x") == 1

    def test_vacuum_spares_active_snapshots(self, engine):
        engine.replica_of("s2")
        for value in (1, 2):
            commit_write(engine, "s1", "x", value)
        engine.deliver_all()
        pinned = engine.begin("s1")
        commit_write(engine, "s2", "x", 3)
        engine.deliver_all()
        # Both replicas hold x at 0, 1, 2 and 3.  r_s1 keeps x=2 for
        # the pinned snapshot and drops two versions; r_s2 drops three.
        assert engine.vacuum() == 2 + 3
        assert engine.read(pinned, "x") == 2
        engine.commit(pinned)
        fresh = engine.begin("s1")
        assert engine.read(fresh, "x") == 3
        assert engine.read(fresh, "y") == 0
