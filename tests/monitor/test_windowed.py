"""Tests for the windowed (garbage-collecting) online monitor.

The load-bearing property: eviction never masks a violation whose
transactions all fit inside one window.  We prove it two ways — on the
engine-produced anomalies (write skew, long fork) pushed deep into a
run by padding traffic, and by cross-checking windowed verdicts against
the full monitor on random engine runs.
"""

import random

import pytest

from repro.core.events import read, write
from repro.monitor import (
    ConsistencyMonitor,
    MonitorError,
    watch_engine,
)
from repro.mvcc import PSIEngine, Scheduler, SIEngine
from repro.mvcc.workloads import random_workload, write_skew_sessions


def pad_commits(monitor, count, start=0):
    """Feed ``count`` unrelated single-object commits (disjoint keys
    must be pre-registered via initial_values)."""
    for i in range(start, start + count):
        violation = monitor.observe_commit(
            f"pad{i}", f"pad-session-{i % 7}", [write(f"p{i % 5}", i + 1)]
        )
        assert violation is None


def padded_initial():
    values = {"acct1": 70, "acct2": 80}
    values.update({f"p{i}": 0 for i in range(5)})
    return values


def write_skew_events(engine=None):
    """The SmallBank-style write-skew commit stream over acct1/acct2."""
    return [
        ("ws1", "alice", [read("acct1", 70), read("acct2", 80),
                          write("acct1", -30)]),
        ("ws2", "bob", [read("acct1", 70), read("acct2", 80),
                        write("acct2", -20)]),
    ]


class TestWindowSoundness:
    def test_in_window_violation_detected_after_deep_padding(self):
        """GC must not mask a violation confined to one window."""
        full = ConsistencyMonitor("SER", padded_initial())
        windowed = ConsistencyMonitor("SER", padded_initial(), window=8)
        pad_commits(full, 100)
        pad_commits(windowed, 100)
        assert windowed.retained_count == 8
        for tid, session, events in write_skew_events():
            v_full = full.observe_commit(tid, session, events)
            v_win = windowed.observe_commit(tid, session, events)
            assert (v_full is None) == (v_win is None)
        assert not full.consistent
        assert not windowed.consistent
        # Same detection point and same witness shape.
        assert full.violations[0].tid == windowed.violations[0].tid == "ws2"

    def test_si_violation_detected_inside_window(self):
        """A lost-update-style SI violation after heavy padding."""
        stream = [
            ("t1", "s1", [read("acct1", 70), write("acct1", 170)]),
            ("t2", "s2", [read("acct1", 70), write("acct1", 95)]),
        ]
        full = ConsistencyMonitor("SI", padded_initial())
        windowed = ConsistencyMonitor("SI", padded_initial(), window=6)
        pad_commits(full, 60)
        pad_commits(windowed, 60)
        for tid, session, events in stream:
            full.observe_commit(tid, session, events)
            windowed.observe_commit(tid, session, events)
        assert not full.consistent
        assert not windowed.consistent
        assert full.violations[0].tid == windowed.violations[0].tid

    def test_long_fork_detected_inside_window(self):
        """The PSI-engine long fork flagged by a windowed SI monitor."""
        engine = PSIEngine({"x": 0, "y": 0})
        for reader in ("r1", "r2"):
            engine.replica_of(reader)
        from repro.mvcc.workloads import long_fork_sessions

        sched = Scheduler(engine, long_fork_sessions())
        sched.step("w1"), sched.step("w1")
        sched.step("w2"), sched.step("w2")
        tids = {r.session: r.tid for r in engine.committed}
        engine.deliver(tids["w1"], "r_r1")
        engine.deliver(tids["w2"], "r_r2")
        sched.run_round_robin()
        monitor = ConsistencyMonitor(
            "SI",
            dict(engine.initial),
            init_tid=engine.init_tid,
            window=4,
        )
        violations = []
        for rec in sorted(engine.committed, key=lambda r: r.commit_ts):
            v = monitor.observe_commit(
                rec.tid, rec.session, list(rec.events)
            )
            if v is not None:
                violations.append(v)
        assert violations
        assert violations[0].tid == engine.committed[-1].tid

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_full_monitor_when_window_covers_run(self, seed):
        wl = random_workload(
            seed, sessions=4, transactions_per_session=4, objects=3
        )
        engine = SIEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        full, v_full = watch_engine(engine, model="SI")
        windowed = ConsistencyMonitor(
            "SI",
            dict(engine.initial),
            window=len(engine.committed) + 1,
        )
        v_win = []
        for rec in sorted(engine.committed, key=lambda r: r.commit_ts):
            v = windowed.observe_commit(
                rec.tid, rec.session, list(rec.events)
            )
            if v is not None:
                v_win.append(v)
        assert full.consistent == windowed.consistent
        assert [v.tid for v in v_full] == [v.tid for v in v_win]


class TestGarbageCollection:
    def test_state_stays_bounded_under_sustained_load(self):
        monitor = ConsistencyMonitor(
            "SI", {f"p{i}": 0 for i in range(5)}, window=10
        )
        pad_commits(monitor, 500)
        assert monitor.commit_count == 500
        assert monitor.retained_count == 10
        assert monitor.evicted_count == 490
        sizes = monitor.state_size()
        assert sizes["records"] == 10
        assert sizes["edges"] <= 10 * 10 * 4
        assert sizes["read_versions"] <= 10 * 5
        assert sizes["value_attributions"] <= 10 * 5 + 5
        assert sizes["evicted_tombstones"] <= 10 + 5 + 5
        assert monitor.consistent

    def test_reads_of_never_written_objects_stay_bounded(self):
        """Eviction also drops a reader from the readers-since-last-
        write lists: objects that are read but never written would
        otherwise keep every reader they ever had."""
        window, commits, keys = 8, 10_000, 500
        monitor = ConsistencyMonitor(
            "SI", {f"k{i}": 0 for i in range(keys)}, window=window
        )
        for i in range(commits):
            monitor.observe_commit(
                f"t{i}", f"s{i % 16}",
                [read(f"k{i % keys}", 0), read(f"k{(7 * i + 3) % keys}", 0)],
            )
        sizes = monitor.state_size()
        assert sizes["records"] == window
        assert sizes["read_versions"] <= 2 * window
        assert sizes["fresh_readers"] <= 2 * window
        assert sizes["edges"] <= 4 * window
        assert monitor.consistent

    def test_read_of_current_version_by_evicted_writer_attributes(self):
        """The frontier: a read may return a value whose writer was
        evicted long ago, as long as it is still the current version."""
        monitor = ConsistencyMonitor(
            "SI", {"x": 0, "p0": 0, "p1": 0}, window=3
        )
        monitor.observe_commit("w", "s-w", [write("x", 42)])
        for i in range(10):
            monitor.observe_commit(
                f"pad{i}", "s-pad", [write(f"p{i % 2}", i + 1)]
            )
        assert "w" not in monitor._records
        # Strict attribution still succeeds and stays violation-free.
        v = monitor.observe_commit("r", "s-r", [read("x", 42)])
        assert v is None
        assert monitor.consistent

    def test_read_of_superseded_old_version_is_unattributable(self):
        """A read whose version was overwritten more than a window ago
        is reported, not misclassified."""
        monitor = ConsistencyMonitor("SI", {"x": 0, "p0": 0}, window=3)
        monitor.observe_commit("w1", "s1", [write("x", 1)])
        monitor.observe_commit("w2", "s2", [write("x", 2)])
        for i in range(6):
            monitor.observe_commit("pad%d" % i, "s-pad",
                                   [write("p0", i + 1)])
        # Both the writer AND the overwriter of x=1 have been evicted.
        assert "w2" not in monitor._records
        with pytest.raises(MonitorError):
            monitor.observe_commit("r", "s-r", [read("x", 1)])

    def test_superseded_version_attributable_while_overwriter_retained(
        self,
    ):
        """Staleness is bounded by the *overwrite*, not the write: a
        version whose writer was evicted long ago is still attributable
        while the transaction that overwrote it is in the window (a
        descheduled worker's snapshot legitimately reads it)."""
        monitor = ConsistencyMonitor(
            "SI", {"x": 0, "p0": 0, "p1": 0}, window=4
        )
        monitor.observe_commit("w1", "s1", [write("x", 1)])
        for i in range(8):  # w1 leaves the window, x=1 still current
            monitor.observe_commit(
                f"pad{i}", "s-pad", [write(f"p{i % 2}", i + 1)]
            )
        assert "w1" not in monitor._records
        monitor.observe_commit("w2", "s2", [write("x", 2)])
        # The overwriter w2 is retained, so the stale snapshot read of
        # x=1 attributes — and lands an anti-dependency to w2 rather
        # than a WR edge to the dead node.
        v = monitor.observe_commit("r", "s-r", [read("x", 1)])
        assert v is None
        edges = monitor.dependency_edges()
        assert ("r", "w2") in edges["RW"]
        assert all(edge[0] != "w1" for edge in edges["WR"])
        assert monitor.consistent
        # Once w2 ages out, the attribution goes with it.
        for i in range(8):
            monitor.observe_commit(
                f"pad2-{i}", "s-pad", [write(f"p{i % 2}", 100 + i)]
            )
        assert "w2" not in monitor._records
        with pytest.raises(MonitorError):
            monitor.observe_commit("r2", "s-r2", [read("x", 1)])

    def test_duplicate_tid_rejected_even_after_eviction(self):
        monitor = ConsistencyMonitor("SI", {"p0": 0}, window=2)
        for i in range(5):
            monitor.observe_commit(f"t{i}", "s", [write("p0", i + 1)])
        with pytest.raises(MonitorError):
            monitor.observe_commit("t0", "s", [write("p0", 99)])

    def test_expired_attribution_spares_later_writer_of_same_value(self):
        """Expiring w1's superseded x=1 must not drop w3's live x=1."""
        monitor = ConsistencyMonitor(
            "SI", {"x": 0, "p0": 0}, strict_values=False, window=3
        )
        monitor.observe_commit("w1", "s1", [write("x", 1)])
        monitor.observe_commit("w2", "s2", [write("x", 2)])
        monitor.observe_commit("pad", "s-pad", [write("p0", 1)])
        monitor.observe_commit("w3", "s3", [write("x", 1)])
        monitor.observe_commit("w4", "s4", [write("x", 5)])
        assert "w2" not in monitor._records
        # w3's version of x=1 is stale but its overwriter w4 is retained.
        v = monitor.observe_commit("r", "s3", [read("x", 1)])
        assert v is None
        edges = monitor.dependency_edges()
        assert ("w3", "r") in edges["WR"]
        assert ("r", "w4") in edges["RW"]
        assert monitor.consistent

    def test_value_collision_expires_with_its_attribution(self):
        """Once every older x=1 has expired, a fresh x=1 is unambiguous."""
        initial = padded_initial()
        initial["x"] = 0
        monitor = ConsistencyMonitor("SI", initial, window=2)
        monitor.observe_commit("w1", "s1", [write("x", 1)])
        monitor.observe_commit("w2", "s2", [write("x", 2)])
        monitor.observe_commit("w3", "s3", [write("x", 1)])
        monitor.observe_commit("w4", "s4", [write("x", 5)])
        pad_commits(monitor, 6)
        monitor.observe_commit("w10", "s10", [write("x", 1)])
        v = monitor.observe_commit("r", "s-r", [read("x", 1)])
        assert v is None
        assert ("w10", "r") in monitor.dependency_edges()["WR"]

    @pytest.mark.parametrize("window", [2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_attribution_count_matches_value_tables(self, seed, window):
        """The running attribution count that gates tombstone pruning
        equals the value tables' actual size after every commit."""
        rng = random.Random(seed)
        objects = ["x", "y", "z"]
        monitor = ConsistencyMonitor(
            "SI", {"x": 0, "y": 0}, strict_values=False, window=window
        )
        for i in range(300):
            events = [
                read(obj, rng.randrange(4))
                for obj in rng.sample(objects, rng.randrange(3))
            ]
            events += [
                write(obj, rng.randrange(4))
                for obj in rng.sample(objects, rng.randrange(1, 3))
            ]
            monitor.observe_commit(f"t{i}", f"s{rng.randrange(4)}", events)
            assert (
                monitor._attribution_count
                == monitor.state_size()["value_attributions"]
            )

    def test_window_must_be_at_least_two(self):
        with pytest.raises(MonitorError):
            ConsistencyMonitor("SI", {"x": 0}, window=1)
