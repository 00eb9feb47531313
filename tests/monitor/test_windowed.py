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
    SourcedCommit,
    sourced_commits,
    watch_engine,
)
from repro.mvcc import PSIEngine, Scheduler, SIEngine
from repro.mvcc.workloads import random_workload, write_skew_sessions
from tests.monitor.streams import observe


def pad_commits(monitor, count, start=0):
    """Feed ``count`` unrelated single-object commits (disjoint keys
    must be pre-registered via initial_values)."""
    for i in range(start, start + count):
        violation = observe(
            monitor, f"pad{i}", f"pad-session-{i % 7}",
            [write(f"p{i % 5}", i + 1)],
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
            v_full = observe(full, tid, session, events)
            v_win = observe(windowed, tid, session, events)
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
            observe(full, tid, session, events)
            observe(windowed, tid, session, events)
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
            v = monitor.observe_commit(rec)
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
            v = windowed.observe_commit(rec)
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
        assert sizes["written_objects"] == 5
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
            observe(
                monitor, f"t{i}", f"s{i % 16}",
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
        observe(monitor, "w", "s-w", [write("x", 42)])
        for i in range(10):
            observe(
                monitor, f"pad{i}", "s-pad", [write(f"p{i % 2}", i + 1)]
            )
        assert "w" not in monitor._records
        # Strict attribution still succeeds and stays violation-free.
        v = observe(monitor, "r", "s-r", [read("x", 42)])
        assert v is None
        assert monitor.consistent

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
        observe(monitor, "w1", "s1", [write("x", 1)])
        for i in range(8):  # w1 leaves the window, x=1 still current
            observe(
                monitor, f"pad{i}", "s-pad", [write(f"p{i % 2}", i + 1)]
            )
        assert "w1" not in monitor._records
        observe(monitor, "w2", "s2", [write("x", 2)])
        # The overwriter w2 is retained, so the stale snapshot read of
        # x=1 attributes — and lands an anti-dependency to w2 rather
        # than a WR edge to the dead node.
        v = observe(monitor, "r", "s-r", [read("x", 1)])
        assert v is None
        edges = monitor.dependency_edges()
        assert ("r", "w2") in edges["RW"]
        assert all(edge[0] != "w1" for edge in edges["WR"])
        assert monitor.consistent
        # Once w2 ages out too, the read still names w1's commit_ts,
        # below the window: an evicted writer, with no retained writer
        # of x to anti-depend on.
        for i in range(8):
            observe(
                monitor, f"pad2-{i}", "s-pad", [write(f"p{i % 2}", 100 + i)]
            )
        assert "w2" not in monitor._records
        assert observe(monitor, "r2", "s-r2", [read("x", 1)]) is None
        assert monitor._records["r2"].reads == (("x", None),)
        edges = monitor.dependency_edges()
        assert all("r2" not in edge for edge in edges["RW"] | edges["WR"])

    def test_duplicate_tid_rejected_even_after_eviction(self):
        # No tombstones: an evicted commit fed again is refused because
        # its commit_ts does not rise.
        monitor = ConsistencyMonitor("SI", {"p0": 0}, window=2)
        commits = [
            SourcedCommit(f"t{i}", "s", i + 1, (write("p0", i + 1),), ())
            for i in range(5)
        ]
        for commit in commits:
            monitor.observe_commit(commit)
        assert "t0" not in monitor._records
        with pytest.raises(MonitorError, match="does not rise"):
            monitor.observe_commit(commits[0])

    def test_expired_attribution_spares_later_writer_of_same_value(self):
        """A read of x=1, which w1 and then w3 wrote, goes to w3 under
        lenient attribution, with w1 and w2 out of the window."""
        monitor = ConsistencyMonitor("SI", {"x": 0, "p0": 0}, window=3)
        commits = sourced_commits([
            ("w1", "s1", [write("x", 1)]),
            ("w2", "s2", [write("x", 2)]),
            ("pad", "s-pad", [write("p0", 1)]),
            ("w3", "s3", [write("x", 1)]),
            ("w4", "s4", [write("x", 5)]),
            ("r", "s3", [read("x", 1)]),
        ], monitor._initial, lenient=True)
        *writes, reader = commits
        for commit in writes:
            monitor.observe_commit(commit)
        assert "w2" not in monitor._records
        # w3's version of x=1 is stale but its overwriter w4 is retained.
        v = monitor.observe_commit(reader)
        assert v is None
        edges = monitor.dependency_edges()
        assert ("w3", "r") in edges["WR"]
        assert ("r", "w4") in edges["RW"]
        assert monitor.consistent

    @pytest.mark.parametrize("window", [2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_attribution_count_matches_value_tables(self, seed, window):
        """Lenient attribution of a history of repeated values names,
        for each read, the latest writer of its value (per a reference
        value table), and a windowed monitor accepts every such source,
        retained or evicted."""
        rng = random.Random(seed)
        objects = ["x", "y", "z"]
        initial = {"x": 0, "y": 0}
        history = []
        for i in range(300):
            # Only values some commit (or the initial state) wrote.
            events = [
                read(obj, rng.choice([initial.get(obj, 0)] + [
                    op.value for _, _, ops in history[-20:] for op in ops
                    if op.obj == obj and not op.is_read
                ]))
                for obj in rng.sample(sorted(initial), rng.randrange(3))
            ]
            events += [
                write(obj, rng.randrange(4))
                for obj in rng.sample(objects, rng.randrange(1, 3))
            ]
            history.append((f"t{i}", f"s{rng.randrange(4)}", events))
        table = {obj: {value: 0} for obj, value in initial.items()}
        monitor = ConsistencyMonitor("SI", initial, window=window)
        for commit in sourced_commits(history, initial, lenient=True):
            assert commit.sources == tuple(
                table[op.obj][op.value] for op in commit.events
                if op.is_read
            )
            for op in commit.events[len(commit.sources):]:
                table.setdefault(op.obj, {})[op.value] = commit.commit_ts
            monitor.observe_commit(commit)
        assert monitor.commit_count == 300

    def test_window_must_be_at_least_two(self):
        with pytest.raises(MonitorError):
            ConsistencyMonitor("SI", {"x": 0}, window=1)
