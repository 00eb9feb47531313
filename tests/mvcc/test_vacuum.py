"""Tests for version garbage collection and "snapshot too old"."""

import threading

import pytest

from repro.core.errors import SnapshotTooOld, TransactionAborted
from repro.mvcc import si as si_module
from repro.mvcc.engine import TxContext
from repro.mvcc.si import SIEngine
from repro.mvcc.store import MVStore, Version


class TestStoreVacuum:
    def test_vacuum_keeps_horizon_version(self):
        store = MVStore({"x": 0})
        store.install({"x": 1}, commit_ts=1, writer="t1")
        store.install({"x": 2}, commit_ts=2, writer="t2")
        dropped = store.vacuum(horizon_ts=1)
        assert dropped == 1  # the initial version
        assert [v.value for v in store.versions("x")] == [1, 2]
        # Snapshot at the horizon still reads correctly.
        assert store.read_at("x", 1).value == 1

    def test_vacuum_nothing_to_drop(self):
        store = MVStore({"x": 0})
        assert store.vacuum(horizon_ts=5) == 0

    def test_old_snapshot_raises_after_vacuum(self):
        store = MVStore({"x": 0})
        store.install({"x": 1}, commit_ts=5, writer="t1")
        store.vacuum(horizon_ts=5)
        with pytest.raises(SnapshotTooOld):
            store.read_at("x", 2)

    def test_per_object_independence(self):
        store = MVStore({"x": 0, "y": 0})
        store.install({"x": 1}, commit_ts=1, writer="t1")
        store.vacuum(horizon_ts=1)
        # y still has only the initial version, readable at ts 0.
        assert store.read_at("y", 0).value == 0
        with pytest.raises(SnapshotTooOld):
            store.read_at("x", 0)


class TestEngineVacuum:
    def test_safe_vacuum_respects_active_snapshots(self):
        engine = SIEngine({"x": 0})
        reader = engine.begin("old")  # snapshot at ts 0
        writer = engine.begin("w")
        engine.write(writer, "x", 1)
        engine.commit(writer)
        dropped = engine.vacuum()  # horizon = oldest active = 0
        assert dropped == 0
        assert engine.read(reader, "x") == 0  # still fine
        engine.commit(reader)

    def test_aggressive_vacuum_aborts_old_snapshot(self):
        engine = SIEngine({"x": 0})
        reader = engine.begin("old")
        writer = engine.begin("w")
        engine.write(writer, "x", 1)
        engine.commit(writer)
        dropped = engine.vacuum(aggressive=True)
        assert dropped == 1
        with pytest.raises(TransactionAborted) as excinfo:
            engine.read(reader, "x")
        assert "snapshot too old" in str(excinfo.value)
        assert engine.stats.aborts == 1

    def test_retry_after_snapshot_too_old_succeeds(self):
        engine = SIEngine({"x": 0})
        reader = engine.begin("old")
        writer = engine.begin("w")
        engine.write(writer, "x", 1)
        engine.commit(writer)
        engine.vacuum(aggressive=True)
        with pytest.raises(TransactionAborted):
            engine.read(reader, "x")
        # Fresh attempt gets a current snapshot.
        retry = engine.begin("old")
        assert engine.read(retry, "x") == 1
        engine.commit(retry)

    def test_vacuum_with_no_active_transactions(self):
        engine = SIEngine({"x": 0})
        t = engine.begin("s")
        engine.write(t, "x", 1)
        engine.commit(t)
        t2 = engine.begin("s")
        engine.write(t2, "x", 2)
        engine.commit(t2)
        dropped = engine.vacuum()
        assert dropped == 2  # initial and first write superseded

    def test_vacuumed_run_still_in_exec_si(self):
        from repro.core.models import SI

        engine = SIEngine({"x": 0, "y": 0})
        for i in range(4):
            t = engine.begin("s")
            engine.read(t, "x")
            engine.write(t, "x", i + 1)
            engine.commit(t)
            engine.vacuum()
        assert SI.satisfied_by(engine.abstract_execution())


class TestAtomicBegin:
    """``begin`` reads the clock and pins the snapshot in one step under
    the commit mutex, so a safe vacuum never drops a version a snapshot
    just taken still needs."""

    def test_safe_vacuum_cannot_run_between_clock_read_and_pin(
        self, monkeypatch
    ):
        engine = SIEngine({"x": 0})
        first = engine.begin("w")
        engine.write(first, "x", 1)
        engine.commit(first)
        racers = []

        def commit_and_vacuum():
            ctx = engine.begin("w")
            engine.write(ctx, "x", 2)
            engine.commit(ctx)
            engine.vacuum()

        class RacedContext(TxContext):
            """Starts the racer after the clock read, before the pin."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if self.session == "old" and not racers:
                    racer = threading.Thread(target=commit_and_vacuum)
                    racers.append(racer)
                    racer.start()
                    # Without an atomic begin the racer finishes here;
                    # with one, it waits for the commit mutex.
                    racer.join(timeout=0.5)

        monkeypatch.setattr(si_module, "TxContext", RacedContext)
        reader = engine.begin("old")
        assert reader.start_ts == 1
        racers[0].join(timeout=10)
        assert not racers[0].is_alive()
        assert engine.store.latest("x").value == 2
        assert engine.read(reader, "x") == 1
        engine.commit(reader)
        assert engine.stats.aborts == 0


class TestConcurrentVacuum:
    """Vacuum racing engine commits and real reader threads: a read
    either sees the value its snapshot pins or fails with
    SnapshotTooOld — never a wrong value, never a torn chain."""

    def test_vacuum_racing_readers_never_returns_wrong_value(self):
        engine = SIEngine({"x": 0})
        store = engine.store
        total = 400
        errors = []
        stop = threading.Event()

        def writer():
            # The commit at ts writes value == ts, so any read has a
            # self-evident correctness check.
            try:
                for _ in range(total):
                    ctx = engine.begin("writer")
                    engine.write(ctx, "x", ctx.start_ts + 1)
                    engine.commit(ctx)
            finally:
                stop.set()

        def vacuumer():
            while not stop.is_set():
                engine.vacuum()
            engine.vacuum()

        def reader():
            while not stop.is_set():
                snapshot_ts = store.latest_commit_ts("x")
                try:
                    version = store.read_at("x", snapshot_ts)
                except SnapshotTooOld:
                    continue  # legal: the snapshot aged out
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                if version.value != snapshot_ts:
                    # Timestamps are gapless and each version's value
                    # equals its commit_ts, so the snapshot read has
                    # exactly one right answer.
                    errors.append(
                        AssertionError(
                            f"read at {snapshot_ts} returned "
                            f"value {version.value}"
                        )
                    )
                    return

        threads = (
            [threading.Thread(target=writer)]
            + [threading.Thread(target=vacuumer)]
            + [threading.Thread(target=reader) for _ in range(4)]
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert store.latest("x").value == total
        assert store.versions("x") == [Version(total, total, f"t{total}")]
