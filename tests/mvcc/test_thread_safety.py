"""Thread-safety of the engines: hammer one engine from many threads.

The engines were originally single-threaded with caller-decided
interleaving; the service layer relies on each public engine operation
being one atomic step under :attr:`BaseEngine.lock`.  These tests drive
the engines directly from real threads (no scheduler) and check the
invariants that would break under a lost update or a torn commit:

* every increment performed by a committed transaction is reflected in
  the final store state (no lost updates despite races);
* transaction ids and commit timestamps are unique and gapless;
* the reconstructed run still satisfies the engine's own model when
  replayed through the offline monitor.
"""

import sys
import threading

import pytest

from repro.core.errors import TransactionAborted
from repro.monitor import watch_engine
from repro.mvcc import ENGINE_MODELS, PSIEngine, SIEngine, build_engine

THREADS = 8
TXNS_PER_THREAD = 25


def _increment_until_committed(engine, session, obj, max_attempts=10_000):
    """One read-modify-write increment with §5's retry discipline."""
    for _ in range(max_attempts):
        ctx = engine.begin(session)
        try:
            value = engine.read(ctx, obj)
            engine.write(ctx, obj, value + 1)
            engine.commit(ctx)
            return
        except TransactionAborted:
            continue
    raise AssertionError(f"session {session} livelocked on {obj}")


def _hammer(engine, objects_for):
    """Run THREADS threads, each incrementing its objects repeatedly."""
    errors = []

    def worker(i):
        session = f"client-{i}"
        try:
            for n in range(TXNS_PER_THREAD):
                _increment_until_committed(
                    engine, session, objects_for(i, n)
                )
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


@pytest.mark.parametrize("engine_key", sorted(ENGINE_MODELS))
def test_disjoint_hammer_loses_no_updates(engine_key):
    initial = {f"c{i}": 0 for i in range(THREADS)}
    engine, _ = build_engine(engine_key, initial)
    _hammer(engine, lambda i, n: f"c{i}")
    assert engine.stats.commits == THREADS * TXNS_PER_THREAD
    final = {obj: _latest_value(engine, obj) for obj in initial}
    assert final == {f"c{i}": TXNS_PER_THREAD for i in range(THREADS)}


@pytest.mark.parametrize("engine_key", ["2PL", "SER", "SI"])
def test_contended_hammer_loses_no_updates(engine_key):
    engine, _ = build_engine(engine_key, {"counter": 0})
    _hammer(engine, lambda i, n: "counter")
    assert engine.stats.commits == THREADS * TXNS_PER_THREAD
    assert _latest_value(engine, "counter") == THREADS * TXNS_PER_THREAD


def test_tids_and_commit_timestamps_unique_under_contention():
    engine = SIEngine({"counter": 0})
    _hammer(engine, lambda i, n: "counter")
    tids = [rec.tid for rec in engine.committed]
    assert len(tids) == len(set(tids))
    stamps = sorted(rec.commit_ts for rec in engine.committed)
    assert stamps == list(range(1, len(stamps) + 1))


def test_threaded_run_still_satisfies_own_model():
    engine = SIEngine({f"c{i}": 0 for i in range(THREADS)})
    _hammer(engine, lambda i, n: f"c{(i + n) % THREADS}")
    monitor, violations = watch_engine(engine, model="SI")
    assert monitor.consistent, violations


def test_concurrent_history_reconstruction_is_safe():
    """history()/abstract_execution() called from one thread while
    other threads keep committing: each call sees a consistent prefix
    of the commit order."""
    engine = SIEngine({f"c{i}": 0 for i in range(THREADS)})
    errors = []
    stop = threading.Event()

    def reconstructor():
        try:
            while not stop.is_set():
                history = engine.history()
                tids = [
                    t.tid for s in history.sessions for t in s
                    if t.tid != engine.init_tid
                ]
                assert len(tids) == len(set(tids))
                engine.abstract_execution()
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    observer = threading.Thread(target=reconstructor)
    observer.start()
    try:
        _hammer(engine, lambda i, n: f"c{i}")
    finally:
        stop.set()
        observer.join()
    assert not errors, errors
    final = engine.history()
    committed = [
        t for s in final.sessions for t in s if t.tid != engine.init_tid
    ]
    assert len(committed) == THREADS * TXNS_PER_THREAD


def test_history_cache_reuses_converted_transactions():
    """The incremental reconstruction cache: a transaction converted by
    an earlier history() call is the same object in later calls."""
    engine = SIEngine({"x": 0})
    for n in range(3):
        ctx = engine.begin("s")
        engine.write(ctx, "x", n + 1)
        engine.commit(ctx)
    first = engine.history()
    early = {
        t.tid: t for s in first.sessions for t in s
        if t.tid != engine.init_tid
    }
    for n in range(3, 6):
        ctx = engine.begin("s")
        engine.write(ctx, "x", n + 1)
        engine.commit(ctx)
    second = engine.history()
    later = {
        t.tid: t for s in second.sessions for t in s
        if t.tid != engine.init_tid
    }
    assert len(later) == 6
    for tid, txn in early.items():
        assert later[tid] is txn


def _latest_value(engine, obj):
    if isinstance(engine, PSIEngine):
        # auto_deliver keeps every replica current once threads are done.
        states = {r.state[obj] for r in engine.replicas.values()}
        assert len(states) == 1, states
        return states.pop()
    return engine.store.latest(obj).value


FIRST_WRITES = 2_000


def _race_first_writes(engine, racer):
    """Commit one first write per object through ``engine`` (object
    ``o{ts}`` gets value ``ts`` at timestamp ``ts``, published only
    once the commit returns) while ``racer(published)`` runs in three
    threads; returns the errors the racers collected."""
    published = [0]
    stop = threading.Event()
    errors = []

    def writer():
        try:
            for ts in range(1, FIRST_WRITES + 1):
                ctx = engine.begin("writer")
                engine.write(ctx, f"o{ts}", ts)
                published[0] = engine.commit(ctx).commit_ts
        finally:
            stop.set()

    def run_racer():
        try:
            while not stop.is_set():
                racer(published[0])
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=run_racer) for _ in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-commit often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert published[0] == FIRST_WRITES
    return errors


def test_first_writes_racing_lock_free_readers():
    """Readers at a published timestamp see every object written at or
    below it and the initial value of every other object, whether or
    not its chain has been inserted yet."""
    engine = SIEngine({f"o{i}": 0 for i in range(1, FIRST_WRITES + 1)})
    store = engine.store

    def reader(snapshot_ts):
        for i in (snapshot_ts, snapshot_ts + 1, snapshot_ts + 2):
            if 1 <= i <= FIRST_WRITES:
                expected = i if i <= snapshot_ts else 0
                got, _ = store.value_at(f"o{i}", snapshot_ts)
                assert got == expected, (i, snapshot_ts, got)
                assert store.read_at(f"o{i}", snapshot_ts).value == expected

    assert not _race_first_writes(engine, reader)
    assert store.chain_count == FIRST_WRITES


def test_vacuum_racing_chain_creation():
    """Vacuums run under the commit mutex, so commits inserting first
    chains meanwhile neither break them nor lose a version, and
    lock-free reads racing both still find every published write."""
    engine = SIEngine({f"o{i}": 0 for i in range(1, FIRST_WRITES + 1)})
    store = engine.store
    dropped = []
    vacuumed_at = [-1]

    def vacuum_and_read(snapshot_ts):
        # About one vacuum per commit: each holds the commit mutex for
        # a pass over every chain, so back-to-back ones starve the
        # writer.
        if snapshot_ts != vacuumed_at[0]:
            vacuumed_at[0] = snapshot_ts
            dropped.append(engine.vacuum())
        if snapshot_ts:
            # The newest version of its object: no vacuum drops it.
            obj = f"o{snapshot_ts}"
            assert store.value_at(obj, snapshot_ts) == (
                snapshot_ts, snapshot_ts
            )

    assert not _race_first_writes(engine, vacuum_and_read)
    dropped.append(engine.vacuum())
    # Each object's initial version is superseded and dropped once.
    assert sum(dropped) == FIRST_WRITES
    assert store.snapshot_at(FIRST_WRITES) == {
        f"o{i}": i for i in range(1, FIRST_WRITES + 1)
    }
