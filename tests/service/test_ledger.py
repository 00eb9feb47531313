"""The service's one ledger under real threads: every snapshot taken
while workers commit is self-consistent, and the final counts match the
engine's and the log's."""

import threading

from repro.mvcc import SIEngine
from repro.service import (
    HealthPolicy,
    LoadGenerator,
    TransactionService,
    smallbank_mix,
)
from repro.wal import WriteAheadLog


def test_snapshots_are_consistent_while_workers_commit(tmp_path):
    mix = smallbank_mix(customers=8)
    engine = SIEngine(mix.initial)
    wal = WriteAheadLog(
        str(tmp_path / "wal"), fsync_policy="group",
        meta={"engine": "SI", "init": dict(engine.initial),
              "init_tid": engine.init_tid, "model": "SI"},
    )
    service = TransactionService.certified(
        engine, model="SI", window=64, wal=wal,
        health_policy=HealthPolicy(enforce=True),
    )
    metrics = service.metrics
    stop = threading.Event()
    torn = []
    taken = [0]

    def watch():
        while not stop.is_set():
            snap = metrics.snapshot()
            taken[0] += 1
            commits = snap["counters"]["commits"]
            recorded = snap["latency_seconds"]["count"]
            in_flight = snap["gauges"]["in_flight"]
            if recorded != commits or in_flight < 0:
                torn.append((commits, recorded, in_flight))

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        result = LoadGenerator(
            service, mix, workers=4, transactions_per_worker=150, seed=3
        ).run()
    finally:
        stop.set()
        watcher.join(timeout=10)
    assert not watcher.is_alive()
    assert taken[0] > 0
    assert torn == []

    service.drain()
    snap = metrics.snapshot()
    assert snap["counters"]["commits"] == engine.stats.commits
    assert snap["counters"]["aborts"] == engine.stats.aborts
    assert snap["counters"]["commits"] == result.committed
    assert snap["gauges"]["in_flight"] == 0
    logged = wal.stats.appends
    assert logged == engine.stats.commits
    assert snap["wal"]["append_latency_seconds"]["count"] == logged
    assert service.violations == []
    service.close()
