"""E16 — The operational engines: throughput and abort behaviour.

SI's selling point over serializability is fewer aborts on read-write
contention (it never aborts read-only transactions); its cost is the
write-skew anomaly.  The bench measures commits/aborts for the three
engines on contended and disjoint counter workloads, plus raw engine
throughput.
"""

import pytest

from repro.mvcc import (
    PSIEngine,
    Scheduler,
    SerializableEngine,
    SIEngine,
    TwoPhaseLockingEngine,
)
from repro.mvcc.workloads import (
    contended_counter_workload,
    disjoint_counter_workload,
    random_workload,
)

from helpers import print_table

ENGINES = {
    "SI": SIEngine,
    "SER-OCC": SerializableEngine,
    "SER-2PL": TwoPhaseLockingEngine,
    "PSI": lambda initial: PSIEngine(initial, auto_deliver=True),
}


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_bench_disjoint_throughput(benchmark, engine_name):
    wl = disjoint_counter_workload(sessions=8, increments=10)

    def run():
        engine = ENGINES[engine_name](wl.initial)
        Scheduler(engine, wl.sessions).run_random(1)
        return engine

    engine = benchmark(run)
    assert engine.stats.aborts == 0
    assert engine.stats.commits == 80


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_bench_contended_throughput(benchmark, engine_name):
    wl = contended_counter_workload(0, sessions=4, increments=5, counters=2)

    def run():
        engine = ENGINES[engine_name](wl.initial)
        Scheduler(engine, wl.sessions).run_random(1)
        return engine

    engine = benchmark(run)
    assert engine.stats.commits == 20


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_bench_mixed_workload(benchmark, engine_name):
    wl = random_workload(
        3, sessions=6, transactions_per_session=8, objects=6,
        write_fraction=0.4,
    )

    def run():
        engine = ENGINES[engine_name](wl.initial)
        Scheduler(engine, wl.sessions).run_random(2)
        return engine

    engine = benchmark(run)
    assert engine.stats.commits == 48


def test_engine_report():
    rows = []
    workloads = {
        "disjoint": disjoint_counter_workload(sessions=8, increments=10),
        "contended": contended_counter_workload(
            0, sessions=8, increments=10, counters=1
        ),
        "read-heavy": random_workload(
            5, sessions=8, transactions_per_session=8, objects=4,
            write_fraction=0.2,
        ),
    }
    for wl_name, wl in workloads.items():
        for engine_name, factory in sorted(ENGINES.items()):
            engine = factory(dict(wl.initial))
            Scheduler(engine, wl.sessions).run_random(9)
            rows.append(
                (
                    wl_name,
                    engine_name,
                    engine.stats.commits,
                    engine.stats.aborts,
                    f"{engine.stats.aborts / max(1, engine.stats.commits + engine.stats.aborts):.0%}",
                )
            )
    print_table(
        "Engine commit/abort behaviour by workload",
        ["workload", "engine", "commits", "aborts", "abort rate"],
        rows,
    )
    # Qualitative shape: on the read-heavy workload the serializable
    # engine aborts at least as much as SI (read validation).
    def aborts(wl, eng):
        return next(r[3] for r in rows if r[0] == wl and r[1] == eng)

    assert aborts("read-heavy", "SER-OCC") >= aborts("read-heavy", "SI")
    assert aborts("disjoint", "SI") == 0


# ----------------------------------------------------------------------
# E25 (raw-engine side) — the store's O(log n) read path and the
# lock-free read throughput
# ----------------------------------------------------------------------


def test_bench_read_at_is_sublinear_in_chain_length():
    """Bisect read path: growing the chain 32x must not grow per-read
    cost anywhere near 32x (it was O(n) before the restructure)."""
    import time as _time

    from repro.mvcc.store import MVStore

    rows = []
    costs = {}
    for length in (1024, 32768):
        store = MVStore({"x": 0})
        for i in range(1, length + 1):
            store.install({"x": i}, commit_ts=i, writer=f"t{i}")
        reads = 20_000
        started = _time.perf_counter()
        for i in range(reads):
            store.read_at("x", (i * 7919) % length)
        elapsed = _time.perf_counter() - started
        costs[length] = elapsed / reads
        rows.append(
            (length, reads, f"{reads / elapsed:,.0f}",
             f"{costs[length] * 1e6:.2f}")
        )
    print_table(
        "Snapshot read cost vs version-chain length (bisect path)",
        ["chain length", "reads", "reads/s", "us/read"],
        rows,
    )
    assert costs[32768] < costs[1024] * 4, costs


def test_bench_vacuum_single_bisect():
    """Vacuum cost: one bisect + one slice per object, so trimming a
    store of long chains is quick and drop counts are exact."""
    import time as _time

    from repro.mvcc.store import MVStore

    objects, versions = 64, 256
    store = MVStore({f"o{i}": 0 for i in range(objects)})
    for ts in range(1, versions + 1):
        store.install(
            {f"o{i}": ts for i in range(objects)},
            commit_ts=ts,
            writer=f"t{ts}",
        )
    started = _time.perf_counter()
    dropped = store.vacuum(horizon_ts=versions // 2)
    elapsed = _time.perf_counter() - started
    # Each object keeps versions horizon..latest plus the horizon one.
    assert dropped == objects * (versions // 2)
    assert store.vacuum(horizon_ts=versions // 2) == 0  # idempotent
    print(
        f"\nvacuum: dropped {dropped} versions across {objects} "
        f"objects in {elapsed * 1000:.1f}ms"
    )
    for i in range(objects):
        assert store.read_at(f"o{i}", versions // 2).value == versions // 2


def test_bench_threaded_snapshot_reads_report():
    """Aggregate multi-threaded read throughput on the lock-free read
    path."""
    import threading as _threading
    import time as _time

    engine = SIEngine({f"o{i}": 0 for i in range(16)})
    for ts in range(1, 65):
        ctx = engine.begin("seed")
        engine.write(ctx, f"o{ts % 16}", ts)
        engine.commit(ctx)
    threads, reads_per_thread = 4, 5_000
    errors = []

    def reader(index):
        try:
            ctx = engine.begin(f"r{index}")
            for n in range(reads_per_thread):
                engine.read(ctx, f"o{(index + n) % 16}")
            engine.commit(ctx)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    pool = [
        _threading.Thread(target=reader, args=(i,)) for i in range(threads)
    ]
    started = _time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    elapsed = _time.perf_counter() - started
    assert not errors, errors
    total = threads * reads_per_thread
    print_table(
        "Aggregate snapshot-read throughput, 4 reader threads",
        ["threads", "reads", "reads/s"],
        [(threads, total, f"{total / elapsed:,.0f}")],
    )
