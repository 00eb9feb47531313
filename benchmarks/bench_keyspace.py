"""E29 — keyspace-independent start-up: per-object state on first write.

The paper's initialisation transaction writes every object, but nothing
needs that state materialised per object before the object is written:
the store builds an object's version chain, and the monitor its writer
and value tables, on the object's first write, and both read the
initial values from one shared read-only mapping.  So building a
certified service, ``recover()`` and ``audit_log()`` cost work for the
objects written, not for the keyspace.  The one per-object cost left is
the log's header: the first segment's binary state frame holds every
initial value once, and every segment's meta frame holds none.

For each keyspace of ``E29_CUSTOMERS`` SmallBank customers (two
objects each: 2x10^3 and 2x10^5 objects) the bench builds the certified
SI stack of perfbench's ``bank-large-read`` workload (window-64
incremental monitor, log with ``fsync_policy="none"``), drives
``E29_TRANSACTIONS`` read-heavy transactions through it with
perfbench's ``InterleavedDriver`` (16 seeded sessions on one thread, so
the run is deterministic), then times ``recover()`` and a full
``audit_log()`` of the log.  Walls are the best of ``E29_REPEATS``.

It writes ``BENCH_keyspace.json`` with the walls and with the
deterministic counts of store chains and monitor tables right after
construction, after the run, and in the recovered engine.  It also
records the deterministic log sizes: the header bytes (magic, meta and
state frames) per initial object, and the bytes of the run's commits
rewritten into about ``E29_SEGMENTS`` small segments over the bytes of
the one-segment log.  The CI gates (asserted here and re-asserted on
the JSON): no chain and no monitor table at construction, and
afterwards at most one per object the run wrote; at most
``E29_MAX_HEADER_BYTES_PER_OBJECT`` header bytes per object; and small
segments at most ``E29_MAX_SPLIT_RATIO`` times the one-segment bytes.

``perfbench`` is imported from the checkout root, so run the bench from
there with ``python -m pytest benchmarks/bench_keyspace.py``.
"""

import os
import shutil
import tempfile
import time

from perfbench.driver import InterleavedDriver
from perfbench.workloads import MONITOR_WINDOW, SESSIONS
from repro.mvcc import SIEngine
from repro.service import (
    SMALLBANK_READ_HEAVY,
    TransactionService,
    smallbank_mix,
)
from repro.wal import (
    FRAME_HEADER,
    SEGMENT_MAGIC,
    WriteAheadLog,
    audit_log,
    recover,
    scan_frames,
)

from helpers import print_table, write_bench_json

E29_CUSTOMERS = (1_000, 100_000)  # 2x10^3 and 2x10^5 objects
E29_TRANSACTIONS = 1_000
E29_REPEATS = 3
E29_SEED = 29
E29_SEGMENTS = 14
E29_MAX_HEADER_BYTES_PER_OBJECT = 16
E29_MAX_SPLIT_RATIO = 1.1


def _meta(engine):
    return {"engine": "SI", "init": engine.initial,
            "init_tid": engine.init_tid, "model": "SI"}


def _build(mix, log_dir):
    """The certified SI stack over ``mix``; returns the service."""
    engine = SIEngine(mix.initial)
    wal = WriteAheadLog(log_dir, fsync_policy="none", meta=_meta(engine))
    return TransactionService.certified(
        engine, model="SI", window=MONITOR_WINDOW, checker="incremental",
        wal=wal,
    )


def _log_sizes(service, log_dir):
    """The served log's header bytes, and its commits rewritten into
    about ``E29_SEGMENTS`` segments: ``(header_bytes, segments,
    split_bytes / log_bytes)``."""
    wal = service.wal
    (path,) = wal.segments()  # the served log is one segment
    with open(path, "rb") as f:
        data = f.read()
    payloads, damage, _ = scan_frames(data, len(SEGMENT_MAGIC))
    assert damage is None
    header = len(SEGMENT_MAGIC) + sum(
        FRAME_HEADER.size + len(payload) for payload in payloads[:2]
    )
    split_dir = log_dir + "-split"
    with WriteAheadLog(
        split_dir, fsync_policy="none", meta=_meta(service.engine),
        segment_max_bytes=wal.stats.commit_bytes // E29_SEGMENTS,
    ) as split:
        for record in service.engine.committed:
            split.append(record)
    paths = split.segments()
    split_bytes = sum(os.path.getsize(p) for p in paths)
    shutil.rmtree(split_dir)
    return header, len(paths), split_bytes / len(data)


def _counts(service):
    return {
        "store_chains": service.engine.store.chain_count,
        "monitor_tables": service.monitor.state_size()["written_objects"],
    }


def _point(customers, work):
    """Measure one keyspace; returns its JSON record."""
    mix = smallbank_mix(customers=customers, weights=SMALLBANK_READ_HEAVY)
    setup, recover_walls, audit_walls = [], [], []
    for repeat in range(E29_REPEATS):
        log_dir = os.path.join(work, f"wal-{customers}-{repeat}")
        started = time.perf_counter()
        service = _build(mix, log_dir)
        setup.append(time.perf_counter() - started)
        built = _counts(service)
        served = InterleavedDriver(
            service, mix, E29_TRANSACTIONS, sessions=SESSIONS,
            seed=E29_SEED,
        ).run()
        service.close()
        assert served.failed == 0 and not service.violations
        after = _counts(service)
        written = len({obj for record in service.engine.committed
                       for obj in record.writes})
        if repeat == 0:
            header, segments, split_ratio = _log_sizes(service, log_dir)
        del service

        started = time.perf_counter()
        recovered = recover(log_dir)
        recover_walls.append(time.perf_counter() - started)
        assert recovered.records_recovered == served.commits
        recovered_chains = recovered.engine.store.chain_count
        del recovered

        started = time.perf_counter()
        audit = audit_log(log_dir, model="SI")
        audit_walls.append(time.perf_counter() - started)
        assert audit.consistent and audit.commits_observed == served.commits
        shutil.rmtree(log_dir)
    return {
        "objects": len(mix.initial),
        "commits": served.commits,
        "objects_written": written,
        "setup_s": min(setup),
        "recover_s": min(recover_walls),
        "audit_s": min(audit_walls),
        "header_bytes": header,
        "header_bytes_per_object": header / len(mix.initial),
        "split_segments": segments,
        "split_over_single_bytes": split_ratio,
        "at_construction": built,
        "after_run": after,
        "recovered_store_chains": recovered_chains,
    }


def test_bench_keyspace():
    work = tempfile.mkdtemp(prefix="e29-")
    try:
        points = [_point(customers, work) for customers in E29_CUSTOMERS]
    finally:
        shutil.rmtree(work)
    print_table(
        f"E29 — start-up over the keyspace ({E29_TRANSACTIONS} read-heavy "
        f"SmallBank transactions, best of {E29_REPEATS})",
        ["objects", "written", "set-up s", "recover() s", "audit_log() s",
         "header B/object", "split/single bytes",
         "chains built/after", "monitor tables built/after"],
        [
            (p["objects"], p["objects_written"], f"{p['setup_s']:.4f}",
             f"{p['recover_s']:.4f}", f"{p['audit_s']:.4f}",
             f"{p['header_bytes_per_object']:.2f}",
             f"{p['split_over_single_bytes']:.4f} "
             f"({p['split_segments']} segments)",
             f"{p['at_construction']['store_chains']}/"
             f"{p['after_run']['store_chains']}",
             f"{p['at_construction']['monitor_tables']}/"
             f"{p['after_run']['monitor_tables']}")
            for p in points
        ],
    )
    write_bench_json(
        "keyspace",
        {"customers": list(E29_CUSTOMERS),
         "transactions": E29_TRANSACTIONS, "sessions": SESSIONS,
         "engine": "SI", "monitor_window": MONITOR_WINDOW,
         "fsync_policy": "none", "repeats": E29_REPEATS, "seed": E29_SEED,
         "split_segments": E29_SEGMENTS},
        {"points": points},
    )
    for p in points:
        assert p["at_construction"] == {"store_chains": 0,
                                        "monitor_tables": 0}, p
        for count in (p["after_run"]["store_chains"],
                      p["after_run"]["monitor_tables"],
                      p["recovered_store_chains"]):
            assert count <= p["objects_written"], p
        assert (p["header_bytes_per_object"]
                <= E29_MAX_HEADER_BYTES_PER_OBJECT), p
        assert p["split_segments"] >= E29_SEGMENTS, p
        assert p["split_over_single_bytes"] <= E29_MAX_SPLIT_RATIO, p
