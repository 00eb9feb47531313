"""E32 — plain slotted ``Op``, ``CommitRecord`` and ``Version``.

Every read and write an engine serves builds an ``Op``, every commit a
``CommitRecord``, every installed write a ``Version``, and decoding a
log frame builds an ``Op`` per operation and a ``CommitRecord`` per
frame.  The three are plain ``__slots__`` classes with a positional
``__init__`` rather than frozen dataclasses, whose generated
``__init__`` sets each field through ``object.__setattr__``.

The bench produces an ``audit-replay``-shaped log: perfbench's
producer stack (certified SI service, ``E32_CUSTOMERS`` SmallBank
customers, log with ``fsync_policy="none"``) driven by perfbench's
``InterleavedDriver`` for ``E32_TRANSACTIONS`` transactions over 16
round-robin sessions.  It times, best of ``E32_REPEATS``:

* ``commit_record_from_payload`` over every commit payload of the log,
  in µs per frame;
* ``recover()`` of the log, in commits/s;
* building each of the three types from the log's own field values,
  against frozen-dataclass twins defined here with the same fields.

The cyclic collector is off while a timing runs.

It writes ``BENCH_records.json``.  The CI gate (asserted here and
re-asserted on the JSON): building each type costs at most
``E32_MAX_BUILD_RATIO`` times its frozen-dataclass twin.  The ratio is
taken in one process over the same arguments, so it does not depend on
the machine's speed the way the absolute figures do.

``perfbench`` is imported from the checkout root, so run the bench from
there with ``python -m pytest benchmarks/bench_records.py``.
"""

import gc
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Tuple

from perfbench.driver import InterleavedDriver
from perfbench.workloads import SESSIONS, WORKLOADS, build_stack
from repro.core.events import Op
from repro.mvcc import Version
from repro.mvcc.engine import CommitRecord
from repro.wal import recover, scan
from repro.wal.format import (
    commit_record_from_payload,
    commit_record_to_payload,
)

from helpers import print_table, write_bench_json

E32_WORKLOAD = WORKLOADS["audit-replay"]
E32_CUSTOMERS = E32_WORKLOAD.customers
E32_TRANSACTIONS = 1000
E32_REPEATS = 7
E32_BUILD_PASSES = 20  # passes over the log's arguments per timing
E32_MAX_BUILD_RATIO = 0.6


@dataclass(frozen=True)
class _FrozenOp:
    kind: Any
    obj: str
    value: Any


@dataclass(frozen=True)
class _FrozenCommitRecord:
    tid: str
    session: str
    commit_ts: int
    events: Tuple[Any, ...]
    snapshot: int
    extra: frozenset = frozenset()
    sources: Tuple[int, ...] = ()


@dataclass(frozen=True)
class _FrozenVersion:
    value: Any
    commit_ts: int
    writer: str


def _best(run, repeats=E32_REPEATS):
    """The fastest of ``repeats`` walls of ``run()``, with the cyclic
    collector off (its passes over the built records are noise here)."""
    walls = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            walls.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return min(walls)


def _build_wall(cls, arguments):
    """Best wall of building ``cls(*args)`` for every ``args``,
    ``E32_BUILD_PASSES`` times over."""
    def run():
        for _ in range(E32_BUILD_PASSES):
            for args in arguments:
                cls(*args)
    return _best(run)


def _produce(directory):
    mix, service = build_stack(E32_WORKLOAD, directory)
    result = InterleavedDriver(
        service, mix, transactions=E32_TRANSACTIONS, sessions=SESSIONS,
        seed=0, round_robin=True,
    ).run()
    service.close()
    assert result.commits == E32_TRANSACTIONS and result.failed == 0
    assert service.violations == []


def test_bench_records():
    work = tempfile.mkdtemp(prefix="e32-")
    try:
        directory = os.path.join(work, "wal")
        _produce(directory)
        records = list(scan(directory))
        payloads = [commit_record_to_payload(r) for r in records]
        decode_wall = _best(
            lambda: [commit_record_from_payload(p) for p in payloads]
        )
        recover_wall = _best(lambda: recover(directory))
    finally:
        shutil.rmtree(work)
    assert len(records) == E32_TRANSACTIONS
    assert [commit_record_from_payload(p) for p in payloads] == records

    arguments = {
        "Op": [(op.kind, op.obj, op.value)
               for r in records for op in r.events],
        "CommitRecord": [(r.tid, r.session, r.commit_ts, r.events,
                          r.snapshot, r.extra, r.sources) for r in records],
        "Version": [(value, r.commit_ts, r.tid)
                    for r in records for value in r.writes.values()],
    }
    twins = {
        "Op": (Op, _FrozenOp),
        "CommitRecord": (CommitRecord, _FrozenCommitRecord),
        "Version": (Version, _FrozenVersion),
    }
    build = {}
    for name, (cls, twin) in twins.items():
        args = arguments[name]
        built = len(args) * E32_BUILD_PASSES
        slotted_us = _build_wall(cls, args) / built * 1e6
        frozen_us = _build_wall(twin, args) / built * 1e6
        build[name] = {
            "instances": len(args),
            "slotted_us": slotted_us,
            "frozen_us": frozen_us,
            "ratio": slotted_us / frozen_us,
        }

    decode_us = decode_wall / len(payloads) * 1e6
    recover_tps = len(records) / recover_wall
    print_table(
        f"E32 — record construction over an {E32_WORKLOAD.name}-shaped "
        f"log ({E32_CUSTOMERS} customers, {E32_TRANSACTIONS} commits)",
        ["type", "instances", "slotted µs", "frozen twin µs", "ratio"],
        [(name, row["instances"], f"{row['slotted_us']:.3f}",
          f"{row['frozen_us']:.3f}", f"{row['ratio']:.2f}")
         for name, row in build.items()],
    )
    print(f"commit_record_from_payload: {decode_us:.2f} µs per frame; "
          f"recover(): {recover_tps:.0f} commits/s")
    write_bench_json(
        "records",
        {"workload": E32_WORKLOAD.name, "customers": E32_CUSTOMERS,
         "transactions": E32_TRANSACTIONS, "sessions": SESSIONS,
         "repeats": E32_REPEATS, "build_passes": E32_BUILD_PASSES},
        {
            "decode_us_per_frame": decode_us,
            "recover_tps": recover_tps,
            "build": build,
            "max_build_ratio": E32_MAX_BUILD_RATIO,
        },
    )
    slow = {name: round(row["ratio"], 3) for name, row in build.items()
            if row["ratio"] > E32_MAX_BUILD_RATIO}
    assert not slow, (
        f"building costs more than {E32_MAX_BUILD_RATIO}x the frozen "
        f"dataclass twin: {slow}"
    )
