"""E23 — Concurrent service throughput with online certification.

The service layer makes the reproduction *serve*: N worker threads
drive the SmallBank mix through the engines, each commit certified in
commit order by a windowed monitor (§7 made operational).  The bench
measures end-to-end committed-transaction throughput and abort rates
per engine, asserts the monitor stays silent when its model matches the
engine's guarantee (any flag there would be a false positive), and
writes the machine-readable ``BENCH_service.json`` record CI tracks.
"""

import pytest

from repro.monitor import ConsistencyMonitor
from repro.mvcc import build_engine
from repro.service import LoadGenerator, TransactionService, smallbank_mix

from helpers import print_table, write_bench_json

WORKERS = 8
TXNS_PER_WORKER = 25
WINDOW = 64
ENGINES = ("SI", "SER", "PSI")  # the ENGINE_MODELS keys E23 reports


def drive(model_name, workers=WORKERS, txns=TXNS_PER_WORKER, seed=0):
    mix = smallbank_mix(customers=4)
    engine, certified_model = build_engine(model_name, dict(mix.initial))
    monitor = ConsistencyMonitor(
        certified_model, dict(mix.initial), window=WINDOW
    )
    service = TransactionService(
        engine,
        monitor,
        max_retries=2000,
        backoff_base=0.0001,
    )
    result = LoadGenerator(
        service,
        mix,
        workers=workers,
        transactions_per_worker=txns,
        seed=seed,
    ).run()
    return service, monitor, result


@pytest.mark.parametrize("model_name", sorted(ENGINES))
def test_bench_service_throughput(benchmark, model_name):
    service, monitor, result = benchmark(drive, model_name)
    # The monitor's model matches the engine's guarantee, so every
    # violation would be a false positive.
    assert result.violations == 0
    assert monitor.consistent
    assert result.committed + result.retry_exhausted > 0
    assert monitor.retained_count <= WINDOW
    # The monitor saw every commit the service performed.
    assert monitor.commit_count == service.metrics.commits


def test_service_report():
    """The per-model summary table and the BENCH_service.json record."""
    rows = []
    results = {}
    for model_name in ENGINES:
        service, monitor, result = drive(model_name)
        assert result.violations == 0, (
            f"false positive under {model_name}: {service.violations}"
        )
        latency = service.metrics.txn_latency.snapshot()
        results[model_name] = {
            "committed": result.committed,
            "retry_exhausted": result.retry_exhausted,
            "violations": result.violations,
            "throughput_tps": round(result.throughput, 1),
            "abort_rate": round(service.metrics.abort_rate, 4),
            "p50_seconds": latency["p50"],
            "p99_seconds": latency["p99"],
        }
        rows.append(
            (
                model_name,
                result.committed,
                f"{result.throughput:.0f}",
                f"{service.metrics.abort_rate:.1%}",
                result.violations,
            )
        )
    print_table(
        "Service throughput (SmallBank mix, "
        f"{WORKERS} workers x {TXNS_PER_WORKER} txns, "
        f"windowed monitor w={WINDOW})",
        ["engine", "committed", "txn/s", "abort rate", "violations"],
        rows,
    )
    path = write_bench_json(
        "service",
        params={
            "mix": "smallbank",
            "workers": WORKERS,
            "transactions_per_worker": TXNS_PER_WORKER,
            "window": WINDOW,
        },
        results=results,
    )
    print(f"bench record written to {path}")
    # SI must not abort read-only Balance transactions; with retries the
    # full offered load eventually commits under every engine.
    for model_name, record in results.items():
        assert (
            record["committed"] + record["retry_exhausted"]
            == WORKERS * TXNS_PER_WORKER
        )


# ----------------------------------------------------------------------
# E25 — engine scaling: lock-free reads, certification off the commit path
# ----------------------------------------------------------------------
#
# The fine-grained concurrency work (per-object lock stripes, lock-free
# O(log n) snapshot reads) should let throughput grow with worker
# threads for closed-loop clients (per-transaction think time models
# the client round trip), with every commit handed off to the service's
# certifier process inside the commit critical section.  The sweep crosses workers x engine on
# read-heavy and write-heavy SmallBank mixes and records
# ``BENCH_engine_scaling.json``.  ``E25_MAX_SECONDS`` caps the sweep
# (CI smoke); the scaling gate — 4-worker read-heavy SI strictly
# outrunning 1 worker — always runs.

import os
import time

from repro.service import SMALLBANK_READ_HEAVY, SMALLBANK_WRITE_HEAVY

E25_WORKERS = (1, 2, 4, 8)
E25_TXNS = 40
E25_THINK_TIME = 0.002  # closed-loop client round trip
E25_WINDOW = 64
E25_CUSTOMERS = 8
E25_MIXES = {
    "read-heavy": SMALLBANK_READ_HEAVY,
    "write-heavy": SMALLBANK_WRITE_HEAVY,
}


def _e25_cells():
    """The sweep, most important first (the time budget trims the
    tail, never the head).  The leading cells are the scaling gate."""
    cells = []
    for workers in E25_WORKERS:  # the gate + its scaling curve
        cells.append(("SI", "read-heavy", workers))
    for workers in (1, 4):  # commit-path stress
        cells.append(("SI", "write-heavy", workers))
    for model in ("SER", "PSI"):  # the other engines' curves
        for workers in (1, 4):
            cells.append((model, "read-heavy", workers))
    return cells


def _e25_drive(model, mix_name, workers):
    mix = smallbank_mix(
        customers=E25_CUSTOMERS, weights=E25_MIXES[mix_name]
    )
    engine, certified_model = build_engine(model, dict(mix.initial))
    service = TransactionService.certified(
        engine,
        model=certified_model,
        window=E25_WINDOW,
        max_retries=2000,
        backoff_base=0.0001,
    )
    result = LoadGenerator(
        service,
        mix,
        workers=workers,
        transactions_per_worker=E25_TXNS,
        seed=25,
        think_time=E25_THINK_TIME,
    ).run()
    service.close()
    return service, result


def test_bench_engine_scaling():
    """E25: throughput scales with workers once reads are lock-free,
    with every commit certified by the service's certifier process."""
    budget = float(os.environ.get("E25_MAX_SECONDS", "0")) or None
    cells = _e25_cells()
    mandatory = set(cells[:4])  # the gate curve always runs
    started = time.perf_counter()
    results, rows, dropped = {}, [], []
    for cell in cells:
        key = "/".join(str(part) for part in cell)
        elapsed = time.perf_counter() - started
        if budget is not None and elapsed > budget and cell not in mandatory:
            dropped.append(key)
            continue
        service, result = _e25_drive(*cell)
        model, mix_name, workers = cell
        results[key] = {
            "engine": model,
            "mix": mix_name,
            "workers": workers,
            "committed": result.committed,
            "retry_exhausted": result.retry_exhausted,
            "violations": result.violations,
            "throughput_tps": round(result.throughput, 1),
            "abort_rate": round(service.metrics.abort_rate, 4),
        }
        rows.append(
            (
                model,
                mix_name,
                workers,
                f"{result.throughput:.0f}",
                f"{service.metrics.abort_rate:.1%}",
            )
        )
        # Model-matched certification: every flag is a false positive.
        assert result.violations == 0, key
        assert result.committed + result.retry_exhausted == (
            workers * E25_TXNS
        ), key
    print_table(
        "E25 — engine scaling "
        f"(SmallBank, {E25_TXNS} txns/worker, "
        f"{E25_THINK_TIME * 1000:.0f}ms think time)",
        ["engine", "mix", "workers", "txn/s", "aborts"],
        rows,
    )
    if dropped:
        print(f"E25: time budget dropped {len(dropped)} cells: {dropped}")

    def tps(workers):
        return results[f"SI/read-heavy/{workers}"][
            "throughput_tps"
        ]

    ratio = tps(4) / tps(1)
    print(f"E25: read-heavy SI 4w/1w speedup: {ratio:.2f}x")
    path = write_bench_json(
        "engine_scaling",
        params={
            "mix": "smallbank",
            "customers": E25_CUSTOMERS,
            "transactions_per_worker": E25_TXNS,
            "think_time_seconds": E25_THINK_TIME,
            "window": E25_WINDOW,
            "max_seconds": budget,
            "dropped_cells": dropped,
        },
        results={**results, "speedup_4w_over_1w": round(ratio, 3)},
    )
    print(f"bench record written to {path}")
    # The scaling gate: 4 closed-loop workers must outrun 1; on a full
    # (uncapped) run the restructure is expected to deliver >= 2x.
    assert ratio > 1.0, (tps(1), tps(4))
    if budget is None:
        assert ratio >= 2.0, (tps(1), tps(4))
