"""E27 — chaos: robustness invariants and graceful degradation cost.

The fault-injection framework (``repro.faults``) exists to check that
the paper's soundness claims survive a failing environment: under any
deterministic storm of I/O errors, stalls, injected aborts and
admission spikes, the live monitor must produce **zero** false
verdicts, every durable commit must recover contiguously and pass the
offline audit, and the service health machine must return to
``healthy`` within a bounded window once the faults stop (a poisoned
log legitimately pins it at ``degraded``).

Two parts:

* **E27a (the gate, always runs)** — the invariant grid: >= 3 distinct
  seeded fault plans x all four engines, each cell asserting all four
  chaos invariants.  This is what CI's chaos job gates on via
  ``BENCH_chaos.json``.
* **E27b (budgeted sweep)** — throughput degradation and
  time-to-recover across storm intensities on SI, the "cost of chaos"
  curve.  ``E27_MAX_SECONDS`` caps it for CI smoke runs; exceeded
  budget skips remaining intensity cells, never the gate.
"""

import os
import shutil
import tempfile
import time

from repro.faults import FaultPlan, preset
from repro.faults.chaos import run_chaos
from repro.mvcc import ENGINE_MODELS

from helpers import print_table, write_bench_json

E27_PLANS = (
    ("mixed", 0.5, 101),
    ("disk", 0.7, 202),
    ("contention", 0.6, 303),
)
"""The gate grid's (profile, intensity, seed) triples — three distinct
seeded storms, each run against all four engines."""

E27_WORKERS = 4
E27_TXNS = 15
E27_CALM_TXNS = 5
E27_RECOVERY_WINDOW = 20.0
E27_SWEEP_INTENSITIES = (0.0, 0.25, 0.5, 0.75)


def _run_cell(engine, profile, intensity, seed, **kwargs):
    plan = preset(profile, intensity=intensity, seed=seed)
    wal_dir = tempfile.mkdtemp(prefix="bench-chaos-")
    try:
        return run_chaos(
            engine,
            plan,
            wal_dir,
            workers=E27_WORKERS,
            txns_per_worker=E27_TXNS,
            calm_txns_per_worker=E27_CALM_TXNS,
            seed=seed,
            recovery_window=E27_RECOVERY_WINDOW,
            **kwargs,
        )
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def test_bench_chaos_invariants():
    """E27a: all chaos invariants hold on every engine under >= 3
    distinct seeded fault plans (the CI gate)."""
    grid = {}
    rows = []
    for profile, intensity, seed in E27_PLANS:
        plan_key = f"{profile}@{intensity}:{seed}"
        for engine in ENGINE_MODELS:
            report = _run_cell(engine, profile, intensity, seed)
            grid[f"{plan_key}/{engine}"] = report.to_doc()
            rows.append(
                (
                    plan_key,
                    engine,
                    report.total_triggers,
                    report.storm["committed"],
                    report.end_state,
                    "ok" if report.ok else "FAIL",
                )
            )
            assert report.ok, (
                f"{engine} under {plan_key}: invariants {report.invariants}"
            )
            assert report.violations == 0
    # The WAL-poison storm exercises both degradation policies.
    for policy in ("fail_stop", "read_only"):
        for engine in ("SI", "2PL"):
            report = _run_cell(
                engine, "poison", 0.8, 404, on_wal_failure=policy
            )
            grid[f"poison@0.8:404/{engine}/{policy}"] = report.to_doc()
            rows.append(
                (
                    f"poison/{policy}",
                    engine,
                    report.total_triggers,
                    report.storm["committed"],
                    report.end_state,
                    "ok" if report.ok else "FAIL",
                )
            )
            assert report.ok, (
                f"{engine} poison/{policy}: invariants {report.invariants}"
            )
            if report.wal_failed:
                assert report.end_state == "degraded"
                if policy == "read_only":
                    assert report.read_only
    print_table(
        "E27a: chaos invariant grid (plans x engines)",
        ["plan", "engine", "faults", "committed", "end state", "verdict"],
        rows,
    )
    write_bench_json(
        "chaos",
        params={
            "plans": [list(p) for p in E27_PLANS],
            "workers": E27_WORKERS,
            "txns_per_worker": E27_TXNS,
            "recovery_window": E27_RECOVERY_WINDOW,
        },
        results={
            "grid": grid,
            "all_ok": all(cell["ok"] for cell in grid.values()),
            "cells": len(grid),
        },
    )
    assert all(cell["ok"] for cell in grid.values())


def test_bench_chaos_degradation_curve():
    """E27b: throughput degradation and time-to-recover vs storm
    intensity (budgeted; the qualitative claim — chaos costs
    throughput, recovery stays bounded — is asserted on whatever cells
    fit the budget)."""
    budget = float(os.environ.get("E27_MAX_SECONDS", "0")) or None
    started = time.perf_counter()
    rows, curve = [], {}
    for intensity in E27_SWEEP_INTENSITIES:
        if (
            budget is not None
            and intensity > 0
            and time.perf_counter() - started > budget
        ):
            break
        report = _run_cell("SI", "mixed", intensity, 505)
        curve[str(intensity)] = {
            "throughput_tps": report.storm["throughput_tps"],
            "time_to_healthy": report.time_to_healthy,
            "faults": report.total_triggers,
            "ok": report.ok,
        }
        rows.append(
            (
                intensity,
                report.total_triggers,
                report.storm["throughput_tps"],
                (
                    f"{report.time_to_healthy:.2f}"
                    if report.time_to_healthy is not None
                    else "-"
                ),
                "ok" if report.ok else "FAIL",
            )
        )
        assert report.ok
    print_table(
        "E27b: SI storm intensity sweep (mixed profile)",
        ["intensity", "faults", "txn/s", "t_healthy (s)", "verdict"],
        rows,
    )
    assert curve["0.0"]["faults"] == 0  # intensity 0 is a clean run
    faulted = [
        cell for key, cell in curve.items() if key != "0.0"
    ]
    if faulted:
        # Once the budget admits any real storm, faults actually fired
        # and every run still recovered within the window.
        assert any(cell["faults"] > 0 for cell in faulted)
        assert all(cell["ok"] for cell in curve.values())
    write_bench_json(
        "chaos_curve",
        params={
            "engine": "SI",
            "profile": "mixed",
            "intensities": list(E27_SWEEP_INTENSITIES),
        },
        results={"curve": curve},
    )


def test_bench_chaos_determinism():
    """Same plan, same seed => the fault schedule's per-point decision
    streams are identical (trigger counts match run to run)."""
    doc = preset("mixed", intensity=0.6, seed=42).to_doc()
    triggers = []
    for _ in range(2):
        plan = FaultPlan.from_doc(doc)
        report = None
        wal_dir = tempfile.mkdtemp(prefix="bench-chaos-det-")
        try:
            report = run_chaos(
                "SI",
                plan,
                wal_dir,
                workers=1,  # single worker: hit order is deterministic
                txns_per_worker=25,
                calm_txns_per_worker=5,
                seed=7,
                recovery_window=E27_RECOVERY_WINDOW,
            )
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        assert report.ok, report.invariants
        triggers.append(report.fault_triggers)
    assert triggers[0] == triggers[1]
