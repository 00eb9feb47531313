"""The chaos harness: a workload, a storm, and the invariants.

:func:`run_chaos` is the headline robustness experiment (CLI verb
``repro-si chaos-bench``, bench E27): build a full service stack —
engine, windowed online monitor, write-ahead log, health tracker with
an enforcing admission breaker — arm a seeded :class:`FaultPlan`, drive
a SmallBank/TPC-C load *through* the storm, disarm, let the service
calm down, then shut everything off and check what the paper's
machinery promised all along:

1. **No false verdicts** — the live monitor certifies real engine
   executions; injected I/O errors, stalls and aborts must never make
   it cry wolf (a violation under chaos would be a *soundness* bug).
2. **Durability survives** — after the storm, the log's durable prefix
   recovers contiguously into a fresh engine and the offline audit
   certifies it, whatever the log was writing when faults hit.
3. **Bounded recovery** — once faults stop, the health state machine
   returns to ``healthy`` within a bounded window; a plan that poisons
   the log is the one excuse (durability loss is sticky: the floor is
   ``degraded``, and under ``on_wal_failure="read_only"`` the service
   must still be serving reads).

This module imports the service layer, so the package root does not
import it — use ``import repro.faults.chaos`` (the CLI and bench do).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..mvcc import build_engine
from ..service import MIXES, LoadGenerator, LoadResult, TransactionService
from ..service.health import DEGRADED, HEALTHY, HealthPolicy
from ..wal import WriteAheadLog, audit_log, recover
from ..wal.log import WalError
from .failpoints import armed
from .plan import FaultPlan

def _load_dict(result: LoadResult) -> Dict[str, Any]:
    return {
        "committed": result.committed,
        "retry_exhausted": result.retry_exhausted,
        "deadline_exceeded": result.deadline_exceeded,
        "shed": result.shed,
        "read_only_refused": result.read_only_refused,
        "wal_errors": result.wal_errors,
        "violations": result.violations,
        "throughput_tps": round(result.throughput, 1),
        "elapsed_seconds": round(result.elapsed_seconds, 4),
    }


@dataclass
class ChaosReport:
    """Everything one chaos run produced, invariants included.

    ``invariants`` maps each named end-to-end invariant to whether it
    held; :attr:`ok` is their conjunction — the harness's verdict.
    """

    engine: str
    model: str
    mix: str
    plan_name: str
    seed: int
    on_wal_failure: str
    storm: Dict[str, Any]
    calm: Dict[str, Any]
    calm_rounds: int
    fault_triggers: Dict[str, int]
    total_triggers: int
    end_state: str
    wal_failed: bool
    read_only: bool
    time_to_healthy: Optional[float]
    recovery_window: float
    durable_ts: int
    recovered_records: int
    recovered_contiguous: bool
    audit_consistent: bool
    audit_error: Optional[str]
    violations: int
    invariants: Dict[str, bool] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return all(self.invariants.values())

    def to_doc(self) -> Dict[str, Any]:
        """The report as a JSON-ready dict."""
        return {
            "engine": self.engine,
            "model": self.model,
            "mix": self.mix,
            "plan": self.plan_name,
            "seed": self.seed,
            "on_wal_failure": self.on_wal_failure,
            "storm": self.storm,
            "calm": self.calm,
            "calm_rounds": self.calm_rounds,
            "fault_triggers": self.fault_triggers,
            "total_triggers": self.total_triggers,
            "end_state": self.end_state,
            "wal_failed": self.wal_failed,
            "read_only": self.read_only,
            "time_to_healthy": (
                round(self.time_to_healthy, 4)
                if self.time_to_healthy is not None
                else None
            ),
            "recovery_window": self.recovery_window,
            "durable_ts": self.durable_ts,
            "recovered_records": self.recovered_records,
            "recovered_contiguous": self.recovered_contiguous,
            "audit_consistent": self.audit_consistent,
            "audit_error": self.audit_error,
            "violations": self.violations,
            "invariants": dict(self.invariants),
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }

    def describe(self) -> str:
        """A human-readable multi-line summary."""
        lines = [
            f"chaos: {self.engine} ({self.model} monitor), "
            f"{self.mix} mix, plan {self.plan_name!r} seed {self.seed}",
            f"storm: {self.storm['committed']} committed, "
            f"{self.total_triggers} fault(s) fired, "
            f"{self.storm['violations']} violations",
            f"calm: {self.calm['committed']} committed over "
            f"{self.calm_rounds} round(s); end state {self.end_state}"
            + (
                f" (healthy after {self.time_to_healthy:.2f}s)"
                if self.time_to_healthy is not None
                else " (never healthy in window)"
            ),
            f"recovery: {self.recovered_records} record(s) "
            f"(durable prefix {self.durable_ts}), audit "
            + ("consistent" if self.audit_consistent else "INCONSISTENT"),
        ]
        for name, held in sorted(self.invariants.items()):
            lines.append(f"  [{'ok' if held else 'FAIL'}] {name}")
        return "\n".join(lines)


def run_chaos(
    engine_key: str,
    plan: FaultPlan,
    wal_dir: str,
    mix_name: str = "smallbank",
    workers: int = 8,
    txns_per_worker: int = 40,
    calm_txns_per_worker: int = 10,
    seed: int = 0,
    window: int = 64,
    fsync_policy: str = "group",
    on_wal_failure: str = "fail_stop",
    default_deadline: Optional[float] = None,
    max_concurrent: Optional[int] = None,
    recovery_window: float = 10.0,
    health_policy: Optional[HealthPolicy] = None,
) -> ChaosReport:
    """Run one chaos experiment and check its invariants.

    Args:
        engine_key: a :data:`~repro.mvcc.ENGINE_MODELS` key.
        plan: the fault schedule to arm for the storm phase.
        wal_dir: write-ahead log directory (must not hold a live log;
            recovery and audit run against it after shutdown).
        mix_name: a :data:`~repro.service.loadgen.MIXES` key.
        workers / txns_per_worker: storm load shape.
        calm_txns_per_worker: per-round load while waiting for the
            service to heal (rounds repeat until healthy or the
            ``recovery_window`` closes; at least one round always runs).
        seed: seeds the load generator streams (the fault plan carries
            its own seed).
        window / fsync_policy / on_wal_failure / default_deadline /
        max_concurrent: service stack knobs, as for ``serve-bench``.
        recovery_window: seconds after disarm within which the service
            must reach ``healthy`` (unless the plan poisoned the log).
        health_policy: override the enforcing default
            (``HealthPolicy(enforce=True)``).
    """
    started = time.perf_counter()
    mix = MIXES[mix_name]()
    engine, model = build_engine(engine_key, mix.initial)
    wal = WriteAheadLog(
        wal_dir,
        fsync_policy=fsync_policy,
        meta={
            "engine": engine_key,
            "init": engine.initial,
            "init_tid": engine.init_tid,
            "model": model,
        },
    )
    service = TransactionService.certified(
        engine,
        model=model,
        window=window,
        wal=wal,
        max_concurrent=max_concurrent,
        health_policy=health_policy or HealthPolicy(enforce=True),
        on_wal_failure=on_wal_failure,
        default_deadline=default_deadline,
    )

    # Phase 1: the storm — faults armed, full load.
    with armed(plan):
        storm = LoadGenerator(
            service,
            mix,
            workers=workers,
            transactions_per_worker=txns_per_worker,
            seed=seed,
        ).run()
    disarmed_at = time.perf_counter()

    # Phase 2: calm — keep a light load running (the health gauges are
    # fed by attempts; an idle service can only age out by time) until
    # the tracker reports healthy or the window closes.  One round
    # always runs: "the service still serves traffic" is part of the
    # claim even when it never degraded.
    calm_deadline = disarmed_at + recovery_window
    calm_rounds: List[LoadResult] = []
    time_to_healthy: Optional[float] = None
    while True:
        calm_rounds.append(
            LoadGenerator(
                service,
                mix,
                workers=max(2, workers // 2),
                transactions_per_worker=calm_txns_per_worker,
                seed=seed + 1000 + len(calm_rounds),
            ).run()
        )
        state = service.health.state
        if state == HEALTHY:
            time_to_healthy = time.perf_counter() - disarmed_at
            break
        if service.health.wal_failed and state == DEGRADED:
            # The WAL-failure floor is sticky: degraded is the best a
            # poisoned service can reach, so it has settled.
            break
        if time.perf_counter() >= calm_deadline:
            break
        # A degraded service finishes tiny rounds instantly (shedding
        # or refusing); pace the probe rounds instead of spinning.
        time.sleep(0.02)

    end_state = service.health.state
    wal_failed = service.health.wal_failed
    read_only = service.read_only
    violations = len(service.violations)
    durable_ts = wal.durable_ts
    try:
        service.close()
    except WalError:
        # A poisoned log cannot close cleanly; the failure already
        # shaped the report (wal_failed / read_only / wal_errors).
        pass

    # Phase 3: the wreckage — recover the log into a fresh engine and
    # certify the recovered prefix offline.
    recovery = recover(wal_dir)
    audit = audit_log(wal_dir, window=window)
    recovered = recovery.records_recovered
    contiguous = recovered == 0 or (
        recovery.first_ts is not None
        and recovery.last_ts is not None
        and recovery.last_ts - recovery.first_ts + 1 == recovered
    )

    calm_total = {
        key: sum(d[key] for d in map(_load_dict, calm_rounds))
        for key in (
            "committed",
            "retry_exhausted",
            "deadline_exceeded",
            "shed",
            "read_only_refused",
            "wal_errors",
            "violations",
        )
    }
    invariants = {
        # The live monitor never cried wolf: the engines only produce
        # executions of their own model, so any verdict is a false one.
        "no_false_violations": violations == 0
        and storm.violations == 0,
        # Every commit the log acknowledged as durable is on disk, the
        # recovered history is a contiguous prefix, and the offline
        # certifier agrees with the online one.
        "durable_prefix_recovered": recovered >= durable_ts and contiguous,
        "audit_clean": audit.consistent and audit.monitor_error is None,
        # Faults stopped => the service healed within the window; a
        # poisoned log is the one legitimate exception (sticky degraded
        # floor — and under read_only, reads must still have flowed).
        "recovered_in_window": (
            time_to_healthy is not None
            if not wal_failed
            else end_state != "shedding"
            and (
                on_wal_failure == "fail_stop"
                or calm_total["committed"] > 0
            )
        ),
    }
    return ChaosReport(
        engine=engine_key,
        model=model,
        mix=mix_name,
        plan_name=plan.name,
        seed=plan.seed,
        on_wal_failure=on_wal_failure,
        storm=_load_dict(storm),
        calm=calm_total,
        calm_rounds=len(calm_rounds),
        fault_triggers=plan.trigger_counts(),
        total_triggers=plan.total_triggers,
        end_state=end_state,
        wal_failed=wal_failed,
        read_only=read_only,
        time_to_healthy=time_to_healthy,
        recovery_window=recovery_window,
        durable_ts=durable_ts,
        recovered_records=recovered,
        recovered_contiguous=contiguous,
        audit_consistent=audit.consistent,
        audit_error=(
            str(audit.monitor_error) if audit.monitor_error else None
        ),
        violations=violations,
        invariants=invariants,
        elapsed_seconds=time.perf_counter() - started,
    )
