"""Streaming offline audit: certify a recovered log without replay.

This is the bridge from the operational write-ahead log to the paper's
dependency-graph characterisations: a persisted commit log is exactly
the input a black-box checker needs.  :func:`audit_log` streams the
decodable prefix of a log directory through the same incremental
SI/SER/PSI certifiers the live service uses
(:class:`~repro.monitor.online.ConsistencyMonitor`, full or windowed),
one commit record at a time — memory stays bounded by the
monitor's own state, never by the log size, so a multi-gigabyte log is
auditable on a laptop.

Because commits are fed in commit-sequence order with the producer's
initial values and init tid, and each frame carries its reads' sources
as the live monitor received them, a clean audit reproduces the live
monitor's verdict exactly: same violations, flagged at the same
commits (``tests/wal/test_service_wal.py`` and the parity suite hold
this equation across engines and monitor modes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.errors import StoreError
from ..monitor.online import ConsistencyMonitor, MonitorError, Violation
from ..mvcc import ENGINE_MODELS
from .format import LogMeta
from .recovery import Damage, scan


def default_model(meta: Optional[LogMeta]) -> str:
    """The model a log should be audited under when none is given:
    the producer's recorded model, else the model implied by its engine,
    else SI."""
    if meta is not None:
        if meta.model in ConsistencyMonitor.MODELS:
            return meta.model
        if meta.engine in ENGINE_MODELS:
            return ENGINE_MODELS[meta.engine][1]
    return "SI"


@dataclass
class AuditResult:
    """Verdict of a streaming log audit.

    Attributes:
        model: the consistency model certified against.
        checker: certification back-end used.
        violations: every violation flagged, in detection order.
        commits_observed: commit records fed to the monitor.
        monitor_error: a monitor error that aborted the audit, if any
            (a read whose source did not write the value read; the
            verdict covers the prefix before it).
        damage: where log scanning stopped, if anywhere.
        segments_scanned / segments_dropped / bytes_scanned: scan stats.
        first_ts / last_ts: audited commit-sequence range.
        meta: the log description.
    """

    model: str
    checker: str
    violations: List[Violation] = field(default_factory=list)
    commits_observed: int = 0
    monitor_error: Optional[str] = None
    damage: List[Damage] = field(default_factory=list)
    segments_scanned: int = 0
    segments_dropped: int = 0
    bytes_scanned: int = 0
    first_ts: int = 0
    last_ts: int = 0
    meta: Optional[LogMeta] = None

    @property
    def consistent(self) -> bool:
        """True iff no violation was detected (and no abort)."""
        return not self.violations and self.monitor_error is None

    def describe(self) -> str:
        """A short human-readable summary."""
        verdict = "consistent" if self.consistent else "INCONSISTENT"
        lines = [
            f"{self.model} audit ({self.checker}): {verdict} over "
            f"{self.commits_observed} commit(s) "
            f"(#{self.first_ts}..#{self.last_ts})"
        ]
        for v in self.violations:
            lines.append(f"violation: {v.message}")
        if self.monitor_error:
            lines.append(f"audit aborted: {self.monitor_error}")
        for d in self.damage:
            lines.append(f"log damage (audit covers the prefix): {d}")
        return "\n".join(lines)


def audit_log(
    directory: str,
    model: Optional[str] = None,
    window: Optional[int] = None,
    checker: str = "incremental",
) -> AuditResult:
    """Stream a log directory through a consistency monitor.

    Args:
        directory: the log directory.
        model: ``"SI"``/``"SER"``/``"PSI"``; defaults to the model the
            log's producer recorded (falling back to the engine's
            natural model, then SI).
        window: audit with a monitor windowed to this many commits
            instead of the full graph (bounded memory, may miss cycles
            spanning more than a window — matches a live service run
            in windowed mode).
        checker: ``"incremental"`` (default) or ``"rebuild"``.  A
            :class:`~repro.monitor.online.MonitorError` aborts the audit
            and is reported in ``monitor_error`` rather than raised.

    Raises:
        StoreError: when the log has no readable segment meta (there is
            nothing to seed the monitor's initial values from).
    """
    log_scan = scan(directory)
    if log_scan.meta is None:
        raise StoreError(
            f"cannot audit {directory!r}: no readable segment meta"
            + (f" ({log_scan.damage[0]})" if log_scan.damage else "")
        )
    meta = log_scan.meta
    chosen = model or default_model(meta)
    monitor = ConsistencyMonitor(
        model=chosen,
        initial_values=meta.init,
        init_tid=meta.init_tid,
        checker=checker,
        window=window,
    )
    result = AuditResult(model=chosen, checker=checker, meta=meta,
                         violations=monitor.violations)
    try:
        for record in log_scan:
            monitor.observe_commit(record)
    except MonitorError as exc:
        result.monitor_error = str(exc)
    result.commits_observed = monitor.commit_count
    result.damage = list(log_scan.damage)
    result.segments_scanned = log_scan.segments_scanned
    result.segments_dropped = log_scan.segments_dropped
    result.bytes_scanned = log_scan.bytes_scanned
    result.first_ts = log_scan.first_ts
    result.last_ts = log_scan.last_ts
    return result
