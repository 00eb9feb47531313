"""Observability for the transaction service.

The service layer is the first place the reproduction meets sustained
concurrent traffic, so it carries its own instrumentation: per-service
counters (commits, aborts, retries, retry exhaustions, monitor
violations), a fixed-bucket latency histogram for end-to-end
transaction latency (including retries), admission-queue gauges, and —
when a write-ahead log is attached — its durability counters
(appends/fsyncs/bytes, read from the log's own
:class:`~repro.wal.log.WalStats` at snapshot time) plus a group-commit
batch-size histogram, so the cost of each fsync policy is visible in
the same snapshot as the throughput it bought — and, when a monitor is
attached, how far the certifier process trails the commits
(``certified_ts`` and ``certifier_lag``).  Everything is thread-safe,
snapshot-able as plain dicts, and JSON exportable so benches and CI
can track the numbers across PRs.

:class:`ServiceMetrics` is the service's one ledger: one lock guards
the counters, both histograms and the health tracker, so each event is
recorded by one call and every snapshot is self-consistent.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence

from .health import HealthPolicy, HealthTracker


def _default_buckets() -> List[float]:
    # 10 µs .. ~84 s in powers of two: 24 buckets cover every latency a
    # single-process service can plausibly produce.
    return [1e-5 * 2**i for i in range(24)]


class LatencyHistogram:
    """A fixed-boundary histogram of durations in seconds.

    Quantiles are answered from the bucket counts (the reported value is
    the upper bound of the bucket containing the quantile), which makes
    recording O(log buckets) and memory O(buckets) — no samples kept.
    It has no lock: :class:`ServiceMetrics` uses it under its own.
    """

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        self._bounds = sorted(buckets) if buckets else _default_buckets()
        self._counts = [0] * (len(self._bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float, times: int = 1) -> None:
        """Record one duration (``times`` times)."""
        self._counts[bisect_left(self._bounds, seconds)] += times
        self.count += times
        self.total += seconds * times
        if seconds > self.max:
            self.max = seconds

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1) as a bucket upper bound."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index < len(self._bounds):
                    return self._bounds[index]
                return self.max
        return self.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded durations."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics as a plain dict (seconds)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max,
        }


class ServiceMetrics:
    """The ledger of one transaction service: counters, gauges, the
    latency histograms and the health tracker (built from
    ``health_policy`` and ``clock``), under one lock."""

    def __init__(
        self,
        health_policy: Optional[HealthPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._lock = threading.Lock()
        self.begins = 0
        self.commits = 0
        self.aborts = 0
        self.retries = 0
        self.retry_exhausted = 0
        self.deadline_exceeded = 0
        self.shed = 0
        self.read_only_refused = 0
        self.violations = 0
        self.in_flight = 0
        self.admission_waiting = 0
        self.peak_in_flight = 0
        self.peak_admission_waiting = 0
        self.txn_latency = LatencyHistogram()
        self.wal_failures = 0
        self.wal_append_latency = LatencyHistogram()
        self.health = HealthTracker(health_policy, self._lock, clock)
        self._certifier: Optional[weakref.ref] = None
        self._wal: Optional[weakref.ref] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_begin(self) -> None:
        """One transaction attempt admitted and started."""
        with self._lock:
            self.begins += 1
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight

    def record_commit(
        self, latency_seconds: float, wal_latency: Optional[float] = None
    ) -> None:
        """One transaction committed; latency is end-to-end including
        every aborted attempt and backoff sleep.  ``wal_latency`` is
        its durable append's, as the committer saw it (frame write +
        group-commit wait), when the commit was logged."""
        with self._lock:
            self.commits += 1
            self.in_flight -= 1
            self.txn_latency.record(latency_seconds)
            if wal_latency is not None:
                self.wal_append_latency.record(wal_latency)
            self.health._feed_locked(aborted=False, wal_latency=wal_latency)

    def record_abort(self, refused: bool = False) -> None:
        """One attempt aborted (engine validation failure or client).
        ``refused`` marks an update refused in read-only degraded
        mode: an administrative refusal, kept out of the abort-rate
        window (the WAL-failure floor already holds the state at
        degraded; refusals driving it to shedding would shut off the
        reads that mode keeps serving)."""
        with self._lock:
            self.aborts += 1
            self.in_flight -= 1
            if refused:
                self.read_only_refused += 1
            else:
                self.health._feed_locked(aborted=True)

    def record_retry(self) -> None:
        """An aborted transaction is being resubmitted."""
        with self._lock:
            self.retries += 1

    def record_retry_exhausted(self) -> None:
        """A transaction gave up after the retry cap."""
        with self._lock:
            self.retry_exhausted += 1

    def record_deadline_exceeded(self) -> None:
        """A transaction's wall-clock deadline elapsed before commit
        (counted separately from conflict aborts: the attempts that led
        here were already counted as aborts, this is the give-up)."""
        with self._lock:
            self.deadline_exceeded += 1

    def record_shed(self) -> None:
        """The admission circuit breaker refused a transaction (no
        engine transaction was started, so no abort is counted)."""
        with self._lock:
            self.shed += 1

    def record_violation(self) -> None:
        """The attached monitor flagged a consistency violation."""
        with self._lock:
            self.violations += 1

    def record_wal_failure(self) -> None:
        """The write-ahead log raised from an append (poisoned or
        closed): counted, and the health state's sticky ``degraded``
        floor set.  The service's degradation policy decides what
        happens next."""
        with self._lock:
            self.wal_failures += 1
            self.health._feed_locked(wal_failed=True)

    def attach_certifier(self, certifier) -> None:
        """Export ``certifier``'s progress (a
        :class:`~repro.service.certifier.Certifier`, held weakly) as the
        ``certified_ts`` and ``certifier_lag`` gauges."""
        self._certifier = weakref.ref(certifier)

    def attach_wal(self, wal) -> None:
        """Export ``wal``'s counters and batch sizes (a
        :class:`~repro.wal.log.WriteAheadLog`, held weakly; its
        :class:`~repro.wal.log.WalStats` are read at each snapshot).
        ``bytes`` counts commit frames only, not segment headers."""
        self._wal = weakref.ref(wal)

    def enter_admission_queue(self) -> None:
        """A client started waiting for an admission slot."""
        with self._lock:
            self.admission_waiting += 1
            if self.admission_waiting > self.peak_admission_waiting:
                self.peak_admission_waiting = self.admission_waiting

    def leave_admission_queue(self) -> None:
        """A waiting client was admitted (or gave up)."""
        with self._lock:
            self.admission_waiting -= 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @property
    def abort_rate(self) -> float:
        """Aborted attempts over all finished attempts."""
        with self._lock:
            return self._abort_rate_locked()

    def _abort_rate_locked(self) -> float:
        finished = self.commits + self.aborts
        return self.aborts / finished if finished else 0.0

    def snapshot(self) -> Dict[str, object]:
        """All counters, gauges and latency stats as a plain dict."""
        with self._lock:
            counters = {
                "begins": self.begins,
                "commits": self.commits,
                "aborts": self.aborts,
                "retries": self.retries,
                "retry_exhausted": self.retry_exhausted,
                "deadline_exceeded": self.deadline_exceeded,
                "shed": self.shed,
                "read_only_refused": self.read_only_refused,
                "violations": self.violations,
            }
            gauges = {
                "in_flight": self.in_flight,
                "admission_waiting": self.admission_waiting,
                "peak_in_flight": self.peak_in_flight,
                "peak_admission_waiting": self.peak_admission_waiting,
            }
            abort_rate = self._abort_rate_locked()
            latency = self.txn_latency.snapshot()
            append_latency = self.wal_append_latency.snapshot()
            wal_failures = self.wal_failures
        certifier = self._certifier() if self._certifier else None
        if certifier is not None:
            certifier.poll()
            # Commits acknowledged but not yet certified.
            gauges["certified_ts"] = certifier.certified_ts
            gauges["certifier_lag"] = certifier.lag
        wal = {"appends": 0, "flushes": 0, "fsyncs": 0, "bytes": 0}
        # Batch sizes are small integers, so reuse the histogram's
        # fixed-bound machinery with power-of-two record-count bounds.
        batch = LatencyHistogram(buckets=[float(2**i) for i in range(13)])
        log = self._wal() if self._wal else None
        if log is not None:
            stats = log.stats
            wal = {
                "appends": stats.appends,
                "flushes": stats.flushes,
                "fsyncs": stats.fsyncs,
                "bytes": stats.commit_bytes,
            }
            for records, syncs in dict(stats.batches).items():
                batch.record(float(records), syncs)
        wal["failures"] = wal_failures
        return {
            "counters": counters,
            "gauges": gauges,
            "abort_rate": abort_rate,
            "latency_seconds": latency,
            "wal": {
                **wal,
                "batch_records": batch.snapshot(),
                "append_latency_seconds": append_latency,
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
