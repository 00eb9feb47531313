"""Observability for the transaction service.

The service layer is the first place the reproduction meets sustained
concurrent traffic, so it carries its own instrumentation: per-service
counters (commits, aborts, retries, retry exhaustions, monitor
violations), a fixed-bucket latency histogram for end-to-end
transaction latency (including retries), admission-queue gauges, and —
when a write-ahead log is attached — durability counters
(appends/fsyncs/bytes) plus a group-commit batch-size histogram, so
the cost of each fsync policy is visible in the same snapshot as the
throughput it bought — and, when a monitor is attached, how far the
certifier process trails the commits (``certified_ts`` and
``certifier_lag``).  Everything is thread-safe, snapshot-able as
plain dicts, and JSON exportable so benches and CI can track the
numbers across PRs.
"""

from __future__ import annotations

import json
import threading
import weakref
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence


def _default_buckets() -> List[float]:
    # 10 µs .. ~84 s in powers of two: 24 buckets cover every latency a
    # single-process service can plausibly produce.
    return [1e-5 * 2**i for i in range(24)]


class LatencyHistogram:
    """A fixed-boundary histogram of durations in seconds.

    Quantiles are answered from the bucket counts (the reported value is
    the upper bound of the bucket containing the quantile), which makes
    recording O(log buckets) and memory O(buckets) — no samples kept.
    """

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        self._bounds = sorted(buckets) if buckets else _default_buckets()
        self._counts = [0] * (len(self._bounds) + 1)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Record one duration."""
        index = bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1) as a bucket upper bound."""
        with self._lock:
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
        with self._lock:
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
    """Thread-safe counters and gauges for one transaction service."""

    def __init__(self):
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
        self.wal_appends = 0
        self.wal_flushes = 0
        self.wal_fsyncs = 0
        self.wal_bytes = 0
        self.wal_failures = 0
        self.wal_append_latency = LatencyHistogram()
        # Batch sizes are small integers, so reuse the histogram's
        # fixed-bound machinery with power-of-two record-count bounds.
        self.wal_batch = LatencyHistogram(
            buckets=[float(2**i) for i in range(13)]
        )
        self._certifier: Optional[weakref.ref] = None

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

    def record_commit(self, latency_seconds: float) -> None:
        """One transaction committed; latency is end-to-end including
        every aborted attempt and backoff sleep."""
        with self._lock:
            self.commits += 1
            self.in_flight -= 1
        self.txn_latency.record(latency_seconds)

    def record_abort(self) -> None:
        """One attempt aborted (engine validation failure or client)."""
        with self._lock:
            self.aborts += 1
            self.in_flight -= 1

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

    def record_read_only_refusal(self) -> None:
        """An update was refused because the service is in read-only
        degraded mode after a write-ahead-log failure."""
        with self._lock:
            self.read_only_refused += 1

    def record_violation(self) -> None:
        """The attached monitor flagged a consistency violation."""
        with self._lock:
            self.violations += 1

    def record_wal_append(self, nbytes: int) -> None:
        """One commit record appended to the write-ahead log."""
        with self._lock:
            self.wal_appends += 1
            self.wal_bytes += nbytes

    def record_wal_append_latency(self, seconds: float) -> None:
        """End-to-end latency of one durable append as seen by the
        committer (deposit + group-commit wait); the health tracker's
        WAL-latency gauge feeds from the same measurement."""
        self.wal_append_latency.record(seconds)

    def record_wal_failure(self) -> None:
        """The write-ahead log raised from an append (poisoned or
        closed); the service's degradation policy decides what happens
        next, this just makes the failure visible."""
        with self._lock:
            self.wal_failures += 1

    def record_wal_flush(self, batch_size: int, fsyncs: int) -> None:
        """One group-commit batch written (``fsyncs`` syncs for it)."""
        with self._lock:
            self.wal_flushes += 1
            self.wal_fsyncs += fsyncs
        self.wal_batch.record(float(batch_size))

    def attach_certifier(self, certifier) -> None:
        """Export ``certifier``'s progress (a
        :class:`~repro.service.certifier.Certifier`, held weakly) as the
        ``certified_ts`` and ``certifier_lag`` gauges."""
        self._certifier = weakref.ref(certifier)

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
            wal = {
                "appends": self.wal_appends,
                "flushes": self.wal_flushes,
                "fsyncs": self.wal_fsyncs,
                "bytes": self.wal_bytes,
                "failures": self.wal_failures,
            }
        certifier = self._certifier() if self._certifier else None
        if certifier is not None:
            certifier.poll()
            # Commits acknowledged but not yet certified.
            gauges["certified_ts"] = certifier.certified_ts
            gauges["certifier_lag"] = certifier.lag
        batch = self.wal_batch.snapshot()
        append_latency = self.wal_append_latency.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "abort_rate": self.abort_rate,
            "latency_seconds": self.txn_latency.snapshot(),
            "wal": {
                **wal,
                "batch_records": batch,
                "append_latency_seconds": append_latency,
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
