"""The concurrent transaction service (Section 5 made operational).

Everything below this package runs transactions one caller-scheduled
step at a time; here the reproduction serves real concurrent traffic:
:class:`TransactionService` fronts one MVCC engine with per-client
sessions, bounded retry-with-backoff, an admission limit, online
certification via an attached (typically windowed) monitor, and
JSON-exportable metrics.  :mod:`~repro.service.loadgen` drives
SmallBank/TPC-C-style mixes over worker threads.  The monitor certifies
each commit inside the commit critical section, so every commit's
outcome carries its verdict.
"""

from .health import HEALTH_STATES, HealthPolicy, HealthTracker
from .loadgen import (
    MIXES,
    SMALLBANK_READ_HEAVY,
    SMALLBANK_WRITE_HEAVY,
    LoadGenerator,
    LoadResult,
    ValueTagger,
    WorkloadMix,
    smallbank_mix,
    tpcc_mix,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .service import (
    WAL_FAILURE_POLICIES,
    ServiceSession,
    TransactionService,
    TxOutcome,
)

__all__ = [
    "HEALTH_STATES",
    "HealthPolicy",
    "HealthTracker",
    "WAL_FAILURE_POLICIES",
    "LatencyHistogram",
    "LoadGenerator",
    "LoadResult",
    "MIXES",
    "SMALLBANK_READ_HEAVY",
    "SMALLBANK_WRITE_HEAVY",
    "ServiceMetrics",
    "ServiceSession",
    "TransactionService",
    "TxOutcome",
    "ValueTagger",
    "WorkloadMix",
    "smallbank_mix",
    "tpcc_mix",
]
