"""Durable write-ahead commit log with group commit, crash recovery,
and streaming offline audit.

The log (:mod:`repro.wal.log`) persists every
:class:`~repro.mvcc.engine.CommitRecord` as a CRC-checksummed frame in
segmented append-only files, batching concurrent committers into one
``fsync`` under the ``"group"`` policy.  Recovery
(:mod:`repro.wal.recovery`) replays the decodable prefix back into a
fresh MVCC engine, stopping cleanly at torn tails or corruption; the
audit pipeline (:mod:`repro.wal.audit`) streams a log through the
online SI/SER/PSI certifiers without materialising the history.
"""

from .audit import AuditResult, audit_log, default_model
from .format import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    SEGMENT_MAGIC,
    LogMeta,
    encode_frame,
    scan_frames,
    segment_index,
    segment_name,
)
from .log import (
    DEFAULT_SEGMENT_BYTES,
    FSYNC_POLICIES,
    WalClosed,
    WalPoisoned,
    WalError,
    WalStats,
    WriteAheadLog,
)
from .recovery import Damage, LogScan, RecoveryResult, recover, scan

__all__ = [
    "AuditResult",
    "audit_log",
    "default_model",
    "FRAME_HEADER",
    "MAX_FRAME_BYTES",
    "SEGMENT_MAGIC",
    "LogMeta",
    "encode_frame",
    "scan_frames",
    "segment_index",
    "segment_name",
    "DEFAULT_SEGMENT_BYTES",
    "FSYNC_POLICIES",
    "WalClosed",
    "WalPoisoned",
    "WalError",
    "WalStats",
    "WriteAheadLog",
    "Damage",
    "LogScan",
    "RecoveryResult",
    "recover",
    "scan",
]
