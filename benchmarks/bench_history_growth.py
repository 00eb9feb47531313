"""E28 — history growth: commit frames and producer rate must stay flat.

Every commit records its snapshot as a constant-size descriptor (a
frontier plus the tids visible above it), so neither the WAL frame of a
commit nor the cost of producing it may grow with the number of earlier
commits.  This bench builds the producer stack of perfbench's
``audit-replay`` workload (certified SI service, 100-customer SmallBank
mix, ``fsync_policy="none"``) and drives it with perfbench's
``InterleavedDriver`` (16 sessions stepped round-robin) for
``E28_RUNS`` runs of ``E28_RATE_WINDOW`` transactions on the same
service, then re-encodes the logged records to measure each commit's
frame.

It writes ``BENCH_history_growth.json`` with the mean frame bytes of
the first and last 100 commits and the commit rate of the first and
last run.  The CI gate (asserted here and re-asserted on the JSON):
last-100 / first-100 mean frame bytes <= 1.5.

``perfbench`` is imported from the checkout root, so run the bench from
there with ``python -m pytest benchmarks/bench_history_growth.py``.
"""

import os
import shutil
import tempfile

from perfbench.driver import InterleavedDriver
from perfbench.workloads import WORKLOADS, build_stack
from repro.wal import scan
from repro.wal.format import commit_record_to_payload, encode_frame

from helpers import print_table, write_bench_json

E28_WORKLOAD = WORKLOADS["audit-replay"]
E28_SESSIONS = 16
E28_RATE_WINDOW = 1000  # transactions per run, one rate sample each
E28_RUNS = 4
E28_COMMITS = E28_RUNS * E28_RATE_WINDOW
E28_WINDOW = 100  # commits per frame-size sample
E28_MAX_FRAME_RATIO = 1.5


def _produce(directory):
    """Drive the producer for ``E28_RUNS`` runs; returns each run's
    commits per second."""
    mix, service = build_stack(E28_WORKLOAD, directory)
    rates = []
    for run in range(E28_RUNS):
        result = InterleavedDriver(
            service, mix, transactions=E28_RATE_WINDOW,
            sessions=E28_SESSIONS, seed=run, round_robin=True,
        ).run()
        assert result.commits == E28_RATE_WINDOW and result.failed == 0
        rates.append(result.commits / result.elapsed)
    service.close()
    return rates


def _mean(values):
    return sum(values) / len(values)


def test_bench_history_growth():
    work = tempfile.mkdtemp(prefix="e28-")
    try:
        directory = os.path.join(work, "wal")
        rates = _produce(directory)
        frames = [
            len(encode_frame(commit_record_to_payload(r)))
            for r in scan(directory)
        ]
    finally:
        shutil.rmtree(work)
    assert len(frames) == E28_COMMITS
    first_bytes = _mean(frames[:E28_WINDOW])
    last_bytes = _mean(frames[-E28_WINDOW:])
    first_rate, last_rate = rates[0], rates[-1]
    frame_ratio = last_bytes / first_bytes
    print_table(
        f"E28 — history growth over {E28_COMMITS} commits (SI, "
        f"{E28_WORKLOAD.customers} customers, {E28_SESSIONS} round-robin "
        f"sessions)",
        ["window", "mean frame B", "commits/s"],
        [
            (f"first {E28_WINDOW} / first {E28_RATE_WINDOW}",
             f"{first_bytes:.0f}", f"{first_rate:.0f}"),
            (f"last {E28_WINDOW} / last {E28_RATE_WINDOW}",
             f"{last_bytes:.0f}", f"{last_rate:.0f}"),
            ("last / first", f"{frame_ratio:.2f}",
             f"{last_rate / first_rate:.2f}"),
        ],
    )
    write_bench_json(
        "history_growth",
        {"commits": E28_COMMITS, "customers": E28_WORKLOAD.customers,
         "sessions": E28_SESSIONS, "engine": "SI", "fsync_policy": "none"},
        {
            "frame_bytes": {"first_100": first_bytes, "last_100": last_bytes,
                            "last_over_first": frame_ratio},
            "commit_rate": {"first_1000": first_rate,
                            "last_1000": last_rate,
                            "last_over_first": last_rate / first_rate},
        },
    )
    assert frame_ratio <= E28_MAX_FRAME_RATIO, (
        f"frames grew {frame_ratio:.2f}x from the first to the last "
        f"{E28_WINDOW} commits"
    )
