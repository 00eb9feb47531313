"""E28 — history growth: frames, producer rate and certification stay flat.

Every commit records its snapshot as a constant-size descriptor (a
frontier plus the tids visible above it), so neither the WAL frame of a
commit nor the cost of producing it may grow with the number of earlier
commits.  The full-history monitor certifies the transitive reduction of
the dependency graph, so neither may the edges it holds per commit or
its certification rate.

This bench builds the producer stack of perfbench's ``audit-replay``
workload (certified SI service, 100-customer SmallBank mix,
``fsync_policy="none"``) and drives it with perfbench's
``InterleavedDriver`` (16 sessions stepped round-robin) for
``E28_RUNS`` runs of ``E28_RATE_WINDOW`` transactions on the same
service, then re-encodes the logged records to measure each commit's
frame.  It then audits the log with ``audit_log()`` and feeds the same
records through a full (unwindowed) SI monitor, timing each run's
worth of commits.

A second producer is shaped like perfbench's ``bank-large-read``
(20,000 customers, ``SMALLBANK_READ_HEAVY``, 16 sessions in seeded
order; ``fsync_policy="none"``): its 4,000-commit log is fed to a
window-64 SI monitor, whose ``state_size()`` is taken at 1,000 and at
4,000 commits.  A windowed monitor's state is bounded by its window,
so it may not grow with the history.

It writes ``BENCH_history_growth.json`` with the mean frame bytes of
the first and last 100 commits, the commit rate of the first and last
run, the full monitor's retained edges per commit (a deterministic
count), its certification rate over the first and last 1,000 commits,
and the windowed monitor's state sizes.  The CI gates (asserted here
and re-asserted on the JSON): last-100 / first-100 mean frame bytes
<= 1.5, a last-100 mean frame of at most 180 B (the binary commit
frame; the JSON frames of ``SIWAL003`` read 227 B), at most 8 monitor
edges per commit, and every windowed state size but
``written_objects`` (bounded by the keyspace, not the window) at most
1.25x at 4,000 commits what it was at 1,000.

``perfbench`` is imported from the checkout root, so run the bench from
there with ``python -m pytest benchmarks/bench_history_growth.py``.
"""

import dataclasses
import os
import shutil
import tempfile
import time

from perfbench.driver import InterleavedDriver
from perfbench.workloads import MONITOR_WINDOW, WORKLOADS, build_stack
from repro.monitor import ConsistencyMonitor
from repro.wal import audit_log, scan
from repro.wal.format import commit_record_to_payload, encode_frame

from helpers import print_table, write_bench_json

E28_WORKLOAD = WORKLOADS["audit-replay"]
E28_SESSIONS = 16
E28_RATE_WINDOW = 1000  # transactions per run, one rate sample each
E28_RUNS = 4
E28_COMMITS = E28_RUNS * E28_RATE_WINDOW
E28_WINDOW = 100  # commits per frame-size sample
E28_MAX_FRAME_RATIO = 1.5
E28_MAX_LAST_FRAME_BYTES = 180
E28_MAX_EDGES_PER_COMMIT = 8
# A bank-large-read producer whose log has no fsync to wait for.
E28_READ_HEAVY = dataclasses.replace(WORKLOADS["bank-large-read"],
                                     kind="audit")
E28_STATE_AT = (1000, E28_COMMITS)
E28_MAX_STATE_RATIO = 1.25
E28_STATE_EXEMPT = ("written_objects",)


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


def _certify(log_scan):
    """Feed the scanned records through a full SI monitor; returns the
    monitor and the certification rate of each ``E28_RATE_WINDOW``
    commits."""
    meta = log_scan.meta
    monitor = ConsistencyMonitor(
        "SI", dict(meta.init), init_tid=meta.init_tid
    )
    records = list(log_scan)
    rates = []
    for start in range(0, len(records), E28_RATE_WINDOW):
        chunk = records[start : start + E28_RATE_WINDOW]
        started = time.perf_counter()
        for record in chunk:
            assert monitor.observe_commit(record) is None
        rates.append(len(chunk) / (time.perf_counter() - started))
    return monitor, rates


def _windowed_state(directory):
    """Drive the read-heavy producer for ``E28_COMMITS`` transactions,
    then feed its log to a window-64 SI monitor; returns the monitor's
    ``state_size()`` at each of ``E28_STATE_AT`` commits."""
    mix, service = build_stack(E28_READ_HEAVY, directory)
    result = InterleavedDriver(
        service, mix, transactions=E28_COMMITS, sessions=E28_SESSIONS,
        seed=0,
    ).run()
    service.close()
    assert result.commits == E28_COMMITS and result.failed == 0
    assert service.violations == []
    log_scan = scan(directory)
    monitor = ConsistencyMonitor(
        "SI", log_scan.meta.init, init_tid=log_scan.meta.init_tid,
        window=MONITOR_WINDOW,
    )
    sizes = {}
    for record in log_scan:
        assert monitor.observe_commit(record) is None
        if monitor.commit_count in E28_STATE_AT:
            sizes[monitor.commit_count] = monitor.state_size()
    return sizes


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
        audit = audit_log(directory)
        monitor, cert_rates = _certify(scan(directory))
        states = _windowed_state(os.path.join(work, "wal-read-heavy"))
    finally:
        shutil.rmtree(work)
    assert len(frames) == E28_COMMITS
    assert audit.consistent and audit.commits_observed == E28_COMMITS
    assert monitor.commit_count == E28_COMMITS
    edges_per_commit = monitor.state_size()["edges"] / E28_COMMITS
    first_bytes = _mean(frames[:E28_WINDOW])
    last_bytes = _mean(frames[-E28_WINDOW:])
    first_rate, last_rate = rates[0], rates[-1]
    frame_ratio = last_bytes / first_bytes
    print_table(
        f"E28 — history growth over {E28_COMMITS} commits (SI, "
        f"{E28_WORKLOAD.customers} customers, {E28_SESSIONS} round-robin "
        f"sessions)",
        ["window", "mean frame B", "commits/s", "certified/s"],
        [
            (f"first {E28_WINDOW} / first {E28_RATE_WINDOW}",
             f"{first_bytes:.0f}", f"{first_rate:.0f}",
             f"{cert_rates[0]:.0f}"),
            (f"last {E28_WINDOW} / last {E28_RATE_WINDOW}",
             f"{last_bytes:.0f}", f"{last_rate:.0f}",
             f"{cert_rates[-1]:.0f}"),
            ("last / first", f"{frame_ratio:.2f}",
             f"{last_rate / first_rate:.2f}",
             f"{cert_rates[-1] / cert_rates[0]:.2f}"),
        ],
    )
    print(f"full monitor edges after {E28_COMMITS} commits: "
          f"{monitor.state_size()['edges']} "
          f"({edges_per_commit:.2f} per commit)")
    first, last = (states[at] for at in E28_STATE_AT)
    state_ratios = {
        key: last[key] / max(first[key], 1)
        for key in first if key not in E28_STATE_EXEMPT
    }
    print_table(
        f"E28 — window-{MONITOR_WINDOW} SI monitor state over the "
        f"{E28_READ_HEAVY.name} producer's log "
        f"({E28_READ_HEAVY.customers} customers)",
        ["entry"] + [f"at {at}" for at in E28_STATE_AT] + ["ratio"],
        [(key, first[key], last[key],
          f"{state_ratios[key]:.2f}" if key in state_ratios else "exempt")
         for key in first],
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
            "monitor_edges": {"total": monitor.state_size()["edges"],
                              "per_commit": edges_per_commit},
            "certify_rate": {"first_1000": cert_rates[0],
                             "last_1000": cert_rates[-1],
                             "last_over_first":
                                 cert_rates[-1] / cert_rates[0]},
            "windowed_monitor_state": {
                "window": MONITOR_WINDOW,
                "workload": E28_READ_HEAVY.name,
                "customers": E28_READ_HEAVY.customers,
                "at": {str(at): states[at] for at in E28_STATE_AT},
                "exempt": list(E28_STATE_EXEMPT),
                "ratio": state_ratios,
            },
        },
    )
    assert frame_ratio <= E28_MAX_FRAME_RATIO, (
        f"frames grew {frame_ratio:.2f}x from the first to the last "
        f"{E28_WINDOW} commits"
    )
    assert last_bytes <= E28_MAX_LAST_FRAME_BYTES, (
        f"the last {E28_WINDOW} commits' frames average {last_bytes:.0f} B"
    )
    assert edges_per_commit <= E28_MAX_EDGES_PER_COMMIT, (
        f"the full monitor holds {edges_per_commit:.1f} edges per commit"
    )
    grown = {key: ratio for key, ratio in state_ratios.items()
             if ratio > E28_MAX_STATE_RATIO}
    assert not grown, (
        f"windowed monitor state grew from {E28_STATE_AT[0]} to "
        f"{E28_STATE_AT[1]} commits: {grown}"
    )
