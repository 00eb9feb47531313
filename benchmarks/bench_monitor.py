"""E18 / E24 — Online monitoring overhead, fidelity, and scaling (§7).

The run-time-monitoring application the paper anticipates for its
characterisation: an online checker maintaining the dependency graph and
re-testing Theorem 9's condition at every commit.  E18 measures per-run
monitoring cost against run length and confirms the monitor's verdicts
match the offline oracle on engine runs.  E24 sweeps commit counts to
demonstrate the asymptotic win of the incremental certification core
(dynamic topological order, ``checker="incremental"``) over the
per-commit full rebuild (``checker="rebuild"``), writing the
machine-readable ``BENCH_monitor_scaling.json`` record CI tracks.  Cap
the rebuild sweep with ``E24_MAX_COMMITS`` (CI smoke sets a small
value); the incremental-only flatness sweep (400 and 3,200 commits) is
never capped.
"""

import os
import statistics
import time

import pytest

from repro.core.events import read, write
from repro.monitor import ConsistencyMonitor, sourced_commits, watch_engine
from repro.mvcc import PSIEngine, Scheduler, SIEngine
from repro.mvcc.workloads import (
    long_fork_sessions,
    random_workload,
    write_skew_sessions,
)

from helpers import bool_mark, print_table, write_bench_json


def si_run(seed: int, sessions: int, per_session: int):
    wl = random_workload(
        seed, sessions=sessions, transactions_per_session=per_session,
        objects=4,
    )
    engine = SIEngine(wl.initial)
    Scheduler(engine, wl.sessions).run_random(seed)
    return engine


@pytest.mark.parametrize("size", [10, 20, 40])
def test_bench_monitor_overhead(benchmark, size):
    engine = si_run(size, sessions=5, per_session=size // 5)

    def monitor_run():
        return watch_engine(engine, model="SI")

    monitor, violations = benchmark(monitor_run)
    assert monitor.consistent, violations


def test_bench_violation_detection_latency(benchmark):
    # How quickly is a write skew flagged by the SER monitor?
    engine = SIEngine({"acct1": 70, "acct2": 80})
    Scheduler(engine, write_skew_sessions()).run_schedule(
        ["alice"] * 3 + ["bob"] * 3
    )

    def monitor_run():
        return watch_engine(engine, model="SER")

    monitor, violations = benchmark(monitor_run)
    assert violations


def pad_stream(length):
    """A long, violation-free commit stream over 8 objects, sourced."""
    initial = {f"p{i}": 0 for i in range(8)}
    events = [
        (f"t{i}", f"s{i % 6}", [write(f"p{i % 8}", i + 1)])
        for i in range(length)
    ]
    return initial, list(sourced_commits(events, initial))


def feed(monitor, commits):
    for commit in commits:
        assert monitor.observe_commit(commit) is None
    return monitor


@pytest.mark.parametrize(
    "variant,length",
    [("full", 400), ("windowed", 400), ("full", 800), ("windowed", 800)],
)
def test_bench_full_vs_windowed_cost(benchmark, variant, length):
    """Full vs windowed cost per run.  The full monitor certifies the
    transitive reduction, so its per-commit cost no longer grows with
    run length either; the window bounds memory (graph bounded by the
    window) at the price of eviction bookkeeping on every commit."""
    initial, events = pad_stream(length)

    def run():
        if variant == "full":
            monitor = ConsistencyMonitor("SI", dict(initial))
        else:
            monitor = ConsistencyMonitor("SI", dict(initial), window=32)
        return feed(monitor, events)

    monitor = benchmark(run)
    assert monitor.consistent
    assert monitor.commit_count == length
    if variant == "windowed":
        assert monitor.retained_count == 32


#: E18 gate: the windowed monitor's cost relative to the full one.
E18_WINDOWED_BOUND = 1.5


def test_windowed_cost_within_bound_of_full():
    """E18 gate: windowing bounds memory without costing time.  On the
    800-commit pad stream the windowed monitor (w=32) takes at most
    1.5x the full monitor, medians of 15 interleaved runs.  Eviction
    unhooks a commit from the object tuples recorded at observe time,
    so it recomputes nothing."""
    initial, events = pad_stream(800)
    walls = {"full": [], "windowed": []}
    for _ in range(15):
        for variant, window in (("full", None), ("windowed", 32)):
            monitor = ConsistencyMonitor("SI", dict(initial), window=window)
            started = time.perf_counter()
            feed(monitor, events)
            walls[variant].append(time.perf_counter() - started)
    full = statistics.median(walls["full"])
    windowed = statistics.median(walls["windowed"])
    print_table(
        "E18 — full vs windowed monitor, 800 pad-stream commits",
        ["monitor", "median wall"],
        [("full", f"{full * 1e3:.1f} ms"),
         ("windowed (w=32)", f"{windowed * 1e3:.1f} ms"),
         ("ratio", f"{windowed / full:.2f}x")],
    )
    assert windowed <= E18_WINDOWED_BOUND * full, (windowed, full)


def test_windowed_state_stays_flat():
    initial, events = pad_stream(1000)
    full = feed(ConsistencyMonitor("SI", dict(initial)), events)
    windowed = feed(
        ConsistencyMonitor("SI", dict(initial), window=32), events
    )
    sizes = windowed.state_size()
    print_table(
        "Monitor state after 1000 commits",
        ["monitor", "graph nodes", "edges"],
        [
            ("full", len(full._records), full.state_size()["edges"]),
            ("windowed (w=32)", sizes["records"], sizes["edges"]),
        ],
    )
    assert len(full._records) == 1000
    assert sizes["records"] == 32


def test_monitor_report():
    rows = []

    # SI engine + write skew: clean under SI, flagged under SER.
    engine = SIEngine({"acct1": 70, "acct2": 80})
    Scheduler(engine, write_skew_sessions()).run_schedule(
        ["alice"] * 3 + ["bob"] * 3
    )
    m_si, _ = watch_engine(engine, model="SI")
    m_ser, v_ser = watch_engine(engine, model="SER")
    rows.append(
        ("write skew on SI engine", "SI", bool_mark(m_si.consistent), "-")
    )
    rows.append(
        (
            "write skew on SI engine",
            "SER",
            bool_mark(m_ser.consistent),
            v_ser[0].tid if v_ser else "-",
        )
    )

    # PSI engine + long fork: clean under PSI, flagged under SI.
    engine2 = PSIEngine({"x": 0, "y": 0})
    for reader in ("r1", "r2"):
        engine2.replica_of(reader)
    sched = Scheduler(engine2, long_fork_sessions())
    sched.step("w1"), sched.step("w1")
    sched.step("w2"), sched.step("w2")
    tids = {r.session: r.tid for r in engine2.committed}
    engine2.deliver(tids["w1"], "r_r1")
    engine2.deliver(tids["w2"], "r_r2")
    sched.run_round_robin()
    m_psi, _ = watch_engine(engine2, model="PSI")
    m_si2, v_si2 = watch_engine(engine2, model="SI")
    rows.append(
        ("long fork on PSI engine", "PSI", bool_mark(m_psi.consistent), "-")
    )
    rows.append(
        (
            "long fork on PSI engine",
            "SI",
            bool_mark(m_si2.consistent),
            v_si2[0].tid if v_si2 else "-",
        )
    )
    print_table(
        "Online monitor verdicts",
        ["run", "monitored model", "clean", "flagged at"],
        rows,
    )
    assert m_si.consistent and not m_ser.consistent
    assert m_psi.consistent and not m_si2.consistent
    # Detection is at the earliest anomalous commit: the last reader.
    assert v_si2[0].tid == engine2.committed[-1].tid


# ----------------------------------------------------------------------
# E24 — incremental vs rebuild certification scaling
# ----------------------------------------------------------------------

#: Default commit-count sweeps; PSI's rebuild oracle runs a transitive
#: closure per commit, so it sweeps smaller sizes.
E24_SIZES = {"SI": (100, 200, 400, 800), "SER": (100, 200, 400, 800),
             "PSI": (50, 100, 200)}


def certification_stream(length, session_span=4):
    """A violation-free commit stream with bounded per-commit degree,
    its reads sourced by value.

    Transaction ``i`` reads the object the previous transaction wrote
    and writes its own; every third transaction also overwrites an
    older object, so WR, WW and RW edges all flow (always forward in
    commit order — acyclic under every model).  Sessions rotate every
    ``session_span`` commits, bounding SO fan-in.  The per-commit edge
    deltas are O(1), so the incremental checker's cost per commit stays
    flat while the rebuild checker's grows with the accumulated graph.
    """
    initial = {"o0": 0}
    events = []
    for i in range(length):
        ops = []
        if i > 0:
            ops.append(read(f"o{i - 1}", ("v", i - 1)))
        ops.append(write(f"o{i}", ("v", i)))
        if i >= 2 and i % 3 == 0:
            ops.append(write(f"o{i - 2}", ("w", i)))
        events.append((f"t{i}", f"s{i // session_span}", ops))
    return initial, list(sourced_commits(events, initial))


def timed_feed(checker, model, initial, events):
    """Feed the stream through a fresh monitor; return elapsed seconds."""
    monitor = ConsistencyMonitor(model, dict(initial), checker=checker)
    started = time.perf_counter()
    for commit in events:
        assert monitor.observe_commit(commit) is None
    return time.perf_counter() - started


#: E24 flatness sweep: the incremental checker's per-commit cost at the
#: larger size may be at most ``E24_FLAT_BOUND`` times its cost at the
#: smaller one, for every model.
E24_FLAT_SIZES = (400, 3200)
E24_FLAT_BOUND = 2.0


def incremental_cost_per_commit(model, rounds=5):
    """Best-of-``rounds`` incremental cost per commit (µs) at each of
    ``E24_FLAT_SIZES``, the sizes interleaved so machine drift hits both
    alike."""
    streams = {size: certification_stream(size) for size in E24_FLAT_SIZES}
    best = {size: float("inf") for size in E24_FLAT_SIZES}
    for _ in range(rounds):
        for size, (initial, events) in streams.items():
            elapsed = timed_feed("incremental", model, initial, events)
            best[size] = min(best[size], elapsed / size * 1e6)
    return best


def test_bench_incremental_scaling():
    """E24: the incremental checker beats the rebuild checker with a
    widening gap as the commit count grows (≥5x at the largest default
    size; never slower at the largest size of a capped CI smoke run),
    and its own per-commit cost stays flat: at 3,200 commits at most
    2x its cost at 400, for every model."""
    cap = int(os.environ.get("E24_MAX_COMMITS", "0")) or None
    rows = []
    results = {}
    for model, default_sizes in E24_SIZES.items():
        sizes = [s for s in default_sizes if cap is None or s <= cap]
        if not sizes:
            sizes = [min(default_sizes)]
        sweep = []
        for size in sizes:
            initial, events = certification_stream(size)
            rebuild_s = timed_feed("rebuild", model, initial, events)
            incremental_s = timed_feed("incremental", model, initial, events)
            speedup = rebuild_s / incremental_s if incremental_s else float("inf")
            sweep.append({
                "commits": size,
                "rebuild_seconds": round(rebuild_s, 4),
                "incremental_seconds": round(incremental_s, 4),
                "speedup": round(speedup, 1),
            })
            rows.append((model, size, f"{rebuild_s:.3f}s",
                         f"{incremental_s:.3f}s", f"{speedup:.1f}x"))
        results[model] = sweep
        largest = sweep[-1]
        full_sweep = sizes[-1] == default_sizes[-1]
        floor = 5.0 if full_sweep else 1.0
        assert largest["speedup"] >= floor, (model, largest)
        # The gap widens with commit count (asymptotic, not constant).
        if len(sweep) >= 2:
            assert sweep[-1]["speedup"] > sweep[0]["speedup"], (model, sweep)
    print_table(
        "E24 — incremental vs rebuild certification cost",
        ["model", "commits", "rebuild", "incremental", "speedup"],
        rows,
    )
    small, large = E24_FLAT_SIZES
    flat = {}
    flat_rows = []
    for model in E24_SIZES:
        cost = incremental_cost_per_commit(model)
        ratio = round(cost[large] / cost[small], 2)
        flat[model] = {
            "us_per_commit": {str(s): round(c, 2) for s, c in cost.items()},
            "ratio": ratio,
        }
        flat_rows.append((model, f"{cost[small]:.1f} us",
                          f"{cost[large]:.1f} us", f"{ratio}x"))
    print_table(
        "E24 — incremental cost per commit (best of 5)",
        ["model", f"{small} commits", f"{large} commits", "ratio"],
        flat_rows,
    )
    path = write_bench_json(
        "monitor_scaling",
        params={
            "sizes": {m: [s["commits"] for s in results[m]] for m in results},
            "session_span": 4,
            "capped": cap is not None,
            "flat_sizes": list(E24_FLAT_SIZES),
            "flat_bound": E24_FLAT_BOUND,
        },
        results={**results, "incremental_flat": flat},
    )
    print(f"scaling record written to {path}")
    for model, row in flat.items():
        assert row["ratio"] <= E24_FLAT_BOUND, (model, row)
