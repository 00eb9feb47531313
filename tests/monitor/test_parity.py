"""Differential parity: incremental checker vs the full-rebuild oracle.

The incremental certification core must agree with the per-commit
full-rebuild checker on every stream: same per-commit verdict while the
stream is clean, and the same commit point (and detection at all) for
the first violation.  After the first violation the two back-ends
diverge by design — the rebuild oracle keeps the cyclic graph and
re-flags it at every later commit, while the incremental core drops the
cycle-closing edge and certifies the remainder — so comparisons run up
to and including the first violation.

The incremental checker certifies the transitive reduction of the
dependency graph (SO/WW from the previous transaction only, RW into a
writer only from the readers since the object's previous write), while
the rebuild oracle derives the paper's full SO/WR/WW/RW relations from
the monitor's indexes, so parity here is reduced graph against full
graph.

Streams covered: randomised engine workloads, service-driven SmallBank
and TPC-C commit streams, the anomaly catalog, seeded synthetic streams
of stale reads that violate at varied commits, and windowed monitors on
all of the above shapes.  Engine streams carry their reads' sources;
the catalog and synthetic streams are black-box histories, given
sources by value (:func:`~repro.monitor.sourced_commits`).

A further axis rides on the same harness: histories that made a round
trip through the write-ahead log must be indistinguishable from live
ones — ``recover(wal).history() == service.history()`` and the offline
streaming audit's verdict equals the live monitor's, across engines
(:class:`TestWalRoundTripParity`).
"""

import random

import pytest

from repro.anomalies import ALL_CASES, load as load_case
from repro.core.events import read, write
from repro.monitor import ConsistencyMonitor, MonitorError, sourced_commits
from repro.mvcc import (
    PSIEngine,
    Scheduler,
    SerializableEngine,
    SIEngine,
)
from repro.mvcc.workloads import random_workload
from repro.service import MIXES, LoadGenerator, TransactionService
from tests.monitor.streams import observe

MODELS = ConsistencyMonitor.MODELS


def committed_stream(engine):
    """The engine's commit records, sources included, in commit
    order."""
    return sorted(engine.committed, key=lambda r: r.commit_ts)


def stale_read_stream(seed, horizon, commits=80, objects=6, sessions=16,
                      stale=0.1):
    """A seeded commit stream whose reads sometimes return a stale version.

    Each transaction reads one or two objects and writes up to two.  A
    read returns, with probability ``stale``, a randomly chosen version
    overwritten within the last ``horizon`` commits, else the current
    one.  Every write stores a fresh value, so strict value
    attribution holds.  Returns ``(initial_values, stream)``, the stream
    sourced by value.
    """
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(objects)]
    # Per object: [value, index of the overwriting commit or None].
    versions = {obj: [[0, None]] for obj in names}
    stream = []
    for i in range(commits):
        events = []
        for obj in rng.sample(names, rng.randint(1, 2)):
            history = versions[obj]
            recent = [
                value for value, overwritten in history[:-1]
                if overwritten is not None and overwritten >= i - horizon
            ]
            if recent and rng.random() < stale:
                events.append(read(obj, rng.choice(recent)))
            else:
                events.append(read(obj, history[-1][0]))
        for obj in rng.sample(names, rng.randint(0, 2)):
            events.append(write(obj, i + 1))
            versions[obj][-1][1] = i
            versions[obj].append([i + 1, None])
        stream.append((f"t{i}", f"s{rng.randrange(sessions)}", events))
    initial = {obj: 0 for obj in names}
    return initial, list(sourced_commits(stream, initial))


def run_to_first_violation(monitor, stream):
    """Feed ``stream`` until the first violation.

    Returns ``(verdicts, violation)`` where ``verdicts`` is the list of
    per-commit outcomes (``None`` or the flagged tid) up to and
    including the first violation.
    """
    verdicts = []
    for commit in stream:
        violation = monitor.observe_commit(commit)
        verdicts.append(None if violation is None else violation.tid)
        if violation is not None:
            return verdicts, violation
    return verdicts, None


def assert_parity(stream, model, initial, init_tid="t_init", window=None):
    """Both back-ends produce identical verdicts and commit points."""

    def monitor_for(checker):
        return ConsistencyMonitor(
            model,
            dict(initial),
            init_tid=init_tid,
            checker=checker,
            window=window,
        )

    inc_monitor = monitor_for("incremental")
    reb_monitor = monitor_for("rebuild")
    inc_verdicts, inc_violation = run_to_first_violation(inc_monitor, stream)
    reb_verdicts, reb_violation = run_to_first_violation(reb_monitor, stream)
    assert inc_verdicts == reb_verdicts, (model, window)
    assert (inc_violation is None) == (reb_violation is None)
    if inc_violation is not None:
        assert inc_violation.tid == reb_violation.tid
        # Both witnesses are genuine cycles of the history's dependency
        # graph, as the monitor that reported it still holds it: a
        # windowed one keeps the witness until the next commit.
        for violation, monitor in (
            (inc_violation, inc_monitor), (reb_violation, reb_monitor)
        ):
            edges = set().union(*monitor.dependency_edges().values())
            assert violation.cycle, violation
            assert violation.cycle[0] == violation.cycle[-1]
            for pair in zip(violation.cycle, violation.cycle[1:]):
                assert pair in edges, (model, window, violation.cycle)
    return inc_violation


class TestRandomisedEngineStreams:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", MODELS)
    def test_si_engine_streams(self, seed, model):
        wl = random_workload(
            seed, sessions=5, transactions_per_session=6, objects=4
        )
        engine = SIEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        assert_parity(committed_stream(engine), model, engine.initial,
                      init_tid=engine.init_tid)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("model", MODELS)
    def test_ser_engine_streams(self, seed, model):
        wl = random_workload(seed, sessions=4, transactions_per_session=5)
        engine = SerializableEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        assert_parity(committed_stream(engine), model, engine.initial,
                      init_tid=engine.init_tid)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("model", MODELS)
    def test_psi_engine_streams(self, seed, model):
        wl = random_workload(seed, sessions=4, transactions_per_session=5)
        engine = PSIEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        assert_parity(committed_stream(engine), model, engine.initial,
                      init_tid=engine.init_tid)

    @pytest.mark.parametrize("seed", range(4))
    def test_windowed_parity_on_si_streams(self, seed):
        wl = random_workload(
            seed, sessions=4, transactions_per_session=6, objects=3
        )
        engine = SIEngine(wl.initial)
        Scheduler(engine, wl.sessions).run_random(seed)
        stream = committed_stream(engine)
        for model in MODELS:
            assert_parity(stream, model, engine.initial,
                          init_tid=engine.init_tid, window=8)


class TestStaleReadStreams:
    """Reduced incremental edges against the full-relation rebuild
    oracle, on streams that violate every model at varied commits."""

    SEEDS = 24

    @pytest.mark.parametrize("window", [None, 2, 5, 12])
    @pytest.mark.parametrize("model", MODELS)
    def test_first_violation_matches_full_relation_oracle(
        self, model, window
    ):
        flagged_at = []
        for seed in range(self.SEEDS):
            initial, stream = stale_read_stream(seed, horizon=window or 6)
            violation = assert_parity(stream, model, initial, window=window)
            if violation is not None:
                flagged_at.append(violation.tid)
        # The streams do violate, and not all at the same commit.
        assert len(flagged_at) >= self.SEEDS // 2, flagged_at
        assert len(set(flagged_at)) >= 5, flagged_at

    @pytest.mark.parametrize("model", MODELS)
    def test_reduced_graph_is_smaller_than_full_relations(self, model):
        """The two sides of the parity check differ: on a violation-free
        serial stream the certified graph holds about one edge per
        commit, while the oracle's relations hold the SO closure."""
        monitor = ConsistencyMonitor(model, {"x": 0, "y": 0})
        for i in range(50):
            obj = "xy"[i % 2]
            observe(monitor, f"t{i}", "s", [read(obj, i - 1 if i > 1 else 0),
                                            write(obj, i + 1)])
        assert monitor.consistent
        full = monitor.dependency_edges()
        assert len(full["SO"]) == 50 * 49 // 2
        assert monitor.state_size()["edges"] <= 2 * 50


class TestServiceDrivenStreams:
    """SmallBank / TPC-C commit streams captured from the concurrent
    service, then replayed through both certification back-ends."""

    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("seed", range(2))
    def test_mix_streams(self, mix_name, seed):
        mix = MIXES[mix_name]()
        engine = SIEngine(dict(mix.initial))
        service = TransactionService(engine, max_retries=100)
        LoadGenerator(
            service, mix, workers=4, transactions_per_worker=10, seed=seed
        ).run()
        stream = committed_stream(engine)
        assert len(stream) >= 20
        for model in MODELS:
            assert_parity(stream, model, mix.initial,
                          init_tid=engine.init_tid)
            assert_parity(stream, model, mix.initial,
                          init_tid=engine.init_tid, window=12)

    def test_si_engine_smallbank_clean_under_si(self):
        """Sanity: the SI engine's SmallBank stream certifies clean
        under SI with the incremental checker."""
        mix = MIXES["smallbank"]()
        engine = SIEngine(dict(mix.initial))
        service = TransactionService.certified(engine, model="SI",
                                               max_retries=100)
        result = LoadGenerator(
            service, mix, workers=4, transactions_per_worker=10, seed=7
        ).run()
        assert result.violations == 0
        service.drain()  # the run drained already; verdicts are complete
        assert service.monitor.consistent
        service.close()


class TestAnomalyCatalogStreams:
    """Every catalog history, fed in session-major commit order."""

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    @pytest.mark.parametrize("model", MODELS)
    def test_catalog_parity(self, name, model):
        case = load_case(name)
        init_txn = case.history.by_tid(case.init_tid)
        initial = {
            obj: init_txn.final_write(obj)
            for obj in init_txn.written_objects
        }
        stream = [
            (txn.tid, f"s{i}", [e.op for e in txn.events])
            for i, session in enumerate(case.history.sessions)
            for txn in session
            if txn.tid != case.init_tid
        ]
        sourced = []
        unexplained = False
        try:
            for commit in sourced_commits(stream, initial):
                sourced.append(commit)
        except MonitorError:
            unexplained = True
        violation = assert_parity(
            sourced, model, initial, init_tid=case.init_tid
        )
        if unexplained and violation is None:
            # A read of a value this commit order cannot explain has no
            # source, so neither back-end gets past it.
            return
        if case.expected[model]:
            # A history the model allows never trips the monitor.
            assert violation is None, (name, model)


class TestWalRoundTripParity:
    """Round-trip property: for seeded service runs with a WAL attached,
    the recovered history equals the live history and the incremental
    streaming audit reproduces the live monitor's verdict — across all
    engines and both monitor modes."""

    ENGINE_KEYS = ("SI", "SER", "PSI", "2PL")

    @staticmethod
    def _engine_for(key, initial):
        from repro.mvcc.locking import TwoPhaseLockingEngine

        if key == "SER":
            return SerializableEngine(initial), "SER"
        if key == "PSI":
            return PSIEngine(initial, auto_deliver=True), "PSI"
        if key == "2PL":
            return TwoPhaseLockingEngine(initial), "SER"
        return SIEngine(initial), "SI"

    @pytest.mark.parametrize("engine_key", ENGINE_KEYS)
    def test_recovered_history_and_audit_verdict_match_live(
        self, tmp_path, engine_key
    ):
        from repro.wal import WriteAheadLog, audit_log, recover

        mix = MIXES["smallbank"]()
        engine, model = self._engine_for(engine_key, dict(mix.initial))
        wal = WriteAheadLog(
            str(tmp_path / engine_key),
            fsync_policy="none",
            meta={"engine": engine_key, "init": dict(mix.initial),
                  "init_tid": engine.init_tid, "model": model},
        )
        service = TransactionService.certified(
            engine, model=model, max_retries=200, wal=wal,
        )
        LoadGenerator(
            service, mix, workers=3, transactions_per_worker=8, seed=5
        ).run()
        service.drain()
        service.close()

        recovered = recover(wal.directory)
        assert recovered.engine.history() == engine.history()
        assert recovered.engine.committed == engine.committed

        audit = audit_log(wal.directory, model=model)
        assert audit.commits_observed == len(engine.committed)
        assert [v.tid for v in audit.violations] == [
            v.tid for v in service.violations
        ]
        assert audit.consistent == service.monitor.consistent

    @pytest.mark.parametrize("seed", range(3))
    def test_windowed_audit_matches_windowed_live(self, tmp_path, seed):
        from repro.wal import WriteAheadLog, audit_log

        mix = MIXES["smallbank"]()
        engine = SIEngine(dict(mix.initial))
        wal = WriteAheadLog(
            str(tmp_path / f"w{seed}"), fsync_policy="none",
            meta={"engine": "SI", "init": dict(mix.initial),
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        service = TransactionService.certified(
            engine, model="SI", window=12, max_retries=200, wal=wal,
        )
        LoadGenerator(
            service, mix, workers=4, transactions_per_worker=6, seed=seed
        ).run()
        service.close()
        audit = audit_log(wal.directory, window=12)
        assert audit.commits_observed == len(engine.committed)
        assert [v.tid for v in audit.violations] == [
            v.tid for v in service.violations
        ]
