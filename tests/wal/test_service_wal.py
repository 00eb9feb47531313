"""End-to-end durability: service runs with a WAL attached recover to
bit-identical state, and the offline audit matches the live monitor.

These are the acceptance-criteria tests: seeded concurrent runs (and
tagged tuple values), recovery equality on the full ``CommitRecord``
level (not just tid equality), recovered engines that keep serving, and
live-vs-offline verdict parity.
"""

import math
import threading

import pytest

from repro.monitor import MonitorError, sourced_commits
from repro.mvcc import PSIEngine, SerializableEngine, SIEngine
from repro.mvcc.locking import TwoPhaseLockingEngine
from repro.mvcc.runtime import ReadOp, WriteOp
from repro.service import (
    MIXES,
    LoadGenerator,
    TransactionService,
    smallbank_mix,
)
from repro.wal import FSYNC_POLICIES, WriteAheadLog, audit_log, recover
from tests.wal.test_format import canonical

ENGINES = {
    "SI": (SIEngine, "SI"),
    "SER": (SerializableEngine, "SER"),
    "PSI": (lambda initial: PSIEngine(initial, auto_deliver=True), "PSI"),
    "2PL": (TwoPhaseLockingEngine, "SER"),
}


def run_with_wal(tmp_path, engine_key, workers=4, txns=8, seed=0,
                 fsync_policy="none", **wal_kwargs):
    """Drive a SmallBank load through a WAL-attached certified service."""
    factory, model = ENGINES[engine_key]
    mix = MIXES["smallbank"]()
    engine = factory(dict(mix.initial))
    wal = WriteAheadLog(
        str(tmp_path / f"wal-{engine_key}-{seed}"),
        fsync_policy=fsync_policy,
        meta={"engine": engine_key, "init": dict(mix.initial),
              "init_tid": engine.init_tid, "model": model},
        **wal_kwargs,
    )
    service = TransactionService.certified(
        engine, model=model, window=64, max_retries=200, wal=wal,
    )
    LoadGenerator(
        service, mix, workers=workers, transactions_per_worker=txns,
        seed=seed,
    ).run()
    service.drain()
    service.close()
    return engine, wal, service, model


class TestRoundTrip:
    @pytest.mark.parametrize("engine_key", sorted(ENGINES))
    def test_recovery_is_bit_identical(self, tmp_path, engine_key):
        engine, wal, _, _ = run_with_wal(tmp_path, engine_key)
        result = recover(wal.directory)
        assert not result.truncated
        assert result.records_recovered == len(engine.committed)
        # Full structural equality of the commit records — tids,
        # sessions, timestamps, events, the reads' sources, writes, and
        # snapshot visibility sets.
        assert result.engine.committed == engine.committed
        assert result.engine.history() == engine.history()

    def test_tagged_tuple_values_round_trip(self, tmp_path):
        # Values tagged with a sequence number, (value, seq) tuples; a
        # JSON round trip that flattened them to lists would break this
        # equality.
        engine = SIEngine({"x": (0, 0)})
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="none",
            meta={"engine": "SI", "init": engine.initial,
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        service = TransactionService.certified(engine, wal=wal)

        def bump():
            value, seq = yield ReadOp("x")
            yield WriteOp("x", (value + 1, seq + 1))

        for _ in range(3):
            service.session().run(bump)
        service.close()
        assert service.violations == []
        recovered = recover(wal.directory).engine
        assert recovered.committed == engine.committed
        for mine, theirs in zip(engine.committed, recovered.committed):
            assert mine.writes == theirs.writes
            for a, b in zip(mine.events, theirs.events):
                assert type(a.value) is type(b.value)

    def test_recovered_engine_keeps_serving(self, tmp_path):
        engine, wal, _, _ = run_with_wal(tmp_path, "SI", workers=2, txns=5)
        recovered = recover(wal.directory).engine
        service = TransactionService(recovered)

        def probe():
            value = yield ReadOp("checking0")
            yield WriteOp("checking0", value)

        outcome = service.session().run(probe)
        assert outcome.record.commit_ts == len(engine.committed) + 1
        # Fresh tids never collide with recovered ones.
        assert outcome.record.tid not in {
            record.tid for record in engine.committed
        }

    @pytest.mark.parametrize("engine_key", ["2PL", "SER", "SI"])
    def test_recovered_store_matches_live_snapshots(self, tmp_path,
                                                    engine_key):
        engine, wal, _, _ = run_with_wal(tmp_path, engine_key)
        recovered = recover(wal.directory).engine
        assert recovered.store.chain_count == engine.store.chain_count
        for ts in (0, engine._clock // 2, engine._clock):
            assert (recovered.store.snapshot_at(ts)
                    == engine.store.snapshot_at(ts))

    def test_typed_values_recover_as_written(self, tmp_path):
        # Dict keys keep their type and bytes values are logged: a JSON
        # frame turned {1: "a"} into {"1": "a"} and could not hold bytes.
        engine = SIEngine({"x": 0, "y": 0})
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="none",
            meta={"engine": "SI", "init": {"x": 0, "y": 0},
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        for writes in (
            {"x": {1: "a", (2, 3): 4}, "y": b"\x00\xffraw"},
            {"x": {(1, (2,)): [b"z", 1.5], None: True}, "y": 1 << 80},
        ):
            txn = engine.begin("s")
            engine.read(txn, "x")
            for obj, value in writes.items():
                engine.write(txn, obj, value)
            wal.append(engine.commit(txn))
        wal.close()
        recovered = recover(wal.directory).engine
        assert recovered.committed == engine.committed
        assert recovered.committed[1].events[0].value == {1: "a", (2, 3): 4}
        for ts in range(engine._clock + 1):
            assert (recovered.store.snapshot_at(ts)
                    == engine.store.snapshot_at(ts))

    def test_initial_values_recover_with_their_types(self, tmp_path):
        # The initial state travels in the binary state frame: the JSON
        # meta frame turned the initial {1: "a"} into {"1": "a"}.
        initial = {
            "x": {1: "a"}, "y": 0, "flag": True, "one": 1,
            "neg_zero": -0.0, "nan": math.nan, "raw": b"\x00\xff",
            "big": 1 << 64, "pair": (1, 2), "list": [1, 2],
            "\u00e9t\u00e9": "\U0001f600", "none": None,
        }
        engine = SIEngine(initial)
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="none",
            meta={"engine": "SI", "init": engine.initial,
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        service = TransactionService(engine, wal=wal)

        def bump():
            y = yield ReadOp("y")
            yield WriteOp("y", y + 1)

        service.session().run(bump)
        service.close()
        result = recover(wal.directory)
        assert result.records_recovered == 1
        for recovered_initial in (result.meta.init,
                                  result.engine.initial,
                                  audit_log(wal.directory).meta.init):
            assert canonical(dict(recovered_initial)) == canonical(initial)
        assert result.engine.store.value_at("x", 1) == ({1: "a"}, 0)
        assert list(result.engine.store.value_at("x", 1)[0]) == [1]

    def test_abstract_execution_reconstructs(self, tmp_path):
        engine, wal, _, _ = run_with_wal(tmp_path, "SI", workers=2, txns=5)
        recovered = recover(wal.directory).engine
        execution = recovered.abstract_execution()
        assert execution.history == engine.history()


class TestAuditParity:
    @pytest.mark.parametrize("engine_key", sorted(ENGINES))
    def test_offline_audit_matches_live_monitor(self, tmp_path,
                                                engine_key):
        engine, wal, service, model = run_with_wal(tmp_path, engine_key)
        audit = audit_log(wal.directory, model=model, window=64)
        assert audit.commits_observed == len(engine.committed)
        assert [v.tid for v in audit.violations] == [
            v.tid for v in service.violations
        ]
        assert audit.consistent == (not service.violations)

    def test_audit_model_defaults_from_meta(self, tmp_path):
        _, wal, _, _ = run_with_wal(tmp_path, "2PL")
        audit = audit_log(wal.directory)
        assert audit.model == "SER"  # 2PL logs certify against SER

    def test_audit_full_graph_matches_windowed_live(self, tmp_path):
        engine, wal, service, _ = run_with_wal(tmp_path, "SI")
        audit = audit_log(wal.directory)  # no window: full graph
        assert audit.commits_observed == len(engine.committed)
        assert audit.consistent


class TestRepeatedValues:
    """Plain, repeating values are certified: each read carries its
    version's commit_ts, so no value has to name one writer."""

    @staticmethod
    def certified(tmp_path, engine):
        """A certified service over ``engine``, logging to a fresh
        directory; returns it and its log."""
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="none",
            meta={"engine": "SI", "init": engine.initial,
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        service = TransactionService.certified(
            engine, window=16, max_retries=200, wal=wal,
        )
        return service, wal

    @staticmethod
    def black_box(engine):
        """The run as a black-box history: values only."""
        return [
            (r.tid, r.session, r.events)
            for r in sorted(engine.committed, key=lambda r: r.commit_ts)
        ]

    def test_counters_reset_to_zero_certify(self, tmp_path):
        def bump_or_reset(i):
            def tx():
                value = yield ReadOp(f"c{i % 2}")
                yield WriteOp(f"c{i % 2}", 0 if i % 3 == 2 else value + 1)

            return tx

        engine = SIEngine({"c0": 0, "c1": 0})
        service, wal = self.certified(tmp_path, engine)
        for i in range(30):
            service.session(f"s{i % 3}").run(bump_or_reset(i))
        service.close()
        assert service.violations == [] and service.monitor.consistent
        audit = audit_log(wal.directory, model="SI")
        assert audit.consistent and audit.commits_observed == 30
        # By value, the same run is ambiguous: several commits wrote 0
        # (and 1) to each counter.
        with pytest.raises(MonitorError, match="ambiguous"):
            list(sourced_commits(self.black_box(engine), engine.initial))

    def test_untagged_smallbank_certifies(self, tmp_path):
        mix = smallbank_mix(customers=2, weights={
            "Amalgamate": 40, "Balance": 30, "DepositChecking": 10,
            "TransactSavings": 10, "WriteCheck": 10,
        })
        engine = SIEngine(mix.initial)
        service, wal = self.certified(tmp_path, engine)
        result = LoadGenerator(
            service, mix, workers=3, transactions_per_worker=20, seed=4,
        ).run()
        assert result.violations == 0 and service.monitor.consistent
        service.close()
        # Amalgamate zeroed some account more than once.
        zeroes = [
            obj for record in engine.committed
            for obj, value in record.writes.items() if value == 0
        ]
        assert len(zeroes) > len(set(zeroes))
        audit = audit_log(wal.directory, model="SI")
        assert audit.consistent
        assert audit.commits_observed == len(engine.committed)
        with pytest.raises(MonitorError, match="ambiguous"):
            list(sourced_commits(self.black_box(engine), engine.initial))


class TestDurabilityMetrics:
    def test_service_mirrors_wal_counters(self, tmp_path):
        engine, wal, service, _ = run_with_wal(
            tmp_path, "SI", fsync_policy="group"
        )
        snapshot = service.metrics.snapshot()
        assert snapshot["wal"]["appends"] == len(engine.committed)
        assert snapshot["wal"]["appends"] == wal.stats.appends
        assert snapshot["wal"]["fsyncs"] == wal.stats.fsyncs > 0
        assert snapshot["wal"]["bytes"] > 0
        batch = snapshot["wal"]["batch_records"]
        assert batch["count"] == wal.stats.flushes
        assert batch["mean"] == pytest.approx(wal.stats.mean_batch)

    def test_commit_waits_for_durability(self, tmp_path):
        engine, wal, _, _ = run_with_wal(
            tmp_path, "SI", workers=2, txns=5, fsync_policy="always"
        )
        assert wal.stats.fsyncs >= len(engine.committed)

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_service_with_wal_starts_no_thread(self, tmp_path, policy):
        before = set(threading.enumerate())
        engine = SIEngine({"x": 0})
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy=policy,
            meta={"engine": "SI", "init": {"x": 0},
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        service = TransactionService.certified(engine, model="SI", wal=wal)

        def bump():
            x = yield ReadOp("x")
            yield WriteOp("x", x + 1)

        session = service.session()
        for _ in range(3):
            session.run(bump)
        assert set(threading.enumerate()) - before == set()
        service.close()
        assert recover(wal.directory).records_recovered == 3
