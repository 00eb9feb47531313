"""WriteAheadLog behaviour: policies, ordering, rotation, concurrency,
and close semantics."""

import os
import threading
import time

import pytest

from repro.mvcc.engine import CommitRecord
from repro.core.events import write as write_op
from repro.faults import FaultPlan, FaultRule, armed
from repro.wal.format import meta_from_doc
from repro.wal import (
    FSYNC_POLICIES,
    SEGMENT_MAGIC,
    WalClosed,
    WalError,
    WalPoisoned,
    WriteAheadLog,
    recover,
    scan,
    scan_frames,
)

META = {"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
        "model": "SI"}


def make_record(ts):
    return CommitRecord(
        tid=f"t{ts}", session=f"client-{ts % 3}",
        commit_ts=ts, events=(write_op("x", ts),),
        snapshot=ts - 1,
    )


def make_log(tmp_path, **kwargs):
    kwargs.setdefault("meta", META)
    return WriteAheadLog(str(tmp_path / "wal"), **kwargs)


class TestAppendAndScan:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_in_order_appends_scan_back(self, tmp_path, policy):
        with make_log(tmp_path, fsync_policy=policy) as log:
            records = [make_record(ts) for ts in range(1, 21)]
            for record in records:
                log.append(record)
            log.flush()
        result = list(scan(log.directory))
        assert result == records

    def test_out_of_order_appends_are_reordered(self, tmp_path):
        # Deposit 2 and 3 from helper threads first; they must block
        # (durability waits for the gap at 1) until 1 arrives.
        log = make_log(tmp_path, fsync_policy="group")
        done = []

        def deposit(ts):
            log.append(make_record(ts))
            done.append(ts)

        threads = [
            threading.Thread(target=deposit, args=(ts,)) for ts in (2, 3)
        ]
        for t in threads:
            t.start()
        while len(log.pending_gap) < 2:
            pass  # both deposited, blocked behind the gap
        assert done == []
        log.append(make_record(1))
        for t in threads:
            t.join()
        log.close()
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3]

    def test_stale_sequence_rejected(self, tmp_path):
        with make_log(tmp_path) as log:
            log.append(make_record(1))
            with pytest.raises(WalError, match="out of sequence"):
                log.append(make_record(1))

    def test_durable_ts_advances(self, tmp_path):
        with make_log(tmp_path, fsync_policy="group") as log:
            assert log.durable_ts == 0
            log.append(make_record(1))
            assert log.durable_ts == 1


class TestPolicies:
    def test_always_syncs_per_record(self, tmp_path):
        with make_log(tmp_path, fsync_policy="always") as log:
            for ts in range(1, 6):
                log.append(make_record(ts))
        assert log.stats.fsyncs == 5

    def test_group_syncs_per_batch(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="group")
        threads = [
            threading.Thread(target=log.append, args=(make_record(ts),))
            for ts in range(1, 9)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        # One fsync per leader batch, never per record.
        assert log.stats.fsyncs == log.stats.flushes <= 8
        assert log.stats.records_flushed == 8

    def test_none_never_syncs_and_returns_immediately(self, tmp_path):
        with make_log(tmp_path, fsync_policy="none") as log:
            for ts in range(1, 6):
                log.append(make_record(ts))
            log.flush()
        assert log.stats.fsyncs == 0
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3, 4, 5]

    def test_none_frame_deposited_under_a_leader_is_written_by_it(
        self, tmp_path
    ):
        # #1's write is held, so its committer leads while #2 and #3
        # are deposited.  The leader drains them before returning: no
        # flush(), no close(), no timer.
        plan = FaultPlan([FaultRule("wal.write", "delay", limit=1,
                                    delay=0.2)])
        log = make_log(tmp_path, fsync_policy="none")
        with armed(plan):
            leader = threading.Thread(
                target=log.append, args=(make_record(1),)
            )
            leader.start()
            deadline = time.monotonic() + 5
            while not plan.hit_counts().get("wal.write"):
                assert time.monotonic() < deadline, "leader never wrote"
                time.sleep(0.001)
            log.append(make_record(2))
            log.append(make_record(3))
            leader.join()
        assert log.durable_ts == 3
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3]
        log.close()


class TestRotationAndRetention:
    def test_rotation_produces_recoverable_segments(self, tmp_path):
        with make_log(tmp_path, fsync_policy="none",
                      segment_max_bytes=600) as log:
            for ts in range(1, 31):
                log.append(make_record(ts))
            log.flush()
        assert len(log.segments()) > 1
        assert log.stats.segments_created == len(log.segments())
        assert [r.commit_ts for r in scan(log.directory)] == list(
            range(1, 31)
        )

    def test_every_segment_is_self_describing(self, tmp_path):
        with make_log(tmp_path, fsync_policy="none",
                      segment_max_bytes=600) as log:
            for ts in range(1, 31):
                log.append(make_record(ts))
            log.flush()
        # Delete all but the final segment: recovery must still read
        # meta (engine/init) from the survivor.
        for path in log.segments()[:-1]:
            os.unlink(path)
        result = recover(log.directory)
        assert result.meta.engine == "SI"
        assert result.records_recovered > 0

    def test_large_meta_frame_does_not_count_against_rotation(
        self, tmp_path
    ):
        # The meta frame alone exceeds the bound; only commit frames
        # count, so segments still fill up with commits instead of
        # holding one commit each behind a re-written meta frame.
        meta = dict(META, init={f"obj{i:04d}": i for i in range(300)})
        with make_log(tmp_path, fsync_policy="none", meta=meta,
                      segment_max_bytes=2000) as log:
            for ts in range(1, 51):
                log.append(make_record(ts))
            log.flush()
        per_segment = []
        for path in log.segments():
            with open(path, "rb") as f:
                payloads, damage, _ = scan_frames(f.read(),
                                                  len(SEGMENT_MAGIC))
            assert damage is None and len(payloads[0]) > 2000
            per_segment.append(len(payloads) - 1)
        assert sum(per_segment) == 50
        assert len(per_segment) <= 6, per_segment
        assert all(n > 1 for n in per_segment[:-1]), per_segment
        assert [r.commit_ts for r in scan(log.directory)] == list(
            range(1, 51)
        )

    @pytest.mark.parametrize("segment_max_bytes", [600, 1 << 22])
    def test_each_meta_frame_decoded_once(self, tmp_path, monkeypatch,
                                          segment_max_bytes):
        import repro.wal.recovery as recovery

        with make_log(tmp_path, fsync_policy="none",
                      segment_max_bytes=segment_max_bytes) as log:
            for ts in range(1, 31):
                log.append(make_record(ts))
            log.flush()
        decoded = []

        def counting(doc):
            decoded.append(doc["segment"])
            return meta_from_doc(doc)

        monkeypatch.setattr(recovery, "meta_from_doc", counting)
        result = recover(log.directory)
        assert result.records_recovered == 30
        assert sorted(decoded) == list(range(1, len(log.segments()) + 1))

    def test_new_log_never_touches_existing_segments(self, tmp_path):
        with make_log(tmp_path, fsync_policy="none") as log:
            for ts in range(1, 4):
                log.append(make_record(ts))
            log.flush()
        before = {p: os.path.getsize(p) for p in log.segments()}
        with WriteAheadLog(log.directory, fsync_policy="none", meta=META,
                           start_seq=4) as log2:
            log2.append(make_record(4))
            log2.flush()
        for path, size in before.items():
            assert os.path.getsize(path) == size
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3, 4]


class TestConcurrency:
    @pytest.mark.parametrize("policy", ["always", "group", "none"])
    def test_many_threads_striped_sequences(self, tmp_path, policy):
        log = make_log(tmp_path, fsync_policy=policy)
        workers, per_worker = 4, 25

        def run(worker):
            # Worker i owns commit numbers congruent to i — arrivals
            # interleave arbitrarily, the log restores total order.
            for n in range(per_worker):
                log.append(make_record(1 + worker + n * workers))

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.close()
        total = workers * per_worker
        assert log.stats.appends == total
        assert [r.commit_ts for r in scan(log.directory)] == list(
            range(1, total + 1)
        )


class TestCloseSemantics:
    def test_append_after_close_raises(self, tmp_path):
        log = make_log(tmp_path)
        log.append(make_record(1))
        log.close()
        with pytest.raises(WalClosed):
            log.append(make_record(2))

    def test_close_is_idempotent(self, tmp_path):
        log = make_log(tmp_path)
        log.append(make_record(1))
        log.close()
        log.close()

    def test_close_with_sequence_gap_raises(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="none")
        log.append(make_record(1))
        log.append(make_record(3))  # 2 never arrives
        with pytest.raises(WalError, match="sequence gap"):
            log.close()
        # The durable prefix survives.
        assert [r.commit_ts for r in scan(log.directory)] == [1]

    def test_close_flushes_writable_tail(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="none")
        for ts in range(1, 6):
            log.append(make_record(ts))
        log.close()
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3, 4, 5]


class TestValidation:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            make_log(tmp_path, fsync_policy="sometimes")

    def test_bad_sizes_rejected(self, tmp_path):
        with pytest.raises(WalError):
            make_log(tmp_path, segment_max_bytes=0)

    def test_unencodable_record_poisons_log(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="none")
        log.append(make_record(1))
        bad = CommitRecord(
            tid="t2", session="s", commit_ts=2,
            events=(write_op("x", object()),),
            snapshot=1,
        )
        with pytest.raises(WalError, match="cannot encode"):
            log.append(bad)
        # The gap at #2 can never be filled: the log stays poisoned.
        with pytest.raises(WalError):
            log.append(make_record(3))
        # #1 was acknowledged before the poison and has no hole before
        # it: its own append wrote it.
        with pytest.raises(WalPoisoned):
            log.close()
        assert log.durable_ts == 1
        assert [r.commit_ts for r in scan(log.directory)] == [1]


class TestPoisoning:
    def test_poisoned_log_writes_nothing_behind_the_failure(self, tmp_path):
        # #1's write stalls, then fails; #2 and #3 are deposited behind
        # it during the stall.  Writing them would leave a hole at #1.
        plan = FaultPlan(
            [FaultRule("wal.write", "io_error", limit=1, delay=0.2)]
        )
        log = make_log(tmp_path, fsync_policy="none")
        leader_errors = []

        def lead_first():
            try:
                log.append(make_record(1))
            except WalPoisoned as exc:
                leader_errors.append(exc)

        with armed(plan):
            leader = threading.Thread(target=lead_first)
            leader.start()
            deadline = time.monotonic() + 5
            while not plan.hit_counts().get("wal.write"):
                assert time.monotonic() < deadline, "leader never wrote"
                time.sleep(0.001)
            log.append(make_record(2))
            log.append(make_record(3))
            with pytest.raises(WalPoisoned) as info:
                log.close()
            leader.join()
        assert [e.first_failed_seq for e in leader_errors] == [1]
        assert info.value.first_failed_seq == 1
        assert log.durable_ts == 0
        assert list(scan(log.directory)) == []

    def test_none_append_whose_write_fails_raises(self, tmp_path):
        plan = FaultPlan([FaultRule("wal.write", "io_error", limit=1)])
        log = make_log(tmp_path, fsync_policy="none")
        with armed(plan):
            with pytest.raises(WalPoisoned) as info:
                log.append(make_record(1))
        assert info.value.first_failed_seq == 1
        assert log.durable_ts == 0
        with pytest.raises(WalPoisoned):
            log.close()
