"""WriteAheadLog behaviour: policies, ordering, rotation, concurrency,
and close semantics."""

import itertools
import os
import stat
import threading
import time

import pytest

from repro.core.errors import StoreError
from repro.mvcc.engine import CommitRecord
from repro.core.events import read as read_op, write as write_op
from repro.faults import FaultPlan, FaultRule, armed
from repro.wal.format import (
    STATE_KIND,
    meta_from_doc,
    payload_to_doc,
    state_from_payload,
)
from repro.wal import (
    DEFAULT_SEGMENT_BYTES,
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


def commit_through_mutex(log, workers, per_worker, on_error=None):
    """What a service does: each of ``workers`` threads allocates its
    commit number and writes its frame under one shared mutex, then
    syncs outside it.  Returns the acknowledged commit numbers;
    ``on_error(ts, exc)`` receives a write's or a sync's WalError
    (without it the error fails the thread)."""
    mutex = threading.Lock()
    sequence = itertools.count(1)
    acknowledged = []

    def run():
        for _ in range(per_worker):
            with mutex:
                ts = next(sequence)
                try:
                    log.write(make_record(ts))
                except WalError as exc:
                    on_error(ts, exc)
                    continue
            try:
                log.sync(ts)
            except WalError as exc:
                on_error(ts, exc)
                continue
            acknowledged.append(ts)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(acknowledged)


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

    def test_out_of_sequence_write_raises_and_writes_nothing(
        self, tmp_path
    ):
        # The caller's commit mutex is the only sequencer: a frame that
        # is not the next one is refused, not held back.
        log = make_log(tmp_path, fsync_policy="group")
        log.write(make_record(1))
        with pytest.raises(WalError, match="out of sequence") as info:
            log.write(make_record(3))
        assert not isinstance(info.value, WalPoisoned)
        assert log.stats.appends == 1
        # The refusal does not poison: the next in-sequence write lands.
        log.write(make_record(2))
        log.sync(2)
        log.close()
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2]

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

    def test_always_syncs_each_frame_alone_under_concurrency(
        self, tmp_path, monkeypatch
    ):
        # Every fsync of a commit frame must find exactly one frame
        # written since the last: "always" is the unbatched baseline,
        # even with committers arriving while another syncs.
        real = os.fsync
        new_frames = []
        log = make_log(tmp_path, fsync_policy="always")

        def counting_fsync(fd):
            if stat.S_ISREG(os.fstat(fd).st_mode):
                new_frames.append(log._next_seq - 1 - log.durable_ts)
                time.sleep(0.0005)
            real(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        acknowledged = commit_through_mutex(log, workers=4, per_worker=10)
        log.close()
        assert sorted(acknowledged) == list(range(1, 41))
        assert new_frames == [1] * 40
        assert log.stats.fsyncs == log.stats.appends == 40
        assert log.stats.batches == {1: 40}

    def test_group_syncs_per_batch(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="group")
        assert commit_through_mutex(log, workers=8, per_worker=1) == list(
            range(1, 9)
        )
        log.close()
        # One fsync per batch, never more than one per record.
        assert log.stats.fsyncs == log.stats.flushes <= 8
        assert log.stats.records_flushed == 8

    def test_one_sync_covers_every_frame_written_before_it(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="group")
        for ts in range(1, 4):
            log.write(make_record(ts))
        assert log.durable_ts == 0
        log.sync(1)
        assert log.durable_ts == 3
        log.sync(3)  # already durable: no second sync
        assert (log.stats.fsyncs, log.stats.records_flushed) == (1, 3)
        log.close()

    def test_sync_of_an_unwritten_commit_raises(self, tmp_path):
        with make_log(tmp_path) as log:
            log.write(make_record(1))
            with pytest.raises(WalError, match="never written"):
                log.sync(2)

    def test_none_never_syncs_and_returns_immediately(self, tmp_path):
        with make_log(tmp_path, fsync_policy="none") as log:
            for ts in range(1, 6):
                log.append(make_record(ts))
            log.flush()
        assert log.stats.fsyncs == 0
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3, 4, 5]

    def test_none_sync_hands_every_written_frame_to_the_os(
        self, tmp_path
    ):
        # #1's committer syncs after #2 and #3 were written behind it:
        # its flush hands all three to the OS, with no flush(), no
        # close() and no timer, and never fsyncs.
        log = make_log(tmp_path, fsync_policy="none")
        for ts in range(1, 4):
            log.write(make_record(ts))
        log.sync(1)
        assert log.durable_ts == 3
        assert [r.commit_ts for r in scan(log.directory)] == [1, 2, 3]
        assert log.stats.fsyncs == 0
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
        # Every segment's meta frame alone names the engine, the model,
        # its index and its first commit; only the first segment holds
        # the initial state.
        expected_ts = 1
        for index, path in enumerate(log.segments(), start=1):
            with open(path, "rb") as f:
                payloads, damage, _ = scan_frames(f.read(),
                                                  len(SEGMENT_MAGIC))
            assert damage is None
            meta = meta_from_doc(payload_to_doc(payloads[0]))
            assert (meta.engine, meta.model, meta.segment,
                    meta.first_ts) == ("SI", "SI", index, expected_ts)
            stated = payloads[1][:1] == STATE_KIND
            assert stated == (index == 1)
            expected_ts += len(payloads) - 1 - stated
        assert expected_ts == 31
        # A suffix without the first segment has no initial state to
        # replay onto: recovery refuses it rather than guess one.
        for path in log.segments()[:-1]:
            os.unlink(path)
        log_scan = scan(log.directory)
        assert log_scan.meta is None
        assert "no state frame" in log_scan.damage[0].reason
        with pytest.raises(StoreError, match="no state frame"):
            recover(log.directory)

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
        for index, path in enumerate(log.segments()):
            with open(path, "rb") as f:
                payloads, damage, _ = scan_frames(f.read(),
                                                  len(SEGMENT_MAGIC))
            assert damage is None
            # The first segment's header holds the state frame.
            header = 1 + (index == 0)
            assert (len(payloads[1]) > 2000) == (index == 0)
            per_segment.append(len(payloads) - header)
        assert sum(per_segment) == 50
        assert len(per_segment) <= 6, per_segment
        assert all(n > 1 for n in per_segment[:-1]), per_segment
        assert [r.commit_ts for r in scan(log.directory)] == list(
            range(1, 51)
        )

    @pytest.mark.parametrize("segment_max_bytes", [600, 1 << 22])
    def test_each_meta_frame_decoded_once(self, tmp_path, monkeypatch,
                                          segment_max_bytes):
        # A recovery decodes each segment's meta frame once, and the
        # initial state once, however many segments the log has.
        import repro.wal.recovery as recovery

        with make_log(tmp_path, fsync_policy="none",
                      segment_max_bytes=segment_max_bytes) as log:
            for ts in range(1, 31):
                log.append(make_record(ts))
            log.flush()
        decoded, states = [], []

        def counting(doc):
            decoded.append(doc["segment"])
            return meta_from_doc(doc)

        def counting_states(payload):
            states.append(len(payload))
            return state_from_payload(payload)

        monkeypatch.setattr(recovery, "meta_from_doc", counting)
        monkeypatch.setattr(recovery, "state_from_payload", counting_states)
        result = recover(log.directory)
        assert result.records_recovered == 30
        assert dict(result.meta.init) == META["init"]
        assert sorted(decoded) == list(range(1, len(log.segments()) + 1))
        assert len(states) == 1

    def test_segments_do_not_repeat_the_initial_state(self, tmp_path,
                                                     monkeypatch):
        # The initial state is written once per log, not once per
        # segment: small segments over 40,000 objects used to cost 13x
        # the bytes of one segment, each repeating every initial value.
        import repro.wal.recovery as recovery

        meta = dict(META, init={f"obj{i}": i for i in range(40_000)})

        def record(ts):
            return CommitRecord(
                tid=f"t{ts}", session=f"client-{ts % 16}", commit_ts=ts,
                events=tuple(
                    op(f"obj{ts * 131 % 40_000 + k}", (ts, k))
                    for k in range(3) for op in (read_op, write_op)
                ),
                snapshot=ts - 1, sources=(0, 0, 0),
            )

        logs = {}
        for bound in (4000, DEFAULT_SEGMENT_BYTES):
            with WriteAheadLog(str(tmp_path / f"wal-{bound}"), meta=meta,
                               fsync_policy="none",
                               segment_max_bytes=bound) as log:
                for ts in range(1, 301):
                    log.append(record(ts))
            logs[bound] = log.segments()
        small, one = logs[4000], logs[DEFAULT_SEGMENT_BYTES]
        assert len(small) >= 10 and len(one) == 1
        size = sum(os.path.getsize(path) for path in small)
        assert size <= 1.1 * os.path.getsize(one[0])
        states = []

        def counting_states(payload):
            states.append(len(payload))
            return state_from_payload(payload)

        monkeypatch.setattr(recovery, "state_from_payload", counting_states)
        log_scan = scan(os.path.dirname(small[0]))
        assert [r.commit_ts for r in log_scan] == list(range(1, 301))
        assert log_scan.meta.init == meta["init"]
        assert len(states) == 1

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


class TestDirectorySync:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_directory_synced_when_a_segment_is_created(
        self, tmp_path, monkeypatch, policy
    ):
        # A new segment's directory entry must be durable before a
        # commit in it is acknowledged, under every durable policy.
        real = os.fsync
        synced = []

        def recording(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real(fd)

        monkeypatch.setattr(os, "fsync", recording)
        log = make_log(tmp_path, fsync_policy=policy, segment_max_bytes=600)
        for ts in range(1, 31):
            log.append(make_record(ts))
        log.flush()
        assert log.stats.segments_created > 1  # rotation happened
        directory_syncs = synced.count(True)
        if policy == "none":
            assert directory_syncs == 0
        else:
            assert directory_syncs == log.stats.segments_created
        # WalStats.fsyncs counts the syncs of commit frames only.
        assert log.stats.fsyncs == synced.count(False) - (
            log.stats.segments_created - 1 if policy != "none" else 0
        )
        log.close()


class TestConcurrency:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_many_threads_striped_sequences(self, tmp_path, policy):
        # The commit numbers are striped across the threads in whatever
        # order they win the mutex, which orders the writes; the syncs,
        # outside it, arrive in any order and each returns once its own
        # commit is durable.
        log = make_log(tmp_path, fsync_policy=policy)
        workers, per_worker = 4, 25
        total = workers * per_worker
        acknowledged = commit_through_mutex(log, workers, per_worker)
        assert acknowledged == list(range(1, total + 1))
        assert log.durable_ts == total
        log.close()
        assert log.stats.appends == log.stats.records_flushed == total
        if policy == "always":
            assert log.stats.fsyncs == total
        assert [r.commit_ts for r in scan(log.directory)] == acknowledged

    def test_rotation_waits_for_a_sync_in_flight(self, tmp_path,
                                                  monkeypatch):
        # Syncs are slowed so that writers keep rotating segments while
        # another committer is inside fsync; a rotation must never
        # close (and so free for reuse) the file descriptor under it.
        real = os.fsync
        swapped = []

        def slow_fsync(fd):
            if stat.S_ISREG(os.fstat(fd).st_mode):
                inode = os.fstat(fd).st_ino
                time.sleep(0.002)
                try:
                    swapped.append(os.fstat(fd).st_ino != inode)
                except OSError:
                    swapped.append(True)
            real(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        log = make_log(tmp_path, fsync_policy="group",
                       segment_max_bytes=200)
        rotate = log._rotate
        during_sync = []

        def rotate_and_note(next_ts):
            during_sync.append(log._sync_lock.locked())
            rotate(next_ts)

        log._rotate = rotate_and_note
        acknowledged = commit_through_mutex(log, workers=8, per_worker=25)
        log.close()
        assert acknowledged == list(range(1, 201))
        assert any(during_sync), "no rotation overlapped a sync"
        assert not any(swapped), "a rotation closed the file under fsync"
        result = recover(log.directory)
        assert not result.truncated
        assert [r.commit_ts for r in result.engine.committed] == (
            acknowledged
        )
        for index, path in enumerate(log.segments(), start=1):
            with open(path, "rb") as f:
                data = f.read()
            assert data.startswith(SEGMENT_MAGIC)
            payloads, damage, _ = scan_frames(data, len(SEGMENT_MAGIC))
            assert damage is None
            meta = meta_from_doc(payload_to_doc(payloads[0]))
            assert (meta.engine, meta.segment) == ("SI", index)
        assert len(log.segments()) == log.stats.segments_created > 2


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

    def test_close_after_a_refused_write_keeps_the_prefix(self, tmp_path):
        log = make_log(tmp_path, fsync_policy="none")
        log.append(make_record(1))
        with pytest.raises(WalError, match="out of sequence"):
            log.append(make_record(3))  # 2 never arrives
        # No gap can form, so close has nothing to complain about.
        log.close()
        assert log.durable_ts == 1
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

    def test_unencodable_init_leaves_no_directory(self, tmp_path):
        directory = tmp_path / "wal"
        with pytest.raises(TypeError):
            WriteAheadLog(str(directory), meta={"init": {"x": object()}})
        assert not directory.exists()

    def test_reopened_log_does_not_encode_the_initial_state(self, tmp_path):
        # Segment 1 holds the state frame; a log reopened over the
        # directory has no use for the init it is given.
        make_log(tmp_path, fsync_policy="none").close()
        log = WriteAheadLog(str(tmp_path / "wal"), fsync_policy="none",
                            meta={"init": {"x": object()}})
        log.close()
        assert len(log.segments()) == 2

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
        # #1's write stalls, then fails; #2 tries to write during the
        # stall.  Writing it would leave a hole at #1.
        plan = FaultPlan(
            [FaultRule("wal.write", "io_error", limit=1, delay=0.2)]
        )
        log = make_log(tmp_path, fsync_policy="none")
        first_errors = []

        def write_first():
            try:
                log.append(make_record(1))
            except WalPoisoned as exc:
                first_errors.append(exc)

        with armed(plan):
            first = threading.Thread(target=write_first)
            first.start()
            deadline = time.monotonic() + 5
            while not plan.hit_counts().get("wal.write"):
                assert time.monotonic() < deadline, "#1 never wrote"
                time.sleep(0.001)
            with pytest.raises(WalPoisoned) as behind:
                log.append(make_record(2))
            with pytest.raises(WalPoisoned) as info:
                log.close()
            first.join()
        assert [e.first_failed_seq for e in first_errors] == [1]
        assert behind.value.first_failed_seq == 1
        assert info.value.first_failed_seq == 1
        assert log.durable_ts == 0
        assert list(scan(log.directory)) == []

    def test_write_failure_on_commit_k_keeps_the_prefix_below_k(
        self, tmp_path
    ):
        k = 10
        plan = FaultPlan([FaultRule("wal.write", "io_error", start=k - 1,
                                    limit=1, detail="dead disk")])
        log = make_log(tmp_path, fsync_policy="group")
        errors = {}
        with armed(plan):
            acknowledged = commit_through_mutex(
                log, workers=4, per_worker=10,
                on_error=lambda ts, exc: errors.setdefault(ts, exc),
            )
        assert log.durable_ts < k
        assert set(errors) | set(acknowledged) == set(range(1, 41))
        assert all(ts < k for ts in acknowledged)
        # Every committer from k on was refused, chained to the root.
        assert set(range(k, 41)) <= set(errors)
        for exc in errors.values():
            assert isinstance(exc, WalPoisoned)
            assert exc.first_failed_seq == k
            assert isinstance(exc.root, OSError)
        with pytest.raises(WalPoisoned) as info:
            log.close()
        assert info.value.first_failed_seq == k
        result = recover(log.directory)
        assert [r.commit_ts for r in result.engine.committed] == list(
            range(1, k)
        )

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
