"""Crash fault injection: recovery must stop cleanly at any damage,
report what was dropped, and never raise an unhandled exception.

Each test produces a healthy multi-segment log from a real service run,
injects one class of fault (torn tail, flipped payload byte, deleted
segment, corrupted header), and checks the recovered prefix is exactly
the live run's prefix — bit-identical commit records, consistent
engine state, damage accounted for.
"""

import os
import re

import pytest

from repro.core.errors import StoreError
from repro.core.events import read as read_op, write as write_op
from repro.mvcc import SIEngine
from repro.mvcc.engine import CommitRecord
from repro.mvcc.runtime import ReadOp, WriteOp
from repro.service import TransactionService
from repro.wal import WriteAheadLog, audit_log, recover, scan
from repro.wal.format import (
    SEGMENT_MAGIC,
    STATE_KIND,
    commit_record_to_payload,
    encode_frame,
    meta_to_payload,
    scan_frames,
    segment_name,
    state_to_payload,
)
from tests.wal.frames import forge_commit_payload, forge_state_payload

COMMITS = 40


def write_segment(directory, meta, payloads, meta_payload=None, index=1,
                  first_ts=1):
    """Write segment ``index`` of a log by hand: the magic, a meta frame
    (the encoding of ``meta`` unless ``meta_payload`` is given), in
    segment 1 the state frame of ``meta["init"]``, and one frame per
    commit payload."""
    if meta_payload is None:
        meta_payload = meta_to_payload(meta, index, first_ts=first_ts)
    state = b""
    if index == 1:
        state = encode_frame(state_to_payload(meta["init"]))
    (directory / segment_name(index)).write_bytes(
        SEGMENT_MAGIC
        + encode_frame(meta_payload)
        + state
        + b"".join(encode_frame(payload) for payload in payloads)
    )


@pytest.fixture
def logged_run(tmp_path):
    """A finished service run with a multi-segment WAL.

    Returns ``(engine, wal_dir, segments)`` — segments oldest first.
    """
    directory = str(tmp_path / "wal")
    engine = SIEngine({"x": 0, "y": 0})
    wal = WriteAheadLog(
        directory,
        fsync_policy="none",
        segment_max_bytes=400,
        meta={"engine": "SI", "init": dict(engine.initial),
              "init_tid": engine.init_tid, "model": "SI"},
    )
    service = TransactionService.certified(engine, model="SI", wal=wal)

    def transfer():
        x = yield ReadOp("x")
        yield WriteOp("x", x + 1)
        y = yield ReadOp("y")
        yield WriteOp("y", y - 1)

    session = service.session()
    for _ in range(COMMITS):
        session.run(transfer)
    service.close()
    segments = wal.segments()
    assert len(segments) >= 4, "fixture must produce several segments"
    return engine, directory, segments


def assert_prefix_recovery(directory, engine, expect_drops=True):
    """Recovery succeeds, yields a bit-identical prefix, reports damage."""
    result = recover(directory)
    assert result.records_recovered < COMMITS
    assert result.engine.committed == engine.committed[
        : result.records_recovered
    ]
    if expect_drops:
        assert result.truncated
        assert result.damage and all(str(d) for d in result.damage)
    # The recovered prefix replays the same state the live engine had
    # after that commit.
    if result.records_recovered:
        last = result.engine.committed[-1]
        for obj, value in last.writes.items():
            assert result.engine.store.latest(obj).value == value
    # The streaming audit of the damaged log also never raises.
    audit = audit_log(directory)
    assert audit.commits_observed == result.records_recovered
    return result


class TestTornTail:
    def test_truncated_mid_frame_header(self, logged_run):
        engine, directory, segments = logged_run
        with open(segments[-1], "r+b") as f:
            f.truncate(os.path.getsize(segments[-1]) - 3)
        result = assert_prefix_recovery(directory, engine)
        assert any("torn" in d.reason or "truncated" in d.reason
                   for d in result.damage)

    def test_truncated_mid_payload(self, logged_run):
        engine, directory, segments = logged_run
        size = os.path.getsize(segments[-1])
        with open(segments[-1], "r+b") as f:
            f.truncate(size - 15)
        assert_prefix_recovery(directory, engine)

    def test_truncated_to_bare_magic(self, logged_run):
        engine, directory, segments = logged_run
        with open(segments[-1], "r+b") as f:
            f.truncate(len(SEGMENT_MAGIC))
        result = assert_prefix_recovery(directory, engine)
        assert result.records_recovered > 0


class TestCorruption:
    def test_flipped_payload_byte(self, logged_run):
        engine, directory, segments = logged_run
        path = segments[len(segments) // 2]
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) - 20)
            byte = f.read(1)
            f.seek(-1, 1)
            f.write(bytes([byte[0] ^ 0xFF]))
        result = assert_prefix_recovery(directory, engine)
        assert any("CRC" in d.reason for d in result.damage)
        # Everything past the corrupted segment is unreachable.
        assert result.segments_dropped >= len(segments) // 2 - 1

    def test_corrupted_segment_magic(self, logged_run):
        engine, directory, segments = logged_run
        with open(segments[-1], "r+b") as f:
            f.write(b"XXXXXXXX")
        result = assert_prefix_recovery(directory, engine)
        assert any("magic" in d.reason for d in result.damage)

    @pytest.mark.parametrize("version", [b"SIWAL001", b"SIWAL002",
                                         b"SIWAL003", b"SIWAL004"])
    def test_previous_format_version_is_damage(self, logged_run, version):
        # A segment written by an earlier format (SIWAL001 frames list
        # every visible tid; SIWAL002 frames also carry a writes map and
        # a start_ts; SIWAL003 frames are JSON; SIWAL004 meta frames
        # repeat the initial state as JSON) must be refused by name,
        # never misdecoded.
        engine, directory, segments = logged_run
        with open(segments[-1], "r+b") as f:
            f.write(version)
        result = assert_prefix_recovery(directory, engine)
        reason = result.damage[0].reason
        assert version.decode() in reason
        assert SEGMENT_MAGIC.decode() in reason
        assert "magic" in reason

    def test_events_decide_the_writes_a_frame_recovers(self, tmp_path):
        # A frame holds no writes beside its events: a commit that
        # writes x twice installs its last write, and the audit
        # certifies the same history.
        directory = tmp_path / "wal"
        directory.mkdir()
        meta = {"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
                "model": "SI"}
        writer = CommitRecord(
            tid="t1", session="s1", commit_ts=1,
            events=(write_op("x", 2), write_op("x", 1)), snapshot=0,
        )
        reader = CommitRecord(
            tid="t2", session="s2", commit_ts=2,
            events=(read_op("x", 1),), snapshot=1, sources=(1,),
        )
        write_segment(directory, meta, [
            commit_record_to_payload(r) for r in (writer, reader)
        ])
        result = recover(str(directory))
        assert result.records_recovered == 2 and not result.truncated
        assert result.engine.store.value_at("x", 2) == (1, 1)
        assert result.engine.committed[0].writes == {"x": 1}
        audit = audit_log(str(directory))
        assert audit.commits_observed == 2 and audit.consistent

    def test_bad_snapshot_descriptor_is_damage(self, tmp_path):
        directory = tmp_path / "wal"
        directory.mkdir()
        meta = {"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
                "model": "SI"}
        good = CommitRecord(
            tid="t1", session="s", commit_ts=1,
            events=(write_op("x", 1),), snapshot=0,
        )
        # Commit #2 claiming to see itself: frontier 2 is not below 2.
        bad = forge_commit_payload([2, 2, 0, 1], ["t2", "s", "x"], b"wi")
        write_segment(directory, meta, [commit_record_to_payload(good), bad])
        result = recover(str(directory))
        assert result.records_recovered == 1
        assert result.truncated
        assert "snapshot 2" in result.damage[0].reason

    @pytest.mark.parametrize("frame", ["meta", "commit"])
    def test_deeply_nested_frame_is_damage(self, tmp_path, frame):
        # A CRC-valid frame nesting 100,000 levels deep, in segment 2,
        # is damage for recovery and audit alike, never a RecursionError.
        directory = tmp_path / "wal"
        directory.mkdir()
        meta = {"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
                "model": "SI"}
        depth = 100_000

        def record(ts):
            return commit_record_to_payload(CommitRecord(
                tid=f"t{ts}", session="s", commit_ts=ts,
                events=(write_op("x", ts),), snapshot=ts - 1,
            ))

        write_segment(directory, meta, [record(1)])
        if frame == "meta":
            nested = b"[" * depth + b"]" * depth
            deep_meta = meta_to_payload(meta, 2, first_ts=2).replace(
                b'"model":"SI"', b'"model":' + nested
            )
            assert len(deep_meta) > 2 * depth
            write_segment(directory, meta, [record(2)], index=2, first_ts=2,
                          meta_payload=deep_meta)
        else:
            write_segment(directory, meta, [forge_commit_payload(
                [2, 1, 0] + [1] * depth + [0], ["t2", "s", "x"],
                b"w" + b"l" * depth + b"i",
            )], index=2, first_ts=2)
        result = recover(str(directory))
        assert result.records_recovered == 1 and result.truncated
        assert result.damage[0].segment == segment_name(2)
        audit = audit_log(str(directory))
        assert audit.commits_observed == 1 and audit.damage

    def test_corrupted_meta_frame(self, logged_run):
        engine, directory, segments = logged_run
        with open(segments[-1], "r+b") as f:
            f.seek(len(SEGMENT_MAGIC) + 10)
            f.write(b"\x00\x00\x00")
        assert_prefix_recovery(directory, engine)


class TestStateFrame:
    """The initial state is the first segment's second frame; without
    it there is nothing to replay onto."""

    META = {"engine": "SI", "init": {"x": 0, "y": 7},
            "init_tid": "t_init", "model": "SI"}

    @staticmethod
    def record(ts):
        return commit_record_to_payload(CommitRecord(
            tid=f"t{ts}", session="s", commit_ts=ts,
            events=(write_op("x", ts),), snapshot=ts - 1,
        ))

    def assert_unrecoverable(self, directory, reason):
        log_scan = scan(str(directory))
        assert log_scan.meta is None
        assert log_scan.damage[0].segment == segment_name(1)
        assert reason in log_scan.damage[0].reason
        assert list(log_scan) == [] and log_scan.segments_dropped == 1
        with pytest.raises(StoreError, match=re.escape(reason)):
            recover(str(directory))
        with pytest.raises(StoreError, match=re.escape(reason)):
            audit_log(str(directory))

    def test_first_segment_without_a_state_frame(self, tmp_path):
        # A meta frame followed directly by a commit, as SIWAL004 wrote
        # it, is damage, not a log with an empty initial state.
        (tmp_path / segment_name(1)).write_bytes(
            SEGMENT_MAGIC
            + encode_frame(meta_to_payload(self.META, 1, first_ts=1))
            + encode_frame(self.record(1))
        )
        self.assert_unrecoverable(tmp_path, "no state frame")

    def test_first_segment_torn_inside_its_state_frame(self, tmp_path):
        write_segment(tmp_path, self.META, [self.record(1)])
        path = tmp_path / segment_name(1)
        header = len(SEGMENT_MAGIC) + len(
            encode_frame(meta_to_payload(self.META, 1, first_ts=1))
        )
        path.write_bytes(path.read_bytes()[:header + 12])
        self.assert_unrecoverable(tmp_path, "no state frame (truncated")

    def test_malformed_state_frame(self, tmp_path):
        # CRC-valid, but it names x twice.
        write_segment(tmp_path, self.META, [self.record(1)])
        path = tmp_path / segment_name(1)
        good = encode_frame(state_to_payload(self.META["init"]))
        path.write_bytes(path.read_bytes().replace(good, encode_frame(
            forge_state_payload(["x", "x"], [0, 7])
        )))
        self.assert_unrecoverable(tmp_path, "bad state frame")

    def test_a_later_state_frame_is_damage(self, tmp_path):
        # A log holds one state frame, in its first segment; a state
        # frame anywhere else is not read as a header.
        write_segment(tmp_path, self.META, [self.record(1)])
        (tmp_path / segment_name(2)).write_bytes(
            SEGMENT_MAGIC
            + encode_frame(meta_to_payload(self.META, 2, first_ts=2))
            + encode_frame(state_to_payload(self.META["init"]))
            + encode_frame(self.record(2))
        )
        result = recover(str(tmp_path))
        assert result.records_recovered == 1 and result.truncated
        assert result.damage[0].segment == segment_name(2)
        assert "expected a commit frame" in result.damage[0].reason
        assert result.meta.init == self.META["init"]

    def test_reopened_log_recovers_whole(self, tmp_path):
        engine = SIEngine(dict(self.META["init"]))
        for first_ts in (1, 3):
            wal = WriteAheadLog(str(tmp_path), fsync_policy="none",
                                meta=self.META, start_seq=first_ts)
            for _ in range(2):
                txn = engine.begin("s")
                engine.write(txn, "y", engine.read(txn, "y") + 1)
                wal.append(engine.commit(txn))
            wal.close()
        # The reopened log wrote no second state frame.
        states = [
            payload
            for path in sorted(tmp_path.iterdir())
            for payload in scan_frames(path.read_bytes(),
                                       len(SEGMENT_MAGIC))[0]
            if payload[:1] == STATE_KIND
        ]
        assert states == [state_to_payload(self.META["init"])]
        result = recover(str(tmp_path))
        assert result.segments_scanned == 2 and not result.truncated
        assert result.engine.committed == engine.committed


class TestMissingSegments:
    def test_deleted_newest_segment(self, logged_run):
        engine, directory, segments = logged_run
        os.unlink(segments[-1])
        result = recover(directory)
        # A clean shorter prefix: the log simply ends earlier.
        assert 0 < result.records_recovered < COMMITS
        assert result.engine.committed == engine.committed[
            : result.records_recovered
        ]
        assert not result.truncated

    def test_deleted_middle_segment(self, logged_run):
        engine, directory, segments = logged_run
        os.unlink(segments[2])
        result = assert_prefix_recovery(directory, engine)
        assert any("missing segment" in d.reason for d in result.damage)
        assert result.segments_dropped >= len(segments) - 3

    def test_first_segment_missing_its_leading_commits(self, tmp_path):
        # A segment that declares #1 but holds only #2 and #3 must not
        # scan as a clean log starting at #2.
        def record(ts):
            return CommitRecord(
                tid=f"t{ts}", session="s", commit_ts=ts,
                events=(write_op("x", ts),),
                snapshot=ts - 1,
            )

        directory = tmp_path / "wal"
        directory.mkdir()
        meta = {"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
                "model": "SI"}
        write_segment(directory, meta, [
            commit_record_to_payload(record(ts)) for ts in (2, 3)
        ])
        result = recover(str(directory))
        assert result.records_recovered == 0
        assert result.truncated
        assert "got #2, expected #1" in result.damage[0].reason

    def test_all_segments_deleted(self, logged_run):
        from repro.core.errors import StoreError

        _, directory, segments = logged_run
        for path in segments:
            os.unlink(path)
        # Nothing to seed an engine from: a clean, typed error.
        with pytest.raises(StoreError, match="no readable segment meta"):
            recover(directory)

    def test_missing_directory(self, tmp_path):
        from repro.core.errors import StoreError

        with pytest.raises(StoreError, match="no such log directory"):
            recover(str(tmp_path / "never-existed"))


class TestDamageReporting:
    def test_scan_counters_account_for_drops(self, logged_run):
        _, directory, segments = logged_run
        with open(segments[1], "r+b") as f:
            f.truncate(os.path.getsize(segments[1]) - 5)
        result = scan(directory)
        records = list(result)
        assert result.records_scanned == len(records)
        assert result.segments_scanned == 2
        assert result.segments_dropped == len(segments) - 2
        assert result.truncated

    def test_rescan_is_idempotent(self, logged_run):
        _, directory, segments = logged_run
        with open(segments[-1], "r+b") as f:
            f.truncate(os.path.getsize(segments[-1]) - 5)
        result = scan(directory)
        first = list(result)
        second = list(result)
        assert first == second
        assert len(result.damage) == 1
