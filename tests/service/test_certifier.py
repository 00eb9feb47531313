"""The certifier process: a certified service's monitor runs in a forked
child fed each commit's payload over a pipe, and its verdicts, errors
and state reach the parent through ``drain()``."""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.monitor import ConsistencyMonitor, MonitorError, watch_engine
from repro.mvcc import SIEngine
from repro.mvcc.runtime import ReadOp, WriteOp
from repro.service import LoadGenerator, TransactionService, smallbank_mix
from repro.service.certifier import BATCH, CertifierError
from repro.wal import WalPoisoned, WriteAheadLog, audit_log

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class StaleReadSIEngine(SIEngine):
    """An SI engine with a planted bug: a read ignores every commit and
    returns the object's initial version (a wrong version, reported as
    what it is: commit_ts 0)."""

    def read(self, ctx, obj):
        ctx.ensure_active()
        if obj in ctx.write_buffer:
            return self._record_read(ctx, obj, ctx.write_buffer[obj])
        return self._record_read(ctx, obj, self.initial[obj], 0)


class WrongValueSIEngine(SIEngine):
    """An SI engine with a planted bug: a read returns the right
    version's commit_ts but a value 1,000 off what it holds."""

    def read(self, ctx, obj):
        ctx.ensure_active()
        if obj in ctx.write_buffer:
            return self._record_read(ctx, obj, ctx.write_buffer[obj])
        value, source = self.store.value_at(obj, ctx.start_ts)
        return self._record_read(ctx, obj, value + 1000, source)


def read_then_write(value, obj="x"):
    def tx():
        yield ReadOp(obj)
        yield WriteOp(obj, value)

    return tx


def exited(pid):
    """Whether process ``pid`` has exited (gone, or a zombie whose
    parent has not reaped it yet)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False


class TestStaleValueIsFlagged:
    @pytest.mark.parametrize("with_wal", [False, True])
    def test_stale_read_engine_flagged_after_drain(self, tmp_path, with_wal):
        engine = StaleReadSIEngine({"x": 0})
        wal = None
        if with_wal:
            wal = WriteAheadLog(
                str(tmp_path / "wal"), fsync_policy="none",
                meta={"engine": "SI", "init": {"x": 0},
                      "init_tid": engine.init_tid, "model": "SI"},
            )
        service = TransactionService.certified(engine, window=16, wal=wal)
        session = service.session()
        outcomes = [session.run(read_then_write(v)) for v in (1, 2)]
        service.drain()
        # The second transaction read x=0 after the first overwrote it:
        # a lost update, which SI forbids.
        assert [v.tid for v in service.violations] == [
            outcomes[1].record.tid
        ]
        assert service.metrics.violations == 1
        assert not service.monitor.consistent
        service.close()
        if with_wal:
            audit = audit_log(wal.directory, model="SI")
            assert [v.tid for v in audit.violations] == [
                v.tid for v in service.violations
            ]

    def test_wrong_value_engine_caught_by_certifier_audit_and_watch(
        self, tmp_path
    ):
        engine = WrongValueSIEngine({"x": 0})
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="none",
            meta={"engine": "SI", "init": {"x": 0},
                  "init_tid": engine.init_tid, "model": "SI"},
        )
        service = TransactionService.certified(engine, window=16, wal=wal)
        session = service.session()
        session.run(read_then_write(1))  # reads x=1000 from t_init (#0)
        with pytest.raises(MonitorError, match="but its source t_init"):
            service.drain()
        service.close()
        audit = audit_log(wal.directory, model="SI")
        assert not audit.consistent
        assert "but its source t_init (#0) wrote 0" in audit.monitor_error
        with pytest.raises(MonitorError, match="but its source"):
            watch_engine(engine)

    def test_correct_engine_stays_clean(self):
        service = TransactionService.certified(SIEngine({"x": 0}), window=16)
        session = service.session()
        for v in (1, 2, 3):
            session.run(read_then_write(v))
        service.drain()
        assert service.violations == []
        service.close()


class TestDrain:
    def test_monitor_object_holds_the_certifier_state(self):
        mix = smallbank_mix(customers=4)
        monitor = ConsistencyMonitor("SI", mix.initial)
        service = TransactionService(SIEngine(mix.initial), monitor)
        result = LoadGenerator(
            service, mix, workers=2, transactions_per_worker=3 * BATCH,
            seed=3,
        ).run()  # drains
        assert monitor.commit_count == result.committed
        assert monitor.retained_count == result.committed
        assert service.monitor.state_size() == monitor.state_size()
        assert monitor._initial is mix.initial  # shared, never copied
        service.close()

    def test_lag_metrics(self):
        service = TransactionService.certified(SIEngine({"x": 0}))
        session = service.session()
        commits = BATCH + 5
        for v in range(1, commits + 1):
            session.run(read_then_write(v))
        gauges = service.metrics.snapshot()["gauges"]
        # The last partial batch is still in the parent: acknowledged,
        # not certified.
        assert gauges["certifier_lag"] >= 5
        assert gauges["certified_ts"] <= BATCH
        service.drain()
        gauges = service.metrics.snapshot()["gauges"]
        assert gauges["certifier_lag"] == 0
        assert gauges["certified_ts"] == commits
        service.close()

    def test_unencodable_value_breaks_the_feed(self):
        service = TransactionService.certified(SIEngine({"x": 0}))
        session = service.session()
        session.begin()
        session.write("x", object())
        session.commit()  # the commit stands
        session.run(read_then_write(1))
        for _ in range(2):  # sticky: every drain says so
            with pytest.raises(CertifierError) as info:
                service.drain()
            assert isinstance(info.value.root, TypeError)
        with pytest.raises(CertifierError):
            service.close()
        assert service.monitor._process.exitcode == 0

    def test_unencodable_value_poisons_the_log_too(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path / "wal"), fsync_policy="none",
            meta={"engine": "SI", "init": {"x": 0}, "init_tid": "t_init",
                  "model": "SI"},
        )
        service = TransactionService.certified(SIEngine({"x": 0}), wal=wal)
        session = service.session()
        session.begin()
        session.write("x", object())
        with pytest.raises(WalPoisoned):
            session.commit()
        with pytest.raises(WalPoisoned):
            service.drain()
        with pytest.raises(WalPoisoned):
            service.close()

    def test_monitor_errors_are_raised_once_each(self):
        monitor = ConsistencyMonitor("SI", {}, window=16)
        service = TransactionService(SIEngine({"x": 0}), monitor)
        session = service.session()
        session.begin()
        session.read("x")
        session.commit()
        with pytest.raises(MonitorError):
            service.drain()
        service.drain()
        service.close()


class TestConcurrentHandOff:
    def test_threads_hand_off_while_another_drains(self):
        # Committers share the hand-off buffer with a draining thread;
        # a lost or reordered payload would show as a certified count
        # short of the commits, or as a false verdict on an SI run.
        monitor = ConsistencyMonitor("SI", {"x": 0, "y": 0})
        service = TransactionService(
            SIEngine({"x": 0, "y": 0}), monitor, max_retries=1000,
            backoff_base=0.0,
        )
        stop = threading.Event()
        errors = []

        def commit(worker):
            session = service.session(f"w{worker}")
            try:
                for i in range(2 * BATCH):
                    obj = "xy"[i % 2]
                    session.run(read_then_write((worker, i), obj))
            except BaseException as exc:
                errors.append(exc)

        def drain():
            while not stop.is_set():
                service.drain()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=commit, args=(w,))
                       for w in range(4)]
            drainer = threading.Thread(target=drain)
            drainer.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            stop.set()
            drainer.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in workers + [drainer])
        assert errors == []
        service.drain()
        assert monitor.commit_count == service.metrics.commits == 8 * BATCH
        assert service.violations == []
        service.close()


class TestLifetime:
    def test_one_child_per_service(self):
        before = set(multiprocessing.active_children())
        service = TransactionService.certified(SIEngine({"x": 0}))
        session = service.session()
        for v in range(1, 3 * BATCH):
            session.run(read_then_write(v))
            if v % BATCH == 0:
                service.drain()
        started = set(multiprocessing.active_children()) - before
        assert [p.pid for p in started] == [service.monitor.pid]
        service.close()
        assert service.monitor._process.exitcode == 0
        service.close()  # idempotent

    def test_uncertified_service_starts_no_child(self):
        before = set(multiprocessing.active_children())
        service = TransactionService(SIEngine({"x": 0}))
        service.run(read_then_write(1))
        assert set(multiprocessing.active_children()) == before
        assert service.monitor is None

    def test_never_closed_service_has_its_child_reaped(self):
        service = TransactionService.certified(SIEngine({"x": 0}))
        service.run(read_then_write(1))
        process = service.monitor._process
        del service  # no reference cycle: freed, and reaped, at once
        # Exit code 0: the child left on end-of-file of its feed, it was
        # not terminated.
        assert process.exitcode == 0

    def test_sibling_certifiers_close_independently(self):
        # A later child must not hold an earlier one's feed open.
        first = TransactionService.certified(SIEngine({"x": 0}))
        second = TransactionService.certified(SIEngine({"x": 0}))
        started = time.perf_counter()
        first.close()
        assert first.monitor._process.exitcode == 0
        assert time.perf_counter() - started < 2.0
        second.close()

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
    def test_certifier_exits_when_its_server_is_killed(self, tmp_path):
        script = textwrap.dedent(
            f"""
            import sys, time
            from repro.mvcc import SIEngine
            from repro.mvcc.runtime import ReadOp, WriteOp
            from repro.service import TransactionService
            from repro.wal import WriteAheadLog

            engine = SIEngine({{"x": 0}})
            wal = WriteAheadLog(
                {str(tmp_path / "wal")!r}, fsync_policy="group",
                meta={{"engine": "SI", "init": {{"x": 0}},
                      "init_tid": engine.init_tid, "model": "SI"}},
            )
            service = TransactionService.certified(engine, window=16, wal=wal)
            print(service.monitor.pid, flush=True)
            session = service.session()
            deadline = time.time() + 30
            value = 0
            while time.time() < deadline:
                value += 1
                session.begin()
                session.read("x")
                session.write("x", value)
                session.commit()
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        server = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env,
        )
        try:
            certifier = int(server.stdout.readline())
            time.sleep(0.3)  # let it serve
            assert not exited(certifier)
        finally:
            server.kill()
            server.wait()
        deadline = time.monotonic() + 5
        while not exited(certifier) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert exited(certifier), f"certifier {certifier} outlived its server"
        server.stdout.close()
