"""Unit tests for the multi-version store."""

from types import MappingProxyType

import pytest

from repro.core.errors import SnapshotTooOld, StoreError
from repro.mvcc import PSIEngine, SIEngine, TwoPhaseLockingEngine
from repro.mvcc.store import MVStore, Version, shared_initial


@pytest.fixture
def store():
    return MVStore({"x": 0, "y": 10})


class TestInitialisation:
    def test_initial_versions_at_ts_zero(self, store):
        v = store.latest("x")
        assert v == Version(0, 0, "t_init")

    def test_empty_initial_rejected(self):
        with pytest.raises(StoreError):
            MVStore({})

    def test_objects_sorted(self, store):
        assert store.objects == ["x", "y"]

    def test_custom_init_writer(self):
        s = MVStore({"x": 1}, init_writer="genesis")
        assert s.latest("x").writer == "genesis"


class TestReads:
    def test_read_at_snapshot(self, store):
        store.install({"x": 5}, commit_ts=1, writer="t1")
        store.install({"x": 7}, commit_ts=2, writer="t2")
        assert store.read_at("x", 0).value == 0
        assert store.read_at("x", 1).value == 5
        assert store.read_at("x", 2).value == 7
        assert store.read_at("x", 99).value == 7

    def test_unknown_object_rejected(self, store):
        with pytest.raises(StoreError):
            store.read_at("z", 0)

    def test_snapshot_at(self, store):
        store.install({"x": 5}, commit_ts=1, writer="t1")
        assert store.snapshot_at(0) == {"x": 0, "y": 10}
        assert store.snapshot_at(1) == {"x": 5, "y": 10}


class TestInstall:
    def test_versions_accumulate(self, store):
        store.install({"x": 5}, commit_ts=1, writer="t1")
        assert [v.value for v in store.versions("x")] == [0, 5]

    def test_atomic_multi_object_install(self, store):
        store.install({"x": 1, "y": 2}, commit_ts=1, writer="t1")
        assert store.latest("x").commit_ts == 1
        assert store.latest("y").commit_ts == 1

    def test_nonmonotonic_ts_rejected(self, store):
        store.install({"x": 5}, commit_ts=2, writer="t1")
        with pytest.raises(StoreError):
            store.install({"x": 6}, commit_ts=2, writer="t2")
        with pytest.raises(StoreError):
            store.install({"x": 6}, commit_ts=1, writer="t2")

    def test_unknown_object_install_rejected(self, store):
        with pytest.raises(StoreError):
            store.install({"z": 1}, commit_ts=1, writer="t1")

    def test_failed_install_changes_nothing(self, store):
        with pytest.raises(StoreError):
            store.install({"x": 1, "z": 1}, commit_ts=1, writer="t1")
        assert store.latest("x").value == 0


class TestConflictDetection:
    def test_modified_since(self, store):
        assert not store.modified_since("x", 0)
        store.install({"x": 5}, commit_ts=3, writer="t1")
        assert store.modified_since("x", 0)
        assert store.modified_since("x", 2)
        assert not store.modified_since("x", 3)

    def test_latest_commit_ts(self, store):
        assert store.latest_commit_ts("x") == 0
        store.install({"x": 5}, commit_ts=4, writer="t1")
        assert store.latest_commit_ts("x") == 4


class TestBisectReads:
    """The O(log n) read path over long chains."""

    def test_read_at_every_boundary_on_long_chain(self):
        store = MVStore({"x": 0})
        # Sparse timestamps: 2, 4, 6, ... so queries fall between them.
        for i in range(1, 200):
            store.install({"x": i}, commit_ts=2 * i, writer=f"t{i}")
        for i in range(200):
            # At and just after a commit, the committed value is seen.
            assert store.read_at("x", 2 * i).value == i
            assert store.read_at("x", 2 * i + 1).value == i
        assert store.read_at("x", 10**9).value == 199

    def test_chain_accessor_is_not_a_copy(self):
        store = MVStore({"x": 0})
        assert store._chain("x") is store._chain("x")

    def test_versions_returns_a_fresh_copy(self, store):
        first = store.versions("x")
        first.append(Version(99, 99, "mutant"))
        assert [v.value for v in store.versions("x")] == [0]

    def test_chain_timestamps_stay_parallel(self):
        store = MVStore({"x": 0})
        for i in range(1, 50):
            store.install({"x": i}, commit_ts=i, writer=f"t{i}")
        chain = store._chain("x")
        assert chain.ts == [v.commit_ts for v in chain.versions]


class TestLazyChains:
    """The initialisation transaction is implicit: only written objects
    get a version chain, and construction does no per-object work."""

    KEYSPACE = 100_000

    def test_large_store_and_engines_start_with_no_chain(self):
        initial = {f"o{i}": i for i in range(self.KEYSPACE)}
        assert MVStore(initial).chain_count == 0
        for engine in (SIEngine(initial), TwoPhaseLockingEngine(initial)):
            assert engine.store.chain_count == 0
            assert engine.store.initial is engine.initial

    def test_reads_of_unwritten_objects_build_no_chain(self, store):
        assert store.read_at("x", 5) == Version(0, 0, "t_init")
        assert store.value_at("y", 0) == (10, 0)
        assert store.latest("y") == Version(10, 0, "t_init")
        assert store.latest_commit_ts("x") == 0
        assert not store.modified_since("x", 0)
        assert store.versions("x") == [Version(0, 0, "t_init")]
        assert store.chain_count == 0

    def test_first_install_builds_chain_holding_initial_version(self, store):
        store.install({"x": 5}, commit_ts=3, writer="t1")
        assert store.chain_count == 1
        assert store.versions("x") == [
            Version(0, 0, "t_init"), Version(5, 3, "t1"),
        ]
        assert store.read_at("x", 2).value == 0
        assert store.value_at("x", 3) == (5, 3)

    @pytest.mark.parametrize("written", [False, True])
    def test_unknown_objects_rejected(self, store, written):
        if written:
            store.install({"x": 1}, commit_ts=1, writer="t1")
        for read in (store.read_at, store.value_at):
            with pytest.raises(StoreError):
                read("z", 0)
        for call in (store.versions, store.latest, store.latest_commit_ts):
            with pytest.raises(StoreError):
                call("z")
        with pytest.raises(StoreError):
            store.install({"x": 2, "z": 1}, commit_ts=2, writer="t2")
        assert store.chain_count == int(written)
        engine = SIEngine({"x": 0})
        ctx = engine.begin("s")
        with pytest.raises(StoreError):
            engine.write(ctx, "z", 1)

    def test_objects_lists_written_and_unwritten(self, store):
        store.install({"y": 11}, commit_ts=1, writer="t1")
        assert store.objects == ["x", "y"]

    def test_snapshot_at_mixes_chains_and_initial_values(self):
        store = MVStore({"x": 0, "y": 10, "z": 20})
        store.install({"x": 1}, commit_ts=1, writer="t1")
        store.install({"y": 11}, commit_ts=2, writer="t2")
        assert store.snapshot_at(0) == {"x": 0, "y": 10, "z": 20}
        assert store.snapshot_at(1) == {"x": 1, "y": 10, "z": 20}
        assert store.snapshot_at(2) == {"x": 1, "y": 11, "z": 20}

    def test_vacuum_skips_unwritten_objects(self):
        store = MVStore({"x": 0, "y": 10})
        store.install({"x": 1}, commit_ts=1, writer="t1")
        store.install({"x": 2}, commit_ts=2, writer="t2")
        assert store.vacuum(horizon_ts=2) == 2
        assert store.chain_count == 1
        assert store.versions("x") == [Version(2, 2, "t2")]
        with pytest.raises(SnapshotTooOld):
            store.read_at("x", 1)
        # An unwritten object keeps its initial version at every horizon.
        assert store.read_at("y", 0).value == 10
        assert store.value_at("y", 2) == (10, 0)

    def test_chain_accessor_builds_one_chain(self, store):
        chain = store._chain("x")
        assert store.chain_count == 1
        store.install({"x": 1}, commit_ts=1, writer="t1")
        assert store._chain("x") is chain
        assert chain.ts == [0, 1]


class TestSharedInitial:
    def test_read_only_view_is_shared_not_copied(self):
        view = shared_initial({"x": 0})
        assert isinstance(view, MappingProxyType)
        assert shared_initial(view) is view
        with pytest.raises(TypeError):
            view["x"] = 1

    def test_engine_copies_a_plain_dict_once(self):
        initial = {"x": 0}
        engine = SIEngine(initial)
        initial["x"] = 99
        assert engine.initial == {"x": 0}
        assert engine.store.value_at("x", 0) == (0, 0)

    def test_psi_replicas_share_the_engine_initial(self):
        engine = PSIEngine({"x": 0, "y": 0})
        for session in ("a", "b"):
            assert engine.replica_of(session).store.initial is engine.initial
