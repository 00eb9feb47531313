"""A multi-version object store.

The operational substrate keeps, per object, the full list of committed
versions tagged with the commit timestamp and writer transaction.  Reads
at a snapshot timestamp return the latest version no newer than the
snapshot — exactly the "reads from a snapshot taken at start" behaviour of
the idealised SI algorithm sketched in the paper's introduction.

Initial versions sit at timestamp 0 and belong to a designated
initialisation writer (default tid ``t_init``), mirroring the paper's
special transaction writing initial values of all objects.  That
transaction is *implicit*: the store keeps one shared, read-only
mapping of the initial values and builds an object's version chain only
when the object is first written, so construction costs nothing per
object and the store's size follows the objects written, not the
keyspace.  A read that finds no chain returns the initial value.

Concurrency model.  Version chains are append-only: a committed version
is immutable and chains only ever grow at the tail (vacuum swaps in a
fresh chain object rather than mutating one in place).  Snapshot reads
(:meth:`MVStore.read_at`, :meth:`MVStore.value_at`,
:meth:`MVStore.latest`, :meth:`MVStore.modified_since`) therefore take
**no lock at all**: they grab the chain reference once and
binary-search an immutable prefix.  Mutations (:meth:`install`,
:meth:`vacuum`) take no lock either: **the caller serialises them**
(the engines call them under their commit mutex), and installs come in
strictly increasing timestamp order.  A commit inserts an object's
chain (holding the initial version) before it appends its version and
before the engine publishes its timestamp, so any snapshot that can
see the new version also finds its chain; a snapshot older than the
commit reads the initial value whether or not it finds the chain.
"""

from __future__ import annotations

from bisect import bisect_right
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from ..core.errors import SnapshotTooOld, StoreError
from ..core.events import Obj, Value
from ..faults import FAULTS

INIT_WRITER = "t_init"
"""Default tid of the initialisation writer."""


def shared_initial(initial: Mapping[Obj, Value]) -> Mapping[Obj, Value]:
    """The read-only initial-value mapping an engine, its store, its
    monitor and its log share.

    A :class:`types.MappingProxyType` is taken as already shared and
    returned as is; any other mapping is copied once behind one.  So a
    stack built from one engine (or one decoded log) holds a single
    copy of the initial state, however many layers read it.
    """
    if isinstance(initial, MappingProxyType):
        return initial
    return MappingProxyType(dict(initial))


class Version:
    """One committed version of an object.

    Immutable by contract, not enforced (a plain slotted class, built
    for every installed write); equality, hashing and ``repr`` are the
    dataclass ones.

    Attributes:
        value: the stored value.
        commit_ts: the writer's commit timestamp (0 for initial versions).
        writer: the tid of the writing transaction.
    """

    __slots__ = ("value", "commit_ts", "writer")

    value: Value
    commit_ts: int
    writer: str

    def __init__(self, value: Value, commit_ts: int, writer: str):
        self.value = value
        self.commit_ts = commit_ts
        self.writer = writer

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.value, self.commit_ts, self.writer) == (
                other.value, other.commit_ts, other.writer
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.commit_ts, self.writer))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(value={self.value!r}, "
            f"commit_ts={self.commit_ts!r}, writer={self.writer!r})"
        )


class _VersionChain:
    """One object's committed versions plus a parallel timestamp list.

    ``ts[i] == versions[i].commit_ts`` for every published index, kept
    as a plain int list so :func:`bisect.bisect_right` probes touch no
    Python attribute access.  Appends publish ``versions`` first and
    ``ts`` second, so ``len(ts)`` is always a safe upper bound for
    lock-free readers: every index below it has both entries final.
    """

    __slots__ = ("versions", "ts")

    def __init__(self, versions: List[Version]):
        self.versions = versions
        self.ts = [v.commit_ts for v in versions]

    def append(self, version: Version) -> None:
        self.versions.append(version)
        self.ts.append(version.commit_ts)


class MVStore:
    """A multi-version store keyed by object name.

    Versions per object are kept sorted by commit timestamp; timestamps
    are assigned by the engines (strictly increasing), so at most one
    version per object per timestamp exists.  Only written objects have
    a version chain; every other object of ``initial`` still has just
    its initial version.

    Args:
        initial: the initial object values — the object universe.  It
            is shared, not copied, when it is a read-only view (see
            :func:`shared_initial`).
        init_writer: tid of the initialisation writer.
    """

    def __init__(
        self,
        initial: Mapping[Obj, Value],
        init_writer: str = INIT_WRITER,
    ):
        if not initial:
            raise StoreError("store needs at least one initial object")
        self.initial: Mapping[Obj, Value] = shared_initial(initial)
        self.init_writer = init_writer
        # Chains of the objects written so far.  A commit inserts one
        # before it publishes its timestamp; lock-free readers look
        # chains up without synchronisation (one dict lookup is atomic).
        self._chains: Dict[Obj, _VersionChain] = {}

    # ------------------------------------------------------------------
    # Internal accessors
    # ------------------------------------------------------------------

    def _initial_value(self, obj: Obj) -> Value:
        try:
            return self.initial[obj]
        except KeyError:
            raise StoreError(f"unknown object {obj!r}") from None

    def _initial_version(self, obj: Obj) -> Version:
        return Version(self._initial_value(obj), 0, self.init_writer)

    def _chain(self, obj: Obj) -> _VersionChain:
        """The live chain of ``obj``, not a copy.

        Inserts the chain (holding the initial version) if ``obj`` has
        none yet, so repeated calls return the same chain; like any
        mutation, that insertion must be serialised by the caller.  The
        returned chain is append-only and safe to read without a lock
        (indices below ``len(chain.ts)`` are immutable); it must never
        be mutated by callers.
        """
        chain = self._chains.get(obj)
        if chain is None:
            chain = _VersionChain([self._initial_version(obj)])
            self._chains[obj] = chain
        return chain

    # ------------------------------------------------------------------
    # Reads (lock-free)
    # ------------------------------------------------------------------

    @property
    def objects(self) -> List[Obj]:
        """All objects the store knows about (sorted)."""
        return sorted(self.initial)

    @property
    def chain_count(self) -> int:
        """How many objects have a version chain (those written so far)."""
        return len(self._chains)

    def versions(self, obj: Obj) -> List[Version]:
        """All committed versions of ``obj``, oldest first (a copy —
        the public, mutation-safe contract)."""
        chain = self._chains.get(obj)
        if chain is None:
            return [self._initial_version(obj)]
        return chain.versions[: len(chain.ts)]

    def read_at(self, obj: Obj, snapshot_ts: int) -> Version:
        """The latest version of ``obj`` with ``commit_ts <= snapshot_ts``.

        This is the snapshot read of the idealised SI algorithm —
        O(log versions) via binary search, no lock taken.

        Raises:
            SnapshotTooOld: when garbage collection discarded every
                version old enough for the snapshot (newer versions
                exist, so the object is known but its history is gone).
            StoreError: for an object outside the store's universe.
        """
        if FAULTS.armed:
            FAULTS.fire("store.read", obj=obj, snapshot_ts=snapshot_ts)
        chain = self._chains.get(obj)
        if chain is None:
            return self._initial_version(obj)
        return _version_at(chain, obj, snapshot_ts)

    def value_at(self, obj: Obj, snapshot_ts: int) -> Tuple[Value, int]:
        """The value and ``commit_ts`` of :meth:`read_at`, building no
        :class:`Version` for a never-written object."""
        if FAULTS.armed:
            FAULTS.fire("store.read", obj=obj, snapshot_ts=snapshot_ts)
        chain = self._chains.get(obj)
        if chain is None:
            return self._initial_value(obj), 0
        version = _version_at(chain, obj, snapshot_ts)
        return version.value, version.commit_ts

    def latest(self, obj: Obj) -> Version:
        """The newest committed version of ``obj``."""
        chain = self._chains.get(obj)
        if chain is None:
            return self._initial_version(obj)
        return chain.versions[len(chain.ts) - 1]

    def latest_commit_ts(self, obj: Obj) -> int:
        """The commit timestamp of the newest version of ``obj``."""
        chain = self._chains.get(obj)
        if chain is None:
            self._initial_value(obj)  # unknown objects raise
            return 0
        return chain.ts[len(chain.ts) - 1]

    def modified_since(self, obj: Obj, ts: int) -> bool:
        """True iff some committed version of ``obj`` is newer than ``ts``.

        This is the first-committer-wins write-conflict test: a committing
        transaction with start timestamp ``ts`` must abort if any object it
        wrote was modified since.  O(1): only the chain tail is examined.
        """
        return self.latest_commit_ts(obj) > ts

    def snapshot_at(self, snapshot_ts: int) -> Dict[Obj, Value]:
        """The full object state visible at ``snapshot_ts`` (diagnostics;
        O(keyspace))."""
        state = dict(self.initial)
        for obj, chain in list(self._chains.items()):
            state[obj] = _version_at(chain, obj, snapshot_ts).value
        return state

    # ------------------------------------------------------------------
    # Mutations (serialised by the caller)
    # ------------------------------------------------------------------

    def install(
        self, writes: Mapping[Obj, Value], commit_ts: int, writer: str
    ) -> None:
        """Install a transaction's writes at ``commit_ts``, all or none.

        The caller serialises this against every other :meth:`install`
        and :meth:`vacuum` (the engines call it inside their commit
        critical section); lock-free readers may race it.
        """
        chains = self._chains
        for obj in writes:
            chain = chains.get(obj)
            if chain is None:
                self._initial_value(obj)  # unknown objects raise
            elif chain.ts[-1] >= commit_ts:
                raise StoreError(
                    f"commit timestamp {commit_ts} not newer than latest "
                    f"version of {obj!r}"
                )
        for obj, value in writes.items():
            if FAULTS.armed:
                # Inside the caller's critical section: a delay here
                # models a descheduled writer holding up every commit,
                # begin and vacuum of its engine.
                FAULTS.fire("store.install", obj=obj, writer=writer)
            self._chain(obj).append(Version(value, commit_ts, writer))

    def vacuum(self, horizon_ts: int) -> int:
        """Discard versions superseded at or before ``horizon_ts``.

        For each written object, the newest version with
        ``commit_ts <= horizon_ts`` is retained (it is still the visible
        version for snapshots at the horizon), along with everything
        newer; older versions are discarded.  Returns the number of
        versions dropped.  Objects never written have nothing to drop.

        The caller serialises this against :meth:`install` (the engines
        hold their commit mutex).  Lock-free readers may race it: the
        trimmed chain is built aside and swapped in with one reference
        assignment, so a reader holds either the complete old chain or
        the complete new one — a racing read of a dropped version
        yields at worst :class:`SnapshotTooOld`, never a wrong value.
        """
        dropped = 0
        chains = self._chains
        for obj, chain in list(chains.items()):
            cut = bisect_right(chain.ts, horizon_ts) - 1
            if cut > 0:
                chains[obj] = _VersionChain(chain.versions[cut:])
                dropped += cut
        return dropped


def _version_at(chain: _VersionChain, obj: Obj, snapshot_ts: int) -> Version:
    """The version of ``chain`` visible at ``snapshot_ts`` (one bisect
    over its published prefix)."""
    ts = chain.ts
    index = bisect_right(ts, snapshot_ts, 0, len(ts))
    if index == 0:
        raise SnapshotTooOld(
            f"no version of {obj!r} at or before timestamp "
            f"{snapshot_ts}: vacuumed (oldest retained is "
            f"{ts[0]})"
        )
    return chain.versions[index - 1]
