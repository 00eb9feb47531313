"""Per-transaction bookkeeping leaves nothing behind.

``begin`` registers a transaction in the engine (its session, plus a
snapshot pin, a read set, a replica snapshot or lock-table entries,
depending on the engine); commit and every kind of abort must drop all
of it, or a long-running service leaks one entry per transaction.
"""

import pytest

from repro.core.errors import StoreError, TransactionAborted
from repro.mvcc import ENGINE_MODELS, TwoPhaseLockingEngine, build_engine

TRACKED = {
    "SI": ("_active_start_ts",),
    "SER": ("_active_start_ts", "_read_sets"),
    "PSI": ("_snapshots",),
    "2PL": (),
}
"""Per-transaction tables each engine registers in ``begin``."""


def registered(engine, key):
    """Everything the engine still holds for running transactions."""
    held = {"_open_sessions": set(engine._open_sessions)}
    for name in TRACKED[key]:
        held[name] = dict(getattr(engine, name))
    if isinstance(engine, TwoPhaseLockingEngine):
        held["shared locks"] = dict(engine.locks._shared)
        held["exclusive locks"] = dict(engine.locks._exclusive)
    return held


def empty(held):
    return not any(held.values())


def step(action, *args):
    """Run one engine call; True iff it aborted the transaction."""
    try:
        action(*args)
    except TransactionAborted:
        return True
    return False


def test_tracked_tables_cover_every_engine():
    assert set(TRACKED) == set(ENGINE_MODELS)


@pytest.mark.parametrize("key", sorted(ENGINE_MODELS))
def test_begin_registers_and_every_ending_releases(key):
    engine, _ = build_engine(key, {"x": 0, "y": 0})

    # A commit.
    ctx = engine.begin("a")
    assert not empty(registered(engine, key))
    engine.read(ctx, "x")
    engine.write(ctx, "x", 1)
    engine.commit(ctx)
    assert empty(registered(engine, key))

    # A client abort after a read and a write.
    ctx = engine.begin("a")
    engine.read(ctx, "y")
    engine.write(ctx, "y", 5)
    engine.abort(ctx)
    assert empty(registered(engine, key))

    # Conflict aborts: two transactions read and write ``x``
    # concurrently; under every engine at least one of them aborts, at
    # its write (no-wait 2PL) or at its commit (the others).
    first, second = engine.begin("a"), engine.begin("b")
    aborted = set()
    for ctx in (first, second):
        if step(engine.read, ctx, "x"):
            aborted.add(ctx.tid)
    for ctx, value in ((first, 10), (second, 20)):
        if ctx.tid not in aborted and step(engine.write, ctx, "x", value):
            aborted.add(ctx.tid)
    for ctx in (first, second):
        if ctx.tid not in aborted and step(engine.commit, ctx):
            aborted.add(ctx.tid)
    assert aborted
    assert engine.stats.aborts == 1 + len(aborted)
    assert empty(registered(engine, key))

    # A second begin on an open session is refused and registers
    # nothing; the open transaction still commits.
    ctx = engine.begin("a")
    before = registered(engine, key)
    next_tid = engine._next_tid
    with pytest.raises(StoreError):
        engine.begin("a")
    assert registered(engine, key) == before
    assert engine._next_tid == next_tid
    engine.read(ctx, "y")
    engine.commit(ctx)
    assert empty(registered(engine, key))
    assert engine.stats.commits == 2 + (2 - len(aborted))
