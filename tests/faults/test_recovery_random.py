"""Property-style seeded crash/recovery coverage (satellite of the
chaos tentpole): whatever a randomly generated fault plan does to the
stack, the log that survives replays as a contiguous prefix into a
fresh engine and passes the offline audit — on all four engines.

The plans are generated from a seeded RNG over the full failpoint
catalog and fault-kind space, so each seed is a different storm, and a
failure reproduces from the seed alone.  The "crash" is deliberate
slovenliness: the service is *abandoned* (never drained or closed), so
recovery sees whatever the log happened to have written — the same
contract the SIGKILL CI job checks on the real binary.
"""

import random

import pytest

from repro.core.errors import ReproError
from repro.faults import FAILPOINTS, FaultPlan, FaultRule, armed
from repro.mvcc import build_engine
from repro.service import MIXES, LoadGenerator, TransactionService
from repro.service.health import HealthPolicy
from repro.wal import WriteAheadLog, audit_log, recover

# An io_error is only meaningful (and safe) where a layer defines its
# failure semantics: the WAL poisons itself, the service translates
# aborts.  Delays are valid everywhere.
KINDS_BY_POINT = {
    "wal.write": ("delay", "io_error"),
    "wal.fsync": ("delay", "io_error"),
    "store.install": ("delay",),
    "store.read": ("delay",),
    "monitor.observe": ("delay",),
    "service.admit": ("delay",),
    "service.commit": ("delay", "abort"),
}


def random_plan(seed: int) -> FaultPlan:
    """A reproducible random storm drawn from the failpoint catalog."""
    rng = random.Random(f"storm:{seed}")
    rules = []
    for _ in range(rng.randint(2, 5)):
        point = rng.choice(FAILPOINTS)
        kind = rng.choice(KINDS_BY_POINT[point])
        rules.append(
            FaultRule(
                point,
                kind,
                probability=rng.uniform(0.1, 0.9),
                delay=(
                    rng.uniform(0.0005, 0.004) if kind == "delay" else 0.0
                ),
                start=rng.choice((0, 0, rng.randint(1, 20))),
                limit=(
                    1 if kind == "io_error" else rng.choice((None, 5, 20))
                ),
            )
        )
    return FaultPlan(rules, seed=seed, name=f"random-{seed}")


def storm_then_crash(tmp_path, engine_key: str, seed: int):
    """Run a storm against a full stack, then abandon it mid-life."""
    mix = MIXES["smallbank"]()
    engine, model = build_engine(engine_key, dict(mix.initial))
    wal = WriteAheadLog(
        str(tmp_path / "wal"),
        fsync_policy="group",
        meta={
            "engine": engine_key,
            "init": dict(mix.initial),
            "init_tid": engine.init_tid,
            "model": model,
        },
    )
    service = TransactionService.certified(
        engine,
        model=model,
        window=32,
        wal=wal,
        health_policy=HealthPolicy(enforce=True),
        on_wal_failure="read_only",
        backoff_base=0.0005,
    )
    with armed(random_plan(seed)):
        LoadGenerator(
            service,
            mix,
            workers=3,
            transactions_per_worker=8,
            seed=seed,
        ).run()
    # Crash: no drain, no close.  Give a leader still writing one beat
    # to finish its batch, then freeze the file by dropping the log.
    try:
        wal.flush(timeout=2.0)
    except ReproError:
        pass  # poisoned or gapped: recovery gets whatever made it out


@pytest.mark.parametrize("engine_key", ("SI", "SER", "PSI", "2PL"))
@pytest.mark.parametrize("seed", (11, 42, 1337))
def test_random_storm_recovers_contiguously(tmp_path, engine_key, seed):
    storm_then_crash(tmp_path, engine_key, seed)
    wal_dir = str(tmp_path / "wal")
    result = recover(wal_dir)
    # Contiguous prefix: sequence numbers 1..N with no holes.
    if result.records_recovered:
        assert result.first_ts == 1
        assert (
            result.last_ts - result.first_ts + 1
            == result.records_recovered
        )
    # And the prefix certifies against the model the producer recorded.
    audit = audit_log(wal_dir)
    assert audit.consistent, audit.describe()
    assert audit.commits_observed == result.records_recovered
