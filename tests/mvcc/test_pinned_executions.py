"""Pinned abstract executions: seeded engine runs must reproduce the
exact VIS and CO relations recorded in ``pinned_executions.json``.

The fixture pins what ``BaseEngine.abstract_execution()`` returns for
seeded runs on all four engines, so any change to how the engines
record snapshots (or how VIS is materialised from them) must leave
every theorem test and the parity suite looking at identical abstract
executions.  PSI is covered with eager delivery, with lazy random
delivery through the :class:`~repro.mvcc.runtime.Scheduler`, and with
two sessions sharing one replica.

Regenerate (only when a change is *meant* to alter executions)::

    PYTHONPATH=src python tests/mvcc/test_pinned_executions.py
"""

import functools
import json
import os

import pytest

from repro.mvcc import (
    PSIEngine,
    Scheduler,
    SerializableEngine,
    SIEngine,
    TwoPhaseLockingEngine,
)
from repro.mvcc.workloads import random_workload

FIXTURE = os.path.join(os.path.dirname(__file__), "pinned_executions.json")
SEEDS = (3, 17, 42, 101, 2024)

ENGINES = {
    "SI": SIEngine,
    "SER": SerializableEngine,
    "2PL": TwoPhaseLockingEngine,
    "PSI-eager": lambda initial: PSIEngine(initial, auto_deliver=True),
    "PSI-lazy": PSIEngine,
    "PSI-shared": lambda initial: PSIEngine(
        initial, session_replicas={"a": "dc", "b": "dc"}
    ),
}


def run_case(config: str, seed: int):
    """One seeded run; returns the engine after the run has finished."""
    wl = random_workload(
        seed, sessions=3, transactions_per_session=4, objects=4
    )
    sessions = dict(zip("abc", wl.sessions.values()))
    engine = ENGINES[config](wl.initial)
    Scheduler(engine, sessions).run_random(seed, deliver_probability=0.3)
    return engine


def relations_of(engine):
    """The sorted VIS and CO tid pairs of the engine's execution."""
    x = engine.abstract_execution()
    return {
        "vis": sorted([a.tid, b.tid] for a, b in x.vis.pairs),
        "co": sorted([a.tid, b.tid] for a, b in x.co.pairs),
    }


def all_cases():
    return {
        f"{config}/{seed}": relations_of(run_case(config, seed))
        for config in ENGINES
        for seed in SEEDS
    }


@functools.lru_cache(maxsize=None)
def _fixture():
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.mark.parametrize("config", sorted(ENGINES))
@pytest.mark.parametrize("seed", SEEDS)
def test_execution_matches_fixture(config, seed):
    expected = _fixture()[f"{config}/{seed}"]
    assert relations_of(run_case(config, seed)) == expected


def test_fixture_covers_every_case():
    assert set(_fixture()) == {
        f"{config}/{seed}" for config in ENGINES for seed in SEEDS
    }


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        json.dump(all_cases(), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
