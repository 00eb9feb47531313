"""The engine-key table: ``build_engine`` and the offline audit's
default model agree on every key."""

import pytest

from repro.core.errors import StoreError
from repro.mvcc import (
    ENGINE_MODELS,
    PSIEngine,
    SerializableEngine,
    SIEngine,
    TwoPhaseLockingEngine,
    build_engine,
)
from repro.wal import default_model
from repro.wal.format import LogMeta

EXPECTED = {
    "SI": (SIEngine, "SI"),
    "SER": (SerializableEngine, "SER"),
    "PSI": (PSIEngine, "PSI"),
    "2PL": (TwoPhaseLockingEngine, "SER"),
}


def test_table_covers_every_engine():
    assert set(ENGINE_MODELS) == set(EXPECTED)


@pytest.mark.parametrize("key", list(ENGINE_MODELS))
def test_build_engine_matches_audit_default_model(key):
    engine_class, model = EXPECTED[key]
    engine, built_model = build_engine(key, {"x": 0}, init_tid="t0")
    assert type(engine) is engine_class
    assert built_model == model
    assert engine.init_tid == "t0"
    assert engine.initial == {"x": 0}
    if key == "PSI":
        assert engine.auto_deliver
    meta = LogMeta(engine=key, init={"x": 0}, init_tid="t0", model=None,
                   segment=1, first_ts=1)
    assert default_model(meta) == model


def test_unknown_key_rejected():
    with pytest.raises(StoreError, match="unknown engine"):
        build_engine("MVTO", {"x": 0})
