"""Load-generator tests: concurrent mixes with a windowed monitor
attached must certify cleanly when the model matches the engine."""

import pytest

from repro.core.errors import StoreError
from repro.monitor import ConsistencyMonitor
from repro.mvcc import PSIEngine, SerializableEngine, SIEngine
from repro.service import (
    MIXES,
    LoadGenerator,
    TransactionService,
    smallbank_mix,
    tpcc_mix,
)


class TestMixes:
    def test_mix_registry(self):
        assert set(MIXES) == {"smallbank", "tpcc"}
        for factory in MIXES.values():
            mix = factory()
            assert mix.initial

    @pytest.mark.parametrize("mix_factory", [smallbank_mix, tpcc_mix])
    def test_mix_runs_clean_under_si_with_windowed_monitor(
        self, mix_factory
    ):
        mix = mix_factory()
        monitor = ConsistencyMonitor("SI", dict(mix.initial), window=64)
        service = TransactionService(
            SIEngine(dict(mix.initial)),
            monitor,
            max_retries=500,
            backoff_base=0.0001,
        )
        gen = LoadGenerator(
            service, mix, workers=8, transactions_per_worker=10, seed=1
        )
        result = gen.run()
        assert result.committed + result.retry_exhausted > 0
        assert result.workers == 8
        # SI engine + SI monitor: every flag would be a false positive.
        assert result.violations == 0
        assert monitor.commit_count == service.metrics.commits
        assert monitor.retained_count <= 64

    def test_smallbank_under_serializable_engine(self):
        mix = smallbank_mix(customers=2)
        monitor = ConsistencyMonitor("SER", dict(mix.initial), window=64)
        service = TransactionService(
            SerializableEngine(dict(mix.initial)),
            monitor,
            max_retries=1000,
            backoff_base=0.0001,
        )
        result = LoadGenerator(
            service, mix, workers=4, transactions_per_worker=8, seed=3
        ).run()
        assert result.violations == 0  # SER engine satisfies SER
        assert result.committed > 0

    def test_smallbank_under_psi_auto_deliver(self):
        mix = smallbank_mix(customers=3)
        monitor = ConsistencyMonitor("PSI", dict(mix.initial), window=64)
        service = TransactionService(
            PSIEngine(dict(mix.initial), auto_deliver=True),
            monitor,
            max_retries=500,
            backoff_base=0.0001,
        )
        result = LoadGenerator(
            service, mix, workers=4, transactions_per_worker=8, seed=5
        ).run()
        assert result.violations == 0
        assert result.committed > 0

    def test_smallbank_conserves_logical_money(self):
        """End-state check: the mix's committed arithmetic is coherent
        (deposits/withdrawals/cheques all applied to consistent reads
        under SI on disjoint random customers most of the time; here we
        only check the run completes and every balance is an int)."""
        mix = smallbank_mix(customers=1)
        service = TransactionService(
            SIEngine(dict(mix.initial)),
            max_retries=2000,
            backoff_base=0.0001,
        )
        result = LoadGenerator(
            service, mix, workers=3, transactions_per_worker=10, seed=2
        ).run()
        assert result.committed > 0
        store = service.engine.store
        for obj in store.objects:
            value = store.latest(obj).value
            assert isinstance(value, int)

    def test_invalid_parameters_rejected(self):
        mix = smallbank_mix()
        service = TransactionService(SIEngine(dict(mix.initial)))
        with pytest.raises(StoreError):
            LoadGenerator(service, mix, workers=0)
        with pytest.raises(StoreError):
            LoadGenerator(service, mix, transactions_per_worker=0)
        with pytest.raises(StoreError):
            smallbank_mix(customers=0)

    def test_duration_cutoff_stops_early(self):
        mix = smallbank_mix()
        service = TransactionService(
            SIEngine(dict(mix.initial)), backoff_base=0.0001,
            max_retries=500,
        )
        gen = LoadGenerator(
            service,
            mix,
            workers=2,
            transactions_per_worker=10**6,
            duration=0.2,
            seed=4,
        )
        result = gen.run()
        assert result.committed < 10**6
        assert result.elapsed_seconds < 10.0

    def test_single_worker_run_is_reproducible(self):
        """One worker, same seed, fresh mix: identical final state."""

        def final_logical_state(run):
            mix = smallbank_mix(customers=2)
            service = TransactionService(SIEngine(dict(mix.initial)))
            result = LoadGenerator(
                service, mix, workers=1,
                transactions_per_worker=30, seed=9,
            ).run()
            assert result.committed == 30  # no contention, no aborts
            store = service.engine.store
            return {
                obj: store.latest(obj).value
                for obj in store.objects
            }

        assert final_logical_state(1) == final_logical_state(2)
