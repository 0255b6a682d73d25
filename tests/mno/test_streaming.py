"""Tests for the streaming (day-by-day) MNO simulator."""

import pytest

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig
from repro.mno.streaming import StreamingMNOSimulator


@pytest.fixture(scope="module")
def streaming(request):
    eco = request.getfixturevalue("eco")
    return StreamingMNOSimulator(eco, MNOConfig(n_devices=200, seed=13))


class TestStreaming:
    def test_batches_cover_the_window(self, streaming):
        batches = list(streaming.days())
        assert [b.day for b in batches] == list(range(streaming.config.window_days))

    def test_batch_events_belong_to_their_day(self, streaming):
        batch = streaming.generate_day(3)
        for event in batch.radio_events:
            assert event.day == 3
        for record in batch.service_records:
            assert record.day == 3

    def test_batch_sorted(self, streaming):
        batch = streaming.generate_day(5)
        ts = [e.timestamp for e in batch.radio_events]
        assert ts == sorted(ts)

    def test_only_scheduled_devices_emit(self, streaming):
        day = 7
        batch = streaming.generate_day(day)
        scheduled = streaming.active_devices_on(day)
        emitted = {e.device_id for e in batch.radio_events}
        emitted |= {r.device_id for r in batch.service_records}
        assert emitted <= scheduled

    def test_day_out_of_window_rejected(self, streaming):
        with pytest.raises(ValueError):
            streaming.generate_day(streaming.config.window_days)
        with pytest.raises(ValueError):
            streaming.generate_day(-1)

    def test_ground_truth_covers_population(self, streaming):
        truth = streaming.ground_truth()
        assert len(truth) == streaming.config.n_devices

    def test_total_volume_comparable_to_batch_simulator(self, request):
        """Streaming and batch modes draw from the same model, so the
        total record volume agrees statistically (same config, different
        RNG consumption order)."""
        from repro.mno import simulate_mno_dataset

        eco = request.getfixturevalue("eco")
        config = MNOConfig(n_devices=200, seed=13)
        streamed = sum(
            b.n_records for b in StreamingMNOSimulator(eco, config).days()
        )
        batch_ds = simulate_mno_dataset(eco, config)
        batch = len(batch_ds.radio_events) + len(batch_ds.service_records)
        assert streamed == pytest.approx(batch, rel=0.25)

    def test_day_independent_of_call_history_and_workers(self):
        eco = build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))
        config = MNOConfig(n_devices=60, seed=3)
        fresh = StreamingMNOSimulator(eco, config).generate_day(5)
        assert fresh.n_records > 0
        sim = StreamingMNOSimulator(eco, config)
        assert list(sim.days())[5] == fresh
        assert sim.generate_day(5) == fresh
        assert sim.generate_day(5) == fresh

    def test_streaming_is_self_deterministic(self, request):
        eco = request.getfixturevalue("eco")
        config = MNOConfig(n_devices=100, seed=17)
        a = StreamingMNOSimulator(eco, config).generate_day(2)
        b = StreamingMNOSimulator(eco, config).generate_day(2)
        assert a.n_records == b.n_records
        assert [e.timestamp for e in a.radio_events[:20]] == [
            e.timestamp for e in b.radio_events[:20]
        ]
