"""Unit tests for traffic models."""

import numpy as np
import pytest

from repro.devices.traffic_models import (
    DiurnalShape,
    TrafficModel,
    diurnal_weight,
    diurnal_weights,
    sample_event_hours,
)


class TestDiurnal:
    def test_flat_is_constant(self):
        assert diurnal_weight(DiurnalShape.FLAT, 3.0) == 1.0
        assert diurnal_weight(DiurnalShape.FLAT, 21.0) == 1.0

    def test_human_peaks_in_daytime(self):
        afternoon = diurnal_weight(DiurnalShape.HUMAN, 15.0)
        night = diurnal_weight(DiurnalShape.HUMAN, 4.0)
        assert afternoon > night

    def test_nightly_batch_peaks_at_two_am(self):
        peak = diurnal_weight(DiurnalShape.NIGHTLY_BATCH, 2.0)
        noon = diurnal_weight(DiurnalShape.NIGHTLY_BATCH, 12.0)
        assert peak > 5 * noon

    def test_hour_bounds(self):
        with pytest.raises(ValueError):
            diurnal_weight(DiurnalShape.FLAT, 24.0)

    def test_vectorized_matches_scalar(self):
        hours = np.array([0.5, 6.0, 13.0, 23.5])
        for shape in DiurnalShape:
            vec = diurnal_weights(shape, hours)
            scalar = [diurnal_weight(shape, float(h)) for h in hours]
            assert np.allclose(vec, scalar)


class TestSampleEventHours:
    def test_count_and_range(self, rng):
        hours = sample_event_hours(500, DiurnalShape.HUMAN, rng)
        assert len(hours) == 500
        assert (hours >= 0).all() and (hours < 24).all()

    def test_zero_count(self, rng):
        assert len(sample_event_hours(0, DiurnalShape.FLAT, rng)) == 0

    def test_nightly_batch_concentrates_events(self, rng):
        hours = sample_event_hours(2000, DiurnalShape.NIGHTLY_BATCH, rng)
        near_window = ((hours >= 0) & (hours <= 4)).mean()
        assert near_window > 0.5


class TestTrafficModel:
    def _model(self, **kwargs):
        defaults = dict(
            signaling_per_day=10.0, calls_per_day=2.0, data_sessions_per_day=3.0
        )
        defaults.update(kwargs)
        return TrafficModel(**defaults)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            self._model(signaling_per_day=-1.0)

    def test_materialize_draws_intensity(self, rng):
        base = self._model(intensity_sigma=0.6)
        materialized = [base.materialize(rng).intensity for _ in range(200)]
        assert min(materialized) > 0
        assert np.std(np.log(materialized)) == pytest.approx(0.6, rel=0.25)

    def test_zero_sigma_gives_unit_intensity(self, rng):
        model = self._model(intensity_sigma=0.0).materialize(rng)
        assert model.intensity == pytest.approx(1.0)

    def test_intensity_scales_counts(self, rng):
        quiet = self._model(signaling_per_day=100.0, intensity=0.1)
        loud = self._model(signaling_per_day=100.0, intensity=10.0)
        quiet_counts = np.mean([quiet.draw_signaling_count(rng) for _ in range(100)])
        loud_counts = np.mean([loud.draw_signaling_count(rng) for _ in range(100)])
        assert loud_counts > 20 * quiet_counts

    def test_session_bytes_positive(self, rng):
        model = self._model(data_mb_mu=-6.0)
        assert all(model.draw_session_bytes(rng) >= 1 for _ in range(50))

    def test_rejects_nonpositive_intensity(self):
        with pytest.raises(ValueError):
            self._model(intensity=0.0)
