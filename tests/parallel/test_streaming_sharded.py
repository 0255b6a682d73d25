"""Sharded streaming generation is worker-count invariant."""

import pytest

from repro.mno import MNOConfig
from repro.mno.streaming import StreamingMNOSimulator


@pytest.fixture(scope="module")
def sim(eco):
    return StreamingMNOSimulator(eco, MNOConfig(n_devices=120, seed=9))


def test_generate_day_sharded_is_worker_count_invariant(sim):
    batches = [sim.generate_day_sharded(2, n_workers=w) for w in (1, 2, 4)]
    first = batches[0]
    assert first.n_records > 0
    for other in batches[1:]:
        assert other.radio_events == first.radio_events
        assert other.service_records == first.service_records


def test_generate_day_sharded_is_reproducible_across_instances(eco, sim):
    fresh = StreamingMNOSimulator(eco, MNOConfig(n_devices=120, seed=9))
    assert fresh.generate_day_sharded(2, n_workers=2) == sim.generate_day_sharded(
        2, n_workers=1
    )


def test_generate_day_sharded_sorted_by_timestamp_then_device(sim):
    batch = sim.generate_day_sharded(1, n_workers=2)
    keys = [(e.timestamp, e.device_id) for e in batch.radio_events]
    assert keys == sorted(keys)
    keys = [(r.timestamp, r.device_id) for r in batch.service_records]
    assert keys == sorted(keys)


def test_generate_day_sharded_rejects_day_outside_window(sim):
    with pytest.raises(ValueError):
        sim.generate_day_sharded(sim.config.window_days)


def test_days_dispatches_to_sharded_path(sim):
    sharded_days = list(sim.days(n_workers=2))
    assert len(sharded_days) == sim.config.window_days
    assert sharded_days[3] == sim.generate_day_sharded(3, n_workers=1)


def test_sharded_covers_same_planned_devices_as_legacy(sim):
    """A sharded batch holds only devices the population plans for
    that day."""
    day = 2
    planned = sim.active_devices_on(day)
    batch = sim.generate_day_sharded(day, n_workers=2)
    observed = {e.device_id for e in batch.radio_events} | {
        r.device_id for r in batch.service_records
    }
    assert observed <= planned
