"""Streaming day generation: reproducible, sorted, inside its window.

Each day is generated in process from per-(device, day) RNG substreams;
these tests kept the ids they had when a day could be split across
pool workers.
"""

import pytest

from repro.mno import MNOConfig
from repro.mno.streaming import StreamingMNOSimulator


@pytest.fixture(scope="module")
def sim(eco):
    return StreamingMNOSimulator(eco, MNOConfig(n_devices=120, seed=9))


def test_generate_day_sharded_is_reproducible_across_instances(eco, sim):
    fresh = StreamingMNOSimulator(eco, MNOConfig(n_devices=120, seed=9))
    batch = fresh.generate_day(2)
    assert batch.n_records > 0
    assert batch == sim.generate_day(2)


def test_generate_day_sharded_sorted_by_timestamp_then_device(sim):
    batch = sim.generate_day(1)
    keys = [(e.timestamp, e.device_id) for e in batch.radio_events]
    assert keys == sorted(keys)
    keys = [(r.timestamp, r.device_id) for r in batch.service_records]
    assert keys == sorted(keys)


def test_generate_day_sharded_rejects_day_outside_window(sim):
    with pytest.raises(ValueError):
        sim.generate_day(sim.config.window_days)


def test_days_dispatches_to_sharded_path(sim):
    """``days()`` yields each day's ``generate_day`` batch."""
    days = list(sim.days())
    assert len(days) == sim.config.window_days
    assert days[3] == sim.generate_day(3)


def test_sharded_covers_same_planned_devices_as_legacy(sim):
    """A batch holds only devices the population plans for that day."""
    day = 2
    planned = sim.active_devices_on(day)
    batch = sim.generate_day(day)
    observed = {e.device_id for e in batch.radio_events} | {
        r.device_id for r in batch.service_records
    }
    assert observed <= planned
