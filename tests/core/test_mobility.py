"""Unit tests for mobility-metric computation from radio events."""

import pytest

from repro.cellular.rats import RAT
from repro.columnar import from_record_streams
from repro.core.mobility import (
    average_gyration,
    daily_mobility_from_pairs,
    MobilityMetrics,
    sector_dwell_weights_from_pairs,
)
from repro.cellular.geo import GeoPoint
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.signaling.events import RadioEvent, RadioInterface
from repro.signaling.procedures import MessageType, ResultCode


@pytest.fixture(scope="module")
def eco():
    return build_default_ecosystem(EcosystemConfig(uk_sites=10, seed=2))


def _event(sector_id, ts):
    return RadioEvent(
        device_id="d",
        timestamp=ts,
        sim_plmn="23410",
        tac=35000001,
        sector_id=sector_id,
        interface=RadioInterface.GB,
        event_type=MessageType.ATTACH,
        result=ResultCode.OK,
    )


def _pairs(events):
    """The events' (timestamp, sector_id) pairs, read from interned columns."""
    radio, _ = from_record_streams(events, [])
    return list(zip(radio.timestamps, radio.sector_ids))


def _dwell(events, **kwargs):
    return sector_dwell_weights_from_pairs(_pairs(events), **kwargs)


def _mobility(events, catalog):
    return daily_mobility_from_pairs(_pairs(events), catalog)


class TestDwellWeights:
    def test_empty(self):
        assert _dwell([]) == {}

    def test_gap_capping(self):
        events = [_event(1, 0.0), _event(2, 10 * 3600.0)]
        dwell = _dwell(events, max_gap_s=3600.0, min_dwell_s=60.0)
        assert dwell[1] == 3600.0  # capped, not 10 hours
        assert dwell[2] == 60.0    # trailing event gets the floor

    def test_min_dwell_floor(self):
        events = [_event(1, 0.0), _event(2, 1.0)]
        dwell = _dwell(events, min_dwell_s=60.0)
        assert dwell[1] == 60.0

    def test_accumulates_per_sector(self):
        events = [_event(1, 0.0), _event(1, 600.0), _event(2, 1200.0)]
        dwell = _dwell(events, min_dwell_s=60.0)
        assert dwell[1] == 1200.0

    def test_unsorted_input_handled(self):
        events = [_event(2, 1200.0), _event(1, 0.0), _event(1, 600.0)]
        assert _dwell(events)[1] == 1200.0


class TestDailyMobility:
    def test_single_sector_zero_gyration(self, eco):
        sector = next(iter(eco.uk_sectors))
        metrics = _mobility([_event(sector.sector_id, 0.0)], eco.uk_sectors)
        assert metrics is not None
        assert metrics.gyration_km == pytest.approx(0.0, abs=1e-9)
        assert metrics.n_sectors == 1

    def test_two_sectors_positive_gyration(self, eco):
        gsm = [s for s in eco.uk_sectors if s.rat is RAT.GSM]
        events = [_event(gsm[0].sector_id, 0.0), _event(gsm[-1].sector_id, 600.0)]
        metrics = _mobility(events, eco.uk_sectors)
        assert metrics.gyration_km > 0.0
        assert metrics.n_sectors == 2

    def test_no_events_returns_none(self, eco):
        assert _mobility([], eco.uk_sectors) is None

    def test_unknown_sectors_skipped(self, eco):
        sector = next(iter(eco.uk_sectors))
        events = [_event(sector.sector_id, 0.0), _event(10**6, 600.0)]
        metrics = _mobility(events, eco.uk_sectors)
        assert metrics.n_sectors == 1

    def test_all_unknown_returns_none(self, eco):
        assert _mobility([_event(10**6, 0.0)], eco.uk_sectors) is None


class TestAverageGyration:
    def test_empty(self):
        assert average_gyration([]) is None

    def test_mean(self):
        point = GeoPoint(0.0, 0.0)
        metrics = [
            MobilityMetrics(point, 1.0, 1),
            MobilityMetrics(point, 3.0, 1),
        ]
        assert average_gyration(metrics) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MobilityMetrics(GeoPoint(0, 0), -1.0, 1)
        with pytest.raises(ValueError):
            MobilityMetrics(GeoPoint(0, 0), 0.0, 0)
