"""Batched mobility equals the per-pair path, bit for bit.

:func:`repro.core.mobility.batch_daily_mobility` derives many
device-days at once (the catalog kernel runs it per block of devices).
Its oracle is the per-pair composition the catalog used to run per
device-day: :func:`sector_dwell_weights_from_pairs`, then the sectors
the catalog knows, then :func:`weighted_centroid` and
:func:`gyration_about_km`.  Every field is compared with ``==``: the
centroid reaches the exports and the shard blocks even though the
catalog digest hashes only the gyration.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.geo import GeoPoint, gyration_about_km, weighted_centroid
from repro.cellular.rats import RAT
from repro.cellular.sectors import Sector, SectorCatalog
from repro.core.mobility import (
    MobilityMetrics,
    SectorTable,
    batch_daily_mobility,
    daily_mobility_from_pairs,
    sector_dwell_weights_from_pairs,
)
from repro.ecosystem import EcosystemConfig, build_default_ecosystem

_OPERATOR = build_default_ecosystem(EcosystemConfig(uk_sites=5, seed=1)).uk_mno

#: Sector id -> position: ids negative and past int32; (0, 0) and
#: (0, 180) are antipodal, so equal dwell on both puts the centroid
#: norm under 1e-12.
_POSITIONS = {
    -7: GeoPoint(0.0, 0.0),
    0: GeoPoint(0.0, 180.0),
    3: GeoPoint(51.5, -0.12),
    2**31 + 5: GeoPoint(-33.9, 151.2),
    2**40: GeoPoint(89.9, 10.0),
    2**62: GeoPoint(-90.0, -180.0),
}
_CATALOG = SectorCatalog(
    _OPERATOR,
    [
        Sector(sector_id, str(_OPERATOR.plmn), RAT.LTE, position)
        for sector_id, position in _POSITIONS.items()
    ],
)
#: Absent from the catalog: dropped after the dwell step.
_UNKNOWN = [-(2**63), -1, 11, 2**33, 2**63 - 1]

sector_ids = st.sampled_from(sorted(_POSITIONS) + _UNKNOWN)
#: Few values with gaps under the 60 s floor, over the 3600 s cap and
#: in between, so timestamps tie and (timestamp, sector) pairs repeat.
timestamps = st.sampled_from(
    [0.0, 0.0, 10.0, 59.5, 60.0, 120.0, 3000.0, 3600.0, 3660.0, 9000.0, 86399.5]
)
cells = st.lists(
    st.lists(st.tuples(timestamps, sector_ids), min_size=1, max_size=8),
    min_size=1,
    max_size=6,
)


def oracle(pairs):
    dwell = sector_dwell_weights_from_pairs(pairs)
    points, weights = [], []
    for sector_id, seconds in dwell.items():
        if sector_id in _POSITIONS:
            points.append(_POSITIONS[sector_id])
            weights.append(seconds)
    if not points:
        return None
    centroid = weighted_centroid(points, weights)
    return MobilityMetrics(
        centroid=centroid,
        gyration_km=gyration_about_km(points, weights, centroid),
        n_sectors=len(points),
    )


def assert_same(got, expected):
    if expected is None:
        assert got is None
        return
    assert got.gyration_km == expected.gyration_km
    assert got.n_sectors == expected.n_sectors
    assert got.centroid.lat == expected.centroid.lat
    assert got.centroid.lon == expected.centroid.lon


@given(cells=cells)
@settings(max_examples=300, deadline=None)
def test_batch_equals_the_per_pair_composition(cells):
    ordered = [sorted(cell) for cell in cells]
    lengths = [len(cell) for cell in ordered]
    starts = np.cumsum([0] + lengths[:-1])
    flat = [pair for cell in ordered for pair in cell]
    got = batch_daily_mobility(
        starts,
        np.array([timestamp for timestamp, _ in flat], dtype=np.float64),
        np.array([sector_id for _, sector_id in flat], dtype=np.int64),
        SectorTable.of(_CATALOG),
    )
    assert len(got) == len(cells)
    for metrics, cell in zip(got, cells):
        assert_same(metrics, oracle(cell))


@given(pairs=st.lists(st.tuples(timestamps, sector_ids), max_size=8))
@settings(max_examples=200, deadline=None)
def test_one_day_function_equals_the_per_pair_composition(pairs):
    assert_same(daily_mobility_from_pairs(pairs, _CATALOG), oracle(pairs))


def test_antipodal_weighting_falls_back_to_the_first_point():
    # Equal dwell on (0, 180) then (0, 0): the unit vectors cancel.
    pairs = [(0.0, 0), (60.0, -7)]
    assert sector_dwell_weights_from_pairs(pairs) == {0: 60.0, -7: 60.0}
    (metrics,) = batch_daily_mobility(
        np.zeros(1, dtype=np.intp),
        np.array([0.0, 60.0]),
        np.array([0, -7], dtype=np.int64),
        SectorTable.of(_CATALOG),
    )
    assert metrics.centroid == _POSITIONS[0]
    assert_same(metrics, oracle(pairs))


def test_a_day_without_a_known_sector_has_no_mobility():
    got = batch_daily_mobility(
        np.array([0, 2]),
        np.array([0.0, 10.0, 5.0]),
        np.array([11, -1, 3], dtype=np.int64),
        SectorTable.of(_CATALOG),
    )
    assert got[0] is None
    assert_same(got[1], oracle([(5.0, 3)]))
