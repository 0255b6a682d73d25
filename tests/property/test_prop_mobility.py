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
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cellular.geo import GeoPoint, gyration_about_km, weighted_centroid
from repro.cellular.rats import RAT
from repro.cellular.sectors import Sector, SectorCatalog
from repro.core.mobility import (
    MobilityMetrics,
    SectorTable,
    _squares,
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


def oracle(pairs, positions=_POSITIONS):
    dwell = sector_dwell_weights_from_pairs(pairs)
    points, weights = [], []
    for sector_id, seconds in dwell.items():
        if sector_id in positions:
            points.append(positions[sector_id])
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


def batch(cells, table):
    """``batch_daily_mobility`` over ``cells``, each sorted as the kernel
    hands its rows over."""
    ordered = [sorted(cell) for cell in cells]
    lengths = [len(cell) for cell in ordered]
    starts = np.cumsum([0] + lengths[:-1])
    flat = [pair for cell in ordered for pair in cell]
    return batch_daily_mobility(
        starts,
        np.array([timestamp for timestamp, _ in flat], dtype=np.float64),
        np.array([sector_id for _, sector_id in flat], dtype=np.int64),
        table,
    )


@given(cells=cells)
@settings(max_examples=300, deadline=None)
def test_batch_equals_the_per_pair_composition(cells):
    got = batch(cells, SectorTable.of(_CATALOG))
    assert len(got) == len(cells)
    for metrics, cell in zip(got, cells):
        assert_same(metrics, oracle(cell))


#: Drawn sector positions: near one another (a country's grid, where
#: the haversine's half-angle sines are small) or anywhere on the globe.
points = st.one_of(
    st.builds(GeoPoint, st.floats(49.0, 59.0), st.floats(-8.0, 2.0)),
    st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
)
#: Any timestamps, so the dwell weights take many values too.
drawn_timestamps = st.one_of(timestamps, st.floats(0.0, 86_399.0))


@st.composite
def positioned_cells(draw):
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12, unique=True))
    positions = {sector_id: draw(points) for sector_id in ids}
    # Some ids are left out of the table: unknown sectors.
    known = {
        sector_id: point
        for sector_id, point in positions.items()
        if draw(st.integers(0, 5))
    }
    pair = st.tuples(drawn_timestamps, st.sampled_from(ids))
    return known, draw(st.lists(st.lists(pair, min_size=1, max_size=10), min_size=1, max_size=8))


#: A day whose gyration differs in the last bit when the batch squares
#: the sines with numpy instead of ``** 2`` (a glibc x86-64 libm).
_SQUARING_WITNESS = (
    {
        2: GeoPoint(0.0, 0.0),
        -2: GeoPoint(52.54318427949861, -7.7868786203314),
        -3: GeoPoint(57.34846337087871, 2.0),
        4: GeoPoint(56.33806213872713, 0.0),
        -4: GeoPoint(54.08221482864168, -7.1),
        6: GeoPoint(53.567414963291164, -7.647063993619698),
    },
    [[
        (0.0, 2), (0.0, -2), (0.0, -3), (60.0, 6), (3600.0, 4), (9000.0, -4),
        (86399.5, -4), (12600.0, -2),
    ]],
)


@given(drawn=positioned_cells())
@example(drawn=_SQUARING_WITNESS)
@settings(max_examples=300, deadline=None)
def test_batch_equals_the_per_pair_composition_at_drawn_positions(drawn):
    positions, cells = drawn
    got = batch(cells, SectorTable(positions))
    assert len(got) == len(cells)
    for metrics, cell in zip(got, cells):
        assert_same(metrics, oracle(cell, positions))


#: ``x ** 2`` and ``x * x`` of this float differ in the last bit on a
#: libm whose ``pow`` rounds the square correctly.
_WITNESS = float.fromhex("0x1.600e93b8381b4p-2")


def test_the_sines_are_squared_with_libm_pow():
    """The haversine squares each sine with CPython's ``** 2``, libm
    ``pow(s, 2.0)``; the batch squares them the same way, not with
    numpy's ``s * s``."""
    if _WITNESS**2 == _WITNESS * _WITNESS:
        pytest.skip(
            "this libm's pow(x, 2.0) equals x * x on the witness, so the "
            "two squarings cannot be told apart here"
        )
    (square,) = _squares(np.array([_WITNESS]))
    assert square.hex() == "0x1.e428170f17ae3p-4" == (_WITNESS**2).hex()
    assert square != _WITNESS * _WITNESS


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
