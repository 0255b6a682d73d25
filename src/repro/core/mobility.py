"""Device mobility metrics from radio events (§4.1, Fig. 8).

"From radio logs, we compute the time spent on each individual sector to
which a device connected.  Then, we use it to compute a weighted centroid
and gyration, using sector coordinates provided by the MNO sectors
catalog.  We compute daily metrics, and present averages across days."

Dwell time per sector is estimated from the event stream: each event's
dwell is the gap to the device's next event that day, capped at
``max_gap_s`` (a device silent for hours has detached, not dwelt), with
a floor of ``min_dwell_s`` so isolated events still count.

:func:`batch_daily_mobility` computes many device-days at once over
sorted numpy columns: the devices-catalog kernel runs it per block of
devices, and :func:`daily_mobility_from_pairs` is its one-day case.  It
gives the bits of the per-pair composition
:func:`sector_dwell_weights_from_pairs` ->
:func:`~repro.cellular.geo.weighted_centroid` ->
:func:`~repro.cellular.geo.gyration_about_km`, with every day's centroid
and every (day, sector) distance computed at once:

- numpy does the grouping and the ``+ - * /``, ``sqrt``, ``min`` and
  ``max`` of the scalar code, in its operation order, whose IEEE
  results do not depend on who computes them;
- every float sum runs left to right (``np.bincount``);
- every libm call of the scalar code stays that call, mapped over a
  list (``map(math.sin, xs)``): ``sin``, ``cos``, ``asin``, ``atan2``,
  ``degrees`` and ``radians``, whose numpy twins round differently, and
  the haversine's ``s ** 2``, which CPython computes as libm
  ``pow(s, 2.0)`` and which is not always ``s * s`` (:func:`_squares`).

Python then builds only the :class:`MobilityMetrics` and
:class:`~repro.cellular.geo.GeoPoint` objects, with their checks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cellular.geo import EARTH_RADIUS_KM, GeoPoint, sequential_sum
from repro.cellular.sectors import SectorCatalog


@dataclass(frozen=True)
class MobilityMetrics:
    """One device-day's mobility summary."""

    centroid: GeoPoint
    gyration_km: float
    n_sectors: int

    def __post_init__(self) -> None:
        if self.gyration_km < 0:
            raise ValueError("gyration must be non-negative")
        if self.n_sectors < 1:
            raise ValueError("mobility needs at least one sector")


def sector_dwell_weights_from_pairs(
    pairs: Iterable[Tuple[float, int]],
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Dict[int, float]:
    """Estimate per-sector dwell seconds from one device-day's
    ``(timestamp, sector_id)`` pairs.  The pairs are sorted whole, so
    events with equal timestamps order by sector and any input order of
    the same pairs gives the same weights."""
    ordered = sorted(pairs)
    if not ordered:
        return {}
    dwell: Dict[int, float] = defaultdict(float)
    for (timestamp, sector_id), (next_timestamp, _) in zip(ordered, ordered[1:]):
        gap = max(min_dwell_s, min(max_gap_s, next_timestamp - timestamp))
        dwell[sector_id] += gap
    dwell[ordered[-1][1]] += min_dwell_s
    return dict(dwell)


def _libm(function: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """``function`` (a :mod:`math` call) mapped over float columns."""
    return np.fromiter(
        map(function, *(column.tolist() for column in columns)),
        dtype=np.float64,
        count=len(columns[0]),
    )


class SectorTable:
    """Sector positions laid out for :func:`batch_daily_mobility`.

    Ids are sorted for ``np.searchsorted``.  Per sector it keeps the
    coordinates in degrees, their radians and the radians' sines and
    cosines, each computed once with :mod:`math`: the factors
    :func:`~repro.cellular.geo.weighted_centroid` and
    :func:`~repro.cellular.geo.haversine_km` compute per point.
    """

    __slots__ = (
        "ids", "lat_deg", "lon_deg", "lat", "lon", "cos_lat", "sin_lat", "cos_lon", "sin_lon",
    )

    def __init__(self, positions: Mapping[int, GeoPoint]) -> None:
        ids = sorted(positions)
        self.ids = np.array(ids, dtype=np.int64)
        self.lat_deg = np.array([positions[i].lat for i in ids], dtype=np.float64)
        self.lon_deg = np.array([positions[i].lon for i in ids], dtype=np.float64)
        self.lat = _libm(math.radians, self.lat_deg)
        self.lon = _libm(math.radians, self.lon_deg)
        self.cos_lat = _libm(math.cos, self.lat)
        self.sin_lat = _libm(math.sin, self.lat)
        self.cos_lon = _libm(math.cos, self.lon)
        self.sin_lon = _libm(math.sin, self.lon)

    @classmethod
    def of(cls, catalog: SectorCatalog) -> "SectorTable":
        """Every sector of ``catalog``."""
        return cls({sector.sector_id: sector.position for sector in catalog})

    def index(self, sector_ids: np.ndarray) -> np.ndarray:
        """Table row of each of ``sector_ids``, -1 for an id it lacks."""
        if not len(self.ids):
            return np.full(len(sector_ids), -1, dtype=np.intp)
        rows = np.minimum(np.searchsorted(self.ids, sector_ids), len(self.ids) - 1)
        found: np.ndarray = np.where(self.ids[rows] == sector_ids, rows, -1)
        return found


def _squares(values: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as CPython computes a float power: libm
    ``pow(v, 2.0)``, which is not always ``v * v`` (numpy's square)."""
    return np.fromiter(
        map(pow, values.tolist(), repeat(2)), dtype=np.float64, count=len(values)
    )


def batch_daily_mobility(
    starts: np.ndarray,
    timestamps: np.ndarray,
    sector_ids: np.ndarray,
    table: SectorTable,
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> List[Optional[MobilityMetrics]]:
    """Mobility metrics of many device-days at once.

    Day ``k``'s rows start at ``starts[k]`` and run to the next start;
    within a day they are sorted by ``(timestamp, sector_id)``.  Each
    entry is that day's :func:`daily_mobility_from_pairs`, bit for bit:
    dwell per sector adds its gaps in row order, sectors keep the order
    they first appear in, unknown ones drop out after the dwell step,
    and sums over sectors run in that order.  Every day's centroid and
    every (day, sector) distance are computed at once, in the scalar
    functions' operation order.
    """
    n_rows = len(timestamps)
    n_days = len(starts)
    if not n_days:
        return []
    lengths = np.diff(np.append(starts, n_rows))
    day_of = np.repeat(np.arange(n_days), lengths)
    gaps = np.empty(n_rows, dtype=np.float64)
    gaps[:-1] = np.maximum(
        min_dwell_s, np.minimum(max_gap_s, timestamps[1:] - timestamps[:-1])
    )
    gaps[starts + lengths - 1] = min_dwell_s

    # One pair per (day, sector), numbered in order of first appearance.
    grouped = np.lexsort((sector_ids, day_of))
    sorted_sectors = sector_ids[grouped]
    sorted_days = day_of[grouped]
    head = np.ones(n_rows, dtype=bool)
    head[1:] = (sorted_sectors[1:] != sorted_sectors[:-1]) | (
        sorted_days[1:] != sorted_days[:-1]
    )
    first_row = grouped[head]
    by_appearance = np.argsort(first_row)
    pair_of_group = np.empty(len(first_row), dtype=np.intp)
    pair_of_group[by_appearance] = np.arange(len(first_row))
    pair_of_row = np.empty(n_rows, dtype=np.intp)
    pair_of_row[grouped] = pair_of_group[np.cumsum(head) - 1]
    dwell = np.bincount(pair_of_row, weights=gaps, minlength=len(first_row))
    pair_row = first_row[by_appearance]

    sector = table.index(sector_ids[pair_row])
    known = sector >= 0
    sector = sector[known]
    dwell = dwell[known]
    day = day_of[pair_row][known]
    total = np.bincount(day, weights=dwell, minlength=n_days)[day]
    if (total <= 0).any():
        raise ValueError("weights must sum to a positive value")
    w = dwell / total
    w_cos_lat = w * table.cos_lat[sector]
    x = np.bincount(day, weights=w_cos_lat * table.cos_lon[sector], minlength=n_days)
    y = np.bincount(day, weights=w_cos_lat * table.sin_lon[sector], minlength=n_days)
    z = np.bincount(day, weights=w * table.sin_lat[sector], minlength=n_days)
    n_sectors = np.bincount(day, minlength=n_days)

    # Each day with a known sector is a cell; its pairs are contiguous.
    cells = np.flatnonzero(n_sectors)
    counts = n_sectors[cells]
    x, y, z = x[cells], y[cells], z[cells]
    norm = np.sqrt(x * x + y * y + z * z)
    # Perfectly antipodal weighting (norm under 1e-12) falls back to the
    # cell's first point.
    first = sector[np.cumsum(counts) - counts]
    lat = table.lat_deg[first]
    lon = table.lon_deg[first]
    fits = norm >= 1e-12
    # np.fmin(1.0, v) is min(1.0, v) for every float v, NaN included
    # (np.minimum would give NaN); np.fmax(-1.0, v) likewise.
    lat[fits] = _libm(
        math.degrees,
        _libm(math.asin, np.fmax(-1.0, np.fmin(1.0, z[fits] / norm[fits]))),
    )
    lon[fits] = _libm(math.degrees, _libm(math.atan2, y[fits], x[fits]))
    c_lat = _libm(math.radians, lat)
    c_lon = _libm(math.radians, lon)
    c_cos = _libm(math.cos, c_lat)

    # geo.haversine_km from each pair's sector to its cell's centroid.
    cell = np.repeat(np.arange(len(cells)), counts)
    sin2_dlat = _squares(_libm(math.sin, (c_lat[cell] - table.lat[sector]) / 2))
    sin2_dlon = _squares(_libm(math.sin, (c_lon[cell] - table.lon[sector]) / 2))
    h = sin2_dlat + table.cos_lat[sector] * c_cos[cell] * sin2_dlon
    distance = 2 * EARTH_RADIUS_KM * _libm(math.asin, np.fmin(1.0, np.sqrt(h)))
    gyration = np.sqrt(
        np.bincount(cell, weights=w * distance * distance, minlength=len(cells))
    )

    out: List[Optional[MobilityMetrics]] = [None] * n_days
    for k, centroid, gyration_km, count in zip(
        cells.tolist(),
        map(GeoPoint, lat.tolist(), lon.tolist()),
        gyration.tolist(),
        counts.tolist(),
    ):
        out[k] = MobilityMetrics(centroid, gyration_km, count)
    return out


def daily_mobility_from_pairs(
    pairs: Iterable[Tuple[float, int]],
    catalog: SectorCatalog,
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Optional[MobilityMetrics]:
    """One device-day's mobility metrics from its ``(timestamp,
    sector_id)`` pairs, or None without pairs.

    Pairs pointing at sectors unknown to the catalog are skipped (real
    pipelines see these too — sector churn outpaces catalog refreshes).
    The one-day case of :func:`batch_daily_mobility`.
    """
    ordered = sorted(pairs)
    if not ordered:
        return None
    sector_ids = np.array([sector_id for _, sector_id in ordered], dtype=np.int64)
    positions: Dict[int, GeoPoint] = {}
    for sector_id in set(sector_ids.tolist()):
        try:
            positions[sector_id] = catalog.position_of(sector_id)
        except KeyError:
            continue
    return batch_daily_mobility(
        np.zeros(1, dtype=np.intp),
        np.array([timestamp for timestamp, _ in ordered], dtype=np.float64),
        sector_ids,
        SectorTable(positions),
        max_gap_s=max_gap_s,
        min_dwell_s=min_dwell_s,
    )[0]


def average_gyration(metrics: Sequence[MobilityMetrics]) -> Optional[float]:
    """Across-days average gyration, as presented in Fig. 8."""
    if not metrics:
        return None
    return sequential_sum(m.gyration_km for m in metrics) / len(metrics)
