"""Device mobility metrics from radio events (§4.1, Fig. 8).

"From radio logs, we compute the time spent on each individual sector to
which a device connected.  Then, we use it to compute a weighted centroid
and gyration, using sector coordinates provided by the MNO sectors
catalog.  We compute daily metrics, and present averages across days."

Dwell time per sector is estimated from the event stream: each event's
dwell is the gap to the device's next event that day, capped at
``max_gap_s`` (a device silent for hours has detached, not dwelt), with
a floor of ``min_dwell_s`` so isolated events still count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cellular.geo import GeoPoint, radius_of_gyration_km, weighted_centroid
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
    pairs: Sequence[Tuple[float, int]],
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Dict[int, float]:
    """Estimate per-sector dwell seconds from one device-day's
    ``(timestamp, sector_id)`` pairs.  The sort is stable, so events with
    equal timestamps keep their input (stream) order."""
    if not pairs:
        return {}
    ordered = sorted(pairs, key=lambda pair: pair[0])
    dwell: Dict[int, float] = defaultdict(float)
    for (timestamp, sector_id), (next_timestamp, _) in zip(ordered, ordered[1:]):
        gap = max(min_dwell_s, min(max_gap_s, next_timestamp - timestamp))
        dwell[sector_id] += gap
    dwell[ordered[-1][1]] += min_dwell_s
    return dict(dwell)


def daily_mobility_from_pairs(
    pairs: Sequence[Tuple[float, int]],
    catalog: SectorCatalog,
    max_gap_s: float = 3600.0,
    min_dwell_s: float = 60.0,
) -> Optional[MobilityMetrics]:
    """One device-day's mobility metrics from its ``(timestamp,
    sector_id)`` pairs, or None without pairs.

    Pairs pointing at sectors unknown to the catalog are skipped (real
    pipelines see these too — sector churn outpaces catalog refreshes).
    """
    dwell = sector_dwell_weights_from_pairs(
        pairs, max_gap_s=max_gap_s, min_dwell_s=min_dwell_s
    )
    points: List[GeoPoint] = []
    weights: List[float] = []
    for sector_id, seconds in dwell.items():
        try:
            position = catalog.position_of(sector_id)
        except KeyError:
            continue
        points.append(position)
        weights.append(seconds)
    if not points:
        return None
    return MobilityMetrics(
        centroid=weighted_centroid(points, weights),
        gyration_km=radius_of_gyration_km(points, weights),
        n_sectors=len(points),
    )


def average_gyration(metrics: Sequence[MobilityMetrics]) -> Optional[float]:
    """Across-days average gyration, as presented in Fig. 8."""
    if not metrics:
        return None
    return sum(m.gyration_km for m in metrics) / len(metrics)
