"""Geographic primitives for sector placement and mobility metrics.

The paper computes per-device mobility from the physical coordinates of
the cell sectors a device attaches to: a dwell-time-weighted centroid and
a radius of gyration (§4.1, Fig. 8).  This module provides the geodesic
math those computations need, plus helpers to scatter sector sites inside
a country's (circular) footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface (degrees)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum.

    CPython 3.12 made ``sum()`` of floats compensated, so its last bits
    depend on the interpreter; this loop rounds after every addition on
    every version (bit-identical to ``sum()`` before 3.12).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    return haversine_radians_km(lat1, lon1, math.cos(lat1), lat2, lon2, math.cos(lat2))


def haversine_radians_km(
    lat1: float, lon1: float, cos_lat1: float, lat2: float, lon2: float, cos_lat2: float
) -> float:
    """Great-circle distance from radians and the latitudes' cosines.

    :func:`haversine_km`'s arithmetic, so the same bits: a caller that
    meets one point many times computes its factors once.
    """
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + cos_lat1 * cos_lat2 * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def offset_km(origin: GeoPoint, east_km: float, north_km: float) -> GeoPoint:
    """Return the point ``east_km``/``north_km`` from ``origin``.

    A local flat-earth approximation — fine at the sub-thousand-km scale
    of sector grids.
    """
    dlat = north_km / 110.574
    dlon = east_km / (111.320 * max(0.1, math.cos(math.radians(origin.lat))))
    lat = max(-90.0, min(90.0, origin.lat + dlat))
    lon = ((origin.lon + dlon + 180.0) % 360.0) - 180.0
    return GeoPoint(lat=lat, lon=lon)


def weighted_centroid(
    points: Sequence[GeoPoint], weights: Sequence[float]
) -> GeoPoint:
    """Dwell-weighted centroid of a set of sector positions.

    Computed on the unit sphere (via 3-D Cartesian averaging) so it is
    robust near the antimeridian.  Weights are typically per-sector
    dwell times.
    """
    if not points:
        raise ValueError("centroid of empty point set")
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    total = sequential_sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")

    x = y = z = 0.0
    for point, weight in zip(points, weights):
        lat = math.radians(point.lat)
        lon = math.radians(point.lon)
        w = weight / total
        x += w * math.cos(lat) * math.cos(lon)
        y += w * math.cos(lat) * math.sin(lon)
        z += w * math.sin(lat)

    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        # Perfectly antipodal weighting; fall back to the first point.
        return points[0]
    return GeoPoint(
        lat=math.degrees(math.asin(max(-1.0, min(1.0, z / norm)))),
        lon=math.degrees(math.atan2(y, x)),
    )


def radius_of_gyration_km(
    points: Sequence[GeoPoint], weights: Sequence[float]
) -> float:
    """Dwell-weighted radius of gyration, in kilometres.

    ``sqrt(sum_i w_i * d(p_i, centroid)^2 / sum_i w_i)`` — the paper's
    mobility metric (Fig. 8): how far from its usual centre a device
    roams, weighted by time spent on each sector.
    """
    if not points:
        raise ValueError("gyration of empty point set")
    return gyration_about_km(points, weights, weighted_centroid(points, weights))


def gyration_about_km(
    points: Sequence[GeoPoint], weights: Sequence[float], centroid: GeoPoint
) -> float:
    """Dwell-weighted radius of gyration about ``centroid``, in kilometres.

    :func:`radius_of_gyration_km` is this about
    ``weighted_centroid(points, weights)``; a caller that keeps the
    centroid too computes it once.
    """
    total = sequential_sum(weights)
    acc = 0.0
    for point, weight in zip(points, weights):
        distance = haversine_km(point, centroid)
        acc += (weight / total) * distance * distance
    return math.sqrt(acc)


def scatter_points(
    center: GeoPoint,
    radius_km: float,
    count: int,
    rng: np.random.Generator,
) -> List[GeoPoint]:
    """Scatter ``count`` points uniformly inside a disc around ``center``.

    Used to lay out sector sites within a country footprint.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    radii = radius_km * np.sqrt(rng.random(count))
    angles = rng.random(count) * 2.0 * math.pi
    return [
        offset_km(center, float(r * math.cos(a)), float(r * math.sin(a)))
        for r, a in zip(radii, angles)
    ]


def bounding_radius_km(points: Iterable[GeoPoint], center: GeoPoint) -> float:
    """Maximum distance of any point from ``center`` (0.0 when empty)."""
    return max((haversine_km(p, center) for p in points), default=0.0)


def pairwise_max_distance_km(points: Sequence[GeoPoint]) -> float:
    """Diameter of a small point set (exhaustive; for tests/diagnostics)."""
    best = 0.0
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            best = max(best, haversine_km(a, b))
    return best


def as_tuple(point: GeoPoint) -> Tuple[float, float]:
    """Return (lat, lon) — convenience for serialization."""
    return (point.lat, point.lon)
