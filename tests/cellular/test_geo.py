"""Unit tests for geographic primitives."""

import math

import pytest

from repro.cellular.geo import (
    GeoPoint,
    bounding_radius_km,
    haversine_km,
    offset_km,
    pairwise_max_distance_km,
    radius_of_gyration_km,
    scatter_points,
    weighted_centroid,
)

MADRID = GeoPoint(40.4168, -3.7038)
LONDON = GeoPoint(51.5074, -0.1278)


class TestHaversine:
    def test_known_distance_madrid_london(self):
        # ~1264 km great-circle.
        assert haversine_km(MADRID, LONDON) == pytest.approx(1264, rel=0.02)

    def test_zero_for_same_point(self):
        assert haversine_km(MADRID, MADRID) == 0.0

    def test_symmetry(self):
        assert haversine_km(MADRID, LONDON) == pytest.approx(
            haversine_km(LONDON, MADRID)
        )


class TestGeoPoint:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)


class TestOffset:
    def test_north_offset_distance(self):
        moved = offset_km(MADRID, 0.0, 100.0)
        assert haversine_km(MADRID, moved) == pytest.approx(100, rel=0.02)

    def test_east_offset_distance(self):
        moved = offset_km(MADRID, 100.0, 0.0)
        assert haversine_km(MADRID, moved) == pytest.approx(100, rel=0.02)

    def test_wraps_longitude(self):
        near_dateline = GeoPoint(0.0, 179.9)
        moved = offset_km(near_dateline, 50.0, 0.0)
        assert -180.0 <= moved.lon <= 180.0


class TestCentroid:
    def test_single_point(self):
        c = weighted_centroid([MADRID], [1.0])
        assert c.lat == pytest.approx(MADRID.lat, abs=1e-6)

    def test_dominant_weight_pulls_centroid(self):
        c = weighted_centroid([MADRID, LONDON], [1000.0, 1.0])
        assert haversine_km(c, MADRID) < 5.0

    def test_equal_weights_midpointish(self):
        c = weighted_centroid([MADRID, LONDON], [1.0, 1.0])
        assert abs(haversine_km(c, MADRID) - haversine_km(c, LONDON)) < 5.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_centroid([MADRID], [1.0, 2.0])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_centroid([MADRID], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_centroid([], [])


class TestGyration:
    def test_single_point_zero(self):
        assert radius_of_gyration_km([MADRID], [5.0]) == 0.0

    def test_stationary_cluster_small(self):
        points = [MADRID, offset_km(MADRID, 0.5, 0.5)]
        assert radius_of_gyration_km(points, [10.0, 1.0]) < 1.0

    def test_two_distant_points_half_distance(self):
        gyration = radius_of_gyration_km([MADRID, LONDON], [1.0, 1.0])
        assert gyration == pytest.approx(haversine_km(MADRID, LONDON) / 2, rel=0.02)

    def test_bounded_by_max_distance_to_centroid(self):
        points = [MADRID, LONDON, offset_km(MADRID, 300, -200)]
        weights = [3.0, 1.0, 2.0]
        centroid = weighted_centroid(points, weights)
        max_dist = max(haversine_km(p, centroid) for p in points)
        assert radius_of_gyration_km(points, weights) <= max_dist + 1e-9


class TestScatter:
    def test_count_and_radius(self, rng):
        points = scatter_points(MADRID, 200.0, 50, rng)
        assert len(points) == 50
        assert bounding_radius_km(points, MADRID) <= 205.0

    def test_zero_count(self, rng):
        assert scatter_points(MADRID, 100.0, 0, rng) == []

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            scatter_points(MADRID, 100.0, -1, rng)


class TestPairwiseMax:
    def test_matches_known_pair(self):
        points = [MADRID, LONDON, offset_km(MADRID, 10, 10)]
        assert pairwise_max_distance_km(points) == pytest.approx(
            haversine_km(MADRID, LONDON), rel=0.02
        )

    def test_empty_and_single(self):
        assert pairwise_max_distance_km([]) == 0.0
        assert pairwise_max_distance_km([MADRID]) == 0.0


class TestInterpreterIndependentSums:
    """Weight totals add left to right on every Python version.

    CPython 3.12 made ``sum()`` of floats compensated; on these weights
    a compensated total (``math.fsum``) and a left-to-right one differ,
    so a centroid or gyration built on ``sum()`` would change its last
    bits with the interpreter.
    """

    POINTS = [MADRID, LONDON, GeoPoint(48.8566, 2.3522)]
    WEIGHTS = [45.50093747657347, 1800.7028919024044, 3600.0]

    @staticmethod
    def left_to_right(values):
        total = 0.0
        for value in values:
            total += value
        return total

    def reference_centroid(self):
        total = self.left_to_right(self.WEIGHTS)
        x = y = z = 0.0
        for point, weight in zip(self.POINTS, self.WEIGHTS):
            lat, lon = math.radians(point.lat), math.radians(point.lon)
            w = weight / total
            x += w * math.cos(lat) * math.cos(lon)
            y += w * math.cos(lat) * math.sin(lon)
            z += w * math.sin(lat)
        norm = math.sqrt(x * x + y * y + z * z)
        return GeoPoint(
            lat=math.degrees(math.asin(max(-1.0, min(1.0, z / norm)))),
            lon=math.degrees(math.atan2(y, x)),
        )

    def test_weights_expose_the_difference(self):
        assert math.fsum(self.WEIGHTS) != self.left_to_right(self.WEIGHTS)

    def test_centroid_is_left_to_right(self):
        assert weighted_centroid(self.POINTS, self.WEIGHTS) == self.reference_centroid()

    def test_gyration_is_left_to_right(self):
        centroid = self.reference_centroid()
        total = self.left_to_right(self.WEIGHTS)
        acc = 0.0
        for point, weight in zip(self.POINTS, self.WEIGHTS):
            distance = haversine_km(point, centroid)
            acc += (weight / total) * distance * distance
        assert radius_of_gyration_km(self.POINTS, self.WEIGHTS) == math.sqrt(acc)
