"""Property-based tests for geodesic math."""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.cellular.geo import (
    GeoPoint,
    gyration_about_km,
    haversine_km,
    offset_km,
    radius_of_gyration_km,
    weighted_centroid,
)

# Stay away from the poles where flat-earth offsets degenerate.
lats = st.floats(min_value=-70.0, max_value=70.0)
lons = st.floats(min_value=-179.0, max_value=179.0)
points = st.builds(GeoPoint, lat=lats, lon=lons)
weights = st.floats(min_value=0.01, max_value=1000.0)


class TestHaversineProperties:
    @given(points, points)
    def test_symmetric(self, a, b):
        assert haversine_km(a, b) == haversine_km(b, a)

    @given(points)
    def test_identity(self, p):
        assert haversine_km(p, p) == 0.0

    @given(points, points)
    def test_non_negative_and_bounded(self, a, b):
        d = haversine_km(a, b)
        assert 0.0 <= d <= 20100.0  # half the Earth's circumference + slack

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


class TestCentroidProperties:
    @given(st.lists(st.tuples(points, weights), min_size=1, max_size=8))
    def test_centroid_within_bounding_distance(self, weighted_points):
        pts = [p for p, _ in weighted_points]
        ws = [w for _, w in weighted_points]
        max_pairwise = max(
            (haversine_km(a, b) for a in pts for b in pts), default=0.0
        )
        # Only a true theorem for regional point sets; near-antipodal
        # spreads can place the spherical mean outside the "diameter"
        # ball.  Sector visits are always regional.
        assume(max_pairwise < 5000.0)
        centroid = weighted_centroid(pts, ws)
        assert all(
            haversine_km(centroid, p) <= max_pairwise + 1.0 for p in pts
        )

    @given(points, weights)
    def test_single_point_fixed(self, p, w):
        centroid = weighted_centroid([p], [w])
        assert haversine_km(centroid, p) < 0.001

    @given(st.lists(st.tuples(points, weights), min_size=2, max_size=8))
    def test_weight_scaling_invariant(self, weighted_points):
        pts = [p for p, _ in weighted_points]
        ws = [w for _, w in weighted_points]
        a = weighted_centroid(pts, ws)
        b = weighted_centroid(pts, [w * 7.5 for w in ws])
        assert haversine_km(a, b) < 0.001


class TestGyrationProperties:
    @given(st.lists(st.tuples(points, weights), min_size=1, max_size=8))
    def test_bounded_by_diameter(self, weighted_points):
        pts = [p for p, _ in weighted_points]
        ws = [w for _, w in weighted_points]
        gyration = radius_of_gyration_km(pts, ws)
        max_pairwise = max(
            (haversine_km(a, b) for a in pts for b in pts), default=0.0
        )
        assert 0.0 <= gyration <= max_pairwise + 1.0

    @given(points, st.lists(weights, min_size=1, max_size=5))
    def test_identical_points_zero(self, p, ws):
        assert radius_of_gyration_km([p] * len(ws), ws) < 0.001

    @given(st.lists(st.tuples(points, weights), min_size=1, max_size=8))
    def test_about_the_weighted_centroid_is_the_gyration(self, weighted_points):
        pts = [p for p, _ in weighted_points]
        ws = [w for _, w in weighted_points]
        centroid = weighted_centroid(pts, ws)
        assert gyration_about_km(pts, ws, centroid) == radius_of_gyration_km(pts, ws)


class TestOffsetProperties:
    @given(points, st.floats(-500, 500), st.floats(-500, 500))
    def test_distance_roughly_matches_offset(self, p, east, north):
        assume(abs(p.lat) < 60)
        magnitude = math.hypot(east, north)
        assume(magnitude > 1.0)
        moved = offset_km(p, east, north)
        assert haversine_km(p, moved) <= magnitude * 1.2 + 1.0
