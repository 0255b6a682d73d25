"""Unit tests for sector catalogs."""

import numpy as np
import pytest

from repro.cellular.countries import default_countries
from repro.cellular.geo import GeoPoint, haversine_km
from repro.cellular.identifiers import PLMN
from repro.cellular.operators import Operator, OperatorType
from repro.cellular.rats import RAT
from repro.cellular.sectors import Sector, SectorCatalog, build_sector_catalog

GB = default_countries().by_iso("GB")


def _operator(rats=frozenset({RAT.GSM, RAT.UMTS, RAT.LTE})):
    return Operator(name="GB-1", plmn=PLMN(234, 10), country=GB, rats=rats)


class TestBuildSectorCatalog:
    def test_one_sector_per_rat_per_site(self, rng):
        catalog = build_sector_catalog(_operator(), sites=10, rng=rng)
        assert len(catalog) == 30

    def test_respects_operator_rats(self, rng):
        op = _operator(rats=frozenset({RAT.GSM}))
        catalog = build_sector_catalog(op, sites=5, rng=rng)
        assert len(catalog) == 5
        assert all(s.rat is RAT.GSM for s in catalog)

    def test_sector_ids_unique_and_offset(self, rng):
        catalog = build_sector_catalog(_operator(), sites=5, rng=rng, sector_id_base=100)
        ids = [s.sector_id for s in catalog]
        assert len(set(ids)) == len(ids)
        assert min(ids) == 100

    def test_rejects_mvno(self, rng):
        host = _operator()
        mvno = Operator(
            name="mvno",
            plmn=PLMN(234, 40),
            country=GB,
            operator_type=OperatorType.MVNO,
            host_plmn=host.plmn,
        )
        with pytest.raises(ValueError):
            build_sector_catalog(mvno, sites=3, rng=rng)

    def test_rejects_zero_sites(self, rng):
        with pytest.raises(ValueError):
            build_sector_catalog(_operator(), sites=0, rng=rng)

    def test_sites_inside_country_footprint(self, rng):
        catalog = build_sector_catalog(_operator(), sites=30, rng=rng)
        center = GeoPoint(GB.lat, GB.lon)
        for sector in catalog:
            assert haversine_km(sector.position, center) <= GB.radius_km * 1.05


class TestSectorCatalogQueries:
    @pytest.fixture()
    def catalog(self, rng):
        return build_sector_catalog(_operator(), sites=20, rng=rng)

    def test_by_id(self, catalog):
        sector = next(iter(catalog))
        assert catalog.by_id(sector.sector_id) is sector

    def test_by_id_unknown_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.by_id(999999)

    def test_nearest_returns_correct_rat(self, catalog):
        point = GeoPoint(GB.lat, GB.lon)
        for rat in RAT:
            sector = catalog.nearest(point, rat)
            assert sector is not None and sector.rat is rat

    def test_nearest_is_actually_nearest(self, catalog):
        point = GeoPoint(GB.lat + 0.5, GB.lon - 0.5)
        nearest = catalog.nearest(point, RAT.GSM)
        best = min(
            catalog.sectors_for(RAT.GSM),
            key=lambda s: haversine_km(s.position, point),
        )
        assert nearest.sector_id == best.sector_id

    def test_batched_lookup_matches_nearest_point_by_point(self, catalog):
        # Points inside the UK footprint and far beyond it.
        rng = np.random.default_rng(2024)
        lats = GB.lat + rng.uniform(-15.0, 15.0, 1000)
        lons = GB.lon + rng.uniform(-25.0, 25.0, 1000)
        for rat in RAT:
            expected = [
                catalog.nearest(GeoPoint(lat, lon), rat).sector_id
                for lat, lon in zip(lats.tolist(), lons.tolist())
            ]
            assert catalog.nearest_ids(lats, lons, rat).tolist() == expected

    def test_nearest_none_for_unsupported_rat(self, rng):
        catalog = build_sector_catalog(
            _operator(rats=frozenset({RAT.GSM})), sites=3, rng=rng
        )
        assert catalog.nearest(GeoPoint(GB.lat, GB.lon), RAT.LTE) is None
        assert catalog.nearest_ids(np.array([GB.lat]), np.array([GB.lon]), RAT.LTE) is None

    def test_duplicate_ids_rejected(self):
        op = _operator()
        sector = Sector(1, str(op.plmn), RAT.GSM, GeoPoint(GB.lat, GB.lon))
        with pytest.raises(ValueError):
            SectorCatalog(op, [sector, sector])
