"""Cell sectors and per-operator sector catalogs.

The MNO's measurement pipeline records, per radio event, the sector that
handled the communication; mobility metrics then map sector IDs back to
physical coordinates via the operator's sector catalog (§4.1).  We model
a sector as a (site position, RAT) pair and give each operator a grid of
sites scattered inside its country footprint, with 2G/3G/4G collocated
per site where the operator supports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.cellular.geo import GeoPoint, haversine_km, scatter_points
from repro.cellular.operators import Operator
from repro.cellular.rats import RAT


@dataclass(frozen=True)
class Sector:
    """A radio sector: where a device's traffic touches the ground."""

    sector_id: int
    plmn_str: str
    rat: RAT
    position: GeoPoint


class SectorCatalog:
    """All sectors of one operator, with nearest-sector queries.

    The catalog is what lets the devices-catalog builder convert the
    sector IDs in radio logs into coordinates for centroid/gyration
    computation.
    """

    def __init__(self, operator: Operator, sectors: Sequence[Sector]) -> None:
        self.operator = operator
        self._sectors: List[Sector] = list(sectors)
        self._by_id: Dict[int, Sector] = {s.sector_id: s for s in self._sectors}
        if len(self._by_id) != len(self._sectors):
            raise ValueError("duplicate sector IDs in catalog")
        self._by_rat: Dict[RAT, List[Sector]] = {rat: [] for rat in RAT}
        for sector in self._sectors:
            self._by_rat[sector.rat].append(sector)
        # Flat per-RAT arrays for vectorized nearest-sector lookups.
        self._positions: Dict[RAT, np.ndarray] = {
            rat: np.array([[s.position.lat, s.position.lon] for s in sectors_])
            if sectors_
            else np.empty((0, 2))
            for rat, sectors_ in self._by_rat.items()
        }
        self._ids: Dict[RAT, np.ndarray] = {
            rat: np.array([s.sector_id for s in sectors_], dtype=np.int64)
            for rat, sectors_ in self._by_rat.items()
        }

    def __len__(self) -> int:
        return len(self._sectors)

    def __iter__(self) -> Iterator[Sector]:
        return iter(self._sectors)

    def by_id(self, sector_id: int) -> Sector:
        try:
            return self._by_id[sector_id]
        except KeyError:
            raise KeyError(
                f"unknown sector {sector_id} for {self.operator.name}"
            ) from None

    def sectors_for(self, rat: RAT) -> List[Sector]:
        return list(self._by_rat[rat])

    def _nearest_indices(
        self, lats: np.ndarray, lons: np.ndarray, rat: RAT
    ) -> np.ndarray:
        """Index into the ``rat`` sectors of the nearest one to each point."""
        coords = self._positions[rat]
        # Equirectangular approximation is fine for ranking nearby sites:
        # dlat * dlat + dlon * dlon, computed in place in two buffers.
        dlat = np.subtract(coords[:, 0], lats[:, None])
        dlon = np.subtract(coords[:, 1], lons[:, None])
        dlon *= np.cos(np.radians(lats))[:, None]
        dlat *= dlat
        dlon *= dlon
        dlat += dlon
        indices: np.ndarray = np.argmin(dlat, axis=1)
        return indices

    def nearest_ids(
        self, lats: np.ndarray, lons: np.ndarray, rat: RAT
    ) -> Optional[np.ndarray]:
        """Sector ID of the nearest ``rat`` sector to each (lat, lon)
        point, or None if the operator has no sectors of that generation.

        One broadcast ``argmin`` over all points; :meth:`nearest` is its
        one-point case.
        """
        if not self._by_rat[rat]:
            return None
        ids: np.ndarray = self._ids[rat][self._nearest_indices(lats, lons, rat)]
        return ids

    def nearest(self, point: GeoPoint, rat: RAT) -> Optional[Sector]:
        """Return the nearest sector of the given RAT, or None if the
        operator has no sectors of that generation."""
        candidates = self._by_rat[rat]
        if not candidates:
            return None
        index = self._nearest_indices(
            np.array([point.lat]), np.array([point.lon]), rat
        )[0]
        return candidates[int(index)]

    def position_of(self, sector_id: int) -> GeoPoint:
        return self.by_id(sector_id).position

    def max_intersite_km(self) -> float:
        """Rough grid coarseness: max distance from country center to a site."""
        center = GeoPoint(self.operator.country.lat, self.operator.country.lon)
        return max(
            (haversine_km(s.position, center) for s in self._sectors), default=0.0
        )


def build_sector_catalog(
    operator: Operator,
    sites: int,
    rng: np.random.Generator,
    sector_id_base: int = 0,
) -> SectorCatalog:
    """Scatter ``sites`` radio sites in the operator's country and emit
    one sector per supported RAT per site.

    Sector IDs are globally unique when callers pass non-overlapping
    ``sector_id_base`` ranges (the builder consumes at most
    ``sites * len(RAT)`` IDs).
    """
    if operator.is_mvno:
        raise ValueError(f"MVNO {operator.name} has no radio network")
    if sites <= 0:
        raise ValueError("sites must be positive")
    center = GeoPoint(operator.country.lat, operator.country.lon)
    positions = scatter_points(center, operator.country.radius_km, sites, rng)
    sectors: List[Sector] = []
    next_id = sector_id_base
    for position in positions:
        for rat in sorted(operator.rats, key=lambda r: r.generation):
            sectors.append(
                Sector(
                    sector_id=next_id,
                    plmn_str=str(operator.plmn),
                    rat=rat,
                    position=position,
                )
            )
            next_id += 1
    return SectorCatalog(operator, sectors)
