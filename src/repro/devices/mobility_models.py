"""Mobility models: where a device is over the course of a day.

The radius-of-gyration analysis (Fig. 8) and the connected-cars-vs-meters
contrast (Fig. 12) are driven entirely by how devices move between cell
sectors.  Each model yields a day's worth of (position, dwell-weight)
visits; the simulator snaps positions to the serving operator's nearest
sectors.

* :class:`StationaryMobility` — smart meters, POS terminals: one fixed
  site, with occasional cell re-selection jitter (the paper notes some
  meters show >1 km gyration "likely due to cell reselection, rather
  than actual movements").
* :class:`CommuterMobility` — resident smartphone users: home and work
  anchors a few km apart plus noise.
* :class:`VehicularMobility` — connected cars, logistics: long daily
  trajectories across the country.
* :class:`InternationalMobility` — a vehicular pattern that also hops
  between countries, for border-crossing fleets.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.cellular.geo import GeoPoint, offset_km

Visit = Tuple[GeoPoint, float]  # (position, dwell weight)


class MobilityModel(abc.ABC):
    """Strategy producing a day's sector-level visits for one device."""

    @abc.abstractmethod
    def visits_for_day(self, day: int, rng: np.random.Generator) -> List[Visit]:
        """Return the day's (position, dwell-weight) list, weights > 0."""


def _jitter(point: GeoPoint, sigma_km: float, rng: np.random.Generator) -> GeoPoint:
    east, north = rng.normal(0.0, sigma_km, size=2).tolist()
    return offset_km(point, east, north)


@dataclass
class StationaryMobility(MobilityModel):
    """Fixed installation with optional cell-reselection jitter.

    ``reselection_prob`` is the chance that, on a given day, the device
    is also served briefly by a neighbouring site ``reselection_km``
    away — the artefact that puts a small tail on the meters' gyration.
    """

    anchor: GeoPoint
    reselection_prob: float = 0.1
    reselection_km: float = 2.0

    def visits_for_day(self, day: int, rng: np.random.Generator) -> List[Visit]:
        visits: List[Visit] = [(self.anchor, 23.0)]
        if rng.random() < self.reselection_prob:
            neighbour = _jitter(self.anchor, self.reselection_km, rng)
            visits.append((neighbour, 1.0))
        return visits


@dataclass
class CommuterMobility(MobilityModel):
    """Two anchors (home/work) with commute-time noise."""

    home: GeoPoint
    work: GeoPoint
    noise_km: float = 1.0

    def visits_for_day(self, day: int, rng: np.random.Generator) -> List[Visit]:
        visits: List[Visit] = [
            (_jitter(self.home, self.noise_km, rng), 14.0),
            (_jitter(self.work, self.noise_km, rng), 8.0),
        ]
        # Occasional errand elsewhere.
        if rng.random() < 0.3:
            errand = _jitter(self.home, self.noise_km * 5.0, rng)
            visits.append((errand, 2.0))
        return visits


@dataclass
class VehicularMobility(MobilityModel):
    """Random-waypoint trajectory: ``legs`` hops of ~``leg_km`` per day."""

    start: GeoPoint
    leg_km: float = 40.0
    legs: int = 5

    def visits_for_day(self, day: int, rng: np.random.Generator) -> List[Visit]:
        if self.legs < 1:
            raise ValueError("legs must be >= 1")
        position = self.start
        visits: List[Visit] = []
        dwell = 24.0 / (self.legs + 1)
        for _ in range(self.legs + 1):
            visits.append((position, dwell))
            heading = rng.random() * 2.0 * math.pi
            distance = float(rng.exponential(self.leg_km))
            position = offset_km(
                position, distance * math.cos(heading), distance * math.sin(heading)
            )
        return visits


@dataclass
class InternationalMobility(MobilityModel):
    """Vehicular movement that migrates between country anchors.

    ``country_anchors`` are candidate bases (e.g. country centroids along
    a freight corridor); each day the device either keeps touring near
    its current anchor or jumps to the next one with ``hop_prob``.
    """

    country_anchors: Sequence[GeoPoint]
    hop_prob: float = 0.15
    leg_km: float = 60.0

    def __post_init__(self) -> None:
        if not self.country_anchors:
            raise ValueError("need at least one country anchor")
        self._anchor_index = 0

    @property
    def current_anchor_index(self) -> int:
        return self._anchor_index

    def visits_for_day(self, day: int, rng: np.random.Generator) -> List[Visit]:
        if len(self.country_anchors) > 1 and rng.random() < self.hop_prob:
            self._anchor_index = (self._anchor_index + 1) % len(self.country_anchors)
        anchor = self.country_anchors[self._anchor_index]
        tour = VehicularMobility(start=anchor, leg_km=self.leg_km, legs=4)
        return tour.visits_for_day(day, rng)
