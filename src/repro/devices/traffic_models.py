"""Traffic models: how much a device signals, calls and transfers.

The paper's traffic analysis (§6, Fig. 10) contrasts three device classes
across three dimensions — radio-resource signaling events, voice calls
and data bytes.  :class:`TrafficModel` is the per-device generative model
for one day of those quantities; its parameters are what the population
profiles calibrate.

Counts are Poisson with a device-specific rate multiplier drawn once per
device (lognormal), producing the heavy-tailed per-device distributions
the paper observes (mean 267 signaling records but a 130k-message tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np


class DiurnalShape(str, Enum):
    """Intra-day intensity shape.

    HUMAN peaks in waking hours (phone traffic); FLAT is constant
    (machine telemetry); NIGTHLY_BATCH spikes off-peak (meters reporting
    on a schedule) — prior work [18] found exactly this divergence
    between M2M and phone diurnal patterns.
    """

    HUMAN = "human"
    FLAT = "flat"
    NIGHTLY_BATCH = "nightly_batch"


def diurnal_weight(shape: DiurnalShape, hour: float) -> float:
    """Relative intensity at ``hour`` in [0, 24); integrates to ~24."""
    if not 0.0 <= hour < 24.0:
        raise ValueError(f"hour out of range: {hour}")
    if shape is DiurnalShape.FLAT:
        return 1.0
    if shape is DiurnalShape.HUMAN:
        # Low overnight, broad daytime plateau peaking late afternoon.
        return 1.0 + 0.9 * math.sin((hour - 9.0) / 24.0 * 2.0 * math.pi)
    if shape is DiurnalShape.NIGHTLY_BATCH:
        # Sharp reporting window around 02:00.
        return 0.25 + 8.0 * math.exp(-((hour - 2.0) % 24.0 - 0.0) ** 2 / 2.0)
    raise ValueError(f"unknown diurnal shape {shape}")


def diurnal_weights(shape: DiurnalShape, hours: np.ndarray) -> np.ndarray:
    """Vectorized :func:`diurnal_weight` over an array of hours.

    The arithmetic of ``1.0 + 0.9 * np.sin((hours - 9.0) / 24.0 * 2.0 *
    np.pi)`` (HUMAN) and ``0.25 + 8.0 * np.exp(-(((hours - 2.0) % 24.0)
    ** 2) / 2.0)`` (NIGHTLY_BATCH), step by step in one buffer.
    """
    if shape is DiurnalShape.FLAT:
        return np.ones_like(hours)
    if shape is DiurnalShape.HUMAN:
        weights = hours - 9.0
        weights /= 24.0
        weights *= 2.0
        weights *= np.pi
        weights = np.sin(weights)
        weights *= 0.9
        weights += 1.0
        return weights
    if shape is DiurnalShape.NIGHTLY_BATCH:
        weights = hours - 2.0
        weights %= 24.0
        weights **= 2
        np.negative(weights, out=weights)
        weights /= 2.0
        weights = np.exp(weights)
        weights *= 8.0
        weights += 0.25
        return weights
    raise ValueError(f"unknown diurnal shape {shape}")


#: Each shape's rejection envelope: the maximum of its weights.
_ENVELOPES = {
    DiurnalShape.FLAT: 1.0,
    DiurnalShape.HUMAN: 1.9,
    DiurnalShape.NIGHTLY_BATCH: 8.25,
}

#: Mean call duration in seconds (exponential).
CALL_MEAN_S = 90.0


def sample_event_hours(
    count: int, shape: DiurnalShape, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` event hours-of-day following the diurnal shape.

    Rejection sampling against the shape's envelope; cheap because the
    envelopes are bounded.  Each round draws ``batch`` candidate hours
    and then their ``batch`` acceptance uniforms in one
    ``rng.random(2 * batch)`` call.  A FLAT shape keeps every candidate
    without computing weights: ``u * 1.0 <= 1.0`` for any ``u`` in
    [0, 1).
    """
    if count <= 0:
        return np.empty(0)
    envelope = _ENVELOPES[shape]
    kept = []
    missing = count
    while missing > 0:
        batch = max(16, 2 * missing)
        draws = rng.random(2 * batch)
        candidates = draws[:batch]
        candidates *= 24.0
        if shape is not DiurnalShape.FLAT:
            tests = draws[batch:]
            tests *= envelope
            candidates = candidates[tests <= diurnal_weights(shape, candidates)]
        kept.append(candidates[:missing])
        missing -= len(kept[-1])
    return kept[0] if len(kept) == 1 else np.concatenate(kept)


def session_bytes(normals: np.ndarray) -> np.ndarray:
    """Bytes of data sessions from their lognormal megabyte draws.

    ``normals`` holds each session's ``rng.normal(mu, sigma)`` draw; a
    session moves ``max(1, int(exp(z) * 1e6))`` bytes.  ``normals`` is
    overwritten with the megabytes.  This stays ``np.exp``, which gave
    the same bits over an array as per scalar on 300,000 draws, where
    ``math.exp`` differed from it on 13,871 (an AVX-512 CPU).  A
    session past int64 bytes raises :class:`OverflowError`, as storing
    it in an int64 column would.
    """
    megabytes = np.exp(normals, out=normals)
    with np.errstate(over="ignore"):
        # Past 1.8e302 megabytes the product is infinite, as the scalar
        # float product is, without a warning; exp's own overflow warns.
        megabytes *= 1_000_000
    if not (megabytes < 2.0**63).all():
        raise OverflowError("data session bytes past int64")
    sizes = megabytes.astype(np.int64)
    return np.maximum(sizes, 1, out=sizes)


@dataclass
class TrafficModel:
    """Per-day traffic generator for one device.

    Rates are per-day means for an *average* device of the profile; the
    device-specific ``intensity`` multiplier (drawn in
    :meth:`materialize`) spreads the population into a heavy tail.

    ``data_mb_mu``/``data_mb_sigma`` parameterize a lognormal for the
    day's transferred megabytes (when any data activity happens).
    """

    signaling_per_day: float
    calls_per_day: float
    data_sessions_per_day: float
    data_mb_mu: float = 0.0
    data_mb_sigma: float = 1.0
    diurnal: DiurnalShape = DiurnalShape.HUMAN
    intensity_sigma: float = 0.6
    intensity: float = 1.0

    def __post_init__(self) -> None:
        for name in ("signaling_per_day", "calls_per_day", "data_sessions_per_day"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")

    def materialize(self, rng: np.random.Generator) -> "TrafficModel":
        """Return a copy with a device-specific intensity drawn.

        Lognormal with unit median; ``intensity_sigma`` controls the
        spread (0 gives a homogeneous population).
        """
        intensity = float(np.exp(rng.normal(0.0, self.intensity_sigma)))
        return TrafficModel(
            signaling_per_day=self.signaling_per_day,
            calls_per_day=self.calls_per_day,
            data_sessions_per_day=self.data_sessions_per_day,
            data_mb_mu=self.data_mb_mu,
            data_mb_sigma=self.data_mb_sigma,
            diurnal=self.diurnal,
            intensity_sigma=self.intensity_sigma,
            intensity=intensity,
        )

    # -- per-day draws -----------------------------------------------------

    def daily_means(self) -> Tuple[float, float, float]:
        """Poisson means of a day's signaling events, calls and data
        sessions: the profile's rates times the device's intensity."""
        return (
            self.signaling_per_day * self.intensity,
            self.calls_per_day * self.intensity,
            self.data_sessions_per_day * self.intensity,
        )

    def draw_signaling_count(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.daily_means()[0]))

    def draw_session_bytes(self, rng: np.random.Generator) -> int:
        """Bytes for one data session (lognormal megabytes): the
        one-draw case of :func:`session_bytes`."""
        normal = np.array([rng.normal(self.data_mb_mu, self.data_mb_sigma)])
        return int(session_bytes(normal)[0])
