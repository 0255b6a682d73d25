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
    """Vectorized :func:`diurnal_weight` over an array of hours."""
    if shape is DiurnalShape.FLAT:
        return np.ones_like(hours)
    if shape is DiurnalShape.HUMAN:
        return 1.0 + 0.9 * np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi)
    if shape is DiurnalShape.NIGHTLY_BATCH:
        return 0.25 + 8.0 * np.exp(-(((hours - 2.0) % 24.0) ** 2) / 2.0)
    raise ValueError(f"unknown diurnal shape {shape}")


def sample_event_hours(
    count: int, shape: DiurnalShape, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` event hours-of-day following the diurnal shape.

    Rejection sampling against the shape's envelope; cheap because the
    envelopes are bounded.
    """
    if count <= 0:
        return np.empty(0)
    envelope = {
        DiurnalShape.FLAT: 1.0,
        DiurnalShape.HUMAN: 1.9,
        DiurnalShape.NIGHTLY_BATCH: 8.25,
    }[shape]
    hours = np.empty(count)
    filled = 0
    while filled < count:
        batch = max(16, 2 * (count - filled))
        candidates = rng.random(batch) * 24.0
        accept = rng.random(batch) * envelope <= diurnal_weights(shape, candidates)
        accepted = candidates[accept][: count - filled]
        hours[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
    return hours


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

    def draw_signaling_count(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.signaling_per_day * self.intensity))

    def draw_call_count(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.calls_per_day * self.intensity))

    def draw_data_sessions(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.data_sessions_per_day * self.intensity))

    def draw_session_bytes(self, rng: np.random.Generator) -> int:
        """Bytes for one data session (lognormal megabytes)."""
        mb = float(np.exp(rng.normal(self.data_mb_mu, self.data_mb_sigma)))
        return max(1, int(mb * 1_000_000))

    def draw_call_duration_s(self, rng: np.random.Generator) -> float:
        """Call duration: exponential, 90 s mean."""
        return float(rng.exponential(90.0))
