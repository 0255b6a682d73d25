"""Runtime-suite fixtures: one small world, datasets sized for sweeps.

The durable-execution tests run the pipeline many times (equality
sweeps across worker counts × strict/lenient), so the dataset here is
deliberately smaller than the session-wide one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.signaling.cdr import ServiceRecord, ServiceType


@pytest.fixture(scope="session")
def small_eco():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


@pytest.fixture(scope="session")
def small_dataset(small_eco):
    return simulate_mno_dataset(small_eco, MNOConfig(n_devices=120, seed=3))


def poison_record(device_id: str) -> ServiceRecord:
    """A record whose device can never be summarized (foreign SIM on a
    foreign network inside the observer's trace) — the canonical lenient
    -mode quarantine trigger shared with the chaos suite."""
    return ServiceRecord(
        device_id=device_id,
        timestamp=1000.0,
        sim_plmn="26202",
        visited_plmn="20801",
        service=ServiceType.VOICE,
        duration_s=30.0,
    )


@pytest.fixture(scope="session")
def poisoned_dataset(small_dataset):
    return dataclasses.replace(
        small_dataset,
        service_records=small_dataset.service_records
        + [poison_record("poison-runtime")],
    )
