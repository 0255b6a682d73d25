"""The catalog kernel's blocks: the result does not depend on the block
size, and a build stays near the size of its input columns.

The kernel derives ``_BLOCK_DEVICES`` devices' cells at a time; the
block size only bounds the temporaries, so patching it to 1 and 7 must
give the catalog, the classification and the quarantine of the default
block, through the one-shot build, ``build_day_records`` and a
day-by-day ``update``/``snapshot`` fold.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.columnar import from_record_streams
from repro.core import catalog as catalog_module
from repro.core.catalog import CatalogBuilder
from repro.core.classifier import DeviceClassifier
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.service.daemon import catalog_digest

from tests.test_golden_catalog import ECO_CONFIG, PROFILES, SEEDS, make_dataset


@pytest.fixture(scope="module")
def golden_eco():
    return build_default_ecosystem(ECO_CONFIG)


@pytest.fixture(scope="module")
def columns(golden_eco):
    out = {}
    for seed in SEEDS:
        for profile in PROFILES:
            dataset = make_dataset(golden_eco, seed, profile)
            out[(seed, profile)] = dataset.columns or from_record_streams(
                dataset.radio_events, dataset.service_records
            )
    return out


def _builder(eco):
    return CatalogBuilder(
        eco.tac_db, eco.uk_sectors, RoamingLabeler(eco.operators, eco.uk_mno)
    )


def _classes(summaries):
    classes = sorted(
        (device_id, c.label.value, c.step.value)
        for device_id, c in DeviceClassifier().classify(summaries).items()
    )
    return hashlib.sha256(repr(classes).encode("utf-8")).hexdigest()


def _fold(builder, radio, service, lenient):
    """Feed the stores day by day, snapshotting after every other day."""
    radio_days = np.frombuffer(radio.days, dtype=np.int64)
    service_days = np.frombuffer(service.days, dtype=np.int64)
    days = sorted(set(radio_days.tolist()) | set(service_days.tolist()))
    for n, day in enumerate(days):
        builder.update(
            day,
            radio.select(np.flatnonzero(radio_days == day)),
            service.select(np.flatnonzero(service_days == day)),
        )
        if n % 2:
            builder.snapshot(lenient=lenient)
    return builder.snapshot(lenient=lenient)


def _observe(eco, radio, service, lenient):
    one_shot = _builder(eco)
    records, summaries = one_shot.build_from_columns(radio, service, lenient=lenient)
    day_records = (
        None if lenient else _builder(eco).build_day_records(radio, service)
    )
    folded = _builder(eco)
    fold = _fold(folded, radio, service, lenient)
    return {
        "build": catalog_digest(records, summaries),
        "classes": _classes(summaries),
        "quarantined": sorted(one_shot.quarantined),
        "day_records": day_records and (
            catalog_digest(day_records[0], {}), sorted(day_records[1].items())
        ),
        "fold": catalog_digest(*fold),
        "fold_classes": _classes(fold[1]),
        "fold_quarantined": sorted(folded.quarantined),
    }


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_block_size_does_not_change_the_catalog(
    monkeypatch, golden_eco, columns, seed, profile
):
    radio, service = columns[(seed, profile)]
    lenient = profile == "lenient"
    devices = radio.pools.devices.strings
    radio_only = set(devices) - {devices[i] for i in service.device_ids}
    service_only = set(devices) - {devices[i] for i in radio.device_ids}
    # The dataset reaches every branch: devices with one stream only.
    assert radio_only and service_only
    expected = _observe(golden_eco, radio, service, lenient)
    assert expected["build"] == expected["fold"]
    if lenient:
        assert expected["quarantined"] and (
            expected["quarantined"] == expected["fold_quarantined"]
        )
    for block in (1, 7):
        monkeypatch.setattr(catalog_module, "_BLOCK_DEVICES", block)
        assert _observe(golden_eco, radio, service, lenient) == expected


def test_build_memory_stays_near_the_input_columns():
    """The kernel's temporaries are per block: the one-shot build over
    ``run_default``'s dataset peaks (tracemalloc) under 1.5 times the
    input stores' column bytes, records and summaries included."""
    eco = build_default_ecosystem(EcosystemConfig(uk_sites=80, seed=11))
    radio, service = simulate_mno_dataset(eco, MNOConfig(n_devices=800, seed=7)).columns
    builder = _builder(eco)
    tracemalloc.start()
    try:
        builder.build_from_columns(radio, service)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (radio.nbytes + service.nbytes)
