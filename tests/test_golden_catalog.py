"""Golden-digest oracle: every execution mode reproduces the same catalog.

``tests/golden_catalog.json`` pins, per seed and profile, the SHA-256 of
the catalog (``catalog_digest`` over day records and summaries), the
SHA-256 of the sorted ``(device, label, step)`` classification tuples
and, for lenient runs, the quarantine taxonomy.  Each mode — serial,
sharded over both shard transports, durable, out-of-core — must match
the pinned digests, so removing or rewriting a code path is safe exactly
when this table stays green.

Regenerate (only when the catalog is meant to change) with::

    PYTHONPATH=src python -m tests.test_golden_catalog
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.faults import FaultPlan, inject_radio_events, inject_service_records
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.pipeline import run_pipeline
from repro.service.daemon import catalog_digest
from repro.signaling.cdr import ServiceRecord, ServiceType

GOLDEN_PATH = Path(__file__).with_name("golden_catalog.json")
SEEDS = (3, 9)
PROFILES = ("strict", "lenient")
N_DEVICES = 60
N_POISON = 3
ECO_CONFIG = EcosystemConfig(uk_sites=30, seed=11)

#: mode -> (run_pipeline keyword arguments, REPRO_TRANSPORT or None).
MODES: Dict[str, Any] = {
    "serial": ({"n_workers": 1}, None),
    "sharded-shm": ({"n_workers": 2}, "shm"),
    "sharded-rpck": ({"n_workers": 2}, "rpck"),
    "durable": ({"n_workers": 2, "checkpoint_dir": True}, None),
    "out-of-core": ({"n_workers": 1, "out_of_core": True}, None),
}


def _poison(device_id: str, timestamp: float) -> ServiceRecord:
    """A foreign SIM seen only on a foreign network: unlabelable, so the
    summary stage quarantines the device."""
    return ServiceRecord(
        device_id=device_id,
        timestamp=timestamp,
        sim_plmn="26202",
        visited_plmn="20801",
        service=ServiceType.VOICE,
        duration_s=30.0,
    )


def make_dataset(eco, seed: int, profile: str):
    dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=N_DEVICES, seed=seed))
    if profile == "strict":
        return dataset
    plan = FaultPlan(seed=seed, drop_rate=0.02, duplicate_rate=0.01, reorder_rate=0.02)
    events, _ = inject_radio_events(dataset.radio_events, plan)
    records, _ = inject_service_records(dataset.service_records, plan)
    poison = [_poison(f"poison-{i:02d}", 1000.0 + i) for i in range(N_POISON)]
    return dataclasses.replace(
        dataset, radio_events=events, service_records=list(records) + poison
    )


def observe(result) -> Dict[str, Any]:
    """The pinned view of one pipeline result."""
    classes = sorted(
        (device_id, c.label.value, c.step.value)
        for device_id, c in result.classifications.items()
    )
    observed: Dict[str, Any] = {
        "catalog": catalog_digest(result.day_records, result.summaries),
        "classes": hashlib.sha256(repr(classes).encode("utf-8")).hexdigest(),
    }
    report = result.degradation
    if report is not None:
        observed["n_devices_total"] = report.n_devices_total
        observed["n_devices_ok"] = report.n_devices_ok
        observed["n_failed_by_stage"] = dict(sorted(report.n_failed_by_stage.items()))
        observed["exemplars"] = [
            [f.device_id, f.stage, f.error] for f in report.exemplars
        ]
    return observed


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_eco():
    return build_default_ecosystem(ECO_CONFIG)


@pytest.fixture(scope="module")
def datasets(golden_eco):
    return {
        (seed, profile): make_dataset(golden_eco, seed, profile)
        for seed in SEEDS
        for profile in PROFILES
    }


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_mode_matches_golden_digests(
    tmp_path, monkeypatch, golden, golden_eco, datasets, seed, profile, mode
):
    kwargs, transport = MODES[mode]
    kwargs = dict(kwargs)
    if kwargs.get("checkpoint_dir"):
        kwargs["checkpoint_dir"] = tmp_path / "ckpt"
    if transport is not None:
        monkeypatch.setenv("REPRO_TRANSPORT", transport)
    result = run_pipeline(
        datasets[(seed, profile)],
        golden_eco,
        lenient=profile == "lenient",
        **kwargs,
    )
    assert observe(result) == golden[f"{profile}-{seed}"]


def _generate() -> Dict[str, Any]:
    eco = build_default_ecosystem(ECO_CONFIG)
    return {
        f"{profile}-{seed}": observe(
            run_pipeline(
                make_dataset(eco, seed, profile),
                eco,
                lenient=profile == "lenient",
                n_workers=1,
            )
        )
        for seed in SEEDS
        for profile in PROFILES
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(_generate(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
