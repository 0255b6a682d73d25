"""Golden-digest oracle: every execution mode reproduces the same catalog.

``tests/golden_catalog.json`` pins, per seed and profile, the SHA-256 of
the catalog (``catalog_digest`` over day records and summaries), the
SHA-256 of the sorted ``(device, label, step)`` classification tuples
and, for lenient runs, the quarantine taxonomy.  Each mode — serial,
sharded, durable, a durable run interrupted after its first day and
resumed at another worker count, and a live daemon fed the rows in
shuffled batches — must match the pinned digests, so removing
or rewriting a code path is safe exactly when this table stays green.

Regenerate (only when the catalog is meant to change) with::

    PYTHONPATH=src python -m tests.test_golden_catalog
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.datasets.io import radio_event_to_dict, service_record_to_dict
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.faults import FaultPlan, inject_radio_events, inject_service_records
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.pipeline import run_pipeline
from repro.runtime import run_durable_pipeline
from repro.runtime.checkpoint import JOURNAL_NAME
from repro.service import CatalogDaemon, ServiceConfig
from repro.service.daemon import catalog_digest
from repro.signaling.cdr import ServiceRecord, ServiceType

from tests.service.test_daemon import ingest, request

GOLDEN_PATH = Path(__file__).with_name("golden_catalog.json")
SEEDS = (3, 9)
PROFILES = ("strict", "lenient")
N_DEVICES = 60
N_POISON = 3
ECO_CONFIG = EcosystemConfig(uk_sites=30, seed=11)

#: mode -> run_pipeline keyword arguments; None marks a mode with its
#: own runner (a live daemon, an interrupted and resumed durable run).
MODES: Dict[str, Any] = {
    "serial": {"n_workers": 1},
    # Shards cross the pool seam as RPCK column blocks.
    "sharded-rpck": {"n_workers": 2},
    "durable": {"n_workers": 2, "checkpoint_dir": True},
    "durable-resumed": None,
    "daemon-shuffled": None,
}
#: Rows per ingest batch in the daemon-shuffled mode.
DAEMON_BATCH_ROWS = 200


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


def observe_daemon(eco, dataset, seed: int, wal_dir: Path) -> Dict[str, Any]:
    """Catalog and class digests of an in-process daemon fed the dataset
    as seeded-shuffled batches, rows mixed across days.  A lenient
    dataset's poison devices are quarantined at snapshot; the daemon
    keeps no degradation report, so only the digests are pinned."""
    rows = [
        dict(radio_event_to_dict(event), kind="radio")
        for event in dataset.radio_events
    ] + [
        dict(service_record_to_dict(record), kind="service")
        for record in dataset.service_records
    ]
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]

    async def scenario() -> Dict[str, Any]:
        daemon = CatalogDaemon(eco, str(wal_dir))
        await daemon.start()
        try:
            for start in range(0, len(rows), DAEMON_BATCH_ROWS):
                batch = rows[start:start + DAEMON_BATCH_ROWS]
                response = await ingest(daemon.port, f"b-{start}", batch)
                assert response["status"] == "ok", response
            answer = await request(daemon.port, {"op": "digest"})
            classes = sorted(
                (device_id, c.label.value, c.step.value)
                for device_id, c in daemon._cached_classes.items()
            )
        finally:
            await daemon.stop()
        return {
            "catalog": answer["digest"],
            "classes": hashlib.sha256(repr(classes).encode("utf-8")).hexdigest(),
        }

    return asyncio.run(scenario())


class _Interrupted(Exception):
    """Raised from ``on_day`` to stop a durable run after its first day."""


def observe_resumed(eco, dataset, lenient: bool, ckpt: Path) -> Dict[str, Any]:
    """A durable run stopped by an exception after its first folded day,
    then resumed at a different worker count."""

    def interrupt(day: int) -> None:
        raise _Interrupted(day)

    with pytest.raises(_Interrupted):
        run_durable_pipeline(
            dataset, eco, ckpt, lenient=lenient, n_workers=2, on_day=interrupt
        )
    journal = (ckpt / JOURNAL_NAME).read_text(encoding="utf-8").splitlines()
    assert len({json.loads(line)["day"] for line in journal}) == 1
    return observe(
        run_durable_pipeline(
            dataset, eco, ckpt, resume=True, lenient=lenient, n_workers=1
        )
    )


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
    tmp_path, golden, golden_eco, datasets, seed, profile, mode
):
    expected = golden[f"{profile}-{seed}"]
    dataset = datasets[(seed, profile)]
    lenient = profile == "lenient"
    if mode == "daemon-shuffled":
        observed = observe_daemon(golden_eco, dataset, seed, tmp_path / "wal")
        assert observed == {key: expected[key] for key in observed}
        return
    if mode == "durable-resumed":
        observed = observe_resumed(golden_eco, dataset, lenient, tmp_path / "ckpt")
        assert observed == expected
        return
    kwargs = dict(MODES[mode])
    if kwargs.get("checkpoint_dir"):
        kwargs["checkpoint_dir"] = tmp_path / "ckpt"
    result = run_pipeline(dataset, golden_eco, lenient=lenient, **kwargs)
    assert observe(result) == expected


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
