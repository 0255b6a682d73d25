"""SIGKILL kill-matrix: murder the run anywhere, resume, same bytes.

Each case launches a subprocess that runs the durable pipeline with a
:class:`~repro.faults.crash.KillSwitch` armed at one seam — before the
first unit publishes, mid-day between two shards, at a day boundary, or
inside the checkpoint-rename window — and verifies the child actually
died by SIGKILL (nothing cleaned up, exactly like an OOM kill).  The
parent then resumes the checkpoint directory in-process and asserts the
result is identical to an uninterrupted serial run, and that the
journal proves completed units were never re-executed.

Marked ``durability`` and excluded from the tier-1 run (like ``chaos``);
CI runs it as a dedicated job: ``pytest -m durability``.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.faults.crash import KILL_AT_DAY, KILL_AT_RENAME, KILL_AT_UNIT
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.pipeline import run_pipeline
from repro.runtime import run_durable_pipeline
from repro.runtime.checkpoint import MANIFEST_NAME
from repro.signaling.cdr import ServiceRecord, ServiceType

pytestmark = pytest.mark.durability

REPO_ROOT = Path(__file__).resolve().parents[2]
DEVICES = 100
UK_SITES = 30

CHILD_SCRIPT = """
import dataclasses
import sys

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.faults.crash import KillSwitch
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.runtime import run_durable_pipeline
from repro.signaling.cdr import ServiceRecord, ServiceType

(
    point, day, shard, ckpt, devices, seed, workers, lenient,
) = sys.argv[1:9]
eco = build_default_ecosystem(EcosystemConfig(uk_sites={uk_sites}, seed=11))
dataset = simulate_mno_dataset(
    eco, MNOConfig(n_devices=int(devices), seed=int(seed))
)
if lenient == "1":
    poison = ServiceRecord(
        device_id="poison-kill",
        timestamp=1000.0,
        sim_plmn="26202",
        visited_plmn="20801",
        service=ServiceType.VOICE,
        duration_s=30.0,
    )
    dataset = dataclasses.replace(
        dataset, service_records=dataset.service_records + [poison]
    )
switch = KillSwitch(point=point, day=int(day), shard=int(shard))
run_durable_pipeline(
    dataset,
    eco,
    checkpoint_dir=ckpt,
    n_workers=int(workers),
    lenient=lenient == "1",
    on_unit=switch.on_unit,
    on_day=switch.on_day,
    before_replace=switch.before_replace,
)
raise SystemExit("kill switch never fired")
""".format(uk_sites=UK_SITES)

_ECO_CACHE = {}
_DATASET_CACHE = {}
_BASELINE_CACHE = {}


def _eco():
    if "eco" not in _ECO_CACHE:
        _ECO_CACHE["eco"] = build_default_ecosystem(
            EcosystemConfig(uk_sites=UK_SITES, seed=11)
        )
    return _ECO_CACHE["eco"]


def _dataset(seed, lenient):
    key = (seed, lenient)
    if key not in _DATASET_CACHE:
        dataset = simulate_mno_dataset(
            _eco(), MNOConfig(n_devices=DEVICES, seed=seed)
        )
        if lenient:
            poison = ServiceRecord(
                device_id="poison-kill",
                timestamp=1000.0,
                sim_plmn="26202",
                visited_plmn="20801",
                service=ServiceType.VOICE,
                duration_s=30.0,
            )
            dataset = dataclasses.replace(
                dataset, service_records=dataset.service_records + [poison]
            )
        _DATASET_CACHE[key] = dataset
    return _DATASET_CACHE[key]


def _baseline(seed, lenient):
    key = (seed, lenient)
    if key not in _BASELINE_CACHE:
        _BASELINE_CACHE[key] = run_pipeline(
            _dataset(seed, lenient), _eco(), lenient=lenient, n_workers=1
        )
    return _BASELINE_CACHE[key]


def _run_child_until_killed(ckpt, point, day, shard, seed, workers, lenient):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    stderr_path = Path(ckpt).parent / "child_stderr.log"
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable, "-c", CHILD_SCRIPT,
                point, str(day), str(shard), str(ckpt), str(DEVICES), str(seed),
                str(workers), "1" if lenient else "0",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        returncode = proc.wait(timeout=300)
    assert returncode == -signal.SIGKILL, (
        f"child exited {returncode}, expected SIGKILL; "
        f"stderr:\n{stderr_path.read_text(encoding='utf-8')}"
    )


def _resume_and_check(ckpt, seed, lenient):
    result = run_durable_pipeline(
        _dataset(seed, lenient),
        _eco(),
        checkpoint_dir=ckpt,
        resume=True,
        n_workers=1,
        lenient=lenient,
    )
    baseline = _baseline(seed, lenient)
    assert result.day_records == baseline.day_records
    assert result.summaries == baseline.summaries
    assert list(result.summaries) == list(baseline.summaries)
    assert result.classifications == baseline.classifications
    assert list(result.classifications) == list(baseline.classifications)
    if lenient:
        assert "poison-kill" not in result.summaries
        ours, theirs = result.degradation, baseline.degradation
        assert ours.n_devices_total == theirs.n_devices_total
        assert dict(ours.n_failed_by_stage) == dict(theirs.n_failed_by_stage)
    return result


def _journal_attempt_sets(ckpt):
    from repro.runtime.checkpoint import CheckpointStore

    doc = json.loads((Path(ckpt) / MANIFEST_NAME).read_text(encoding="utf-8"))
    store = CheckpointStore(
        ckpt, doc["payload"]["fingerprint"], n_shards=1, resume=True
    )
    entries = store.journal_entries()
    store.close()
    by_attempt = {}
    for entry in entries:
        by_attempt.setdefault(entry["attempt"], set()).add(
            (entry["day"], entry["shard"])
        )
    return by_attempt


#: (kill point, day, shard) — first unit, mid-day shard, day boundary,
#: and inside the rename window.
KILL_SPECS = [
    (KILL_AT_UNIT, 0, 0),
    (KILL_AT_UNIT, 3, 1),
    (KILL_AT_DAY, 2, 0),
    (KILL_AT_RENAME, 3, 0),
]


@pytest.mark.parametrize("seed", [3, 5, 7])
@pytest.mark.parametrize("point,day,shard", KILL_SPECS)
def test_kill_matrix_resume_is_byte_identical(tmp_path, point, day, shard, seed):
    ckpt = tmp_path / "ckpt"
    _run_child_until_killed(ckpt, point, day, shard, seed, workers=2, lenient=False)
    _resume_and_check(ckpt, seed, lenient=False)
    # Resume swept the staging file a kill in the rename window strands.
    assert list(ckpt.rglob("*.tmp")) == []
    by_attempt = _journal_attempt_sets(ckpt)
    # Units completed before the kill are never re-executed on resume.
    assert not by_attempt.get(0, set()) & by_attempt.get(1, set())


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("lenient", [False, True])
def test_kill_sweep_modes_and_workers(tmp_path, workers, lenient):
    ckpt = tmp_path / "ckpt"
    _run_child_until_killed(
        ckpt, KILL_AT_UNIT, 2, 0, seed=3, workers=workers, lenient=lenient
    )
    _resume_and_check(ckpt, seed=3, lenient=lenient)
