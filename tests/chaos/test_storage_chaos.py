"""Storage chaos: every fault class, at every seam, across seeds.

The acceptance bar for the storage-fault layer: for each fault class
(``enospc``/``eio-write``/``short-write``/``fsync-fail``/``rename-fail``
at the write/publish/journal seams, ``bit-rot`` at rest, ``eio-read``
at the resume seam) and three plan seeds, a strict run either absorbs the
fault under its retry budget or aborts typed with a consistent store —
and resume-then-scrub always converges to the **byte-identical**
catalog digest of an uninterrupted run.  Lenient runs never crash: they
quarantine the sick unit and converge on the next resume.

Excluded from tier-1 by the ``storage_chaos`` marker; CI runs it as its
own job with ``pytest -m storage_chaos``.
"""

import os
import subprocess
import sys

import pytest

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.faults.fsfault import (
    BIT_ROT,
    EIO_READ,
    EIO_WRITE,
    ENOSPC,
    FSFAULT_PLAN_ENV,
    FSYNC_FAIL,
    RENAME_FAIL,
    SHORT_WRITE,
    FsFault,
    FsFaultPlan,
    install,
)
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.parallel.health import STORAGE_FAULT, TORN_CHECKPOINT, UNIT_QUARANTINED
from repro.pipeline import run_pipeline
from repro.runtime import run_durable_pipeline
from repro.runtime.checkpoint import JOURNAL_NAME, StorageAbort, parse_journal_lines
from repro.runtime.scrub import recompute_from_dataset, scrub_store
from repro.service import catalog_digest

pytestmark = pytest.mark.storage_chaos

SEEDS = (0, 1, 2)
WRITE_FAULTS = (ENOSPC, EIO_WRITE, SHORT_WRITE, FSYNC_FAIL, RENAME_FAIL)
N_DEVICES = 60


@pytest.fixture(scope="module")
def eco():
    return build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))


@pytest.fixture(scope="module")
def dataset(eco):
    return simulate_mno_dataset(eco, MNOConfig(n_devices=N_DEVICES, seed=3))


@pytest.fixture(scope="module")
def baseline_digest(eco, dataset):
    result = run_pipeline(dataset, eco, n_workers=1)
    return catalog_digest(result.day_records, result.summaries)


def digest(result):
    return catalog_digest(result.day_records, result.summaries)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", WRITE_FAULTS)
def test_transient_write_faults_are_absorbed(
    tmp_path, eco, dataset, baseline_digest, kind, seed
):
    """Faults inside the retry budget never change the result."""
    plan = FsFaultPlan(
        seed=seed, faults=(FsFault(kind, match="shard", times=2),)
    )
    with install(plan) as injector:
        result = run_durable_pipeline(
            dataset, eco, checkpoint_dir=tmp_path / "ckpt", n_workers=1
        )
    assert injector.n_fired == 2
    assert digest(result) == baseline_digest
    # Every absorbed fault left a typed incident, not silence.
    kinds = {i.kind for i in result.health.incidents if i.op}
    assert kinds == {STORAGE_FAULT}
    assert scrub_store(tmp_path / "ckpt").ok


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", (ENOSPC, EIO_WRITE, RENAME_FAIL))
def test_persistent_fault_aborts_typed_then_resume_converges(
    tmp_path, eco, dataset, baseline_digest, kind, seed
):
    """Exhausted retries abort typed; the store resumes to the same bytes."""
    ckpt = tmp_path / "ckpt"
    plan = FsFaultPlan(
        seed=seed, faults=(FsFault(kind, match="day_002", times=-1),)
    )
    with install(plan):
        with pytest.raises(StorageAbort) as excinfo:
            run_durable_pipeline(dataset, eco, checkpoint_dir=ckpt, n_workers=1)
    assert excinfo.value.day == 2
    assert "can be resumed" in str(excinfo.value)
    # No torn state: the interrupted store already scrubs clean.
    report = scrub_store(ckpt)
    assert not report.damaged and not report.n_stray_tmp
    result = run_durable_pipeline(
        dataset, eco, checkpoint_dir=ckpt, resume=True, n_workers=1
    )
    assert digest(result) == baseline_digest
    assert scrub_store(ckpt).ok


@pytest.mark.parametrize("seed", SEEDS)
def test_lenient_quarantines_sick_unit_then_converges(
    tmp_path, eco, dataset, baseline_digest, seed
):
    ckpt = tmp_path / "ckpt"
    plan = FsFaultPlan(
        seed=seed, faults=(FsFault(ENOSPC, match="day_001", times=-1),)
    )
    with install(plan):
        degraded = run_durable_pipeline(
            dataset, eco, checkpoint_dir=ckpt, n_workers=1, lenient=True
        )
    kinds = {i.kind for i in degraded.health.incidents if i.op}
    assert UNIT_QUARANTINED in kinds
    # The sick unit is absent from the degraded catalog, not wrong.
    assert digest(degraded) != baseline_digest
    result = run_durable_pipeline(
        dataset, eco, checkpoint_dir=ckpt, resume=True, n_workers=1, lenient=True
    )
    assert digest(result) == baseline_digest


@pytest.mark.parametrize("seed", SEEDS)
def test_bit_rot_at_rest_is_scrubbed_back_to_identical_bytes(
    tmp_path, eco, dataset, baseline_digest, seed
):
    ckpt = tmp_path / "ckpt"
    plan = FsFaultPlan(
        seed=seed,
        faults=(FsFault(BIT_ROT, match="day_001.shard_000", flips=3, times=1),),
    )
    with install(plan):
        result = run_durable_pipeline(
            dataset, eco, checkpoint_dir=ckpt, n_workers=1
        )
    # Rot is silent at write time: the in-memory run is untouched...
    assert digest(result) == baseline_digest
    # ...but the scrubber catches the at-rest damage,
    report = scrub_store(ckpt)
    assert [u.damage for u in report.damaged] == ["bit-rot"]
    # heals it byte-identically from the original inputs,
    healed = scrub_store(
        ckpt, repair=True, recompute=recompute_from_dataset(dataset)
    )
    assert healed.n_recomputed == 1 and healed.healthy_after_scrub
    assert scrub_store(ckpt).ok
    # and a resume folding the healed store reproduces the digest.
    resumed = run_durable_pipeline(
        dataset, eco, checkpoint_dir=ckpt, resume=True, n_workers=1
    )
    assert digest(resumed) == baseline_digest


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_read_eio_at_the_resume_seam(
    tmp_path, eco, dataset, baseline_digest, lenient, seed
):
    """A journaled unit that cannot be read on resume is re-executed."""
    ckpt = tmp_path / "ckpt"
    run_durable_pipeline(
        dataset, eco, checkpoint_dir=ckpt, n_workers=1, lenient=lenient
    )
    plan = FsFaultPlan(
        seed=seed,
        faults=(FsFault(EIO_READ, match="day_001.shard_000", times=-1),),
    )
    with install(plan):
        resumed = run_durable_pipeline(
            dataset, eco, checkpoint_dir=ckpt, resume=True, n_workers=1,
            lenient=lenient,
        )
    assert digest(resumed) == baseline_digest
    assert resumed.health.count(TORN_CHECKPOINT) == 1
    assert [(i.kind, i.op) for i in resumed.health.incidents if i.op] == [
        (STORAGE_FAULT, "read")
    ]
    lines = (ckpt / JOURNAL_NAME).read_text(encoding="utf-8").splitlines()
    entries, _ = parse_journal_lines(lines)
    assert {(e["day"], e["shard"]) for e in entries if e["attempt"] == 1} == {
        (1, 0)
    }
    assert scrub_store(ckpt).ok


CHILD_SCRIPT = """
import sys

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.runtime import run_durable_pipeline
from repro.runtime.checkpoint import JOURNAL_NAME, StorageAbort, parse_journal_lines

eco = build_default_ecosystem(EcosystemConfig(uk_sites=30, seed=11))
dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=int(sys.argv[2]), seed=3))
try:
    run_durable_pipeline(dataset, eco, checkpoint_dir=sys.argv[1], n_workers=1)
except StorageAbort as exc:
    print(f"aborted: day={exc.day}")
    sys.exit(17)
sys.exit(0)
"""


def test_env_plan_reaches_subprocesses(tmp_path, eco, dataset, baseline_digest):
    """``REPRO_FSFAULT_PLAN`` arms whole process trees, not just installs."""
    ckpt = tmp_path / "ckpt"
    plan = FsFaultPlan(
        seed=0, faults=(FsFault(ENOSPC, match="day_002", times=-1),)
    )
    env = dict(os.environ)
    env[FSFAULT_PLAN_ENV] = plan.to_json()
    env["PYTHONPATH"] = "src"
    child = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(ckpt), str(N_DEVICES)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert child.returncode == 17, child.stderr
    assert "aborted: day=2" in child.stdout
    # This process never saw the plan; the resume runs clean.
    result = run_durable_pipeline(
        dataset, eco, checkpoint_dir=ckpt, resume=True, n_workers=1
    )
    assert digest(result) == baseline_digest
    assert scrub_store(ckpt).ok
