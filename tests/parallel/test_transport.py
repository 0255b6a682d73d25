"""Zero-copy shard transport: round-trips, edge cases, leak contract.

Fast cases run in tier-1; the SIGKILL cases (a worker murdered while
attached, a publisher murdered mid-exchange) are marked ``chaos`` and
run with the dedicated chaos job.  The leak contract under test: after
any exit — normal close, worker SIGKILL, publisher SIGKILL — no
``rsx*`` exchange segment survives in ``/dev/shm``.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.columnar import from_record_streams
from repro.parallel.sharding import shard_columnar_records
from repro.parallel.transport import (
    SEGMENT_PREFIX,
    SHM_DIR,
    TRANSPORT_ENV_FLAG,
    TRANSPORT_RPCK,
    TRANSPORT_SHM,
    RpckShardDescriptor,
    ShmShardDescriptor,
    attach_shard,
    cleanup_stale_segments,
    owner_pid,
    publish_shards,
    select_transport,
)
from repro.pipeline import run_pipeline

REPO_ROOT = Path(__file__).resolve().parents[2]

_HAS_SHM = sys.platform != "win32" and os.path.isdir(SHM_DIR)


def _exchange_segments() -> list:
    """Exchange-owned segment files currently visible in /dev/shm."""
    if not os.path.isdir(SHM_DIR):
        return []
    return sorted(
        name for name in os.listdir(SHM_DIR) if name.startswith(SEGMENT_PREFIX)
    )


def assert_shards_equal(left, right):
    """Store equality via full row materialization (order included)."""
    left_events, left_records = left
    right_events, right_records = right
    assert left_events.to_rows() == right_events.to_rows()
    assert left_records.to_rows() == right_records.to_rows()


@pytest.fixture(scope="module")
def columnar_dataset(mno_dataset):
    return from_record_streams(
        mno_dataset.radio_events, mno_dataset.service_records
    )


@pytest.fixture(scope="module")
def shards(columnar_dataset):
    events_c, records_c = columnar_dataset
    return shard_columnar_records(events_c, records_c, 4)


# -- transport selection -----------------------------------------------------

def test_select_transport_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(TRANSPORT_ENV_FLAG, TRANSPORT_SHM)
    assert select_transport(TRANSPORT_RPCK) == TRANSPORT_RPCK


def test_select_transport_env_beats_default(monkeypatch):
    monkeypatch.setenv(TRANSPORT_ENV_FLAG, TRANSPORT_RPCK)
    assert select_transport() == TRANSPORT_RPCK


def test_select_transport_defaults_to_shm(monkeypatch):
    monkeypatch.delenv(TRANSPORT_ENV_FLAG, raising=False)
    if sys.platform == "win32":  # pragma: no cover - POSIX CI
        assert select_transport() == TRANSPORT_RPCK
    else:
        assert select_transport() == TRANSPORT_SHM


def test_select_transport_rejects_unknown():
    with pytest.raises(ValueError, match="unknown transport"):
        select_transport("carrier-pigeon")


def test_select_transport_windows_never_returns_shm(monkeypatch):
    """Explicit shm requests degrade to rpck where unlink semantics
    don't hold; the caller never has to special-case the platform."""
    monkeypatch.setattr(sys, "platform", "win32")
    assert select_transport(TRANSPORT_SHM) == TRANSPORT_RPCK
    assert select_transport(TRANSPORT_RPCK) == TRANSPORT_RPCK


# -- round-trips and edge cases ----------------------------------------------

@pytest.mark.parametrize("transport", [TRANSPORT_RPCK, TRANSPORT_SHM])
def test_shard_descriptor_roundtrip(shards, transport):
    if transport == TRANSPORT_SHM and not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    with publish_shards(shards, transport=transport) as exchange:
        assert len(exchange.descriptors) == len(shards)
        for shard, descriptor in zip(shards, exchange.descriptors):
            assert_shards_equal(shard, attach_shard(descriptor))


def test_shm_shards_share_one_pools_segment(shards):
    if not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    with publish_shards(shards, transport=TRANSPORT_SHM) as exchange:
        pools = {d.pools_segment for d in exchange.descriptors}
        data = {d.data_segment for d in exchange.descriptors}
        assert len(pools) == 1
        assert len(data) == len(shards)
        assert all(isinstance(d, ShmShardDescriptor) for d in exchange.descriptors)


def test_rpck_descriptors_are_self_contained(shards):
    with publish_shards(shards, transport=TRANSPORT_RPCK) as exchange:
        assert all(isinstance(d, RpckShardDescriptor) for d in exchange.descriptors)
        assert exchange.payload_nbytes == sum(
            len(d.payload) for d in exchange.descriptors
        )
        assert _exchange_segments() == []


@pytest.mark.parametrize("transport", [TRANSPORT_RPCK, TRANSPORT_SHM])
def test_empty_shard_roundtrip(transport):
    if transport == TRANSPORT_SHM and not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    events_c, records_c = from_record_streams([], [])
    empty = shard_columnar_records(events_c, records_c, 3)
    assert len(empty) == 3
    with publish_shards(empty, transport=transport) as exchange:
        for shard, descriptor in zip(empty, exchange.descriptors):
            attached = attach_shard(descriptor)
            assert len(attached[0]) == 0
            assert len(attached[1]) == 0
            assert_shards_equal(shard, attached)


@pytest.mark.parametrize("transport", [TRANSPORT_RPCK, TRANSPORT_SHM])
def test_single_device_shard_roundtrip(mno_dataset, transport):
    """One device, four shards: every row lands in one shard, the other
    shards ride the exchange empty, and all of them round-trip."""
    if transport == TRANSPORT_SHM and not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    device = mno_dataset.radio_events[0].device_id
    events = [e for e in mno_dataset.radio_events if e.device_id == device]
    records = [r for r in mno_dataset.service_records if r.device_id == device]
    events_c, records_c = from_record_streams(events, records)
    lone = shard_columnar_records(events_c, records_c, 4)
    occupied = [shard for shard in lone if len(shard[0]) or len(shard[1])]
    assert len(occupied) == 1
    with publish_shards(lone, transport=transport) as exchange:
        for shard, descriptor in zip(lone, exchange.descriptors):
            assert_shards_equal(shard, attach_shard(descriptor))


def test_publish_empty_shard_list():
    with publish_shards([]) as exchange:
        assert exchange.descriptors == []
    assert _exchange_segments() == []


# -- lifecycle and the leak contract -----------------------------------------

def test_close_unlinks_every_segment(shards):
    if not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    exchange = publish_shards(shards, transport=TRANSPORT_SHM)
    published = _exchange_segments()
    assert len(published) == len(shards) + 1  # one pools + one per shard
    assert all(owner_pid(name) == os.getpid() for name in published)
    exchange.close()
    assert _exchange_segments() == []
    exchange.close()  # idempotent
    assert _exchange_segments() == []


def test_context_manager_cleans_up_on_error(shards):
    if not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    with pytest.raises(RuntimeError, match="boom"):
        with publish_shards(shards, transport=TRANSPORT_SHM):
            assert _exchange_segments() != []
            raise RuntimeError("boom")
    assert _exchange_segments() == []


def test_owner_pid_parsing():
    assert owner_pid(f"{SEGMENT_PREFIX}{0x2a:x}-1-p") == 42
    assert owner_pid("psm_deadbeef") is None  # not an exchange segment
    assert owner_pid(f"{SEGMENT_PREFIX}nothex-1-p") is None


def test_cleanup_stale_segments_sweeps_only_dead_owners(tmp_path):
    """The sweep unlinks dead-owner segments and leaves everything else:
    live-owner segments and foreign files alike."""
    child = multiprocessing.Process(target=lambda: None)
    child.start()
    child.join()
    dead_pid = child.pid
    shm_dir = tmp_path / "shm"
    shm_dir.mkdir()
    stale = f"{SEGMENT_PREFIX}{dead_pid:x}-1-p"
    live = f"{SEGMENT_PREFIX}{os.getpid():x}-1-p"
    foreign = "psm_something_else"
    for name in (stale, live, foreign):
        (shm_dir / name).write_bytes(b"x")
    removed = cleanup_stale_segments(str(shm_dir))
    assert removed == [stale]
    assert sorted(p.name for p in shm_dir.iterdir()) == sorted([live, foreign])


def test_cleanup_missing_dir_is_harmless(tmp_path):
    assert cleanup_stale_segments(str(tmp_path / "nope")) == []


# -- forced-transport pipeline equality --------------------------------------

def test_pipeline_equality_with_forced_rpck(eco, mno_dataset, pipeline, monkeypatch):
    """REPRO_TRANSPORT=rpck must produce the same bytes as serial — the
    fallback transport honours the same contract as shm."""
    monkeypatch.setenv(TRANSPORT_ENV_FLAG, TRANSPORT_RPCK)
    sharded = run_pipeline(mno_dataset, eco, n_workers=2)
    assert sharded.day_records == pipeline.day_records
    assert list(sharded.summaries) == list(pipeline.summaries)
    assert sharded.summaries == pipeline.summaries
    assert list(sharded.classifications) == list(pipeline.classifications)
    assert sharded.classifications == pipeline.classifications
    assert _exchange_segments() == []


# -- SIGKILL at the exchange seam (chaos job) --------------------------------

def _attach_and_hang(descriptor, attached_event):
    """Chaos worker: attach the shard, signal, then wait to be killed."""
    attach_shard(descriptor)
    attached_event.set()
    time.sleep(60.0)


@pytest.mark.chaos
def test_sigkilled_worker_leaks_no_segments(shards):
    """SIGKILL a worker while it holds an attached shard: the segments
    belong to the publisher, so close() still unlinks every one."""
    if not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    exchange = publish_shards(shards, transport=TRANSPORT_SHM)
    try:
        attached = multiprocessing.Event()
        worker = multiprocessing.Process(
            target=_attach_and_hang, args=(exchange.descriptors[0], attached)
        )
        worker.start()
        assert attached.wait(timeout=30.0), "worker never attached"
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=30.0)
        assert worker.exitcode == -signal.SIGKILL
        # The murdered worker took nothing with it: every published
        # segment is still attachable from the parent ...
        for shard, descriptor in zip(shards, exchange.descriptors):
            assert_shards_equal(shard, attach_shard(descriptor))
    finally:
        exchange.close()
    # ... and normal close still leaves /dev/shm spotless.
    assert _exchange_segments() == []


_PUBLISHER_SCRIPT = """
import os
import signal
import sys

from repro.columnar import from_record_streams
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.parallel.sharding import shard_columnar_records
from repro.parallel.transport import publish_shards

eco = build_default_ecosystem(EcosystemConfig(uk_sites=20, seed=11))
dataset = simulate_mno_dataset(eco, MNOConfig(n_devices=40, seed=3))
events_c, records_c = from_record_streams(
    dataset.radio_events, dataset.service_records
)
shards = shard_columnar_records(events_c, records_c, 2)
exchange = publish_shards(shards, transport="shm")
print(len(exchange.descriptors), flush=True)
# Mid-exchange, segments live: die exactly like an OOM kill.
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.chaos
def test_sigkilled_publisher_leaves_no_stale_segments():
    """SIGKILL the publisher mid-exchange: between the resource tracker
    and the stale sweep, no segment of the dead pid survives."""
    if not _HAS_SHM:
        pytest.skip("no shared-memory filesystem on this platform")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PUBLISHER_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert proc.stdout.strip() == "2"  # two shard descriptors were published
    dead_prefix_names = [
        name
        for name in _exchange_segments()
        if (pid := owner_pid(name)) is not None and not _pid_is_ours(pid)
    ]
    # The child's resource tracker outlives the SIGKILL and unlinks the
    # registered segments; give it a moment, then run the belt-and-braces
    # sweep for anything it missed.
    deadline = time.monotonic() + 10.0
    while dead_prefix_names and time.monotonic() < deadline:
        time.sleep(0.2)
        cleanup_stale_segments()
        dead_prefix_names = [
            name
            for name in _exchange_segments()
            if (pid := owner_pid(name)) is not None and not _pid_is_ours(pid)
        ]
    assert dead_prefix_names == []


def _pid_is_ours(pid: int) -> bool:
    return pid == os.getpid()
