"""Service chaos: SIGKILL the daemon anywhere, restart, same catalog.

Each kill case runs the daemon in a subprocess, murders it at a named
seam — just before a batch's WAL append, inside the checkpoint-rename
window, or externally mid-stream after N durable acks — and verifies the
child actually died by SIGKILL.  The parent then restarts the daemon
in-process with ``resume=True``, re-sends only the batches that were
*never acknowledged*, and asserts the final catalog digest equals an
uninterrupted reference build: no acknowledged batch is ever lost, and
re-sent unacked batches dedupe instead of double-ingesting.

The overload storm runs in-process: a saturated queue must shed (typed,
with retry guidance), stay bounded, and still converge to the exact
reference catalog once clients honor the backpressure contract.

Marked ``service_chaos`` and excluded from tier-1; CI runs it as a
dedicated job: ``pytest -m service_chaos``.
"""

import asyncio
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.columnar import from_record_streams
from repro.core.catalog import CatalogBuilder
from repro.core.roaming import RoamingLabeler
from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.faults.crash import tear_journal_tail
from repro.mno import MNOConfig, simulate_mno_dataset
from repro.parallel.health import TORN_CHECKPOINT
from repro.service import CatalogClient, CatalogDaemon, ServiceConfig, catalog_digest
from repro.service.client import ServiceUnavailable

from tests.service.conftest import dataset_batches

pytestmark = pytest.mark.service_chaos

REPO_ROOT = Path(__file__).resolve().parents[2]
UK_SITES = 30
DEVICES = 30

#: Kill seams: before the WAL append of batch ``seq``; inside the
#: rename window of unit ``seq``; externally after ``seq`` acks.
KILL_AT_BATCH = "batch"
KILL_AT_RENAME = "rename"
KILL_EXTERNAL = "external"

CHILD_SCRIPT = """
import asyncio
import os
import signal
import sys

from repro.ecosystem import EcosystemConfig, build_default_ecosystem
from repro.service import CatalogDaemon, ServiceConfig

mode, kill_seq, ckpt, uk_sites = sys.argv[1:5]
kill_seq = int(kill_seq)
eco = build_default_ecosystem(EcosystemConfig(uk_sites=int(uk_sites), seed=11))


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


on_batch = None
before_replace = None
if mode == "batch":
    def on_batch(batch_id, seq):
        if seq == kill_seq:
            _die()
elif mode == "rename":
    def before_replace(target):
        if target.name == "day_%03d.shard_000.ckpt" % kill_seq:
            _die()


async def main():
    daemon = CatalogDaemon(
        eco,
        ckpt,
        ServiceConfig(snapshot_interval_s=0.2),
        on_batch=on_batch,
        before_replace=before_replace,
    )
    await daemon.start()
    print(daemon.port, flush=True)
    await daemon.serve_until_stopped()


asyncio.run(main())
raise SystemExit("daemon exited without being killed")
"""

_CACHE = {}


def _eco():
    if "eco" not in _CACHE:
        _CACHE["eco"] = build_default_ecosystem(
            EcosystemConfig(uk_sites=UK_SITES, seed=11)
        )
    return _CACHE["eco"]


def _batches(seed):
    key = ("batches", seed)
    if key not in _CACHE:
        dataset = simulate_mno_dataset(
            _eco(), MNOConfig(n_devices=DEVICES, seed=seed)
        )
        _CACHE[key] = (dataset, dataset_batches(dataset))
    return _CACHE[key]


def _reference_digest(seed):
    key = ("digest", seed)
    if key not in _CACHE:
        dataset, _ = _batches(seed)
        eco = _eco()
        builder = CatalogBuilder(
            eco.tac_db, eco.uk_sectors, RoamingLabeler(eco.operators, eco.uk_mno)
        )
        _CACHE[key] = catalog_digest(
            *builder.build_from_columns(
                *from_record_streams(dataset.radio_events, dataset.service_records)
            )
        )
    return _CACHE[key]


def _spawn_daemon(mode, kill_seq, ckpt):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    stderr_path = Path(ckpt).parent / "daemon_stderr.log"
    stderr = open(stderr_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT,
         mode, str(kill_seq), str(ckpt), str(UK_SITES)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    port_line = proc.stdout.readline().strip()
    assert port_line, (
        f"daemon never announced a port; stderr:\n"
        f"{stderr_path.read_text(encoding='utf-8')}"
    )
    return proc, int(port_line), stderr_path


def _assert_sigkilled(proc, stderr_path):
    returncode = proc.wait(timeout=60)
    proc.stdout.close()
    assert returncode == -signal.SIGKILL, (
        f"child exited {returncode}, expected SIGKILL; "
        f"stderr:\n{stderr_path.read_text(encoding='utf-8')}"
    )


def _ingest_until_death(client, batches, kill_after=None, proc=None):
    """Send batches until the daemon dies; returns the acked batch ids."""
    acked = set()
    for batch_id, rows in batches:
        if kill_after is not None and len(acked) == kill_after:
            os.kill(proc.pid, signal.SIGKILL)
            break
        try:
            response = client.ingest(batch_id, rows)
        except ServiceUnavailable:
            break
        if response.get("status") == "ok":
            acked.add(batch_id)
    return acked


async def _resume_request(port, payload):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
    return json.loads(line.decode("utf-8"))


def _resume_and_finish(ckpt, batches, acked):
    """Restart in-process, re-send only unacked batches, return digest."""

    async def scenario():
        daemon = CatalogDaemon(
            _eco(), str(ckpt), ServiceConfig(snapshot_interval_s=0.2), resume=True
        )
        await daemon.start()
        try:
            replayed = daemon.health.batches_replayed
            for batch_id, rows in batches:
                if batch_id in acked:
                    continue
                response = await _resume_request(
                    daemon.port,
                    {"op": "ingest", "batch_id": batch_id, "rows": rows},
                )
                assert response["status"] == "ok", response
            answer = await _resume_request(daemon.port, {"op": "digest"})
            return answer["digest"], replayed
        finally:
            await daemon.stop()

    return asyncio.run(scenario())


@pytest.mark.parametrize("seed", [3, 5, 7])
@pytest.mark.parametrize("mode,kill_seq", [
    (KILL_AT_BATCH, 0),      # die before the first batch is durable
    (KILL_AT_BATCH, 2),      # die mid-stream, some batches acked
    (KILL_AT_RENAME, 1),     # die inside the rename window
    (KILL_EXTERNAL, 3),      # die right after the 3rd durable ack
])
def test_kill_anywhere_recovers_identical_catalog(tmp_path, mode, kill_seq, seed):
    _, batches = _batches(seed)
    assert len(batches) > kill_seq + 1
    ckpt = tmp_path / "wal"
    proc, port, stderr_path = _spawn_daemon(
        KILL_AT_BATCH if mode == KILL_EXTERNAL else mode, -1 if mode == KILL_EXTERNAL else kill_seq, ckpt
    )
    client = CatalogClient("127.0.0.1", port, timeout_s=30.0)
    acked = _ingest_until_death(
        client,
        batches,
        kill_after=kill_seq if mode == KILL_EXTERNAL else None,
        proc=proc,
    )
    _assert_sigkilled(proc, stderr_path)
    if mode != KILL_EXTERNAL:
        # Batches sent before the kill seam all acked.
        assert len(acked) == kill_seq

    digest, replayed = _resume_and_finish(ckpt, batches, acked)
    # No lost acked batch: everything acknowledged replayed from the WAL.
    assert replayed >= len(acked)
    assert digest == _reference_digest(seed)


@pytest.mark.parametrize("seed", [3, 5])
def test_resend_everything_after_kill_still_converges(tmp_path, seed):
    """Re-sending *all* batches (acked included) dedupes to the same bytes."""
    _, batches = _batches(seed)
    ckpt = tmp_path / "wal"
    proc, port, stderr_path = _spawn_daemon(KILL_AT_BATCH, 2, ckpt)
    client = CatalogClient("127.0.0.1", port, timeout_s=30.0)
    _ingest_until_death(client, batches)
    _assert_sigkilled(proc, stderr_path)
    digest, _ = _resume_and_finish(ckpt, batches, acked=set())
    assert digest == _reference_digest(seed)


def test_torn_wal_tail_is_reported_on_restart(tmp_path):
    """A crash mid-journal-write surfaces as a torn-checkpoint incident."""
    seed = 3
    _, batches = _batches(seed)
    ckpt = tmp_path / "wal"

    async def first_life():
        daemon = CatalogDaemon(
            _eco(), str(ckpt), ServiceConfig(snapshot_interval_s=0.2)
        )
        await daemon.start()
        try:
            for batch_id, rows in batches[:3]:
                response = await _resume_request(
                    daemon.port,
                    {"op": "ingest", "batch_id": batch_id, "rows": rows},
                )
                assert response["status"] == "ok"
        finally:
            await daemon.stop()

    asyncio.run(first_life())
    tear_journal_tail(ckpt)

    async def second_life():
        daemon = CatalogDaemon(
            _eco(), str(ckpt), ServiceConfig(snapshot_interval_s=0.2), resume=True
        )
        await daemon.start()
        try:
            incidents = daemon.health.run_health.incidents
            kinds = [i.kind for i in incidents]
            assert TORN_CHECKPOINT in kinds
            # The torn batch was never acked from the client's view once
            # the tail is discarded; re-sending every batch converges.
            for batch_id, rows in batches:
                response = await _resume_request(
                    daemon.port,
                    {"op": "ingest", "batch_id": batch_id, "rows": rows},
                )
                assert response["status"] == "ok"
            answer = await _resume_request(daemon.port, {"op": "digest"})
            return answer["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(second_life())
    assert digest == _reference_digest(seed)


def test_ingest_storm_sheds_bounded_and_converges(tmp_path):
    """An overload storm sheds typed rejections, stays bounded, recovers."""
    seed = 3
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _, day_batches = _batches(seed)
    # Shard each day batch into micro-batches so the storm has enough
    # independent clients to saturate a 4-deep queue.
    storm = []
    for batch_id, rows in day_batches:
        for start in range(0, len(rows), 200):
            storm.append((f"{batch_id}/{start}", rows[start:start + 200]))
    assert len(storm) > 12

    async def scenario():
        config = ServiceConfig(
            queue_high_watermark=4,
            queue_low_watermark=1,
            shed_retry_after_s=0.05,
            snapshot_interval_s=0.2,
        )
        daemon = CatalogDaemon(_eco(), str(tmp_path / "wal"), config)
        await daemon.start()
        max_depth = 0

        async def send_with_retry(batch_id, rows):
            nonlocal max_depth
            for _ in range(200):
                max_depth = max(max_depth, daemon.queue.depth)
                response = await _resume_request(
                    daemon.port,
                    {"op": "ingest", "batch_id": batch_id, "rows": rows},
                )
                if response["status"] == "ok":
                    return response
                assert response["status"] in ("shed", "retry"), response
                await asyncio.sleep(float(response.get("retry_after_s", 0.05)))
            raise AssertionError(f"batch {batch_id} never acked")

        try:
            await asyncio.gather(
                *(send_with_retry(batch_id, rows) for batch_id, rows in storm)
            )
            # Backpressure engaged: typed sheds, episodic saturation.
            assert daemon.queue.n_shed > 0
            assert 1 <= daemon.queue.n_saturations <= daemon.queue.n_shed
            health = daemon.health.healthz()
            assert health["shed_batches"] == daemon.queue.n_shed
            assert health["queue_saturations"] == daemon.queue.n_saturations
            # Bounded by construction: the queue never grew past the
            # high watermark.
            assert max_depth <= config.queue_high_watermark
            assert daemon.health.batches_acked == len(storm)
            answer = await _resume_request(daemon.port, {"op": "digest"})
            return answer["digest"]
        finally:
            await daemon.stop()

    digest = asyncio.run(scenario())
    assert digest == _reference_digest(seed)
    rss_after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert rss_after_kb - rss_before_kb < 512 * 1024  # < 512 MiB growth
