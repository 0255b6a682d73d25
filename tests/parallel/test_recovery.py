"""Worker-failure recovery in map_shards: deadlines, death, the breaker.

The worker functions key their misbehaviour on *where they run*: the
shared context carries the parent's PID, so a function can hang or die
only inside a pool worker while the in-process fallback path computes
the true result.  That makes every test assert the full contract —
recovery happened, it was recorded, and the results are still exactly
right.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.faults.retry import RetryPolicy
from repro.parallel.health import (
    BREAKER_TRIP,
    BROKEN_POOL,
    DEADLINE,
    IN_PROCESS,
    RunHealth,
    ShardIncident,
)
from repro.parallel.pool import get_context, map_shards

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A jitter-free policy whose single attempt sends a failing shard
#: straight to the in-process fallback — keeps recovery tests fast.
ONE_SHOT = RetryPolicy(
    base_delay_s=0.01, multiplier=1.0, max_delay_s=0.01, jitter=0.0, max_attempts=1
)


def _in_worker() -> bool:
    return os.getpid() != get_context()


def square_or_hang(x: int) -> int:
    if _in_worker():
        time.sleep(30.0)
    return x * x


def square_or_never_return(x: int) -> int:
    if _in_worker():
        while True:
            time.sleep(60.0)
    return x * x


def square_or_die(x: int) -> int:
    if _in_worker():
        os._exit(3)
    return x * x


def square(x: int) -> int:
    return x * x


def always_raise(x: int) -> int:
    raise ValueError(f"task bug on {x}")


def report_pid_and_sleep(seconds: float) -> float:
    # One write per line, so two workers' lines never interleave.
    os.write(1, f"{os.getpid()}\n".encode())
    time.sleep(seconds)
    return seconds


# -- RunHealth bookkeeping ----------------------------------------------------

def test_incident_kind_is_validated():
    with pytest.raises(ValueError, match="unknown incident kind"):
        ShardIncident(0, "bogus")


def test_health_record_and_summary():
    health = RunHealth()
    assert health.ok
    assert "healthy" in health.summary()
    health.record(ShardIncident(0, DEADLINE, 0, "no result within 1s"))
    health.record(ShardIncident(0, IN_PROCESS, 1, "retry budget exhausted"))
    assert not health.ok
    assert health.deadline_hits == 1
    assert health.in_process_shards == [0]
    assert "deadline" in health.summary()


def test_health_merge_accumulates():
    a, b = RunHealth(), RunHealth()
    a.record(ShardIncident(0, BROKEN_POOL, 0, "x"))
    b.record(ShardIncident(1, BREAKER_TRIP, 2, "y"))
    merged = a.merge(b)
    assert merged.broken_pools == 1
    assert merged.breaker_tripped
    assert len(merged.incidents) == 2


# -- recovery behaviour -------------------------------------------------------

def test_hung_worker_hits_deadline_and_recovers():
    health = RunHealth()
    results = map_shards(
        square_or_hang,
        [1, 2, 3],
        n_workers=2,
        context=os.getpid(),
        deadline_s=0.5,
        retry_policy=ONE_SHOT,
        health=health,
    )
    assert results == [1, 4, 9]
    assert health.deadline_hits >= 1
    assert len(health.in_process_shards) >= 1
    assert not health.ok


_NEVER_RETURNING_SCRIPT = """
import json
import os

from repro.parallel.health import RunHealth
from repro.parallel.pool import map_shards
from tests.parallel.test_recovery import ONE_SHOT, square_or_never_return

health = RunHealth()
results = map_shards(
    square_or_never_return,
    [1, 2, 3],
    n_workers=2,
    context=os.getpid(),
    deadline_s=0.5,
    retry_policy=ONE_SHOT,
    health=health,
)
print(json.dumps({
    "results": results,
    "deadline_hits": health.deadline_hits,
    "in_process": health.in_process_shards,
}))
"""


def test_abandoned_workers_do_not_outlive_map_shards():
    """A worker that never returns is killed with its abandoned pool, so
    the process exits as soon as map_shards has its results instead of
    joining the hung worker at interpreter exit."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _NEVER_RETURNING_SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=30.0)
    except subprocess.TimeoutExpired:
        # Take the leftover pool workers down with the child.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("map_shards left hung pool workers behind: no exit in 30s")
    assert proc.returncode == 0, stderr
    report = json.loads(stdout)
    assert report["results"] == [1, 4, 9]
    assert report["deadline_hits"] == 3
    assert sorted(report["in_process"]) == [0, 1, 2]


def test_dead_worker_breaks_pool_and_recovers():
    health = RunHealth()
    results = map_shards(
        square_or_die,
        [1, 2, 3],
        n_workers=2,
        context=os.getpid(),
        deadline_s=30.0,
        retry_policy=ONE_SHOT,
        health=health,
    )
    assert results == [1, 4, 9]
    assert health.broken_pools >= 1
    assert len(health.in_process_shards) >= 1


def test_persistent_failures_trip_the_breaker():
    health = RunHealth()
    generous = RetryPolicy(
        base_delay_s=0.01, multiplier=1.0, max_delay_s=0.01, jitter=0.0,
        max_attempts=10,
    )
    results = map_shards(
        square_or_die,
        [1, 2, 3, 4],
        n_workers=2,
        context=os.getpid(),
        deadline_s=30.0,
        retry_policy=generous,
        health=health,
        breaker_threshold=3,
    )
    assert results == [1, 4, 9, 16]
    assert health.breaker_tripped
    assert any(i.kind == BREAKER_TRIP for i in health.incidents)
    # Every shard still unfinished at trip time ran in-process.
    assert len(health.in_process_shards) >= 1


def test_task_exceptions_propagate_unchanged():
    with pytest.raises(ValueError, match="task bug"):
        map_shards(
            always_raise,
            [1, 2],
            n_workers=2,
            context=os.getpid(),
            deadline_s=30.0,
            health=RunHealth(),
        )


def test_healthy_run_records_nothing():
    health = RunHealth()
    results = map_shards(
        square,
        [1, 2, 3, 4],
        n_workers=2,
        context=os.getpid(),
        deadline_s=30.0,
        health=health,
    )
    assert results == [1, 4, 9, 16]
    assert health.ok
    assert health.incidents == []


def test_recovered_run_matches_serial():
    serial = map_shards(square, [1, 2, 3], n_workers=1, context=os.getpid())
    recovered = map_shards(
        square_or_die,
        [1, 2, 3],
        n_workers=2,
        context=os.getpid(),
        retry_policy=ONE_SHOT,
        health=RunHealth(),
    )
    assert recovered == serial


def test_pool_broken_during_submit_recovers(monkeypatch):
    """A worker that dies while shards are still being submitted breaks
    the pool at ``submit``; that is a pool failure like any other."""
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    import repro.parallel.pool as pool_module

    calls = []

    class BreaksOnSecondSubmit(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("worker died during submission")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", BreaksOnSecondSubmit)
    health = RunHealth()
    results = map_shards(
        square, [1, 2, 3], n_workers=2, context=os.getpid(),
        deadline_s=30.0, retry_policy=ONE_SHOT, health=health,
    )
    assert results == [1, 4, 9]
    assert health.broken_pools == 1


_KILLED_PARENT_SCRIPT = """
from repro.parallel.pool import map_shards
from tests.parallel.test_recovery import report_pid_and_sleep

map_shards(report_pid_and_sleep, [20.0, 20.0], n_workers=2)
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    # The state letter follows the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="parent-death signal is Linux-only"
)
def test_workers_die_with_a_sigkilled_parent():
    """Workers busy in a shard when their parent is SIGKILLed die with it
    instead of living on as orphans."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT_SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    # A child that never reports its workers must not hang the test.
    watchdog = threading.Timer(30.0, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    pids = []
    try:
        for _ in range(2):
            line = proc.stdout.readline()
            assert line, "the child exited before both workers reported"
            pids.append(int(line))
        proc.kill()
        proc.wait(timeout=10.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(map(_gone_or_zombie, pids)):
            time.sleep(0.1)
        survivors = [pid for pid in pids if not _gone_or_zombie(pid)]
        assert survivors == [], f"workers outlived their killed parent: {survivors}"
    finally:
        watchdog.cancel()
        # The workers share the child's process group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)
        proc.stdout.close()
