"""The one audited process-pool layer in the repository.

Everything that fans work out across processes goes through
:func:`map_shards`; lint rule ``PERF001`` bans ``multiprocessing`` /
``ProcessPoolExecutor`` use anywhere else in ``src/`` so parallelism
stays behind this single seam.

Worker functions receive their shard as the sole argument and read any
shared, read-only state through :func:`get_context` — the context object
is pickled **once per worker** (via the pool initializer) instead of
once per task, which matters because the shared state (TAC catalog,
sector catalog, operator registry) dwarfs a typical shard payload.

``n_workers <= 1`` never creates a pool: the shards run in-process, in
order, with the context installed around the calls — the degenerate case
costs nothing and behaves identically, which keeps ``workers=1`` an
exact fallback.

Worker-failure recovery
-----------------------

A multi-day run must survive a *bad process*, not just bad data.  The
seam therefore waits on each shard with a deadline (a hung worker
becomes a shard failure instead of stalling the run forever) and treats
``BrokenProcessPool`` — a worker SIGKILLed or OOMed mid-shard — as
recoverable: already-finished shards are harvested, the pool is rebuilt,
and **only the failed shard's work is re-submitted**, under the
sanctioned :class:`~repro.faults.retry.RetryPolicy`.  A run of
consecutive pool failures trips a circuit breaker that degrades the
remaining shards to in-process execution (correct, merely slower);
per-shard retry exhaustion does the same for that one shard so the real
error, if any, surfaces undisturbed.  Every recovery step is recorded in
the caller's :class:`~repro.parallel.health.RunHealth` — recovery is
never silent.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.faults.retry import RetryPolicy
from repro.parallel.health import (
    BREAKER_TRIP,
    BROKEN_POOL,
    DEADLINE,
    IN_PROCESS,
    RETRY,
    Incident,
    RunHealth,
)

S = TypeVar("S")
R = TypeVar("R")

#: Default per-shard wait deadline (seconds) for pipeline stages; a
#: shard that produces nothing for this long is declared failed and
#: re-executed rather than stalling the run.
DEFAULT_SHARD_DEADLINE_S = 300.0

#: Consecutive pool failures (across shards) before the circuit breaker
#: opens and the remaining shards degrade to in-process execution.
DEFAULT_BREAKER_THRESHOLD = 3

#: Pool re-submission schedule.  ``jitter=0`` keeps recovery fully
#: deterministic (no RNG draw); the delays are *recorded*, never slept —
#: rebuilding a local pool needs no pacing, but the schedule must stay
#: auditable in the health report.
DEFAULT_POOL_RETRY = RetryPolicy(
    base_delay_s=1.0, multiplier=2.0, max_delay_s=60.0, jitter=0.0, max_attempts=3
)

#: Per-process shared context installed by the pool initializer (or, for
#: in-process runs, around the map_shards call).  Read via get_context().
_CONTEXT: Optional[Any] = None

_ON_LINUX = sys.platform.startswith("linux")

#: ``prctl`` option that asks the kernel to signal the caller when its
#: parent dies (``<linux/prctl.h>``).
_PR_SET_PDEATHSIG = 1

#: Workers fork on Linux (its default start method before Python 3.14),
#: so each one is a direct child of the process calling map_shards, which
#: the parent-death check in :func:`_init_worker` relies on; a forkserver
#: worker's parent is the server.  Elsewhere the platform default holds.
_MP_CONTEXT = multiprocessing.get_context("fork" if _ON_LINUX else None)


def get_context() -> Any:
    """The shared read-only context installed for the current worker.

    Raises ``RuntimeError`` when called outside a :func:`map_shards`
    run — worker functions must not be invoked standalone.
    """
    if _CONTEXT is None:
        raise RuntimeError(
            "no worker context installed; call through map_shards(context=...)"
        )
    return _CONTEXT


def _install_context(context: Any) -> None:
    """Stash the shared context in this process."""
    global _CONTEXT
    _CONTEXT = context


def _init_worker(parent_pid: int, context: Any) -> None:
    """Pool initializer: die with the parent, then install the context.

    An idle worker blocks on the call queue forever, so a parent killed
    outright (an OOM kill, SIGKILL) would leave it running with no one
    to feed it.  On Linux the worker asks for SIGKILL when its parent
    dies; if the parent died before that request, ``getppid`` no longer
    names it and the worker exits at once.  The kernel sends the signal
    when the *thread* that forked the worker exits: :func:`map_shards`
    creates and shuts down its pool inside one call on one thread, so
    that thread lives as long as the pool is in use.
    """
    if _ON_LINUX:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [
            ctypes.c_int,
            ctypes.c_ulong,
            ctypes.c_ulong,
            ctypes.c_ulong,
            ctypes.c_ulong,
        ]
        prctl.restype = ctypes.c_int
        if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            errno = ctypes.get_errno()
            raise OSError(errno, os.strerror(errno))
        if os.getppid() != parent_pid:
            os._exit(1)
    _install_context(context)


def _run_in_process(
    fn: Callable[[S], R], shard: S, context: Any
) -> R:
    """Run one shard in the parent, context installed around the call."""
    previous = _CONTEXT
    _install_context(context)
    try:
        return fn(shard)
    finally:
        _install_context(previous)


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """SIGKILL an abandoned pool's worker processes.

    ``shutdown(wait=False)`` only stops feeding the workers: one stuck
    in a shard (the deadline case) would run on, and the interpreter
    joins it at exit, so the run could never end.  There is no public
    kill before Python 3.14, hence the private process table.
    """
    for process in list((pool._processes or {}).values()):
        process.kill()


def map_shards(
    fn: Callable[[S], R],
    shards: Sequence[S],
    n_workers: int,
    context: Any = None,
    deadline_s: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    health: Optional[RunHealth] = None,
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
) -> List[R]:
    """Apply ``fn`` to every shard, in shard order, across ``n_workers``.

    ``fn`` must be a module-level (picklable) function.  Results are
    returned in shard order regardless of completion order, so callers
    can merge deterministically.  With ``n_workers <= 1`` the shards run
    serially in this process — no pool is created.

    ``deadline_s`` bounds the wait on each shard; a shard that exceeds
    it (hung worker) counts as a shard failure.  Worker death
    (``BrokenProcessPool``) and deadline hits are recovered by rebuilding
    the pool and re-submitting **only the unfinished shards**, governed
    by ``retry_policy`` (default :data:`DEFAULT_POOL_RETRY`); after
    ``breaker_threshold`` consecutive pool failures, or when one shard
    exhausts its retry budget, execution degrades to in-process.  All
    recovery events are recorded on ``health`` when given.  Ordinary
    exceptions raised *by the task itself* propagate unchanged — they
    are the caller's bug, not a process failure.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if breaker_threshold < 1:
        raise ValueError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
    if n_workers == 1 or len(shards) <= 1:
        previous = _CONTEXT
        _install_context(context)
        try:
            return [fn(shard) for shard in shards]
        finally:
            _install_context(previous)

    policy = retry_policy if retry_policy is not None else DEFAULT_POOL_RETRY
    if health is None:
        health = RunHealth()
    # Only consulted when the policy jitters; the default is jitter-free
    # so recovery schedules are bit-reproducible.
    rng = np.random.default_rng(0)
    results: Dict[int, R] = {}
    pending: List[int] = list(range(len(shards)))
    attempts: Dict[int, int] = {index: 0 for index in pending}
    consecutive_failures = 0
    breaker_open = False

    while pending:
        if breaker_open:
            for index in pending:
                health.record(
                    Incident(IN_PROCESS, "circuit breaker open", index, attempts[index])
                )
                results[index] = _run_in_process(fn, shards[index], context)
            pending = []
            break

        failed: Optional[Tuple[int, str, str]] = None
        finished = False
        pool = ProcessPoolExecutor(
            max_workers=min(n_workers, len(pending)),
            mp_context=_MP_CONTEXT,
            initializer=_init_worker,
            initargs=(os.getpid(), context),
        )
        try:
            futures: Dict[int, "Future[R]"] = {}
            for index in pending:
                try:
                    futures[index] = pool.submit(fn, shards[index])
                except BrokenProcessPool as exc:
                    # A worker died before every shard was submitted.
                    failed = (index, BROKEN_POOL, f"{type(exc).__name__}: {exc}")
                    break
            for index in pending:
                if failed is not None:
                    break
                try:
                    results[index] = futures[index].result(timeout=deadline_s)
                except FuturesTimeout:
                    failed = (index, DEADLINE, f"no result within {deadline_s}s")
                except BrokenProcessPool as exc:
                    failed = (index, BROKEN_POOL, f"{type(exc).__name__}: {exc}")
            if failed is not None:
                # Harvest shards that *did* finish cleanly before the
                # failure so their work is never repeated.
                for other in pending:
                    future = futures.get(other)
                    if other in results or future is None:
                        continue
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        results[other] = future.result()
            else:
                finished = True
        finally:
            if not finished:
                _kill_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)

        if failed is None:
            pending = []
            break

        index, kind, detail = failed
        attempt = attempts[index]
        attempts[index] = attempt + 1
        consecutive_failures += 1
        health.record(Incident(kind, detail, index, attempt))
        if consecutive_failures >= breaker_threshold:
            breaker_open = True
            trip = f"{consecutive_failures} consecutive pool failures"
            health.record(Incident(BREAKER_TRIP, trip, index, attempt))
        elif attempts[index] >= policy.max_attempts:
            # This one shard is out of pool retries: run it in the
            # parent so a persistent task error surfaces undisturbed.
            health.record(Incident(IN_PROCESS, "retry budget exhausted", index, attempt))
            results[index] = _run_in_process(fn, shards[index], context)
            consecutive_failures = 0
        else:
            delay = policy.delay_s(attempt, rng)
            health.record(
                Incident(
                    RETRY,
                    "resubmitting unfinished shards to a fresh pool",
                    index,
                    attempt,
                    backoff_s=delay,
                )
            )
        pending = [i for i in pending if i not in results]

    return [results[i] for i in range(len(shards))]
