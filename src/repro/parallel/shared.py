"""The persistent, fault-tolerant process pool at the fleet grain.

Parallelism in this library lives at one grain: a fleet of independent
dynamics runs, each a plain picklable task tuple (DESIGN.md §5).  An
equilibrium audit is a small serial job — the paper's point is that it is
polynomial, even locally checkable — so nothing below the task is sharded.

:class:`SharedArrayPool` keeps one :class:`ProcessPoolExecutor` alive per
worker count and reuses it across calls, so fleets pay worker start-up
once, not per call; :func:`get_shared_pool` hands out the process-wide
instance, :func:`map_streamed` is the fleets' streaming loop over it, and
:func:`repro.parallel.parallel_map` routes every ``workers > 1`` call
through it.  Workers are forked and exit through ``os._exit``.

Fault tolerance (DESIGN.md §9): :meth:`SharedArrayPool.map` survives worker
death (``BrokenProcessPool`` — the executor is rebuilt and every
unfinished chunk resubmitted), hangs (per-chunk ``timeout=`` kills the
stuck workers), and poisoned tasks (bounded ``retries=`` with deterministic
exponential backoff; failing chunks split to isolate the poison; a task
that keeps failing is degraded to one serial in-process attempt, then
raised with its identity or quarantined per ``on_error=``).

Determinism: the pool changes *where* tasks run, never *what* they return —
results are assembled by absolute task index and emitted in submission
order, so ``parallel_map`` keeps its exact results-independent-of-worker-
count contract even across retries, splits, and executor rebuilds.
"""

from __future__ import annotations

import atexit
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Sequence

from ..errors import ConfigurationError, DeadlineExceeded
from .pool import (
    TaskFailure,
    _TaskError,
    _backoff_sleep,
    _check_deadline,
    _permanent_failure,
    _run_tasks,
    _serial_map,
)

__all__ = [
    "SharedArrayPool",
    "get_shared_pool",
    "map_streamed",
    "shutdown_shared_pools",
]

#: How long past a spent request deadline the pool waits for inflight
#: chunks to hand back their checkpoint-and-yield markers before killing
#: the workers.  Checkpoint-capable tasks yield at their next applied-move
#: boundary (sub-millisecond for the grids here), so this is headroom, not
#: schedule; it bounds the worst case (a non-yielding task body) so the
#: deadline contract stays "never a hang".
_DEADLINE_GRACE = 2.0


# ---------------------------------------------------------------------------
# Persistent pool
# ---------------------------------------------------------------------------

def _mp_context():
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return None


@dataclass
class _Unit:
    """One schedulable chunk of work (its lineage survives retries/splits).

    ``chunk_id`` is the *original* chunk ordinal — stable across retries
    and splits, which is what makes "kill on the n-th chunk" a
    deterministic fault site.  ``attempts`` counts the failures charged to
    this lineage.
    """

    chunk_id: int
    start: int
    tasks: list = field(default_factory=list)
    attempts: int = 0


class SharedArrayPool:
    """A persistent process pool that maps plain picklable task tuples.

    Workers are created once and reused across :meth:`map` calls.  Results
    are gathered in submission order, so output is independent of worker
    count and scheduling.  :meth:`map` recovers from worker death, hangs,
    and poisoned tasks (DESIGN.md §9).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: "ProcessPoolExecutor | None" = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        ex = self._executor
        if ex is not None and getattr(ex, "_broken", False):
            # A worker died since the last call and the corpse stayed
            # cached: rebuild instead of handing it back (ISSUE 6
            # satellite — get_shared_pool must never serve a dead pool).
            self._kill_executor()
            ex = None
        if ex is None:
            ctx = _mp_context()
            self._executor = ex = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
        return ex

    def _kill_executor(self) -> None:
        """Forcefully stop the executor (hung or broken workers included)."""
        ex, self._executor = self._executor, None
        if ex is None:
            return
        procs = list((getattr(ex, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already gone
                pass
        try:
            ex.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown races
            pass
        for proc in procs:
            try:
                proc.join(5)
            except Exception:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable,
        tasks: Sequence,
        chunk_size: "int | None" = None,
        *,
        timeout: "float | None" = None,
        deadline: "float | None" = None,
        retries: int = 1,
        backoff: float = 0.05,
        on_error: str = "raise",
        consume: "Callable[[list], None] | None" = None,
    ) -> list:
        """Map ``fn`` over ``tasks`` (order preserved).

        ``deadline`` is an absolute ``time.monotonic()`` instant bounding
        the whole call: every blocking wait is capped at the remaining
        budget and every retry decision re-checks it, so the call raises
        :class:`~repro.errors.DeadlineExceeded` at the deadline instead of
        spending ``timeout × retries`` on a wedged chunk (the stuck
        workers are killed on the way out — the executor rebuilds lazily
        on next use).  Fault-tolerance contract (DESIGN.md §9):

        * **worker death** (``BrokenProcessPool``) — the executor is
          rebuilt and every unfinished chunk resubmitted; the chunk at the
          head of the consumption line is charged one attempt;
        * **hang** — with ``timeout=``, a chunk exceeding its wall-clock
          budget at the head of the line has the workers killed and is
          charged one attempt;
        * **poisoned task** — a failing multi-task chunk is split in half
          to isolate the poison; a single task failing past ``retries`` is
          degraded to one serial in-process attempt, then raised with its
          identity (``on_error="raise"``) or quarantined as a
          :class:`~repro.parallel.pool.TaskFailure` (``"record"``);
        * **determinism** — results are assembled by absolute task index
          and emitted in task order through ``consume``; retries use
          deterministic exponential backoff and never touch RNG streams,
          so records are bit-identical to a clean run.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if on_error not in ("raise", "record"):
            raise ConfigurationError(f"unknown on_error policy {on_error!r}")
        if chunk_size is None:
            chunk_size = max(
                1, (len(tasks) + 4 * self.workers - 1) // (4 * self.workers)
            )
        units = [
            _Unit(chunk_id=ci, start=i, tasks=tasks[i : i + chunk_size])
            for ci, i in enumerate(range(0, len(tasks), chunk_size))
        ]
        results: dict[int, object] = {}
        n = len(tasks)
        emit = 0
        inflight: "OrderedDict" = OrderedDict()

        def submit(unit: _Unit) -> None:
            args = (fn, unit.tasks, unit.chunk_id, unit.start, deadline)
            try:
                fut = self._ensure_executor().submit(_run_tasks, *args)
            except BrokenProcessPool:  # pragma: no cover - submit race
                self._kill_executor()
                fut = self._ensure_executor().submit(_run_tasks, *args)
            inflight[fut] = unit

        def drain_deadline() -> None:
            # The request budget is spent.  The workers see the same
            # deadline (published via current_task_deadline), so
            # checkpoint-capable tasks are yielding at their next applied-
            # move boundary right now: give each inflight chunk a short
            # bounded grace to hand those checkpoint-and-yield markers
            # back — the budget converts to persisted progress — then
            # kill whatever is still running and raise.  Never a hang:
            # the grace is a constant, not another retry ladder.
            grace_until = time.monotonic() + _DEADLINE_GRACE
            while inflight:
                fut, unit = next(iter(inflight.items()))
                try:
                    part = fut.result(
                        timeout=max(grace_until - time.monotonic(), 0.0)
                    )
                except Exception:  # repro-lint: disable=R4 -- anything still failing at spent budget is killed below
                    break
                del inflight[fut]
                for off, value in enumerate(part):
                    if not isinstance(value, _TaskError):
                        results[unit.start + off] = value
                    elif value.deadline and on_error == "record":
                        results[unit.start + off] = _permanent_failure(
                            value, unit.attempts + 1, on_error
                        )
                emit_ready()
            self._kill_executor()
            raise DeadlineExceeded(
                "request deadline passed; yielded task checkpoints were "
                "collected and remaining workers killed rather than "
                "retried past the budget"
            )

        def guard_deadline() -> None:
            # The request budget outranks the retry budget: at expiry the
            # inflight chunks get one bounded grace to yield their
            # progress, the rest are killed, and the typed error
            # propagates — never a hang.
            if deadline is None:
                return
            try:
                _check_deadline(deadline)
            except DeadlineExceeded:
                drain_deadline()

        def degrade_serial(unit: _Unit) -> None:
            # The last resort: the chunk keeps dying in workers, so run its
            # tasks in the owner (where injected kill/hang downgrade to
            # raises) — completing genuinely fine tasks and giving the
            # poisoned one a final, identity-preserving verdict.
            part = _serial_map(
                fn, unit.tasks,
                retries=0, backoff=backoff, on_error=on_error,
                deadline=deadline, start=unit.start,
            )
            for off, value in enumerate(part):
                if isinstance(value, TaskFailure):
                    value.attempts += unit.attempts
                results[unit.start + off] = value

        def handle_chunk_failure(unit: _Unit, requeue: list) -> None:
            unit.attempts += 1
            if len(unit.tasks) > 1:
                # Split to isolate the poisoned task: the innocent half
                # completes normally instead of riding the retry budget.
                mid = len(unit.tasks) // 2
                requeue.append(
                    _Unit(unit.chunk_id, unit.start, unit.tasks[:mid],
                          unit.attempts)
                )
                requeue.append(
                    _Unit(unit.chunk_id, unit.start + mid, unit.tasks[mid:],
                          unit.attempts)
                )
            elif unit.attempts > retries:
                degrade_serial(unit)
            else:
                guard_deadline()
                _backoff_sleep(backoff, unit.attempts)
                requeue.append(unit)

        def rebuild_and_resubmit(extra: list) -> None:
            self._kill_executor()
            pending = list(inflight.values())
            inflight.clear()
            for unit in sorted(pending + extra, key=lambda u: u.start):
                submit(unit)

        def emit_ready() -> None:
            nonlocal emit
            batch: list = []
            while emit < n and emit in results:
                batch.append(results[emit])
                emit += 1
            if batch and consume is not None:
                consume(batch)

        try:
            for unit in units:
                submit(unit)
            while inflight:
                guard_deadline()
                fut, unit = next(iter(inflight.items()))
                wait = timeout
                deadline_capped = False
                if deadline is not None:
                    remaining = max(deadline - time.monotonic(), 0.0)
                    if wait is None or remaining < wait:
                        # The request budget binds before the per-chunk
                        # timeout: wait only that long, and treat expiry
                        # as the deadline, not as a hung chunk to retry.
                        wait = remaining
                        deadline_capped = True
                try:
                    part = fut.result(timeout=wait)
                except _FuturesTimeout:
                    if deadline_capped:
                        drain_deadline()
                    # Head-of-line chunk blew its wall-clock budget: the
                    # worker is presumed hung.  Nothing short of SIGKILL
                    # interrupts it, so tear the executor down and retry
                    # every unfinished chunk (the hung one charged).
                    del inflight[fut]
                    requeue: list = []
                    handle_chunk_failure(unit, requeue)
                    rebuild_and_resubmit(requeue)
                    emit_ready()
                    continue
                except BrokenProcessPool:
                    # A worker died (OOM-kill, segfault, injected SIGKILL).
                    # Every inflight future is void; charge the head unit
                    # (the culprit is unknowable, and misattribution only
                    # costs an extra split — never a wrong result).
                    del inflight[fut]
                    requeue = []
                    handle_chunk_failure(unit, requeue)
                    rebuild_and_resubmit(requeue)
                    emit_ready()
                    continue
                except Exception:  # repro-lint: disable=R4 -- infra failures here are unbounded (payload pickling); unit is retried, not dropped
                    # Infrastructure failure outside the task body (payload
                    # pickling): charge and retry the unit; the rest of the
                    # pool is healthy.
                    del inflight[fut]
                    requeue = []
                    handle_chunk_failure(unit, requeue)
                    for u in requeue:
                        submit(u)
                    emit_ready()
                    continue
                del inflight[fut]
                retry_units: list[_Unit] = []
                for off, value in enumerate(part):
                    if isinstance(value, _TaskError):
                        attempts = unit.attempts + 1
                        if value.deadline:
                            # The task body yielded on a spent deadline
                            # (checkpoint-and-yield): re-running it now
                            # would just re-expire, so record/raise the
                            # permanent verdict without the retry ladder
                            # or the degraded serial re-run.
                            results[unit.start + off] = _permanent_failure(
                                value, attempts, on_error
                            )
                        elif attempts > retries:
                            # Spent: one degraded serial verdict, then
                            # record/raise with identity.
                            single = _Unit(
                                unit.chunk_id, unit.start + off,
                                [unit.tasks[off]], attempts - 1,
                            )
                            degrade_serial(single)
                        else:
                            guard_deadline()
                            _backoff_sleep(backoff, attempts)
                            retry_units.append(
                                _Unit(
                                    unit.chunk_id, unit.start + off,
                                    [unit.tasks[off]], attempts,
                                )
                            )
                    else:
                        results[unit.start + off] = value
                for u in retry_units:
                    submit(u)
                emit_ready()
            return [results[i] for i in range(n)]
        finally:
            for fut in inflight:
                fut.cancel()

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers.  The pool restarts lazily on next use."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = self._executor is not None
        return f"SharedArrayPool(workers={self.workers}, alive={alive})"


def map_streamed(
    fn: Callable,
    tasks: Sequence,
    workers: int,
    consume: "Callable[[list], None] | None" = None,
    *,
    timeout: "float | None" = None,
    deadline: "float | None" = None,
    retries: int = 1,
    backoff: float = 0.05,
    on_error: str = "raise",
) -> list:
    """Map ``fn`` over ``tasks``, streaming finished results in order.

    The census fleets' execution loop, shared: ``workers <= 1`` (or a
    single task) runs serially in-process; otherwise contiguous chunks are
    sharded over the persistent pool with results emitted in task order,
    so ``consume`` sees every result batch in task order while later
    chunks still run.  Returns all results, in task order — identical for
    any worker count (tasks must be pure functions of their tuples, the
    fleets' seeding discipline).

    The fault-tolerance knobs (``timeout``, ``retries``, ``backoff``,
    ``on_error``) follow :meth:`SharedArrayPool.map`; with
    ``on_error="record"``, failed tasks appear (and stream) as
    :class:`~repro.parallel.pool.TaskFailure` entries in their slots.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        return _serial_map(
            fn, tasks,
            retries=retries, backoff=backoff, on_error=on_error,
            deadline=deadline, consume=consume,
        )
    return get_shared_pool(workers).map(
        fn, tasks,
        timeout=timeout, deadline=deadline, retries=retries, backoff=backoff,
        on_error=on_error, consume=consume,
    )


_POOLS: dict[int, SharedArrayPool] = {}


def get_shared_pool(workers: int) -> SharedArrayPool:
    """The process-wide persistent pool for ``workers`` (created on demand).

    A pool whose executor broke since the last call is healed lazily: the
    next use detects the breakage and rebuilds the workers instead of
    returning the corpse.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    pool = _POOLS.get(workers)
    if pool is None:
        pool = SharedArrayPool(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_shared_pools() -> None:
    """Shut down every cached pool; each restarts lazily on next use."""
    for pool in _POOLS.values():
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - teardown races
            pass
    _POOLS.clear()


atexit.register(shutdown_shared_pools)
