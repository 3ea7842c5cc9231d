"""Deterministic process-pool mapping.

The hpc-parallel guides' discipline applied to a laptop-scale library:

* results are **independent of worker count and scheduling** — every task
  carries its own :func:`~repro.rng.derive_seed`-derived seed, so running
  with ``workers=1`` or ``workers=8`` yields identical records;
* the serial path is first-class (``workers=1`` avoids process start-up
  entirely), because the experiment grid sizes here are often too small to
  amortize fork+pickle overhead — the bench harness picks serial for small
  grids automatically;
* chunking is explicit: tasks are submitted in contiguous chunks to bound
  pickle traffic, mirroring the "batch your communication" rule from the
  MPI guide.

Functions submitted must be module-level (picklable); closures are rejected
early with a clear error rather than a confusing pickle traceback.

Parallelism lives at the fleet grain (DESIGN.md §5): ``workers > 1`` always
runs on the one persistent process pool of :mod:`repro.parallel.shared`,
whose tasks are plain picklable tuples, and ``workers=1`` is its serial
oracle.  Results are identical across worker counts and chunkings by
construction.

Since the fault-tolerance layer (DESIGN.md §9), ``parallel_map`` also takes
``timeout=`` (per-chunk wall clock), ``retries=`` (bounded, with
exponential backoff and chunk-splitting to isolate a poisoned task), and
``on_error=`` (``"raise"`` — chain the failing task's identity into a
:class:`~repro.errors.TaskExecutionError` — or ``"record"`` — yield a
:class:`TaskFailure` in the failed task's slot instead of aborting the
call).  Recovery never touches any RNG stream and never reorders results:
retried tasks are pure functions of their task tuples and results are
assembled by absolute task index, so a run with injected faults produces
records bit-identical to a clean run.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Literal, Sequence, TypeVar

from ..errors import ConfigurationError, DeadlineExceeded, TaskExecutionError
from . import faults

__all__ = [
    "TaskFailure",
    "check_deadline",
    "current_task_deadline",
    "default_workers",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")

#: Backoff delays are ``backoff * 2**(attempt-1)`` capped here — retries
#: must stay deterministic (no jitter) and bounded (a fleet should spend
#: its wall clock on work, not sleeps).
_BACKOFF_CAP = 2.0


@dataclass
class TaskFailure:
    """A task that failed permanently, quarantined in its result slot.

    Produced by the ``on_error="record"`` policy: the mapped result list
    keeps one entry per task, with failed tasks replaced by this record
    (index = absolute position in the mapped task list) so fleets can
    stream a quarantine record instead of dying.
    """

    index: int
    task_repr: str
    error: str
    attempts: int


@dataclass
class _TaskError:
    """Picklable transport of a worker-side task exception.

    Workers catch per-task exceptions and return these markers in the
    task's result slot, so a poisoned task never poisons its chunk-mates'
    results and the parent knows exactly which task failed (satellite of
    ISSUE 6: task identity in raised errors).
    """

    index: int
    task_repr: str
    exc_repr: str
    tb_text: str
    exc_bytes: "bytes | None"
    #: The task body raised :class:`~repro.errors.DeadlineExceeded` — it
    #: yielded on purpose (checkpoint-and-yield, DESIGN.md §13).  Retrying
    #: it against the same spent budget is pure waste, so the runtime
    #: skips the retry ladder and goes straight to the permanent verdict.
    deadline: bool = False

    @classmethod
    def from_exception(cls, index: int, task, exc: Exception) -> "_TaskError":
        try:
            blob = pickle.dumps(exc)
        except Exception:  # repro-lint: disable=R4 -- pickling arbitrary user exceptions can raise anything; repr fallback below
            blob = None
        return cls(
            index, repr(task), repr(exc), traceback.format_exc(), blob,
            deadline=isinstance(exc, DeadlineExceeded),
        )

    def exception(self) -> BaseException:
        """The original exception (re-pickled), or a faithful stand-in."""
        if self.exc_bytes is not None:
            try:
                return pickle.loads(self.exc_bytes)
            except Exception:  # pragma: no cover - unpicklable custom exc
                pass
        return RuntimeError(f"{self.exc_repr}\n{self.tb_text}")


#: The request deadline governing the task currently being mapped, set by
#: the chunk/serial runners for the duration of each task body and read via
#: :func:`current_task_deadline`.  Per-process (workers set their own copy
#: around each chunk); ``time.monotonic()`` instants are system-wide on the
#: platforms the pool runs on, so the owner's deadline is meaningful in a
#: forked worker.
_ambient_deadline: "float | None" = None


def current_task_deadline() -> "float | None":
    """The mapped request's absolute deadline, visible from a task body.

    Checkpoint-capable task bodies (``SwapDynamics.run``, DESIGN.md §13)
    adopt this when no explicit deadline was passed, so a fleet-level
    deadline makes a long-running task snapshot-and-yield instead of
    running on while the pool gives up waiting for it.  ``None`` outside
    a mapped task or when the map call had no deadline.
    """
    return _ambient_deadline


class _deadline_scope:
    """Context manager binding the ambient task deadline (re-entrant safe)."""

    def __init__(self, deadline: "float | None"):
        self._deadline = deadline
        self._prev: "float | None" = None

    def __enter__(self) -> None:
        global _ambient_deadline
        self._prev = _ambient_deadline
        _ambient_deadline = self._deadline

    def __exit__(self, *exc_info) -> None:
        global _ambient_deadline
        _ambient_deadline = self._prev


def _run_tasks(fn, tasks, chunk_id, start, deadline=None) -> list:
    """Run a contiguous chunk, catching per-task exceptions into markers.

    The worker entry point of the persistent pool: checks the
    fault-injection sites (``chunk=`` at chunk start, ``task=`` per task)
    and returns one entry per task — the result, or a :class:`_TaskError`
    carrying the task's identity, so a poisoned task never poisons its
    chunk-mates.  ``deadline`` (the map call's request budget) is
    published to the task bodies via :func:`current_task_deadline`, so
    checkpoint-capable tasks snapshot-and-yield at the cutoff instead of
    running on past the owner's patience.
    """
    faults.maybe_fault(chunk=chunk_id)
    out: list = []
    with _deadline_scope(deadline):
        for i, task in enumerate(tasks):
            abs_idx = start + i
            try:
                faults.maybe_fault(task=abs_idx)
                out.append(fn(task))
            except Exception as exc:  # repro-lint: disable=R4 -- task bodies raise anything; quarantined as a typed marker
                out.append(_TaskError.from_exception(abs_idx, task, exc))
    return out


def _backoff_sleep(backoff: float, attempt: int) -> None:
    if backoff > 0:
        time.sleep(min(backoff * (2 ** max(0, attempt - 1)), _BACKOFF_CAP))


def _check_deadline(deadline: "float | None") -> None:
    """Raise the typed deadline error when the absolute budget has passed.

    ``deadline`` is a ``time.monotonic()`` instant.  Called between tasks
    (serial path) and between waits/retries (pool path) — a *running* task
    cannot be preempted in-process, so the guarantee is "fails fast at the
    next scheduling point", with the pool's wait loop additionally capping
    each blocking wait at the remaining budget.
    """
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceeded(
            f"request deadline passed (monotonic {deadline:.3f}); "
            "aborting instead of retrying past the budget"
        )


#: Public alias: serial scan loops (equilibrium audits, the audit service)
#: guard their own iteration with the same typed check the runtime uses.
check_deadline = _check_deadline


def _permanent_failure(
    marker: _TaskError, attempts: int, on_error: str
) -> TaskFailure:
    """Raise (identity chained) or quarantine a spent task, per policy."""
    if on_error == "record":
        return TaskFailure(
            index=marker.index,
            task_repr=marker.task_repr,
            error=marker.exc_repr,
            attempts=attempts,
        )
    err = TaskExecutionError(
        f"task {marker.index} ({marker.task_repr}) failed after "
        f"{attempts} attempt(s): {marker.exc_repr}",
        index=marker.index,
        task_repr=marker.task_repr,
        attempts=attempts,
    )
    raise err from marker.exception()


def _serial_map(
    fn: Callable,
    tasks: Sequence,
    *,
    retries: int = 0,
    backoff: float = 0.05,
    on_error: str = "raise",
    deadline: "float | None" = None,
    start: int = 0,
    consume: "Callable[[list], None] | None" = None,
) -> list:
    """The serial path with the same retry/quarantine contract as the pool.

    Also the degraded last resort the resilient pool falls back to when a
    chunk keeps failing (DESIGN.md §9) — fault sites are checked here too,
    with kill/hang downgrading to raises in the owner process.
    ``deadline`` (absolute monotonic) is checked between tasks and between
    retry attempts; it raises :class:`~repro.errors.DeadlineExceeded`
    regardless of ``on_error`` — a spent request budget is not a task
    failure to quarantine.
    """
    out: list = []
    for i, task in enumerate(tasks):
        abs_idx = start + i
        _check_deadline(deadline)
        attempts = 0
        while True:
            attempts += 1
            try:
                faults.maybe_fault(task=abs_idx)
                with _deadline_scope(deadline):
                    value = fn(task)
                break
            except Exception as exc:  # repro-lint: disable=R4 -- retry loop must catch whatever the task body raises
                # A task-body DeadlineExceeded is a deliberate yield (the
                # task checkpointed its progress); retrying it against the
                # same spent budget is waste, so it goes straight to the
                # permanent verdict.
                if attempts > retries or isinstance(exc, DeadlineExceeded):
                    marker = _TaskError.from_exception(abs_idx, task, exc)
                    value = _permanent_failure(marker, attempts, on_error)
                    break
                _check_deadline(deadline)
                _backoff_sleep(backoff, attempts)
        out.append(value)
        if consume is not None:
            consume([value])
    return out


def default_workers() -> int:
    """CPU count minus one (floor 1): leave a core for the orchestrator."""
    return max(1, (os.cpu_count() or 1) - 1)


def _check_picklable(fn: Callable) -> None:
    try:
        pickle.dumps(fn)
    except Exception as exc:  # pragma: no cover - message path
        raise ConfigurationError(
            f"parallel_map requires a picklable (module-level) function; "
            f"{fn!r} failed to pickle: {exc}"
        ) from exc


def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    *,
    timeout: "float | None" = None,
    deadline: "float | None" = None,
    retries: int = 0,
    backoff: float = 0.05,
    on_error: Literal["raise", "record"] = "raise",
) -> list[R]:
    """Map ``fn`` over ``tasks``, preserving order.

    Parameters
    ----------
    workers:
        Process count; ``None`` → :func:`default_workers`; ``1`` → serial
        in-process execution (no pool, exact same semantics); ``> 1`` →
        the persistent pool of :func:`~repro.parallel.shared.
        get_shared_pool`, reused across calls.
    chunk_size:
        Tasks per submission; ``None`` → ``ceil(len / (4·workers))`` with a
        floor of 1 (a standard latency/throughput compromise).
    timeout:
        Per-chunk wall-clock budget in seconds (pool path only — the
        serial path cannot preempt itself).  A chunk that exceeds it is
        presumed hung: its workers are killed, the executor is rebuilt, and
        the chunk is retried/split under the ``retries`` budget.
    deadline:
        Absolute ``time.monotonic()`` instant bounding the *whole call* —
        the request budget a service propagates, as opposed to ``timeout``,
        which the retry machinery may spend once per attempt.  Past the
        deadline the call raises :class:`~repro.errors.DeadlineExceeded`
        (typed, regardless of ``on_error``) instead of retrying; blocking
        waits are capped at the remaining budget, so a hung worker fails
        the call at the deadline, not at ``timeout × retries``.
    retries:
        Per-task failure budget beyond the first attempt.  Chunk-level
        failures (worker death, timeout) split multi-task chunks to isolate
        the poisoned task; a single task that keeps failing is degraded to
        one serial in-process attempt before the policy below applies.
        Backoff between attempts is deterministic exponential
        (``backoff · 2^(attempt−1)``, capped) — no RNG stream is touched
        and result order never changes.
    on_error:
        ``"raise"`` (default) — raise :class:`~repro.errors.
        TaskExecutionError` naming the failed task's index/repr, chaining
        the original exception; ``"record"`` — put a :class:`TaskFailure`
        in the task's result slot and keep going (the fleets' quarantine
        policy).

    Worker exceptions always surface with the failing task's identity —
    the raised error names the task index and repr rather than a bare
    worker traceback.
    """
    tasks = list(tasks)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if on_error not in ("raise", "record"):
        raise ConfigurationError(f"unknown on_error policy {on_error!r}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    if not tasks:
        return []
    if workers == 1 or len(tasks) == 1:
        fault_tolerant = (
            timeout is not None
            or deadline is not None
            or retries > 0
            or on_error != "raise"
        )
        if fault_tolerant:
            return _serial_map(
                fn, tasks,
                retries=retries, backoff=backoff, on_error=on_error,
                deadline=deadline,
            )
        return [fn(t) for t in tasks]
    _check_picklable(fn)
    from .shared import get_shared_pool

    return get_shared_pool(workers).map(
        fn, tasks, chunk_size=chunk_size,
        timeout=timeout, deadline=deadline,
        retries=retries, backoff=backoff,
        on_error=on_error,
    )
