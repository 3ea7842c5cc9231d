"""Deterministic parallel execution at the fleet grain: pool, sweeps, faults.

One persistent process pool (:mod:`repro.parallel.shared`) runs fleets of
independent tasks; audits and other per-task work stay serial (DESIGN.md
§5).  The runtime is fault-tolerant (DESIGN.md §9): per-chunk timeouts,
bounded deterministic retries with chunk splitting, executor rebuild on
worker death, task quarantine (:class:`TaskFailure`), and a
deterministic fault-injection harness (:mod:`repro.parallel.faults`).
"""

from .faults import InjectedFault, injected_env
from .pool import (
    TaskFailure,
    check_deadline,
    current_task_deadline,
    default_workers,
    parallel_map,
)
from .shared import (
    SharedArrayPool,
    get_shared_pool,
    map_streamed,
    shutdown_shared_pools,
)
from .sweep import Sweep, SweepPoint, run_sweep

__all__ = [
    "InjectedFault",
    "SharedArrayPool",
    "Sweep",
    "SweepPoint",
    "TaskFailure",
    "check_deadline",
    "current_task_deadline",
    "default_workers",
    "get_shared_pool",
    "injected_env",
    "map_streamed",
    "parallel_map",
    "run_sweep",
    "shutdown_shared_pools",
]
