"""Deterministic parallel execution at the fleet grain: pool and faults.

One persistent process pool (:mod:`repro.parallel.shared`) runs fleets of
independent tasks; audits and other per-task work stay serial (DESIGN.md
§5).  Fleets are declared, and their grids enumerated, by
:mod:`repro.experiments`; this package only maps task lists.  The
runtime is fault-tolerant (DESIGN.md §9): per-chunk timeouts, bounded
deterministic retries with chunk splitting, executor rebuild on worker
death, task quarantine (:class:`TaskFailure`), and a deterministic
fault-injection harness (:mod:`repro.parallel.faults`).
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

__all__ = [
    "InjectedFault",
    "SharedArrayPool",
    "TaskFailure",
    "check_deadline",
    "current_task_deadline",
    "default_workers",
    "get_shared_pool",
    "injected_env",
    "map_streamed",
    "parallel_map",
    "shutdown_shared_pools",
]
