"""Declarative experiments compiled to sharded resumable fleets.

An :class:`Experiment` is the repo's one description of an empirical run:
a named cartesian grid of independent variables (declaration order is
enumeration order, first axis slowest), a replicate count, a
position-derived seeding scheme, a picklable point function, and the
persistence contract (config header, record schema, coordinate fields
used for resume validation).  :func:`run_fleet` is the one way to run
one, and declaring one buys the whole hardened execution stack with no
new code:

* **enumeration** — :meth:`Experiment.compile_tasks` walks the grid
  (reserved-column and empty-axis checks at construction,
  position-derived seeds);
* **execution** — :func:`run_fleet` shards tasks over the persistent
  process pool via :func:`~repro.parallel.map_streamed` with the
  DESIGN.md §9 timeout/retry/quarantine semantics, records bit-identical
  to a serial run at any worker count;
* **persistence** — records stream through the
  :class:`~repro.io.jsonl_store.JsonlStore` that
  :meth:`Experiment.make_store` builds: run-config header, resume with
  per-record grid validation, atomic prefix rewrites, torn-tail policy,
  quarantined :class:`~repro.io.jsonl_store.FleetFailure` slots and
  ``retry_failed`` re-runs.

The equilibrium census and the trajectory census are instances of this
layer (:func:`repro.core.census_experiment` /
:func:`repro.core.trajectory_experiment`), and their streamed JSONL is
byte-identical to the pre-refactor fleets — grid order, seeds, header
fields, record fields, resume behavior and ``fleet_failure`` slots all
preserved, pinned by the golden-file suite in ``tests/experiments/``.
The full contract is DESIGN.md §12.

Seeding schemes
---------------
``seed_scheme="flat"`` derives each task's seed from the flat grid
position: ``derive_seed(root_seed, point_index, replicate)``.  ``"axes"``
derives it from the per-axis indices instead:
``derive_seed(root_seed, i_0, …, i_k, replicate)`` — the historical
equilibrium-census discipline, kept so its streams stay byte-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError, StoreIntegrityError
from ..io.checkpoint import peek_checkpoint
from ..io.jsonl_store import FleetFailure, JsonlStore, maybe_decode_failure
from ..parallel import TaskFailure, map_streamed
from ..rng import derive_seed

__all__ = ["Experiment", "run_fleet"]

#: Task-tuple slots :meth:`Experiment.compile_tasks` derives per point
#: (everything else must come from ``grid`` or ``fixed``); a grid axis
#: may not take either name.
_DERIVED_FIELDS = ("seed", "replicate")

#: Optional derived slots for experiments whose point function supports
#: in-task checkpoints (DESIGN.md §13): declaring both in ``task_fields``
#: lets :func:`run_fleet` thread a per-slot checkpoint path and cadence
#: into every task, so quarantined/timed-out slots *resume* on retry
#: instead of restarting.  Execution details, like ``workers`` — they
#: never appear in the stream's config header or its records.
_CHECKPOINT_FIELDS = ("checkpoint_path", "checkpoint_every")


@dataclass
class Experiment:
    """One declarative experiment: grid, seeds, point function, persistence.

    Parameters
    ----------
    name:
        Registry name (also what ``repro experiment run <name>`` invokes).
    point_fn:
        Picklable module-level callable mapping one task tuple to one
        record; fully determined by the tuple so records are identical
        wherever (and in whatever order) the task runs.
    grid:
        Ordered mapping of independent variables to their level lists;
        tasks enumerate the product in declaration order, first axis
        slowest.
    task_fields:
        The task tuple's layout, by name.  Each name resolves from the
        grid (its per-point value), the derived columns (``seed`` /
        ``replicate``), or ``fixed`` (a run-constant) — anything else is
        a configuration error.
    coord_fields:
        The subset (and order) of ``task_fields`` that identifies a task
        in the stream: quarantine ``coords`` dicts carry exactly these,
        and resume validation compares them against every resumed record.
    seed_scheme:
        ``"flat"`` or ``"axes"`` — see the module docstring.
    fixed:
        Run-constant values for ``task_fields`` not in the grid.
    coord_overrides:
        Coordinate values that differ from the raw task slot (e.g. the
        census coordinates carry the canonical objective *spec* while the
        task may carry a resolved ``CostModel`` instance).
    int_coords:
        Coordinate fields coerced through ``int()`` (numpy scalars in the
        grid must not leak into headers or quarantine coords).
    config_key / config_version / config:
        The stream's run-config header (see :class:`JsonlStore`).
    record_name / decode_record:
        Corruption-error naming and the dict→record decoder; the default
        decoder accepts any JSON object (quarantine lines decode to
        :class:`FleetFailure`).
    """

    name: str
    point_fn: Callable[[tuple], Any]
    grid: Mapping[str, Sequence[Any]]
    task_fields: Sequence[str]
    coord_fields: Sequence[str]
    replicates: int = 1
    root_seed: int = 0
    seed_scheme: str = "flat"
    fixed: Mapping[str, Any] = field(default_factory=dict)
    coord_overrides: Mapping[str, Any] = field(default_factory=dict)
    int_coords: Sequence[str] = ()
    config_key: str = "experiment_config"
    config_version: int = 1
    config: Mapping[str, Any] = field(default_factory=dict)
    record_name: str = "record"
    decode_record: "Callable[[dict], Any] | None" = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be >= 1, got {self.replicates}"
            )
        reserved = [name for name in self.grid if name in _DERIVED_FIELDS]
        if reserved:
            raise ConfigurationError(
                f"grid axis(es) {', '.join(map(repr, reserved))} of "
                f"experiment {self.name!r} collide with the derived "
                f"per-task columns {_DERIVED_FIELDS}; rename the axis"
            )
        empty = [name for name, values in self.grid.items() if len(values) < 1]
        if empty:
            raise ConfigurationError(
                f"grid axis(es) {empty!r} of experiment {self.name!r} "
                "are empty; every axis needs >= 1 value"
            )
        if self.seed_scheme not in ("flat", "axes"):
            raise ConfigurationError(
                f"seed_scheme must be 'flat' or 'axes', "
                f"got {self.seed_scheme!r}"
            )
        overlap = [k for k in self.fixed if k in self.grid]
        if overlap:
            raise ConfigurationError(
                f"fixed value(s) {overlap!r} shadow grid dimensions of the "
                f"same name in experiment {self.name!r}"
            )
        unresolved = [
            f for f in self.task_fields
            if f not in self.grid and f not in self.fixed
            and f not in _DERIVED_FIELDS and f not in _CHECKPOINT_FIELDS
        ]
        if unresolved:
            raise ConfigurationError(
                f"task field(s) {unresolved!r} of experiment {self.name!r} "
                "resolve from neither grid, fixed, nor the derived columns "
                f"{_DERIVED_FIELDS + _CHECKPOINT_FIELDS}"
            )
        declared = [f for f in _CHECKPOINT_FIELDS if f in self.task_fields]
        if declared and len(declared) != len(_CHECKPOINT_FIELDS):
            raise ConfigurationError(
                f"experiment {self.name!r} declares {declared!r} but "
                f"checkpoint support needs all of {_CHECKPOINT_FIELDS}"
            )
        missing = [f for f in self.coord_fields if f not in self.task_fields]
        if missing:
            raise ConfigurationError(
                f"coord field(s) {missing!r} of experiment {self.name!r} "
                "are not task fields"
            )

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def total_tasks(self) -> int:
        total = self.replicates
        for values in self.grid.values():
            total *= len(values)
        return total

    @property
    def supports_checkpoints(self) -> bool:
        """Whether the point function takes the DESIGN.md §13 checkpoint slots."""
        return all(f in self.task_fields for f in _CHECKPOINT_FIELDS)

    def compile_tasks(
        self,
        *,
        checkpoint_dir: "str | Path | None" = None,
        checkpoint_every: "int | None" = None,
    ) -> list[tuple]:
        """Every task tuple of the fleet, in stream order.

        When the experiment :attr:`supports_checkpoints` and a
        ``checkpoint_dir`` is given, each task's ``checkpoint_path`` slot
        is filled with a per-slot file (``slot-{flat:05d}.ckpt``, flat
        stream position — stable across resumes because the grid order
        is) and ``checkpoint_every`` with the cadence; otherwise both
        slots compile to ``None`` and the point function runs
        checkpoint-free.
        """
        tasks: list[tuple] = []
        axes = [range(len(values)) for values in self.grid.values()]
        for point, indices in enumerate(itertools.product(*axes)):
            level = {
                name: values[i]
                for (name, values), i in zip(self.grid.items(), indices)
            }
            for rep in range(self.replicates):
                if self.seed_scheme == "axes":
                    seed = derive_seed(self.root_seed, *indices, rep)
                else:
                    seed = derive_seed(self.root_seed, point, rep)
                ckpt_path = None
                if checkpoint_dir is not None:
                    ckpt_path = str(
                        Path(checkpoint_dir) / f"slot-{len(tasks):05d}.ckpt"
                    )
                derived = {
                    "seed": seed,
                    "replicate": rep,
                    "checkpoint_path": ckpt_path,
                    "checkpoint_every": checkpoint_every if ckpt_path else None,
                }
                tasks.append(tuple(
                    derived[name] if name in derived
                    else level[name] if name in level
                    else self.fixed[name]
                    for name in self.task_fields
                ))
        return tasks

    def task_checkpoint(self, task: tuple) -> "str | None":
        """The task's compiled ``checkpoint_path`` slot, or ``None``."""
        if not self.supports_checkpoints:
            return None
        return task[list(self.task_fields).index("checkpoint_path")]

    # ------------------------------------------------------------------
    # Stream identity
    # ------------------------------------------------------------------
    def task_coords(self, task: tuple) -> dict:
        """The task's grid coordinates (quarantine + resume identity)."""
        coords = {}
        for name in self.coord_fields:
            if name in self.coord_overrides:
                value = self.coord_overrides[name]
            else:
                value = task[list(self.task_fields).index(name)]
            if name in self.int_coords:
                value = int(value)
            coords[name] = value
        return coords

    def check_resumed(self, coords: dict, rec) -> None:
        """Raise unless a resumed record sits in the slot ``coords`` pins.

        Seeds derive from grid *position*, so the coordinate fields alone
        cannot see a changed run-constant; the caller's config header
        covers those, and this per-record check still catches a matching
        header pasted onto foreign records.
        """
        if isinstance(rec, FleetFailure):
            if rec.coords != coords:
                raise StoreIntegrityError(
                    f"resume mismatch: quarantined slot {rec.coords!r} "
                    "does not match this run's grid/configuration — "
                    "same arguments required"
                )
            return
        theirs = {name: _field_of(rec, name) for name in self.coord_fields}
        if theirs != coords:
            detail = ", ".join(
                f"{name}={value!r}" for name, value in theirs.items()
            )
            raise StoreIntegrityError(
                f"resume mismatch: existing record ({detail}) does not "
                "match this run's grid/configuration — same arguments "
                "required"
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def make_store(self, path, durability: str = "flush") -> JsonlStore:
        """The experiment's resumable stream at ``path``."""
        return JsonlStore(
            path,
            config_key=self.config_key,
            config_version=self.config_version,
            config=dict(self.config),
            decode=self.decode_record or _decode_any,
            record_name=self.record_name,
            durability=durability,
        )


def _decode_any(obj: dict):
    failure = maybe_decode_failure(obj)
    if failure is not None:
        return failure
    if not isinstance(obj, dict):
        raise TypeError(f"not a record object: {obj!r}")
    return dict(obj)


def _field_of(rec, name: str):
    if isinstance(rec, Mapping):
        return rec[name]
    return getattr(rec, name)


def run_fleet(
    experiment: Experiment,
    *,
    workers: int = 1,
    jsonl_path: "str | Path | None" = None,
    resume: bool = False,
    timeout: "float | None" = None,
    retries: int = 2,
    backoff: float = 0.05,
    on_error: str = "record",
    retry_failed: bool = False,
    durability: str = "flush",
    checkpoint_dir: "str | Path | None" = None,
    checkpoint_every: "int | None" = None,
    deadline: "float | None" = None,
) -> list:
    """Execute ``experiment`` as a sharded resumable fleet; one record per task.

    This is the single runner behind every fleet: enumeration via the
    compiled task list, execution via :func:`~repro.parallel.map_streamed`
    (workers > 1 shards over the persistent pool, records bit-identical to
    serial for any worker count), persistence via the experiment's
    :class:`~repro.io.jsonl_store.JsonlStore` with the full DESIGN.md §9
    contract: streamed record order, resume with header + per-record
    validation, quarantined ``FleetFailure`` slots under
    ``on_error="record"``, ``retry_failed=True`` re-running exactly the
    quarantined slots of a resumed prefix (so it needs ``resume=True``),
    and ``durability`` (``"flush"`` or ``"fsync"``) selecting how far each
    appended batch is pushed.

    ``checkpoint_dir`` (DESIGN.md §13, experiments that declare the
    checkpoint task slots only) gives every slot a crash-safe in-task
    checkpoint file under that directory: a killed/timed-out/preempted
    task resumes from its latest applied-move snapshot on the next
    attempt — same bytes as an uninterrupted run — instead of restarting,
    and quarantined ``FleetFailure`` records carry the slot's checkpoint
    progress.  ``deadline`` (absolute :func:`time.monotonic` instant) is
    forwarded into the pool *and* the task bodies: at the deadline,
    checkpoint-armed tasks snapshot and yield, so a later
    ``resume=True, retry_failed=True`` run finishes the fleet from where
    it stopped.
    """
    if resume and jsonl_path is None:
        raise ConfigurationError("resume=True needs a jsonl_path to resume from")
    if retry_failed and not resume:
        raise ConfigurationError(
            "retry_failed=True re-runs the quarantined slots of a resumed "
            "stream; it needs resume=True"
        )
    if checkpoint_every is not None and checkpoint_dir is None:
        raise ConfigurationError(
            "checkpoint_every needs a checkpoint_dir to write to"
        )
    if checkpoint_dir is not None:
        if not experiment.supports_checkpoints:
            raise ConfigurationError(
                f"experiment {experiment.name!r} does not declare the "
                f"checkpoint task fields {_CHECKPOINT_FIELDS}; it cannot "
                "run with checkpoint_dir"
            )
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    tasks = experiment.compile_tasks(
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
    )

    def quarantine(failure: TaskFailure, task: tuple) -> FleetFailure:
        ckpt_path = experiment.task_checkpoint(task)
        progress = None
        if ckpt_path is not None:
            meta = peek_checkpoint(ckpt_path)
            if meta is not None:
                progress = {"path": str(ckpt_path), **meta}
        return FleetFailure(
            coords=experiment.task_coords(task),
            error=failure.error,
            attempts=failure.attempts,
            checkpoint=progress,
        )

    records: list = []
    sink = None
    store = None
    if jsonl_path is not None:
        store = experiment.make_store(jsonl_path, durability)

        def check_record(idx: int, rec) -> None:
            experiment.check_resumed(experiment.task_coords(tasks[idx]), rec)

        records = store.start_stream(resume, len(tasks), check_record)
        if retry_failed:
            failed_idx = [
                i for i, r in enumerate(records)
                if isinstance(r, FleetFailure)
            ]
            if failed_idx:
                redo = [tasks[i] for i in failed_idx]
                fixed = map_streamed(
                    experiment.point_fn, redo, workers,
                    timeout=timeout, retries=retries, backoff=backoff,
                    on_error=on_error, deadline=deadline,
                )
                for sub, value in enumerate(fixed):
                    if isinstance(value, TaskFailure):
                        value = quarantine(value, redo[sub])
                    records[failed_idx[sub]] = value
                store.rewrite_prefix(records)
        tasks = tasks[len(records):]
        sink = store.open_append()

    def as_records(part: list) -> list:
        # TaskFailure.index is absolute within the mapped (post-resume)
        # task slice, so it looks its coordinates up directly.
        return [
            quarantine(item, tasks[item.index])
            if isinstance(item, TaskFailure)
            else item
            for item in part
        ]

    try:
        fresh = map_streamed(
            experiment.point_fn,
            tasks,
            workers,
            consume=None
            if sink is None
            else (lambda part: store.append(sink, as_records(part))),
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            on_error=on_error,
            deadline=deadline,
        )
        records += as_records(fresh)
    finally:
        if sink is not None:
            sink.close()
    return records
