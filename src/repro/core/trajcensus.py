"""Trajectory census: dynamics themselves as the measured object.

The equilibrium census (:mod:`repro.core.census`) asks *where* dynamics
land; following Kawald–Lenzner ("On Dynamics in Selfish Network Creation"),
the scientifically interesting object is often *how* they get there —
convergence speed, cycling, and sensitivity to the activation schedule and
the responder.  This census runs :class:`~repro.core.dynamics.SwapDynamics`
over a full grid of

    schedules × responders × cost-model specs × initial families × n
    × replicates

and records one row per trajectory: the outcome trichotomy (``converged`` /
``cycle_detected`` / ``exhausted`` — a max-steps timeout is *not* a cycle),
move/activation counts, the recorded trajectory's summary statistics
(:func:`repro.analysis.trajectories.summarize_trajectory` — selfish
regressions, social-cost endpoints, diameter peak), a final-graph
fingerprint (so distinct runs landing on the same equilibrium are visible
across the whole dataset), and the exact equilibrium audit of converged
endpoints.

Execution and persistence reuse the library's hardened infrastructure:

* the grid is a :class:`~repro.parallel.Sweep` — seeds derive from grid
  position, so records are bit-identical at any worker count;
* ``workers > 1`` shards trajectories over the persistent process pool
  (:func:`~repro.parallel.get_shared_pool`), consuming chunk futures in
  submission order so the stream keeps serial order;
* ``jsonl_path`` streams records through the shared
  :class:`~repro.io.jsonl_store.JsonlStore` (the same audited header /
  atomic-rewrite / torn-line machinery the equilibrium census runs on), so
  ``resume=True`` picks an interrupted fleet back up losslessly and a
  changed configuration raises instead of mixing games.

``repro experiment run trajectory`` is the command-line fleet runner; the
``dynamics-census`` CLI experiment renders aggregate tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import IO, Iterable, Literal, Sequence

from ..experiments.experiment import Experiment, run_fleet
from ..io.hashing import graph_fingerprint
from ..io.jsonl_store import FleetFailure, JsonlStore, maybe_decode_failure
from ..graphs import CSRGraph
from ..parallel import Sweep
from ..rng import derive_seed
from .census import InitialFamily, seed_graph
from .costmodel import CostModel, cost_model_spec, resolve_cost_model
from .dynamics import SwapDynamics
from .equilibrium import is_equilibrium

__all__ = [
    "TRAJ_CONFIG_KEY",
    "TrajectoryRecord",
    "graph_fingerprint",
    "run_trajectory_census",
    "trajectory_census_to_rows",
    "trajectory_experiment",
    "trajectory_sweep",
]

Schedule = Literal["round_robin", "random", "greedy"]
Responder = Literal["best", "first"]

#: First-line marker of the JSONL run-config header.
TRAJ_CONFIG_KEY = "trajectory_census_config"

#: v2: headers record ``activation_accounting`` ("engine" / "oracle") so a
#: stream written by the seed oracle path — whose ``activations`` counts
#: come from full sweeps — cannot be silently resumed by an engine-backed
#: mode (or vice versa) into a column-inconsistent dataset.
_CONFIG_VERSION = 2


@dataclass
class TrajectoryRecord:
    """One dynamics trajectory, fully described.

    The grid block (``n`` … ``responder``) pins the game and schedule; the
    outcome block records the trichotomy and counts; the trajectory block
    carries the recorded-run summary (social cost is the resolved cost
    model's Σ-of-agent-costs, see :class:`~repro.core.dynamics.
    DynamicsResult`); ``final_fingerprint`` identifies the terminal graph
    across the dataset.
    """

    # grid
    n: int
    family: str
    replicate: int
    seed: int
    objective: str
    schedule: str
    responder: str
    # outcome
    m_initial: int
    m_final: int
    converged: bool
    cycle_detected: bool
    exhausted: bool
    steps: int
    activations: int
    # trajectory summary
    diameter_initial: float
    diameter_final: float
    diameter_peak: float
    social_cost_initial: float
    social_cost_final: float
    selfish_regressions: int
    max_social_cost_increase: float
    socially_monotone: bool
    # terminal graph
    final_fingerprint: str
    verified_equilibrium: bool | None


# graph_fingerprint moved to repro.io.hashing (the result cache keys on it
# and must not import the census layer); re-exported here for compatibility.


def trajectory_sweep(
    n_values: Sequence[int],
    families: Sequence[InitialFamily],
    objectives: Sequence["str | CostModel"],
    schedules: Sequence[Schedule],
    responders: Sequence[Responder],
    replicates: int,
    root_seed: int,
) -> Sweep:
    """The census grid as a :class:`~repro.parallel.Sweep`.

    Objectives canonicalize to spec strings (validated here, resolved
    per-n inside each task); seeds derive from grid position via the
    sweep's own :func:`~repro.rng.derive_seed` discipline, which is what
    makes the fleet bit-identical at any worker count.
    """
    return Sweep(
        grid={
            "objective": [cost_model_spec(o) for o in objectives],
            "schedule": list(schedules),
            "responder": list(responders),
            "family": list(families),
            "n": [int(n) for n in n_values],
        },
        replicates=replicates,
        root_seed=root_seed,
    )


def _trajectory_task(task: tuple) -> TrajectoryRecord:
    """One trajectory, fully determined by its task tuple.

    Module-level and seeded purely from the tuple, so the record is
    identical wherever (and in whatever order) the task runs.
    """
    (
        n, family, replicate, seed, objective, schedule, responder,
        max_steps, verify, audit_mode, engine_mode,
        checkpoint_path, checkpoint_every,
    ) = task
    # Deferred: repro.analysis imports repro.core.dynamics, so a module-top
    # import here would cycle during package init.
    from ..analysis.trajectories import summarize_trajectory

    model = resolve_cost_model(objective, n)
    initial = seed_graph(family, n, seed)
    dyn = SwapDynamics(
        objective=model,
        schedule=schedule,
        responder=responder,
        max_steps=max_steps,
        record=True,
        seed=derive_seed(seed, 1),
        engine_mode=engine_mode,
    )
    result = dyn.run(
        initial,
        checkpoint=checkpoint_path,
        checkpoint_every=checkpoint_every if checkpoint_path else None,
    )
    summary = summarize_trajectory(result).as_dict()
    summary.pop("steps")  # duplicated by the outcome block
    final = result.graph
    verified: bool | None = None
    if verify and result.converged:
        # The endpoint audit rides the dynamics engine's own matrix —
        # verifying a converged trajectory never recomputes the APSP.
        verified = is_equilibrium(
            final, model, mode=audit_mode, base_dm=result.final_dm
        )
    return TrajectoryRecord(
        n=n,
        family=family,
        replicate=replicate,
        seed=seed,
        objective=model.spec,
        schedule=schedule,
        responder=responder,
        m_initial=initial.m,
        m_final=final.m,
        converged=result.converged,
        cycle_detected=result.cycle_detected,
        exhausted=result.exhausted,
        steps=result.steps,
        activations=result.activations,
        final_fingerprint=graph_fingerprint(final),
        verified_equilibrium=verified,
        **summary,
    )


def _write_jsonl(sink: "IO[str]", records: Iterable) -> None:
    # Module-global on purpose: the crash-window tests intercept this exact
    # hook, and the store calls back into it for every prefix/append write.
    # Quarantined slots (FleetFailure) serialize with their marker key.
    for rec in records:
        obj = rec.encode() if isinstance(rec, FleetFailure) else asdict(rec)
        sink.write(json.dumps(obj) + "\n")
    sink.flush()


def _decode_record(obj: dict):
    return maybe_decode_failure(obj) or TrajectoryRecord(**obj)


def _make_store(
    path: "str | Path", config: dict, durability: str = "flush"
) -> JsonlStore:
    """The shared resumable-stream machinery, bound to trajectory records."""
    return JsonlStore(
        path,
        config_key=TRAJ_CONFIG_KEY,
        config_version=_CONFIG_VERSION,
        config=config,
        decode=_decode_record,
        record_name="trajectory record",
        write_records=lambda sink, recs: _write_jsonl(sink, recs),
        durability=durability,
    )


def run_trajectory_census(
    n_values: Sequence[int],
    families: Sequence[InitialFamily] = ("tree", "sparse", "dense"),
    objectives: Sequence["str | CostModel"] = ("sum",),
    schedules: Sequence[Schedule] = ("round_robin",),
    responders: Sequence[Responder] = ("best",),
    replicates: int = 2,
    root_seed: int = 0,
    max_steps: int = 20_000,
    verify: bool = True,
    workers: int = 1,
    audit_mode: str = "batched",
    engine_mode: str = "batched",
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
    """Run the trajectory census; one record per grid point × replicate.

    The grid enumerates ``objectives × schedules × responders × families ×
    n_values`` (in :func:`trajectory_sweep`'s declared order, first
    dimension slowest) with ``replicates`` runs each; every record carries
    its grid coordinates, so the flat list (or the streamed JSONL) is the
    dataset.

    ``verify`` re-audits every converged endpoint with the exact
    model-aware equilibrium checker (``audit_mode`` selects the kernel,
    and the audit reuses the dynamics engine's final distance matrix).
    ``engine_mode`` selects the dynamics engine — the default ``"batched"``
    bound-then-verify kernel or the seed ``"oracle"``.  The oracle path
    replays the same best-response trajectories but counts activations by
    full sweeps, so only its ``activations`` column differs — the stream
    header therefore records the *accounting* (``"engine"`` vs
    ``"oracle"``), and resuming across that boundary raises instead of
    silently mixing incompatible activation counts.
    ``workers > 1`` shards trajectories over the persistent pool with the
    record list bit-identical to the serial run for any worker count.
    ``jsonl_path`` streams records in record order through the shared
    :class:`~repro.io.jsonl_store.JsonlStore`; ``resume=True`` reloads the
    streamed prefix of an interrupted run with the *same arguments*,
    validating the embedded config header and each resumed record against
    this call's grid, and raises rather than silently mixing datasets
    (see the store's docstring for the crash-window guarantees).

    Fault tolerance (DESIGN.md §9): ``timeout``/``retries``/``backoff``
    tune the runtime's per-chunk recovery; with the default
    ``on_error="record"`` a trajectory failing past its retry budget
    streams as a quarantined :class:`~repro.io.jsonl_store.FleetFailure`
    slot instead of killing the fleet, ``retry_failed=True`` re-runs
    exactly those slots on resume, and ``durability`` sets the stream's
    flush cadence.

    Preemption (DESIGN.md §13): ``checkpoint_dir`` gives each trajectory
    a crash-safe in-task checkpoint (snapshot every ``checkpoint_every``
    applied moves), so killed or deadline-preempted slots *resume* on
    retry and still stream records bit-identical to an uninterrupted
    run; ``deadline`` (absolute monotonic instant) makes running
    trajectories snapshot-and-yield at the cutoff.
    """
    experiment = trajectory_experiment(
        n_values,
        families=families,
        objectives=objectives,
        schedules=schedules,
        responders=responders,
        replicates=replicates,
        root_seed=root_seed,
        max_steps=max_steps,
        verify=verify,
        audit_mode=audit_mode,
        engine_mode=engine_mode,
    )
    return run_fleet(
        experiment,
        workers=workers,
        jsonl_path=jsonl_path,
        resume=resume,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        on_error=on_error,
        retry_failed=retry_failed,
        durability=durability,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        deadline=deadline,
    )


def trajectory_experiment(
    n_values: Sequence[int],
    families: Sequence[InitialFamily] = ("tree", "sparse", "dense"),
    objectives: Sequence["str | CostModel"] = ("sum",),
    schedules: Sequence[Schedule] = ("round_robin",),
    responders: Sequence[Responder] = ("best",),
    replicates: int = 2,
    root_seed: int = 0,
    max_steps: int = 20_000,
    verify: bool = True,
    audit_mode: str = "batched",
    engine_mode: str = "batched",
) -> Experiment:
    """The trajectory census as a declarative :class:`Experiment`.

    The grid and its order are exactly :func:`trajectory_sweep`'s
    (objective slowest, n fastest) with the sweep's flat positional seed
    scheme, the legacy :data:`TRAJ_CONFIG_KEY` header, and the module's
    own store factory — so the compiled fleet streams JSONL byte-identical
    to the pre-refactor ``run_trajectory_census`` (pinned by the
    golden-file suite).
    """
    config = {
        "objectives": [cost_model_spec(o) for o in objectives],
        "schedules": list(schedules),
        "responders": list(responders),
        "families": list(families),
        "n_values": [int(n) for n in n_values],
        "replicates": replicates,
        "root_seed": root_seed,
        "max_steps": max_steps,
        "verify": verify,
        "audit_mode": audit_mode,
        # Named for what differs: only the oracle path's activation
        # accounting, not its trajectories.
        "activation_accounting": (
            "oracle" if engine_mode == "oracle" else "engine"
        ),
    }
    sweep = trajectory_sweep(
        n_values, families, objectives, schedules, responders,
        replicates, root_seed,
    )
    return Experiment(
        name="trajectory",
        point_fn=_trajectory_task,
        grid=sweep.grid,
        task_fields=(
            "n", "family", "replicate", "seed", "objective", "schedule",
            "responder", "max_steps", "verify", "audit_mode", "engine_mode",
            "checkpoint_path", "checkpoint_every",
        ),
        coord_fields=(
            "n", "family", "replicate", "seed", "objective", "schedule",
            "responder",
        ),
        replicates=replicates,
        root_seed=root_seed,
        seed_scheme="flat",
        fixed={
            "max_steps": max_steps,
            "verify": verify,
            "audit_mode": audit_mode,
            "engine_mode": engine_mode,
        },
        int_coords=("n", "replicate", "seed"),
        config_key=TRAJ_CONFIG_KEY,
        config_version=_CONFIG_VERSION,
        config=config,
        record_name="trajectory record",
        decode_record=_decode_record,
        store_factory=lambda path, durability: _make_store(
            path, config, durability
        ),
    )


def trajectory_census_to_rows(records: Iterable) -> list[dict]:
    """Records as plain dicts (for the reporting layer / CSV writers)."""
    return [
        r.encode() if isinstance(r, FleetFailure) else asdict(r)
        for r in records
    ]
