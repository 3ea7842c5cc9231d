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

:func:`trajectory_experiment` declares the census as an
:class:`~repro.experiments.Experiment` whose slot is the equilibrium
census's, so :func:`~repro.experiments.run_fleet` runs it on the same
hardened fleet: seeds from grid position (records bit-identical at any
worker count), sharding over the persistent process pool, a resumable
audited JSONL stream (``jsonl_path``), and a crash-safe in-task checkpoint
per slot (``checkpoint_dir``, DESIGN.md §13).

``repro experiment run trajectory`` is the command-line fleet runner; the
``dynamics-census`` CLI experiment renders aggregate tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..experiments.experiment import Experiment
from ..io.hashing import graph_fingerprint
from ..io.jsonl_store import maybe_decode_failure
from .census import _SLOT_FIELDS, InitialFamily, _check_slot_args, _run_slot
from .costmodel import CostModel, cost_model_spec
from .dynamics import Responder, Schedule

__all__ = [
    "TRAJ_CONFIG_KEY",
    "TrajectoryRecord",
    "trajectory_experiment",
]

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


def _trajectory_task(task: tuple) -> TrajectoryRecord:
    """One trajectory slot (:func:`~repro.core.census._run_slot`), recorded.

    The task tuple is the slot's arguments, then ``replicate`` and
    ``engine_mode``; seeded purely from it, the record is identical
    wherever (and in whatever order) the task runs.
    """
    # Deferred: repro.analysis imports repro.core.dynamics, so a module-top
    # import here would cycle during package init.
    from ..analysis.trajectories import summarize_trajectory

    *slot, replicate, engine_mode = task
    model, initial, result, verified = _run_slot(
        *slot, engine_mode=engine_mode, record=True
    )
    n, family, seed, _, schedule, responder = slot[:6]
    summary = summarize_trajectory(result).as_dict()
    summary.pop("steps")  # duplicated by the outcome block
    final = result.graph
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


def _decode_record(obj: dict):
    return maybe_decode_failure(obj) or TrajectoryRecord(**obj)


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

    One record per grid point × replicate over ``objectives × schedules ×
    responders × families × n_values`` (objective slowest, n fastest),
    with the flat positional seed scheme and the :data:`TRAJ_CONFIG_KEY`
    header, so the fleet streams JSONL byte-identical to the pre-refactor
    census (pinned by the golden-file suite).  Every record carries its
    grid coordinates, so the flat list (or the streamed JSONL) is the
    dataset.  Objectives canonicalize to spec strings here and resolve
    per-n inside each task.

    ``verify`` re-audits every converged endpoint with the exact
    model-aware equilibrium checker (``audit_mode`` selects the kernel; a
    batched audit is the certificate that ended the run, if one did).
    ``engine_mode`` selects the dynamics engine — the default
    ``"batched"`` bound-then-verify kernel or the seed ``"oracle"``.  The
    oracle path replays the same best-response trajectories but counts
    activations by full sweeps, so only its ``activations`` column
    differs — the stream header therefore records the *accounting*
    (``"engine"`` vs ``"oracle"``), and resuming across that boundary
    raises instead of silently mixing incompatible activation counts.
    """
    specs = [cost_model_spec(o) for o in objectives]
    _check_slot_args(families, schedules, responders, max_steps, audit_mode,
                     engine_mode)
    sizes = [int(n) for n in n_values]
    config = {
        "objectives": specs,
        "schedules": list(schedules),
        "responders": list(responders),
        "families": list(families),
        "n_values": sizes,
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
    return Experiment(
        name="trajectory",
        point_fn=_trajectory_task,
        grid={
            "objective": specs,
            "schedule": list(schedules),
            "responder": list(responders),
            "family": list(families),
            "n": sizes,
        },
        task_fields=(*_SLOT_FIELDS, "replicate", "engine_mode"),
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
    )
