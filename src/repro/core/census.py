"""Equilibrium census: the empirical side of Theorem 9.

The paper bounds the diameter of *every* sum equilibrium by 2^O(√lg n) and
conjectures polylog; no equilibrium with diameter > 3 is known.  The census
runs swap dynamics from diverse random seeds (trees, sparse and dense
connected G(n, m)) and records what the reachable equilibria look like —
their diameters, their social costs, whether trees collapsed to stars
(Theorem 1), and how the whole population compares to the bound curves.

:func:`census_experiment` declares the census as an
:class:`~repro.experiments.Experiment`; run it with
:func:`~repro.experiments.run_fleet`::

    records = run_fleet(census_experiment([128, 256], replicates=8),
                        workers=4, jsonl_path="results/census.jsonl")

The census is embarrassingly parallel across trajectories: every task
carries its own :func:`~repro.rng.derive_seed`-derived seed keyed by grid
position, so the record list is bit-identical to the serial run for any
worker count.  ``jsonl_path`` streams finished records to disk in record
order through :class:`~repro.io.jsonl_store.JsonlStore`, opening with a
run-config header (:data:`CENSUS_CONFIG_KEY`) that ``resume=True``
validates, together with every resumed record, before continuing an
interrupted fleet; ``checkpoint_dir`` gives each slot a crash-safe in-task
checkpoint to resume from on retry (DESIGN.md §7, §12 and §13).

``objective`` accepts any cost-model spec (:mod:`repro.core.costmodel`),
so the same fleet machinery covers the interest and budget game variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence, get_args

from ..errors import ConfigurationError

from ..experiments.experiment import Experiment
from ..io.jsonl_store import maybe_decode_failure
from ..graphs import (
    CSRGraph,
    degree_sequence,
    diameter_or_inf,
    random_connected_gnm,
    random_tree,
    total_pairwise_distance,
)
from ..rng import derive_seed
from .costmodel import CostModel, cost_model_spec, resolve_cost_model
from .dynamics import SwapDynamics, _check_settings
from .equilibrium import _check_mode, is_equilibrium

__all__ = [
    "CENSUS_CONFIG_KEY",
    "CensusRecord",
    "census_experiment",
    "seed_graph",
]

InitialFamily = Literal["tree", "sparse", "dense"]

#: First-line marker of the JSONL run-config header.
CENSUS_CONFIG_KEY = "census_config"

_CONFIG_VERSION = 1

#: :func:`_run_slot`'s parameters: the head of every census task tuple.
_SLOT_FIELDS = (
    "n", "family", "seed", "objective", "schedule", "responder",
    "max_steps", "verify", "audit_mode", "checkpoint_path", "checkpoint_every",
)


@dataclass
class CensusRecord:
    """One dynamics run, fully described."""

    n: int
    family: str
    seed: int
    objective: str
    schedule: str
    responder: str
    m_initial: int
    m_final: int
    converged: bool
    cycle_detected: bool
    steps: int
    activations: int
    diameter_initial: float
    diameter_final: float
    social_cost_final: float
    is_star: bool
    verified_equilibrium: bool | None


def seed_graph(family: InitialFamily, n: int, seed) -> CSRGraph:
    """An initial condition from one of the census families.

    * ``tree`` — uniform random labelled tree;
    * ``sparse`` — connected G(n, m) with m = ⌈1.5 (n−1)⌉;
    * ``dense`` — connected G(n, m) with m = ⌈n lg n / 2⌉ (capped at C(n,2)).
    """
    _check_family(family)
    if family == "tree":
        return random_tree(n, seed)
    if family == "sparse":
        m = min(n * (n - 1) // 2, max(n - 1, int(math.ceil(1.5 * (n - 1)))))
        return random_connected_gnm(n, m, seed)
    m = min(
        n * (n - 1) // 2,
        max(n - 1, int(math.ceil(n * math.log2(max(n, 2)) / 2))),
    )
    return random_connected_gnm(n, m, seed)


def _check_family(family: str) -> None:
    if family not in get_args(InitialFamily):
        raise ConfigurationError(f"unknown census family {family!r}")


def _check_slot_args(families, schedules, responders, max_steps, audit_mode,
                     engine_mode="batched") -> None:
    """Raise here what every slot would raise, before any stream opens."""
    for family in families:
        _check_family(family)
    for schedule in schedules:
        for responder in responders:
            _check_settings(schedule, responder, max_steps, engine_mode)
    _check_mode(audit_mode)


def _run_slot(
    n, family, seed, objective, schedule, responder, max_steps, verify,
    audit_mode, checkpoint_path, checkpoint_every, *, engine_mode, record,
):
    """Both censuses' slot: ``(model, initial, result, verified)`` of a run."""
    # A spec string resolves per-n here (interest sets carry their own seed
    # inside the spec, so the model is a pure function of (spec, n)); a
    # CostModel instance passes straight through.
    model = resolve_cost_model(objective, n)
    initial = seed_graph(family, n, seed)
    dynamics = SwapDynamics(
        objective=model, schedule=schedule, responder=responder,
        max_steps=max_steps, record=record, seed=derive_seed(seed, 1),
        engine_mode=engine_mode,
    )
    result = dynamics.run(
        initial, checkpoint=checkpoint_path, checkpoint_every=checkpoint_every
    )
    verified: bool | None = None
    if verify and result.converged:
        # A batched certificate that ended the run was this very audit; any
        # other audit rides the engine's matrix when it kept one.
        verified = (result.certified and audit_mode == "batched") or (
            is_equilibrium(
                result.graph, model, mode=audit_mode, base_dm=result.final_dm
            )
        )
    return model, initial, result, verified


def _is_star(graph: CSRGraph) -> bool:
    if graph.n <= 2:
        return True
    degs = degree_sequence(graph)
    return degs[0] == graph.n - 1 and all(d == 1 for d in degs[1:])


def _census_task(task: tuple) -> CensusRecord:
    """One census slot; the task tuple is :data:`_SLOT_FIELDS`."""
    # No engine option, and no trace: recording costs an n² pass per move.
    model, initial, result, verified = _run_slot(
        *task, engine_mode="batched", record=False
    )
    n, family, seed, _, schedule, responder = task[:6]
    final = result.graph
    return CensusRecord(
        n=n,
        family=family,
        seed=seed,
        objective=model.spec,
        schedule=schedule,
        responder=responder,
        m_initial=initial.m,
        m_final=final.m,
        converged=result.converged,
        cycle_detected=result.cycle_detected,
        steps=result.steps,
        activations=result.activations,
        diameter_initial=diameter_or_inf(initial),
        diameter_final=diameter_or_inf(final),
        social_cost_final=total_pairwise_distance(final),
        is_star=_is_star(final),
        verified_equilibrium=verified,
    )


def _decode_record(obj: dict):
    return maybe_decode_failure(obj) or CensusRecord(**obj)


def census_experiment(
    n_values: Sequence[int],
    families: Sequence[InitialFamily] = ("tree", "sparse", "dense"),
    replicates: int = 3,
    objective: "str | CostModel" = "sum",
    schedule: str = "round_robin",
    responder: str = "best",
    root_seed: int = 0,
    max_steps: int = 20_000,
    verify: bool = True,
    audit_mode: str = "batched",
) -> Experiment:
    """The equilibrium census as a declarative :class:`Experiment`.

    One record per (n, family, replicate): grid ``n × family`` with the
    historical ``"axes"`` seed scheme (``derive_seed(root_seed, n_index,
    family_index, replicate)``) and the :data:`CENSUS_CONFIG_KEY` header,
    so the fleet streams JSONL byte-identical to the pre-refactor census
    (pinned by the golden-file suite).

    ``verify`` re-checks every converged terminal graph with the exact
    equilibrium auditor (``audit_mode`` selects its kernel; the default is
    the batched one) — the census is only evidence if the endpoints really
    are equilibria.  ``objective`` is a cost-model spec string (``"sum"``,
    ``"max"``, ``"interest-sum:k=4,seed=9"``, ``"budget-max:cap=3"``, …) or
    a :class:`~repro.core.costmodel.CostModel`; spec strings resolve per-n
    inside each task, so one census can sweep sizes under one variant.
    """
    spec = cost_model_spec(objective)  # canonical; validates the objective
    _check_slot_args(families, [schedule], [responder], max_steps, audit_mode)
    task_objective = objective if isinstance(objective, CostModel) else spec
    config = {
        "objective": spec,
        "schedule": schedule,
        "responder": responder,
        "max_steps": max_steps,
        "verify": verify,
        "audit_mode": audit_mode,
        "root_seed": root_seed,
        "n_values": [int(n) for n in n_values],
        "families": list(families),
        "replicates": replicates,
    }
    return Experiment(
        name="census",
        point_fn=_census_task,
        grid={"n": list(n_values), "family": list(families)},
        task_fields=_SLOT_FIELDS,
        coord_fields=(
            "n", "family", "seed", "objective", "schedule", "responder",
        ),
        replicates=replicates,
        root_seed=root_seed,
        seed_scheme="axes",
        fixed={
            "objective": task_objective,
            "schedule": schedule,
            "responder": responder,
            "max_steps": max_steps,
            "verify": verify,
            "audit_mode": audit_mode,
        },
        # A CostModel instance rides the task tuple, but the stream's
        # coordinates always carry the canonical spec string.
        coord_overrides={"objective": spec},
        int_coords=("n", "seed"),
        config_key=CENSUS_CONFIG_KEY,
        config_version=_CONFIG_VERSION,
        config=config,
        record_name="census record",
        decode_record=_decode_record,
    )
