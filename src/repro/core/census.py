"""Equilibrium census: the empirical side of Theorem 9.

The paper bounds the diameter of *every* sum equilibrium by 2^O(√lg n) and
conjectures polylog; no equilibrium with diameter > 3 is known.  The census
runs swap dynamics from diverse random seeds (trees, sparse and dense
connected G(n, m)) and records what the reachable equilibria look like —
their diameters, their social costs, whether trees collapsed to stars
(Theorem 1), and how the whole population compares to the bound curves.

The census is embarrassingly parallel across trajectories, and
``run_census(workers=...)`` shards them over the persistent worker pool
(:mod:`repro.parallel.shared`): every task carries its own
:func:`~repro.rng.derive_seed`-derived seed keyed by grid position, so the
record list is bit-identical to the serial run for any worker count.
``jsonl_path`` streams finished records to disk incrementally (in record
order — tail the file to watch the fleet), and ``resume=True`` picks an
interrupted run back up from the streamed prefix, which is what makes
overnight n = 512–1024 fleets restartable rather than an all-or-nothing
batch.  The stream rides the shared :class:`~repro.io.jsonl_store.JsonlStore`
(also under the trajectory census): it opens with a run-config header line
and resume validates it (plus every resumed record) against the current
arguments, rewriting the prefix atomically (``.tmp`` + ``os.replace``) —
see DESIGN.md §6 for the crash-window analysis.

``objective`` accepts any cost-model spec (:mod:`repro.core.costmodel`),
so the same fleet machinery covers the interest and budget game variants.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import IO, Iterable, Literal, Sequence

from ..errors import ConfigurationError

from ..experiments.experiment import Experiment, run_fleet
from ..io.jsonl_store import FleetFailure, JsonlStore, maybe_decode_failure
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
from .dynamics import SwapDynamics
from .equilibrium import is_equilibrium

__all__ = [
    "CENSUS_CONFIG_KEY",
    "CensusRecord",
    "census_experiment",
    "census_to_rows",
    "run_census",
    "seed_graph",
]

InitialFamily = Literal["tree", "sparse", "dense"]

#: First-line marker of the JSONL run-config header (see :func:`run_census`).
CENSUS_CONFIG_KEY = "census_config"

_CONFIG_VERSION = 1


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
    if family == "tree":
        return random_tree(n, seed)
    if family == "sparse":
        m = min(n * (n - 1) // 2, max(n - 1, int(math.ceil(1.5 * (n - 1)))))
        return random_connected_gnm(n, m, seed)
    if family == "dense":
        m = min(
            n * (n - 1) // 2,
            max(n - 1, int(math.ceil(n * math.log2(max(n, 2)) / 2))),
        )
        return random_connected_gnm(n, m, seed)
    raise ConfigurationError(f"unknown census family {family!r}")


def _is_star(graph: CSRGraph) -> bool:
    if graph.n <= 2:
        return True
    degs = degree_sequence(graph)
    return degs[0] == graph.n - 1 and all(d == 1 for d in degs[1:])


def _census_task(task: tuple) -> CensusRecord:
    """One trajectory of the census fleet, fully determined by its task.

    Module-level and seeded purely from the task tuple, so records are
    identical wherever (and in whatever order) the task runs.
    """
    (
        n, family, seed, objective, schedule, responder,
        max_steps, verify, audit_mode,
    ) = task
    # A spec string resolves per-n here (interest sets carry their own seed
    # inside the spec, so the model is a pure function of (spec, n)); a
    # CostModel instance passes straight through.
    model = resolve_cost_model(objective, n)
    initial = seed_graph(family, n, seed)
    dyn = SwapDynamics(
        objective=model,
        schedule=schedule,
        responder=responder,
        max_steps=max_steps,
        seed=derive_seed(seed, 1),
    )
    result = dyn.run(initial)
    final = result.graph
    verified: bool | None = None
    if verify and result.converged:
        verified = is_equilibrium(final, model, mode=audit_mode)
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


def _write_jsonl(sink: "IO[str]", records: Iterable) -> None:
    # Module-global on purpose: the crash-window tests intercept this exact
    # hook, and the store calls back into it for every prefix/append write.
    # Quarantined slots (FleetFailure) serialize with their marker key so
    # resume can tell them from result records.
    for rec in records:
        obj = rec.encode() if isinstance(rec, FleetFailure) else asdict(rec)
        sink.write(json.dumps(obj) + "\n")
    sink.flush()


def _decode_record(obj: dict):
    return maybe_decode_failure(obj) or CensusRecord(**obj)


def _make_store(
    path: "str | Path", config: dict, durability: str = "flush"
) -> JsonlStore:
    """The shared resumable-stream machinery, bound to census records."""
    return JsonlStore(
        path,
        config_key=CENSUS_CONFIG_KEY,
        config_version=_CONFIG_VERSION,
        config=config,
        decode=_decode_record,
        record_name="census record",
        write_records=lambda sink, recs: _write_jsonl(sink, recs),
        durability=durability,
    )


def _read_jsonl_prefix(
    path: Path,
) -> "tuple[dict | None, list[CensusRecord]]":
    """Parse a (possibly torn) census JSONL -> ``(config header, records)``.

    Torn-line policy and header extraction live in
    :meth:`repro.io.jsonl_store.JsonlStore.read_prefix`; this wrapper binds
    the census record type for callers (and tests) that start from a path.
    """
    return _make_store(path, {}).read_prefix()


def run_census(
    n_values: Sequence[int],
    families: Sequence[InitialFamily] = ("tree", "sparse", "dense"),
    replicates: int = 3,
    objective: "str | CostModel" = "sum",
    schedule: Literal["round_robin", "random", "greedy"] = "round_robin",
    responder: Literal["best", "first"] = "best",
    root_seed: int = 0,
    max_steps: int = 20_000,
    verify: bool = True,
    workers: int = 1,
    audit_mode: str = "batched",
    jsonl_path: "str | Path | None" = None,
    resume: bool = False,
    timeout: "float | None" = None,
    retries: int = 2,
    backoff: float = 0.05,
    on_error: str = "record",
    retry_failed: bool = False,
    durability: str = "flush",
) -> list:
    """Run the dynamics census and return one record per (n, family, replicate).

    ``verify`` re-checks every converged terminal graph with the exact
    equilibrium auditor (``audit_mode`` selects its kernel; the default is
    the batched one) — the census is only evidence if the endpoints really
    are equilibria.

    ``workers > 1`` shards whole *trajectories* across the persistent
    process pool: seeds derive from grid position, so the record list (and
    the streamed JSONL) is bit-identical to the serial run for any worker
    count.  Each audit inside a trajectory runs serially.

    ``objective`` is a cost-model spec string (``"sum"``, ``"max"``,
    ``"interest-sum:k=4,seed=9"``, ``"budget-max:cap=3"``, …) or a
    :class:`~repro.core.costmodel.CostModel`; spec strings resolve per-n
    inside each task, so one census can sweep sizes under one variant.

    ``jsonl_path`` streams one JSON object per record, in record order, as
    soon as each record (or parallel chunk of records) completes.  The
    first line is a run-config header (:data:`CENSUS_CONFIG_KEY`) recording
    every record-determining argument.  A fresh run replaces the file;
    ``resume=True`` instead reloads the streamed prefix of an interrupted
    run with the *same arguments*, skips those trajectories, and appends
    from where the previous run stopped.  Resume validates the embedded
    header **and** each resumed record against this call's configuration
    and grid, and raises rather than silently mixing records from
    different games; the prefix rewrite goes through a ``.tmp`` sidecar
    and ``os.replace``, so a crash at any moment leaves either the old
    file or the complete new prefix on disk — never a truncated stream.

    Fault tolerance (DESIGN.md §9): ``timeout``/``retries``/``backoff``
    tune the runtime's per-chunk recovery.  With the default
    ``on_error="record"``, a trajectory that fails past its retry budget is
    *quarantined* — a :class:`~repro.io.jsonl_store.FleetFailure` carrying
    the task's grid coordinates, the error, and the attempt count takes its
    record slot (and streams to the JSONL) instead of killing the fleet;
    ``on_error="raise"`` restores fail-fast.  ``retry_failed=True`` on a
    resume re-runs exactly the quarantined slots of the streamed prefix
    before continuing with unfinished tasks.  ``durability`` sets the
    stream's flush cadence (:class:`~repro.io.jsonl_store.JsonlStore`).
    """
    experiment = census_experiment(
        n_values,
        families=families,
        replicates=replicates,
        objective=objective,
        schedule=schedule,
        responder=responder,
        root_seed=root_seed,
        max_steps=max_steps,
        verify=verify,
        audit_mode=audit_mode,
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
    )


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

    Grid ``n × family`` with the historical ``"axes"`` seed scheme
    (``derive_seed(root_seed, n_index, family_index, replicate)``), the
    legacy :data:`CENSUS_CONFIG_KEY` header, and the module's own store
    factory — so the compiled fleet streams JSONL byte-identical to the
    pre-refactor ``run_census`` (pinned by the golden-file suite).
    """
    spec = cost_model_spec(objective)  # canonical; validates the objective
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
        task_fields=(
            "n", "family", "seed", "objective", "schedule", "responder",
            "max_steps", "verify", "audit_mode",
        ),
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
        store_factory=lambda path, durability: _make_store(
            path, config, durability
        ),
    )


def census_to_rows(records: Iterable) -> list[dict]:
    """Records as plain dicts (for the reporting layer / CSV writers)."""
    return [
        r.encode() if isinstance(r, FleetFailure) else asdict(r)
        for r in records
    ]
