"""Swap evaluation: what does a candidate swap do to the mover's cost?

Two evaluation strategies, ablated in ``bench_checker_scaling``:

* ``patched`` — one BFS over the base graph with the dropped edge masked and
  the added edge injected (:func:`repro.graphs.bfs.bfs_aggregates` with a
  patch).  O(m) per candidate, zero graph copies.  Best for evaluating a
  *single* swap.
* ``copy`` — materialize the swapped graph and BFS it.  Baseline used for
  cross-validation.

For evaluating *all* swap targets of one dropped edge at once, use
:func:`all_swap_costs_for_drop`, which computes APSP of ``G − vw`` once and
then closes over every candidate ``w'`` with the exact min-plus identity

    d_{G-vw+vw'}(v, u) = min( d_{G-vw}(v, u),  1 + d_{G-vw}(w', u) )

valid because any shortest path from ``v`` using the new edge must use it
first (revisiting ``v`` never shortens a path).  This identity is what makes
full equilibrium audits O(m) APSP calls instead of O(n·m) BFS calls.

Since the distance engine (DESIGN.md §2), the removal APSP itself is no
longer recomputed per edge: :func:`removal_distance_matrix` defaults to
``mode="repair"``, deriving ``G − e`` from a cached base matrix by repairing
only the rows the deletion can change.  ``mode="rebuild"`` keeps the seed
path (fresh scipy APSP on a rebuilt graph) as the cross-validation oracle.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np
from ..errors import ConfigurationError

from ..graphs import CSRGraph, distance_matrix
from ..graphs.repair import removal_matrix_repair
from .costmodel import CostModel, resolve_cost_model
from .costs import lift_distances, lifted_base
from .moves import Swap, swapped_graph

__all__ = [
    "swap_cost_after",
    "swap_delta",
    "all_swap_costs_for_drop",
    "removal_distance_matrix",
]

Objective = Literal["sum", "max"]
EvalMode = Literal["patched", "copy"]
RemovalMode = Literal["repair", "rebuild"]


def swap_cost_after(
    graph: CSRGraph,
    swap: Swap,
    objective: "Objective | str | CostModel" = "sum",
    mode: EvalMode = "patched",
) -> float:
    """The mover's cost in the swapped graph (``inf`` if it disconnects them)."""
    model = resolve_cost_model(objective, graph.n)
    swap.validate(graph)
    if mode == "copy":
        g2 = swapped_graph(graph, swap)
        return model.bfs_cost(g2, swap.vertex)
    if mode != "patched":
        raise ConfigurationError(f"unknown eval mode {mode!r}")
    extra = []
    if not graph.has_edge(swap.vertex, swap.add):
        extra = [(swap.vertex, swap.add)]
    return model.bfs_cost(
        graph, swap.vertex, exclude=(swap.vertex, swap.drop), extra=extra
    )


def swap_delta(
    graph: CSRGraph,
    swap: Swap,
    objective: "Objective | str | CostModel" = "sum",
    mode: EvalMode = "patched",
) -> float:
    """``cost_after - cost_before`` for the mover; negative means improving."""
    model = resolve_cost_model(objective, graph.n)
    before = model.bfs_cost(graph, swap.vertex)
    after = swap_cost_after(graph, swap, model, mode)
    return after - before


def removal_distance_matrix(
    graph: CSRGraph,
    edge: tuple[int, int],
    *,
    base_dm: np.ndarray | None = None,
    mode: RemovalMode = "repair",
) -> np.ndarray:
    """Lifted (int64, INT_INF) APSP matrix of ``graph`` minus one edge.

    Parameters
    ----------
    base_dm:
        Optional precomputed distance matrix of ``graph`` (raw int32 or
        already lifted — a lifted input is used by reference, no n×n
        copy).  With ``mode="repair"`` it is the matrix the removal
        rows are derived from; amortize it across edges when auditing.
    mode:
        ``"repair"`` (default) — :func:`~repro.graphs.removal_matrix_repair`
        against the base matrix: affected-row detection, then a bridge's
        two sentinel blocks or one union BFS over the affected rows;
        ``"rebuild"`` — the seed oracle path, a fresh APSP on a rebuilt
        graph.
    """
    a, b = int(edge[0]), int(edge[1])
    if mode == "rebuild":
        reduced = graph.with_edges(remove=[(a, b)])
        return lift_distances(distance_matrix(reduced))
    if mode != "repair":
        raise ConfigurationError(f"unknown removal mode {mode!r}")
    return removal_matrix_repair(graph, lifted_base(graph, base_dm), (a, b))


def all_swap_costs_for_drop(
    graph: CSRGraph,
    v: int,
    w: int,
    objective: "Objective | str | CostModel" = "sum",
    removal_dm: np.ndarray | None = None,
) -> np.ndarray:
    """Cost of ``v`` after swapping edge ``v–w`` to ``v–w'``, for **every** w'.

    Returns a float array ``costs`` of length ``n`` where ``costs[w']`` is
    the mover's post-swap cost (``inf`` encodes disconnection).  Entries for
    ``w' == v`` (illegal) and ``w' == w`` (identity) are set to ``inf`` and
    the base cost respectively so callers can take a plain argmin.

    Deletion-as-swap falls out automatically: when ``w'`` is an existing
    neighbour of ``v`` in ``G − vw``, the min-plus closure with ``w'``'s row
    cannot beat ``v``'s own row, so ``costs[w']`` equals the deletion cost.

    ``objective`` accepts a :class:`~repro.core.costmodel.CostModel` or any
    spec string; the costs are the model's (``"sum"``/``"max"`` reproduce
    the paper's objectives bit-for-bit).  Move legality (budget caps) is
    *not* applied here — this is the cost of every hypothetical target;
    movers mask illegal targets via ``model.target_mask``.

    Parameters
    ----------
    removal_dm:
        Optional precomputed :func:`removal_distance_matrix` for ``(v, w)``
        (shared by the two endpoints of an edge during a full audit).
    """
    model = (
        objective
        if isinstance(objective, CostModel)
        else resolve_cost_model(objective, graph.n)
    )
    if removal_dm is None:
        removal_dm = removal_distance_matrix(graph, (v, w))
    dv = removal_dm[v]  # distances from v in G - vw
    # candidate[w', u] = min(dv[u], 1 + removal_dm[w', u])
    candidate = np.minimum(dv[None, :], removal_dm + 1)
    costs = model.candidate_costs(v, candidate)

    # w' == w re-adds the dropped edge: identity. Recover the base cost
    # directly from the same min-plus closure (row w is exact for it).
    # w' == v is illegal.
    costs[v] = math.inf
    return costs
