"""Best-response computation for a single agent.

The paper's agents are computationally bounded: they weigh one incident edge
against another.  :func:`best_swap` computes the *exact* best improving swap
for a vertex (the agent's greedy move), and :func:`first_improving_swap`
implements the cheaper "better-response" agent that scans candidates in
random order and takes the first win — both are exercised by the dynamics
engine and ablated in the census bench.

For the max objective the comparison is lexicographic ``(local diameter,
degree)``: the paper's max equilibrium requires deletion-criticality, which
means an agent strictly prefers deleting an edge whose removal leaves its
local diameter unchanged.  Sum agents never face this tie (removing an edge
strictly increases the mover's sum through the lost unit-distance endpoint).

:func:`best_swap` has one fast path and one oracle.  The default
``mode="batched"`` routes through the bound-then-verify per-vertex kernel
(:func:`repro.core.batched.best_swap_scan`, DESIGN.md §8) — most
activations are certified move-free from one aggregation pass over the base
matrix, with exact removal rows repaired only for drops whose optimistic
bound survives.  ``mode="oracle"`` keeps the seed behaviour — a fresh APSP
per incident edge — for cross-validation; both produce bit-identical
responses, tie-breaking included.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from ..errors import ConfigurationError
from ..graphs import CSRGraph
from ..parallel import check_deadline
from ..rng import make_rng
from .costmodel import CostModel, resolve_cost_model
from .costs import lifted_base
from .moves import Swap
from .swap_eval import all_swap_costs_for_drop, removal_distance_matrix

__all__ = ["BestResponse", "best_swap", "first_improving_swap"]

Objective = Literal["sum", "max"]
BestSwapMode = Literal["batched", "oracle"]


class BestResponse:
    """The outcome of a best-response computation.

    Attributes
    ----------
    swap:
        The chosen move, or ``None`` when the vertex has no improving move.
    before / after:
        The mover's cost before and after (``after == before`` is possible
        only for max-objective tie-breaking deletions).
    is_deletion:
        Whether the chosen move deletes the dropped edge rather than
        relocating it.
    """

    __slots__ = ("swap", "before", "after", "is_deletion")

    def __init__(self, swap: Swap | None, before: float, after: float, is_deletion: bool):
        self.swap = swap
        self.before = before
        self.after = after
        self.is_deletion = is_deletion

    @property
    def improvement(self) -> float:
        return self.before - self.after

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BestResponse(swap={self.swap}, before={self.before}, "
            f"after={self.after})"
        )


def best_swap(
    graph: CSRGraph,
    v: int,
    objective: "Objective | str | CostModel" = "sum",
    *,
    mode: BestSwapMode = "batched",
    base_dm: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> BestResponse:
    """Exact best swap for vertex ``v`` (or no-op when none improves).

    Semantics:

    1. among all legal swaps (deletions included), find the minimum
       post-swap cost; if it beats the current cost, move there;
    2. otherwise, when the model's ``prefer_deletions_on_tie`` is set (the
       max objective's), take a deletion that leaves the cost unchanged —
       the lexicographic ``(cost, degree)`` improvement that drives graphs
       toward deletion-criticality;
    3. otherwise, no move.

    ``mode`` picks the bound-then-verify per-vertex kernel (``"batched"``)
    or the seed oracle path of a fresh APSP per incident edge
    (``"oracle"``).  A caller that already holds the distance matrix of
    ``graph`` (audit loops, census probes, long-lived engines) can pass it
    as ``base_dm`` — raw int32 or lifted — and the batched kernel skips the
    APSP recomputation entirely; an already-lifted ``base_dm`` is used by
    reference, without even the n×n lifting copy.  ``deadline`` (absolute
    ``time.monotonic()`` instant) bounds the scan: it is checked per
    incident edge and raises :class:`~repro.errors.DeadlineExceeded` once
    spent.
    """
    check_deadline(deadline)
    model = resolve_cost_model(objective, graph.n)
    if mode == "batched":
        # Deferred: repro.core.batched imports this module for BestResponse.
        from .batched import best_swap_scan

        return best_swap_scan(
            graph, v, model, lifted_base(graph, base_dm), deadline=deadline
        )
    if mode != "oracle":
        raise ConfigurationError(f"unknown best_swap mode {mode!r}")
    before = model.bfs_cost(graph, v)
    best_cost = math.inf
    best_move: Swap | None = None
    best_is_deletion = False
    neutral_deletion: Swap | None = None
    neighbor_set = set(int(x) for x in graph.neighbors(v))
    for w in sorted(neighbor_set):
        check_deadline(deadline)
        removal_dm = removal_distance_matrix(graph, (v, w), mode="rebuild")
        costs = all_swap_costs_for_drop(graph, v, w, model, removal_dm)
        mask = model.target_mask(graph, v, w)
        if mask is not None:
            costs[~mask] = math.inf  # move-set constraint (budget cap)
        costs[w] = math.inf  # identity
        top = int(np.argmin(costs))
        cost = float(costs[top])
        if cost < best_cost:
            best_cost = cost
            best_move = Swap(v, w, top)
            best_is_deletion = top in neighbor_set and top != w
        if model.prefer_deletions_on_tie and neutral_deletion is None:
            # Pure-deletion cost of edge vw is v's aggregate in G - vw.
            del_cost = model.row_cost(v, removal_dm[v])
            if del_cost != math.inf and del_cost <= before:
                rep = next(iter(neighbor_set - {w}), None)
                if rep is not None:
                    neutral_deletion = Swap(v, w, rep)
    if best_move is not None and best_cost < before:
        return BestResponse(best_move, before, best_cost, best_is_deletion)
    if neutral_deletion is not None:
        return BestResponse(neutral_deletion, before, before, True)
    return BestResponse(None, before, before, False)


def first_improving_swap(
    graph: CSRGraph,
    v: int,
    objective: "Objective | str | CostModel" = "sum",
    seed=None,
) -> BestResponse:
    """First improving swap for ``v`` in a random candidate order.

    The better-response agent: one patched BFS per candidate, stopping at the
    first strict improvement.  Cheaper per activation than :func:`best_swap`
    when improving moves are plentiful (early dynamics), slower near
    equilibrium — the census bench quantifies the trade.  Candidates outside
    the model's legal move set (budget caps) are skipped, not evaluated, so
    the rng stream stays aligned with the unconstrained scan order; for
    models without move constraints (``target_mask`` returning ``None``)
    the per-drop legality mask is skipped entirely — no all-True mask is
    materialized, and the rng draws are untouched either way.
    """
    model = resolve_cost_model(objective, graph.n)
    rng = make_rng(seed)
    before = model.bfs_cost(graph, v)
    neighbors = [int(x) for x in graph.neighbors(v)]
    rng.shuffle(neighbors)
    targets = np.arange(graph.n)
    for w in neighbors:
        rng.shuffle(targets)
        allowed = model.target_mask(graph, v, w)
        for w2 in targets:
            w2 = int(w2)
            if w2 == v or w2 == w or (
                allowed is not None and not allowed[w2]
            ):
                continue
            extra = [] if graph.has_edge(v, w2) else [(v, w2)]
            after = model.bfs_cost(graph, v, exclude=(v, w), extra=extra)
            if after == math.inf:
                continue
            if after < before:
                return BestResponse(
                    Swap(v, w, w2), before, after, graph.has_edge(v, w2)
                )
    return BestResponse(None, before, before, False)
