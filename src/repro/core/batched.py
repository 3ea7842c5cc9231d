"""Cross-edge batched audit kernel — plan once, bound first, repair rarely.

The fast path of every equilibrium audit (``mode="batched"``, the default;
``mode="rebuild"`` — a fresh APSP per edge — is its oracle).  A full audit
is organized around three batch ideas:

1. **Plan** — :func:`repro.graphs.removal_affected_matrix` computes the
   affected-source masks of a whole block of edges in one |E|×n comparison
   against the base matrix (plus a predecessor-count table), and
   classifies bridges by the one bridge rule
   (:func:`repro.graphs.repair.bridge_side`: one half-BFS per edge that
   affects every source).  Blocks are
   built lazily and double from ``_FIRST_BLOCK`` up to ``_SCAN_BLOCK``
   edges, so an audit that stops at an early violation plans a handful of
   edges, while a full audit batches as widely as ever.
2. **Endpoint rows in one BFS** — a mover's own post-removal row is the
   only repaired row most of the audit needs.  A block's 2·|E| endpoint
   rows are computed by a single level-synchronous BFS over the union of
   (edge, row) jobs (:func:`repro.graphs.batched_removal_rows_multi`),
   whose per-level cost is one sparse product — Python overhead
   O(diameter) per block, not O(m · diameter).  Bridge endpoints are
   masked base rows (free).
3. **Bound-then-verify scan** — deleting an edge can only *increase*
   distances, so every other row of the removal matrix dominates its base
   row, and

   ``costs_lb[w'] = agg_u min(dv[u], 1 + base[w', u]) <= costs[w']``

   is a sound optimistic bound computed straight off the base matrix (no
   per-edge copy; it is *exact* for unaffected ``w'``).  A mover whose
   bound never beats its current cost provably has no improving swap —
   the common case on and near equilibria, where the census spends its
   time.  Only when a candidate survives does the kernel repair the
   edge's affected rows (:func:`exact_costs_from_bound`) and re-evaluate
   exactly.

Every scan outcome is bit-identical to the ``mode="rebuild"`` oracle —
same costs, same argmin tie-breaking, same directed-edge order — because
the bound only ever *skips* movers whose exact evaluation could not have
produced a violation, and survivors are re-evaluated exactly.

The same machinery also powers the **per-vertex best-response kernel**
(:func:`best_swap_scan` — ``best_swap(mode="batched")`` and the dynamics
hot path, DESIGN.md §8).  For one agent the kernel adds a cheaper *level-0*
bound shared by every incident drop: since deletion only increases
distances, ``agg_u min(base[v, u], 1 + base[w', u])`` lower-bounds the
post-swap cost for **any** dropped edge, so one aggregation pass can
certify an agent move-free without a single BFS — the common state of most
agents for most of a dynamics run.  Only when level-0 fails does the kernel
plan the agent's incident edges (one union BFS for the mover-side removal
rows), gate each drop with the per-edge :meth:`~BatchedRemovalPlan.
bound_costs`, and repair exact costs only for the few drops whose bound
beats the incumbent.  :func:`certify_at_rest` is the audit-scan analog used
by the dynamics verification sweep: one cross-edge bound-then-verify pass
replacing n independent best responses.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GraphError
from ..graphs import CSRGraph
from ..parallel import check_deadline
from ..graphs.repair import (
    batched_removal_rows_multi,
    bridge_side,
    predecessor_counts,
    removal_affected_matrix,
    removal_affected_sources,
)
from .best_response import BestResponse
from .costmodel import SUM_COST, CostModel, resolve_cost_model
from .costs import INT_INF
from .equilibrium import Violation
from .moves import Swap

__all__ = [
    "BatchedRemovalPlan",
    "best_swap_scan",
    "certify_at_rest",
    "scan_swap_violations",
    "scan_gap",
    "scan_deletion_violations",
]


class BatchedRemovalPlan:
    """Batched audit state for a set of edges of one graph.

    Every repaired row comes from one union BFS
    (:func:`~repro.graphs.batched_removal_rows_multi`) over the planned
    edges' endpoint jobs; a bridge, found by the one bridge rule
    (:func:`~repro.graphs.repair.bridge_side`), needs no BFS row at all.

    Parameters
    ----------
    graph, lifted:
        The audited graph and its lifted base APSP matrix.
    edges:
        The (undirected) edges to plan, as ``(a, b)`` pairs — one block
        of an audit scan, or one agent's incident edges.
    pred_counts:
        Optional precomputed :func:`repro.graphs.predecessor_counts`
        (shared across a scan's plan blocks).  When absent, only the rows the
        planned edges' endpoints need are computed — O(deg) rows for a
        per-vertex plan instead of the full table.
    sources:
        ``"both"`` (default) — plan the affected-source masks, classify
        bridges and repair both endpoint rows per edge, what the audit
        scans need; ``"mover"`` — the lean per-activation layout of the
        best-response kernel: only the row of each edge's *first* endpoint
        is repaired (the kernel's edges are ``(v, w)`` with a fixed mover
        ``v``), every edge — bridges included — rides the single union BFS
        (a bridge's mover row falls out naturally: the far side simply
        stays unreached), and no affected-source masks are planned.
    """

    def __init__(
        self,
        graph: CSRGraph,
        lifted: np.ndarray,
        edges,
        *,
        pred_counts: np.ndarray | None = None,
        sources: str = "both",
    ):
        if sources not in ("both", "mover"):
            raise GraphError(f"unknown plan sources {sources!r}")
        self.graph = graph
        self.lifted = lifted
        self.edges = [(int(a), int(b)) for a, b in edges]
        self._sources = sources

        #: edge index -> boolean mask of the component of ``b`` in G − e.
        self._bridge_side: dict[int, np.ndarray] = {}
        #: (len(edges), n) affected-source masks; ``None`` for mover plans.
        self._affected: np.ndarray | None = None

        jobs: list[tuple[int, int, int]] = []  # (a, b, source) per job
        slots: list[int] = []  # edge index owning jobs[k]
        if sources == "mover":
            # Hot-path layout: only mover rows, no bridge probing (either
            # way the mover row is correct for a bridge — the severed side
            # simply stays at the infinite sentinel) and no affected-source
            # planning.
            for i, (a, b) in enumerate(self.edges):
                jobs.append((a, b, a))
                slots.append(i)
        else:
            if pred_counts is None and self.edges:
                pred_counts = predecessor_counts(
                    graph,
                    lifted,
                    vertices=np.unique(np.asarray(self.edges, dtype=np.int64)),
                )
            self._affected = removal_affected_matrix(
                graph, lifted, self.edges, pred_counts=pred_counts
            )
            for i, (a, b) in enumerate(self.edges):
                side = bridge_side(graph, (a, b), self._affected[i])
                if side is not None:
                    self._bridge_side[i] = side
                    continue
                # Non-bridge: both endpoint rows change (d(a, b) strictly
                # increases), and they are all the bound scan needs.
                jobs.append((a, b, a))
                jobs.append((a, b, b))
                slots.append(i)

        #: edge index -> (2, n) rows for sources (a, b) — (1, n) for a
        #: mover-only plan; audit-plan bridges absent.
        self._end_rows: dict[int, np.ndarray] = {}
        if jobs:
            per_edge = 2 if sources == "both" else 1
            arr = np.asarray(jobs, dtype=np.int64)
            rows = batched_removal_rows_multi(
                graph, arr[:, 0], arr[:, 1], arr[:, 2]
            )
            for k, i in enumerate(slots):
                self._end_rows[i] = rows[per_edge * k : per_edge * (k + 1)]

    # ------------------------------------------------------------------
    def is_bridge(self, i: int) -> bool:
        """Whether edge ``i`` was classified a bridge (audit plans only —
        a mover-only plan never probes for bridges)."""
        return i in self._bridge_side

    def endpoint_row(self, i: int, v: int) -> np.ndarray:
        """The exact distance row of endpoint ``v`` in ``G − edges[i]``."""
        a, b = self.edges[i]
        side = self._bridge_side.get(i)
        if side is not None:
            # A bridge leaves within-component distances untouched.
            row = np.array(self.lifted[v], copy=True)
            row[~side if side[v] else side] = INT_INF
            return row
        if v != a and self._sources == "mover":
            raise GraphError(
                f"mover-only plan holds no repaired row for endpoint {v} "
                f"of edge {self.edges[i]}"
            )
        return self._end_rows[i][0 if v == a else 1]

    # ------------------------------------------------------------------
    def bound_costs(
        self,
        i: int,
        v: int,
        w: int,
        objective,
        base_plus1: np.ndarray,
        buf: np.ndarray,
    ) -> np.ndarray:
        """Optimistic post-swap costs of mover ``v`` dropping ``v–w``.

        ``bound_costs[w'] <= exact costs[w']`` for every target ``w'``
        (removal only increases distances, so ``1 + base`` row-dominates
        the true removal matrix — and every cost model's row aggregate is
        monotone under row dominance, the contract in
        :mod:`repro.core.costmodel`), with equality whenever ``w'`` is
        unaffected by the removal.  ``base_plus1`` (= base + 1) and the
        ``(n, n)`` scratch ``buf`` come from the scan loop, so the bound
        allocates nothing matrix-sized per edge.
        """
        model = (
            objective
            if isinstance(objective, CostModel)
            else resolve_cost_model(objective, self.graph.n)
        )
        dv = self.endpoint_row(i, v)
        np.minimum(dv[None, :], base_plus1, out=buf)
        costs = model.candidate_costs(v, buf)
        costs[v] = math.inf
        return costs

    def exact_costs(
        self,
        i: int,
        v: int,
        w: int,
        objective,
        *,
        bound: np.ndarray,
    ) -> np.ndarray:
        """Exact post-swap costs of mover ``v`` dropping ``edges[i]``.

        ``bound`` is the *unmasked* array a prior :meth:`bound_costs` call
        for the same ``(i, v, w)`` returned; :func:`exact_costs_from_bound`
        patches it exactly, reusing the plan's affected-source mask.
        """
        model = (
            objective
            if isinstance(objective, CostModel)
            else resolve_cost_model(objective, self.graph.n)
        )
        return exact_costs_from_bound(
            self.graph,
            self.lifted,
            v,
            self.edges[i],
            self.endpoint_row(i, v),
            model,
            bound,
            affected=None if self._affected is None else self._affected[i],
        )


def exact_costs_from_bound(
    graph: CSRGraph,
    lifted: np.ndarray,
    v: int,
    edge: tuple[int, int],
    dv: np.ndarray,
    model: CostModel,
    bound: np.ndarray,
    *,
    affected: np.ndarray | None = None,
) -> np.ndarray:
    """Exact post-swap costs of ``v`` dropping ``edge``, patched from a bound.

    ``bound`` is the *unmasked* optimistic cost array of
    :meth:`BatchedRemovalPlan.bound_costs` (``agg min(dv, 1 + base)``) and
    ``dv`` the mover's exact row in ``G − edge``.  The bound is already
    exact for every add-target whose row the removal does not change
    (``removal == base`` there), so only the affected rows are recomputed
    (one union BFS, :func:`~repro.graphs.batched_removal_rows_multi`) and
    re-aggregated — O(affected · n) instead of materializing the removal
    matrix.  A bridge is recognized from ``dv`` itself (the severed side
    sits at the infinite sentinel): near-side re-adds leave the graph
    disconnected (cost ``inf``), far-side re-adds reconnect it over the
    intact within-component base distances.  Bit-identical — same floats,
    same downstream argmin tie-breaks — to
    ``all_swap_costs_for_drop(graph, v, w, model, removal_matrix)``.
    """
    out = np.array(bound, copy=True)
    far = dv >= INT_INF
    if far.any():
        near = ~far
        out[near] = math.inf
        far_idx = np.nonzero(far)[0]
        cand = np.empty((far_idx.size, graph.n), dtype=np.int64)
        cand[:, far] = lifted[np.ix_(far_idx, far)] + 1
        cand[:, near] = dv[near][None, :]
        out[far_idx] = model.candidate_costs(v, cand)
    else:
        if affected is None:
            affected = removal_affected_sources(graph, lifted, edge)
        rows = np.nonzero(affected)[0]
        if rows.size:
            k = rows.size
            sub = batched_removal_rows_multi(
                graph, np.full(k, edge[0]), np.full(k, edge[1]), rows
            )
            cand = np.minimum(dv[None, :], sub + 1)
            out[rows] = model.candidate_costs(v, cand)
    out[v] = math.inf
    return out


# ---------------------------------------------------------------------------
# Scans over every edge of an audit
# ---------------------------------------------------------------------------

#: Edges planned per full-size lazily-built block.  Full equilibrium audits
#: batch this widely; scans start smaller (``_FIRST_BLOCK``) and double.
_SCAN_BLOCK = 128

#: Edges in a scan's first block.  Most non-equilibrium graphs show a
#: violation within their first few edges, so a scan that stops early pays
#: for a handful of endpoint repairs instead of a full block plus the
#: whole predecessor-count table.
_FIRST_BLOCK = 8


def _plan_blocks(graph, lifted, edges, pred_counts):
    """Yield lazily built plans over blocks that double up to ``_SCAN_BLOCK``.

    Without a caller-supplied predecessor-count table the scan fills one
    row by row: a vertex's row is counted when the first block touching it
    is planned, so a full scan counts each row once (the full table) and a
    scan that stops early counts only the endpoints it planned.  A caller
    that supplies the table (the dynamics verification sweep, which mostly
    certifies a graph at rest) gets full-size blocks from the start.
    """
    edges = [(int(a), int(b)) for a, b in edges]
    counted = None
    size = _SCAN_BLOCK
    if pred_counts is None:
        pred_counts = np.zeros((graph.n, graph.n), dtype=np.int32)
        counted = np.zeros(graph.n, dtype=bool)
        size = _FIRST_BLOCK
    lo = 0
    while lo < len(edges):
        block = edges[lo : lo + size]
        if counted is not None:
            ends = np.unique(np.asarray(block, dtype=np.int64))
            fresh = ends[~counted[ends]]
            pred_counts[fresh] = predecessor_counts(
                graph, lifted, vertices=fresh
            )[fresh]
            counted[fresh] = True
        yield BatchedRemovalPlan(
            graph, lifted, block, pred_counts=pred_counts
        )
        lo += size
        size = min(2 * size, _SCAN_BLOCK)


def scan_swap_violations(
    graph: CSRGraph,
    lifted: np.ndarray,
    base: np.ndarray,
    edges,
    objective,
    *,
    pred_counts: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> "Violation | None":
    """First swap violation among ``edges``, or ``None``.

    The batched analog of the oracle's per-edge scan: same directed order
    (``(a, b)`` then ``(b, a)`` per canonical edge), same tie-breaking —
    movers are dismissed only when the sound bound proves no improving
    swap exists, and survivors are re-evaluated exactly.  ``objective`` is
    a cost model (or spec string); the same move-set mask is applied to
    the bound and the exact costs, so budget-constrained scans stay sound.
    """
    n = graph.n
    model = resolve_cost_model(objective, n)
    base_plus1 = lifted + 1
    buf = np.empty((n, n), dtype=np.int64)
    for plan in _plan_blocks(graph, lifted, edges, pred_counts):
        for i, (a, b) in enumerate(plan.edges):
            check_deadline(deadline)
            for v, w in ((a, b), (b, a)):
                mask = model.target_mask(graph, v, w)
                bound = plan.bound_costs(i, v, w, model, base_plus1, buf)
                raw = bound.copy()  # unmasked, for the exact patch path
                if mask is not None:
                    bound[~mask] = math.inf
                bound[w] = math.inf  # identity move is not a violation
                if float(np.min(bound)) >= base[v]:
                    continue  # exact costs dominate the bound: no violation
                costs = plan.exact_costs(i, v, w, model, bound=raw)
                if mask is not None:
                    costs[~mask] = math.inf
                costs[w] = math.inf
                best = int(np.argmin(costs))
                if costs[best] < base[v]:
                    return Violation(
                        model.violation_kind, v, w, best,
                        float(base[v]), float(costs[best]),
                    )
    return None


def scan_gap(
    graph: CSRGraph,
    lifted: np.ndarray,
    base_sum: np.ndarray,
    edges,
    *,
    deadline: "float | None" = None,
) -> float:
    """Largest sum-swap improvement within ``edges`` (batched kernel).

    Sound despite the bound: a mover is skipped only when its *optimistic*
    best is no better than its current cost, in which case it contributes
    nothing to the gap; survivors use exact costs.
    """
    n = graph.n
    base_plus1 = lifted + 1
    buf = np.empty((n, n), dtype=np.int64)
    gap = 0.0
    for plan in _plan_blocks(graph, lifted, edges, None):
        for i, (a, b) in enumerate(plan.edges):
            check_deadline(deadline)
            for v, w in ((a, b), (b, a)):
                bound = plan.bound_costs(i, v, w, SUM_COST, base_plus1, buf)
                raw = bound.copy()
                bound[w] = math.inf
                if float(np.min(bound)) >= base_sum[v]:
                    continue
                costs = plan.exact_costs(i, v, w, SUM_COST, bound=raw)
                costs[w] = math.inf
                best = float(np.min(costs))
                if best < base_sum[v]:
                    gap = max(gap, float(base_sum[v]) - best)
    return gap


def scan_deletion_violations(
    graph: CSRGraph,
    lifted: np.ndarray,
    base_ecc: np.ndarray,
    edges,
    *,
    deadline: "float | None" = None,
) -> "Violation | None":
    """First deletion-criticality violation among ``edges`` (batched).

    Needs only the two endpoint rows per edge — no dense matrix at all —
    so this audit drops from O(m·n²) to O(m·n) plus the shared plan.
    """
    for plan in _plan_blocks(graph, lifted, edges, None):
        for i, (a, b) in enumerate(plan.edges):
            check_deadline(deadline)
            for v in (a, b):
                ecc_v = int(plan.endpoint_row(i, v).max())
                after = math.inf if ecc_v >= INT_INF else float(ecc_v)
                if not after > float(base_ecc[v]):
                    other = b if v == a else a
                    return Violation(
                        "deletion", v, other, None, float(base_ecc[v]), after
                    )
    return None


# ---------------------------------------------------------------------------
# Per-vertex best-response kernel (best_swap mode="batched", DESIGN.md §8)
# ---------------------------------------------------------------------------

def best_swap_scan(
    graph: CSRGraph,
    v: int,
    objective,
    lifted: np.ndarray,
    *,
    prefer_deletions_on_tie: bool | None = None,
    base_plus1: np.ndarray | None = None,
    buf: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> BestResponse:
    """Exact best response of ``v`` via the bound-then-verify kernel.

    Bit-identical — swap, costs, tie-breaks, ``prefer_deletions_on_tie``
    semantics — to the per-edge ``mode="oracle"`` loop in
    :func:`repro.core.best_response.best_swap`, reached in three levels:

    * **level 0** — one shared optimistic bound for every incident drop:
      removal only increases distances, so ``agg_u min(base[v, u],
      1 + base[w', u]) <= cost after (drop anything, add v–w')``.  When its
      minimum cannot beat ``v``'s current cost, no improving swap exists and
      the agent is certified move-free with **zero** BFS work — one
      aggregation pass over the cached base matrix.  (Models that take
      cost-neutral deletions still need the per-edge rows, so level 0 only
      short-circuits when ``prefer_deletions_on_tie`` is off.)
    * **level 1** — plan all incident edges at once (one union BFS for the
      mover-side removal rows via :class:`BatchedRemovalPlan`) and gate each
      drop with the per-edge :meth:`~BatchedRemovalPlan.bound_costs`; a drop
      whose bound cannot beat ``min(incumbent, current cost)`` is skipped —
      sound for the returned response because the oracle loop only
      *returns* a move that strictly beats the current cost, and only
      *updates* its incumbent on a strict improvement.
    * **level 2** — surviving drops repair the removal's affected rows
      (:func:`exact_costs_from_bound`) and re-evaluate exactly.

    ``lifted`` is the lifted base matrix of ``graph``; ``base_plus1``
    (= ``lifted + 1``) and the ``(n, n)`` int64 scratch ``buf`` are optional
    caller-owned scratch so a dynamics engine can amortize them across
    activations.  A mover outside ``range(n)`` raises the oracle's
    :class:`~repro.errors.GraphError`.
    """
    n = graph.n
    if not 0 <= v < n:
        raise GraphError(f"source {v} out of range for n={n}")
    check_deadline(deadline)
    model = resolve_cost_model(objective, n)
    if prefer_deletions_on_tie is None:
        prefer_deletions_on_tie = model.prefer_deletions_on_tie
    before = model.row_cost(v, lifted[v])
    neighbor_set = set(int(x) for x in graph.neighbors(v))
    neighbors = sorted(neighbor_set)
    if not neighbors:
        return BestResponse(None, before, before, False)
    if base_plus1 is None:
        base_plus1 = lifted + 1
    if buf is None:
        buf = np.empty((n, n), dtype=np.int64)

    # Level 0: one bound pass shared by every incident drop.
    np.minimum(lifted[v][None, :], base_plus1, out=buf)
    costs0 = model.candidate_costs(v, buf)
    costs0[v] = math.inf
    if not prefer_deletions_on_tie and float(np.min(costs0)) >= before:
        return BestResponse(None, before, before, False)

    # Phase A — per-edge level-0 gate, no removal rows: the true per-edge
    # bound dominates costs0 entrywise (dv >= base row of v), so the
    # masked costs0 minimum — excluding the identity target — already
    # dismisses every edge that cannot beat the current cost.  Skipping
    # such an edge is outcome-preserving: its exact evaluation could only
    # have moved the internal incumbent between values >= before, never
    # the returned response.  Prefer-deletion models keep every edge (the
    # neutral-deletion check needs each mover row regardless).
    masks: list[np.ndarray | None] = []
    gates: list[float] = []
    surviving: list[int] = []
    for i, w in enumerate(neighbors):
        mask = model.target_mask(graph, v, w)
        c0 = costs0 if mask is None else np.where(mask, costs0, math.inf)
        c0_w = c0[w]
        c0[w] = math.inf
        gate = float(np.min(c0))
        c0[w] = c0_w
        masks.append(mask)
        gates.append(gate)
        if prefer_deletions_on_tie or gate < before:
            surviving.append(i)
    if not surviving:
        return BestResponse(None, before, before, False)

    # Phase B — one union BFS repairs the mover's row for every surviving
    # edge at once, then bound-then-verify per edge in scan order.
    plan = BatchedRemovalPlan(
        graph,
        lifted,
        [(v, neighbors[i]) for i in surviving],
        sources="mover",
    )
    best_cost = math.inf
    best_move: Swap | None = None
    best_is_deletion = False
    neutral_deletion: Swap | None = None
    for k, i in enumerate(surviving):
        check_deadline(deadline)
        w = neighbors[i]
        dv = plan.endpoint_row(k, v)
        if prefer_deletions_on_tie and neutral_deletion is None:
            # Pure-deletion cost of edge vw is v's aggregate in G - vw.
            del_cost = model.row_cost(v, dv)
            if del_cost != math.inf and del_cost <= before:
                rep = next(iter(neighbor_set - {w}), None)
                if rep is not None:
                    neutral_deletion = Swap(v, w, rep)
        thr = min(best_cost, before)
        if gates[i] >= thr:
            continue  # the incumbent tightened past this edge's gate
        mask = masks[i]
        # Level 1: the edge-specific bound off the mover's exact row.
        np.minimum(dv[None, :], base_plus1, out=buf)
        bound = model.candidate_costs(v, buf)
        bound[v] = math.inf
        raw = bound.copy()  # unmasked, for the exact patch path
        if mask is not None:
            bound[~mask] = math.inf  # move-set constraint (budget cap)
        bound[w] = math.inf  # identity
        if float(np.min(bound)) >= thr:
            continue  # cannot beat the incumbent nor win: skip exact work
        # Level 2: exact — affected rows repaired, the rest is the bound.
        costs = exact_costs_from_bound(
            graph, lifted, v, (v, w), dv, model, raw
        )
        if mask is not None:
            costs[~mask] = math.inf
        costs[w] = math.inf
        top = int(np.argmin(costs))
        cost = float(costs[top])
        if cost < best_cost:
            best_cost = cost
            best_move = Swap(v, w, top)
            best_is_deletion = top in neighbor_set and top != w
    if best_move is not None and best_cost < before:
        return BestResponse(best_move, before, best_cost, best_is_deletion)
    if neutral_deletion is not None:
        return BestResponse(neutral_deletion, before, before, True)
    return BestResponse(None, before, before, False)


def certify_at_rest(
    graph: CSRGraph,
    lifted: np.ndarray,
    objective,
    *,
    prefer_deletions_on_tie: bool | None = None,
    pred_counts: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> bool:
    """Whether **no** vertex has a best-response move — one batched scan.

    ``True`` exactly when ``best_swap(graph, v, objective)`` returns
    ``swap=None`` for every vertex: no agent has a strictly improving swap
    among its legal moves and (for ``prefer_deletions_on_tie`` models) no
    agent of degree ≥ 2 holds a cost-neutral deletion.  This is the
    dynamics verification sweep collapsed into the cross-edge audit kernel:
    one plan, one union BFS, bounds dismissing the overwhelmingly-quiet
    edge population — instead of n independent best responses.
    """
    n = graph.n
    model = resolve_cost_model(objective, n)
    if prefer_deletions_on_tie is None:
        prefer_deletions_on_tie = model.prefer_deletions_on_tie
    edges = list(graph.iter_edges())
    if not edges:
        return True
    base = model.base_costs(lifted)
    if not prefer_deletions_on_tie:
        return (
            scan_swap_violations(
                graph, lifted, base, edges, model,
                pred_counts=pred_counts, deadline=deadline,
            )
            is None
        )
    # Prefer-deletion models fold the cost-neutral-deletion endpoint check
    # (best_swap takes one whenever the drop leaves the mover's cost
    # unchanged and a replacement add-target exists, degree >= 2 — the
    # lexicographic tie-break that drives max dynamics toward
    # deletion-criticality) into the same block pass as the violation
    # scan, so each edge is planned exactly once.
    degrees = np.diff(graph.indptr)
    base_plus1 = lifted + 1
    buf = np.empty((n, n), dtype=np.int64)
    for plan in _plan_blocks(graph, lifted, edges, pred_counts):
        for i, (a, b) in enumerate(plan.edges):
            check_deadline(deadline)
            for v, w in ((a, b), (b, a)):
                if degrees[v] >= 2:
                    del_cost = model.row_cost(v, plan.endpoint_row(i, v))
                    if del_cost != math.inf and del_cost <= base[v]:
                        return False
                mask = model.target_mask(graph, v, w)
                bound = plan.bound_costs(i, v, w, model, base_plus1, buf)
                raw = bound.copy()
                if mask is not None:
                    bound[~mask] = math.inf
                bound[w] = math.inf
                if float(np.min(bound)) >= base[v]:
                    continue
                costs = plan.exact_costs(i, v, w, model, bound=raw)
                if mask is not None:
                    costs[~mask] = math.inf
                costs[w] = math.inf
                if float(np.min(costs)) < base[v]:
                    return False
    return True
