"""Cross-edge batched audit kernel — plan once, bound first, repair rarely.

The fast engine of the one audit walk (``mode="batched"``, the default, in
:mod:`repro.core.equilibrium`; ``mode="rebuild"`` — a fresh APSP per edge —
is its oracle).  For each directed edge the walk needs the mover's exact
row after the drop and, on request, its exact post-swap costs; the kernel
supplies both, a block of edges at a time, in three steps, each written
once:

1. **Plan** — a mover's own post-removal row is the only repaired row most
   of the audit needs.  A :class:`BatchedRemovalPlan` computes the endpoint
   rows of a block of edges in a single level-synchronous BFS over the
   union of (edge, row) jobs (:func:`repro.graphs.batched_removal_rows_multi`),
   whose per-level cost is one sparse product — Python overhead
   O(diameter) per block, not O(m · diameter).  A bridge rides the BFS
   like any other edge: the severed side of its endpoint rows simply stays
   at the infinite sentinel.  The walk takes its blocks from one iterator
   of plans (:func:`_audit_plans`), built lazily over blocks that double
   from ``_FIRST_BLOCK`` up to ``_SCAN_BLOCK`` edges, so an audit that
   stops at an early violation plans a handful of edges, while a full
   audit batches widely.
2. **Bound** — deleting an edge can only *increase* distances, so every
   other row of the removal matrix dominates its base row, and

   ``costs_lb[w'] = agg_u min(dv[u], 1 + base[w', u]) <= costs[w']``

   is a sound optimistic bound computed straight off the base matrix (no
   per-edge copy; it is *exact* for unaffected ``w'``).  Every block of an
   audit but the first computes it for all of its rows at once, one sparse
   product per distance level (:func:`_level_bound`): for non-negative
   integers ``min(a, b) = Σ_{t≥0} [a > t]·[b > t]``, so with
   ``S_t = [dv > t]`` (one row per planned endpoint row, masked to the
   mover's interest set) and the level set ``G_t = [base >= t]``, the sum
   bound of every row and target is ``Σ_t S_t·G_t`` over the ``T`` =
   diameter + 1 levels, and the max bound counts the levels whose entry
   is positive.
   In the first block, where audits of non-equilibria stop, and where the
   distances spread too widely for the levels to pay, the per-row form
   (:func:`_bound`, the level form's oracle) computes the same floats.
3. **Verify** — a mover whose bound never beats its threshold provably has
   no improving swap — the common case on and near equilibria, where the
   census spends its time.  Where the level form ran, one masked row
   minimum over the block's bounds finds the rows that can still beat
   their movers' thresholds (:meth:`BatchedRemovalPlan.survivors`), and
   the walk evaluates only those; elsewhere it evaluates every row.  Only
   when an evaluated row has a candidate (a legal target whose bound is
   below the threshold) does the kernel build the edge's removal
   (:func:`exact_costs_from_bound`, through the one removal builder,
   :func:`repro.graphs.repair.edge_removal`) and re-evaluate exactly
   (:func:`_verify`) — the candidates only: the builder's union BFS runs
   the rows of ``affected & candidates``, and every other target keeps its
   bound, which is at least the threshold and so can neither beat nor tie
   a candidate below it.

Every audit outcome is bit-identical to the ``mode="rebuild"`` oracle —
same violations, gaps and argmin tie-breaking, same directed-edge order —
because the bound only ever *skips* movers and targets whose exact
evaluation could not have produced or tied a violation, and the
candidates are re-evaluated exactly.

The same steps also power the **per-vertex best-response kernel**
(:func:`best_swap_scan` — ``best_swap(mode="batched")`` and the dynamics
hot path, DESIGN.md §8).  For one agent the kernel adds a cheaper *level-0*
bound shared by every incident drop: the bound with the mover's *base* row
in place of ``dv`` lower-bounds the post-swap cost for **any** dropped
edge, so one aggregation pass can certify an agent move-free without a
single BFS — the common state of most agents for most of a dynamics run.
Only when level-0 fails does the kernel plan the agent's incident edges
(one union BFS for the mover-side removal rows), gate each drop with its
own bound (level 1), and verify the few drops whose bound beats the
incumbent (level 2).  The dynamics verification sweep needs no kernel of
its own: "no vertex has a best-response move" is
:func:`~repro.core.equilibrium.is_equilibrium`, one walk over the edges
instead of n independent best responses.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import GraphError
from ..graphs import CSRGraph
from ..parallel import check_deadline
from ..graphs.repair import batched_removal_rows_multi, edge_removal
from .best_response import BestResponse
from .costmodel import CostModel, resolve_cost_model
from .costs import INT_INF
from .moves import Swap

__all__ = [
    "BatchedRemovalPlan",
    "best_swap_scan",
]


class BatchedRemovalPlan:
    """Endpoint rows of ``G − e`` for a set of edges of one graph.

    Every row comes from one union BFS
    (:func:`~repro.graphs.batched_removal_rows_multi`) over the planned
    edges' endpoint jobs.  A bridge needs no special case: the severed side
    of its endpoint rows stays at the infinite sentinel.

    Parameters
    ----------
    graph, lifted:
        The audited graph and its lifted base APSP matrix.
    edges:
        The (undirected) edges to plan, as ``(a, b)`` pairs — one block
        of an audit scan, or one agent's incident edges.
    sources:
        ``"both"`` (default) — the rows of both endpoints of every edge,
        what the audit scans need; ``"mover"`` — the lean per-activation
        layout of the best-response kernel: only the row of each edge's
        *first* endpoint (the kernel's edges are ``(v, w)`` with a fixed
        mover ``v``).
    levels:
        The :class:`LevelSets` of ``lifted`` that a scan shares across its
        plans, for bounds by distance levels; without it (the default)
        every bound is taken row by row.
    """

    def __init__(
        self,
        graph: CSRGraph,
        lifted: np.ndarray,
        edges,
        *,
        sources: str = "both",
        levels: "LevelSets | None" = None,
    ):
        if sources not in ("both", "mover"):
            raise GraphError(f"unknown plan sources {sources!r}")
        self.graph = graph
        self.lifted = lifted
        self.edges = [(int(a), int(b)) for a, b in edges]
        ends = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        per_edge = 2 if sources == "both" else 1
        jobs = np.repeat(ends, per_edge, axis=0)
        #: The planned rows in directed-edge order: row ``k`` is mover
        #: ``movers[k]``'s exact distance row in ``G − movers[k]drops[k]``
        #: (edge ``i``'s rows are ``k = per_edge·i + slot``).
        self.movers = ends[:, :per_edge].ravel()
        self.drops = ends[:, ::-1][:, :per_edge].ravel()
        self.rows = batched_removal_rows_multi(
            graph, jobs[:, 0], jobs[:, 1], self.movers
        )
        #: (len(edges), per_edge, n): slot s of edge i is endpoint s's row.
        self._rows = self.rows.reshape(len(self.edges), per_edge, graph.n)
        self._levels = levels
        #: (model, bounds of every row) of the last level bound
        self._block: "tuple[CostModel, np.ndarray] | None" = None

    # ------------------------------------------------------------------
    def _slot(self, i: int, v: int) -> int:
        a, b = self.edges[i]
        if v == a:
            return 0
        if v == b and self._rows.shape[1] == 2:
            return 1
        raise GraphError(
            f"plan holds no row for vertex {v} of edge {self.edges[i]}"
        )

    def endpoint_row(self, i: int, v: int) -> np.ndarray:
        """The exact distance row of endpoint ``v`` in ``G − edges[i]``."""
        return self._rows[i, self._slot(i, v)]

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

        The bound of the mover's exact row in ``G − edges[i]``:
        ``bound_costs[w'] <= exact costs[w']`` for every target ``w'``, with
        equality whenever ``w'`` is unaffected by the removal.  With level
        sets that accept (:class:`LevelSets`), the first call for a model
        bounds every planned row at once by distance levels
        (:func:`_level_bound`) and later calls read their row.  Otherwise
        each call takes the per-row form :func:`_bound`, with
        ``base_plus1`` (= base + 1) and the ``(n, n)`` scratch ``buf`` from
        the scan loop, so it allocates nothing matrix-sized per edge.  Both
        forms give the same floats.
        """
        model = resolve_cost_model(objective, self.graph.n)
        slot = self._slot(i, v)
        block = self._level_bounds(model)
        if block is not None:
            return block[self._rows.shape[1] * i + slot].copy()
        return _bound(model, v, self._rows[i, slot], base_plus1, buf)

    def _level_bounds(self, model: CostModel) -> "np.ndarray | None":
        """Every planned row's bound under ``model``, or ``None``.

        ``None`` without level sets, or when they refuse.  Computed once
        per model, by :func:`_level_bound`.
        """
        if self._levels is None or self._levels.levels is None:
            return None
        if self._block is None or self._block[0] != model:
            self._block = (
                model,
                _level_bound(
                    model, self.movers, self.rows, self._levels.levels
                ),
            )
        return self._block[1]

    def survivors(
        self, objective, threshold: np.ndarray
    ) -> "np.ndarray | None":
        """The rows whose level bound may beat their mover's threshold.

        Row ``k`` survives when ``min_{t ≠ drops[k]} bound[k, t] <
        threshold[movers[k]]`` — one masked row minimum over the plan's
        level bounds, with each row's identity re-add at ``inf``.  The
        exact costs dominate the bound entrywise and a target mask only
        removes targets, so a row that does not survive has no legal target
        below its threshold (:func:`_verify` returns ``None`` for it).
        Survivors come in ascending order; ``None`` when the plan bounds
        row by row (:meth:`_level_bounds`), where every row is evaluated.
        """
        model = resolve_cost_model(objective, self.graph.n)
        bounds = self._level_bounds(model)
        if bounds is None:
            return None
        k = np.arange(self.movers.size)
        held = bounds[k, self.drops]
        bounds[k, self.drops] = math.inf
        minima = bounds.min(axis=1)
        bounds[k, self.drops] = held
        return np.flatnonzero(minima < threshold[self.movers])

    def exact_costs(
        self,
        i: int,
        v: int,
        w: int,
        objective,
        *,
        bound: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Exact post-swap costs of mover ``v`` dropping ``edges[i]``.

        ``bound`` is the *unmasked* array a prior :meth:`bound_costs` call
        for the same ``(i, v, w)`` returned; :func:`exact_costs_from_bound`
        patches it exactly at the ``candidates`` targets.
        """
        return exact_costs_from_bound(
            self.graph,
            self.lifted,
            v,
            self.edges[i],
            self.endpoint_row(i, v),
            resolve_cost_model(objective, self.graph.n),
            bound,
            candidates,
        )


def _bound(
    model: CostModel,
    v: int,
    dv: np.ndarray,
    base_plus1: np.ndarray,
    buf: np.ndarray,
) -> np.ndarray:
    """``agg_u min(dv[u], 1 + base[w', u])`` for every target ``w'``.

    The one optimistic bound of every scan, in its per-row form.  ``dv``
    is a lower bound of mover ``v``'s row after the drop — its exact row
    in ``G − e``, or (the best-response kernel's level 0) its base row.
    Removal only increases distances, so ``1 + base`` row-dominates the
    true removal matrix, and every cost model's row aggregate is monotone
    under row dominance (the contract in :mod:`repro.core.costmodel`).
    ``costs[v]`` is ``inf``.

    Audit plans compute the same floats for a whole block at once
    (:func:`_level_bound`); this form is their oracle and their fallback
    where the level sets refuse (a disconnected base, or distances spread
    too widely).  The per-vertex best response keeps it: its level-0 and
    level-1 gates bound one row at a time, where a block has nothing to
    share.
    """
    np.minimum(dv[None, :], base_plus1, out=buf)
    costs = model.candidate_costs(v, buf)
    costs[v] = math.inf
    return costs


#: The level form runs while its work per row, ``T·n`` for the level
#: indicators plus the level sets' entries, is at most this many times
#: the per-row form's ``n²``.  The sets then also hold at most ``2·n²``
#: entries of 8 bytes, twice the lifted matrix's size.
_LEVEL_BUDGET = 2


class LevelSets:
    """The distance levels of one lifted base matrix, as sparse 0/1 sets.

    Level ``t`` (``0 <= t <= diameter``) is ``G_t = [base >= t]``.  Each
    is held as whichever of ``G_t`` and its complement ``[base < t]`` has
    fewer entries, as a float32 CSR array; the pair sums to ``n²``
    entries, so ``flip`` marks a complement and :func:`_level_bound`
    takes the product as a row count minus the complement's.  The base
    matrix is symmetric, so each set equals its transpose.  Built on first
    use and shared by the plans of one scan; ``levels`` is ``None`` when
    the per-row form is to run instead.
    """

    def __init__(self, lifted: np.ndarray):
        self.lifted = lifted

    @functools.cached_property
    def levels(self) -> "list[tuple[bool, object]] | None":
        """``[(flip, set)]`` for every level ``t``, or ``None``.

        ``None`` when the base matrix holds ``INT_INF`` (a disconnected
        graph has no finite level count), or when the level form's work
        per row, ``T·n`` plus the sets' entries, exceeds
        ``_LEVEL_BUDGET · n²``.  The entries total about ``n²`` times the
        distances' mean absolute deviation from their median: well under
        ``n²`` at small diameters, and growing toward ``n³`` on paths and
        cycles.
        """
        import scipy.sparse as sp

        lifted = self.lifted
        n = lifted.shape[0]
        top = int(lifted.max()) if lifted.size else 0
        if top >= INT_INF:
            return None
        # below[t] = entries with base < t, the complement of level t.
        below = np.zeros(top + 1, dtype=np.int64)
        np.cumsum(np.bincount(lifted.ravel(), minlength=top)[:top],
                  out=below[1:])
        flips = below <= n * n - below
        work = (top + 1) * n + np.minimum(below, n * n - below).sum()
        if work > _LEVEL_BUDGET * n * n:
            return None
        levels = []
        for t, flip in enumerate(flips):
            member = lifted < t if flip else lifted >= t
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(member.sum(axis=1), out=indptr[1:])
            cols = (np.flatnonzero(member) % n).astype(np.int32)
            data = np.ones(cols.size, dtype=np.float32)
            levels.append((bool(flip), sp.csr_array(
                (data, cols, indptr), shape=(n, n)
            )))
        return levels


def _level_bound(
    model: CostModel,
    movers: np.ndarray,
    rows: np.ndarray,
    levels: "list[tuple[bool, object]]",
) -> np.ndarray:
    """:func:`_bound` of every row of ``rows`` at once, level by level.

    Row ``k`` is mover ``movers[k]``'s ``dv``.  For non-negative integers
    ``min(a, b) = Σ_{t≥0} [a > t]·[b > t]``, and ``1 + base > t`` is
    ``base >= t``, so with ``S_t = [rows > t]`` (zero outside each mover's
    :meth:`~repro.core.costmodel.CostModel.interest_mask`) the bound
    matrix is ``Σ_t S_t·G_t`` for a sum, and the number of levels ``t``
    with ``(S_t·G_t) > 0`` for a max — one sparse product per level, taken
    on the calling thread (no BLAS, so concurrent audits start no threads
    to contend for cores).  An infinite ``dv`` entry is above every level,
    so bridges need no special case.  Every product entry counts 0/1
    terms, at most ``n``, so float32 holds it exactly while ``n < 2²⁴``;
    the levels add up in float64.  Bit-identical to :func:`_bound` on a
    base matrix without ``INT_INF``.
    """
    cols = np.array(rows.T, order="C")  # (n, K): column k is row k
    interest = model.interest_mask(movers)
    if interest is not None:
        cols[~interest.T] = 0
    acc = np.zeros(cols.shape)
    for t, (flip, level) in enumerate(levels):
        s = (cols > t).astype(np.float32)
        p = level @ s
        if flip:
            p = s.sum(axis=0) - p
        acc += p if model.kind == "sum" else p > 0
    bounds = acc.T.copy()
    bounds[np.arange(movers.size), movers] = math.inf
    return bounds


def _legal(costs: np.ndarray, mask, w: int) -> np.ndarray:
    """``costs`` with illegal targets and the identity re-add ``w`` at inf."""
    if mask is not None:
        costs[~mask] = math.inf  # move-set constraint (budget cap)
    costs[w] = math.inf
    return costs


def _verify(plan, i, v, w, model, bound, mask, threshold):
    """Legal costs of ``v`` dropping ``plan.edges[i]``, exact where they win.

    ``None`` when the unmasked ``bound`` proves that no legal target beats
    ``threshold``: the exact costs dominate the bound entrywise.  Otherwise
    the bound is patched exactly (:meth:`BatchedRemovalPlan.exact_costs`)
    at the candidates, the legal targets whose bound is below
    ``threshold``, and returned with ``mask``'s illegal targets and ``w``
    at ``inf``.  Every other target keeps its bound, which is at least
    ``threshold``: its exact cost is too, so it can neither beat nor tie
    a candidate below the threshold.
    """
    legal = _legal(bound.copy(), mask, w)
    candidates = legal < threshold
    if not candidates.any():
        return None
    costs = plan.exact_costs(
        i, v, w, model, bound=bound, candidates=candidates
    )
    return _legal(costs, mask, w)


def exact_costs_from_bound(
    graph: CSRGraph,
    lifted: np.ndarray,
    v: int,
    edge: tuple[int, int],
    dv: np.ndarray,
    model: CostModel,
    bound: np.ndarray,
    candidates: np.ndarray,
) -> np.ndarray:
    """Exact post-swap costs of ``v`` dropping ``edge``, patched from a bound.

    ``bound`` is the *unmasked* optimistic cost array of
    :meth:`BatchedRemovalPlan.bound_costs` (``agg min(dv, 1 + base)``) and
    ``dv`` the mover's exact row in ``G − edge``.  The bound is already
    exact for every add-target whose row the removal does not change, so
    only the rows the one removal builder
    (:func:`~repro.graphs.repair.edge_removal`) returns are re-aggregated —
    O(affected · n), no removal matrix.  ``candidates``, a boolean target
    mask, narrows that to ``affected & candidates``: the builder's union
    BFS runs those rows only, and every other target keeps its bound.
    Across a bridge, re-adds on ``v``'s side leave the graph disconnected
    (cost ``inf``) and the far side's candidates reconnect it over the
    intact within-side base distances.  Every candidate's entry is
    bit-identical — same floats, same downstream argmin tie-breaks — to
    ``all_swap_costs_for_drop(graph, v, w, model, removal_matrix)``; an
    all-true mask patches every target.
    """
    removal = edge_removal(graph, lifted, edge, rows=candidates)
    out = np.array(bound, copy=True)
    if removal.far is not None:
        far = removal.far != removal.far[v]  # the side v cannot reach
        near = ~far
        out[near] = math.inf
        far_idx = np.flatnonzero(far & candidates)
        cand = np.empty((far_idx.size, graph.n), dtype=np.int64)
        cand[:, far] = lifted[np.ix_(far_idx, far)] + 1
        cand[:, near] = dv[near][None, :]
        out[far_idx] = model.candidate_costs(v, cand)
    else:
        cand = np.minimum(dv[None, :], removal.rows + 1)
        out[removal.sources] = model.candidate_costs(v, cand)
    out[v] = math.inf
    return out


# ---------------------------------------------------------------------------
# Plans over every edge of an audit (the audit walk's batched engine)
# ---------------------------------------------------------------------------

#: Edges planned per full-size lazily-built block.  Full equilibrium audits
#: batch this widely; scans start smaller (``_FIRST_BLOCK``) and double.
_SCAN_BLOCK = 128

#: Edges in a scan's first block.  Most non-equilibrium graphs show a
#: violation within their first few edges, so a scan that stops early pays
#: for a handful of endpoint rows instead of a full block.
_FIRST_BLOCK = 8


def _audit_plans(graph, lifted, edges, deadline):
    """Yield the plans of ``edges``' blocks, in the oracle's scan order.

    Plans are built lazily over blocks that double from ``_FIRST_BLOCK``
    up to ``_SCAN_BLOCK`` edges; each holds its rows in directed-edge
    order, ``(a, b)`` then ``(b, a)`` per canonical edge.  The first block
    bounds row by row: a scan that stops early stops there, before
    building the level sets would pay.  Every later block shares one
    :class:`LevelSets`, built when the second block takes its first
    bound.  ``deadline`` is checked once per block, before it is planned.
    """
    edges = list(edges)
    levels = LevelSets(lifted)
    lo, size = 0, _FIRST_BLOCK
    while lo < len(edges):
        check_deadline(deadline)
        yield BatchedRemovalPlan(
            graph, lifted, edges[lo : lo + size], levels=levels if lo else None
        )
        lo += size
        size = min(2 * size, _SCAN_BLOCK)


# ---------------------------------------------------------------------------
# Per-vertex best-response kernel (best_swap mode="batched", DESIGN.md §8)
# ---------------------------------------------------------------------------

def best_swap_scan(
    graph: CSRGraph,
    v: int,
    objective,
    lifted: np.ndarray,
    *,
    base_plus1: np.ndarray | None = None,
    buf: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> BestResponse:
    """Exact best response of ``v`` via the bound-then-verify kernel.

    Bit-identical — swap, costs, tie-breaks, the model's
    ``prefer_deletions_on_tie`` semantics — to the per-edge
    ``mode="oracle"`` loop in
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
      drop with the same bound off its mover row; a drop whose bound cannot
      beat ``min(incumbent, current cost)`` is skipped — sound for the
      returned response because the oracle loop only *returns* a move that
      strictly beats the current cost, and only *updates* its incumbent on
      a strict improvement.
    * **level 2** — surviving drops take the audits' verify step: the
      removal's affected rows whose targets' bounds beat ``min(incumbent,
      current cost)`` are repaired (:func:`exact_costs_from_bound`) and
      re-evaluated exactly.  A target left at its bound can become the
      incumbent only at a value of at least the current cost, which is
      never returned.

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
    costs0 = _bound(model, v, lifted[v], base_plus1, buf)
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
        # Level 1 (the edge's bound) gates level 2 (exact costs).
        bound = _bound(model, v, dv, base_plus1, buf)
        costs = _verify(plan, k, v, w, model, bound, masks[i], thr)
        if costs is None:
            continue  # cannot beat the incumbent nor win: skip exact work
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
