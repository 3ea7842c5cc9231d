"""Incremental single-edge-removal repair of cached distance rows.

The audit and dynamics hot paths evaluate ``G − e`` for every edge ``e`` of a
graph whose full APSP matrix is already known.  Recomputing APSP from scratch
per edge — the seed implementation — throws that knowledge away.  This module
keeps it:

* :func:`removal_affected_sources` — the **exact** set of BFS sources whose
  distance row changes when ``e = {a, b}`` is deleted.  Soundness rests on two
  level facts: a shortest path only uses edges between consecutive BFS levels,
  so a source ``s`` with ``|d(s,a) − d(s,b)| ≠ 1`` never routes through ``e``;
  and when ``d(s,b) = d(s,a) + 1`` but ``b`` retains another predecessor at
  level ``d(s,a)``, every path through ``e`` can be rerouted at ``b`` without
  a detour, so the whole row survives.  What remains — sources for which ``a``
  is ``b``'s *only* predecessor — is exactly the affected set.
* :func:`repair_row_after_removal` — a **seeded partial BFS** fixing one
  affected row in place of a fresh BFS: it walks the shortest-path DAG from
  the orphaned endpoint to find the *invalid* vertices (those whose every
  shortest path used ``e``), keeps all other distances, and re-settles the
  invalid region by a multi-source unit-weight Dijkstra seeded from the valid
  boundary.  Cost is proportional to the invalid region, not the graph.
* :func:`repair_removal_rows` — the one strategy choice for many affected
  rows: per-row seeded repairs for a few, one batched BFS for many.
* :func:`removal_matrix_repair` — the matrix-level wrapper: copy the base
  matrix, repair only affected rows.

All inputs and outputs here use the *lifted* int64 convention (unreachable =
:data:`INT_INF_DISTANCE`), matching :func:`repro.core.costs.lift_distances`,
because the repair arithmetic needs infinities that compare large rather than
the raw :data:`~repro.graphs.bfs.UNREACHABLE` sentinel.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .bfs import UNREACHABLE, _frontier_neighbors, bfs_distances
from .csr import CSRGraph

__all__ = [
    "INT_INF_DISTANCE",
    "batched_removal_rows_multi",
    "predecessor_counts",
    "removal_affected_matrix",
    "removal_affected_sources",
    "repair_removal_rows",
    "repair_row_after_removal",
    "removal_matrix_repair",
]

#: Lifted "infinite distance" sentinel; identical to repro.core.costs.INT_INF
#: (duplicated here so the game-agnostic graphs layer stays dependency-free).
INT_INF_DISTANCE: int = 1 << 40


def _check_edge(graph: CSRGraph, a: int, b: int) -> tuple[int, int]:
    a, b = int(a), int(b)
    if not graph.has_edge(a, b):
        raise GraphError(f"edge ({a}, {b}) not in graph")
    return a, b


def removal_affected_sources(
    graph: CSRGraph, dm: np.ndarray, edge: tuple[int, int]
) -> np.ndarray:
    """Boolean mask of sources whose distance row changes in ``G − edge``.

    ``dm`` is the lifted APSP matrix of ``graph``.  The mask is exact: row
    ``s`` of ``G − edge``'s APSP differs from ``dm[s]`` iff ``mask[s]``.
    """
    a, b = _check_edge(graph, *edge)
    da = dm[a]
    db = dm[b]
    finite = (da < INT_INF_DISTANCE) & (db < INT_INF_DISTANCE)
    affected = np.zeros(graph.n, dtype=bool)
    for hi, lo in ((b, a), (a, b)):
        # Sources that see the edge as lo -> hi (hi one level further away).
        d_hi, d_lo = (db, da) if hi == b else (da, db)
        cand = finite & (d_hi == d_lo + 1)
        if not cand.any():
            continue
        others = graph.neighbors(hi)
        others = others[others != lo]
        if others.size:
            # hi keeps a predecessor besides lo => the row survives.
            has_alt = (dm[others] == d_hi[None, :] - 1).any(axis=0)
            cand = cand & ~has_alt
        affected |= cand
    return affected


def predecessor_counts(
    graph: CSRGraph,
    dm: np.ndarray,
    vertices: "np.ndarray | None" = None,
) -> np.ndarray:
    """``pc[v, s]`` = number of BFS predecessors of ``v`` from source ``s``.

    A predecessor is a neighbour ``u`` of ``v`` with ``d(s, u) = d(s, v) − 1``.
    ``dm`` is the lifted APSP matrix.  This is the quantity the affected-source
    test needs: deleting ``{a, b}`` can change row ``s`` only when the far
    endpoint has *exactly one* predecessor (the near endpoint), i.e. its
    ``pc`` entry is 1.  One (n, n) int32 matrix shared by every edge of an
    audit — O(m·n) total work, no per-edge recomputation.

    ``vertices`` restricts the computation to the given rows (the rest stay
    zero) — the per-vertex best-response kernel only audits edges incident to
    one agent, so it needs ``deg(v) + 1`` rows, not the full table.
    """
    n = graph.n
    pc = np.zeros((n, n), dtype=np.int32)
    indptr, indices = graph.indptr, graph.indices
    rows = range(n) if vertices is None else np.asarray(vertices, dtype=np.int64)
    for v in rows:
        nbrs = indices[indptr[v] : indptr[v + 1]]
        if nbrs.size:
            pc[v] = (dm[nbrs] == dm[v] - 1).sum(axis=0)
    return pc


def removal_affected_matrix(
    graph: CSRGraph,
    dm: np.ndarray,
    edges: "np.ndarray | list[tuple[int, int]] | None" = None,
    *,
    pred_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Affected-source masks for **many** edges in one vectorized pass.

    Returns a ``(len(edges), n)`` boolean matrix whose row ``i`` equals
    :func:`removal_affected_sources` for ``edges[i]`` — the level-difference
    test becomes one |E|×n comparison against the base matrix, and the
    only-predecessor test one lookup into :func:`predecessor_counts` (pass
    ``pred_counts`` to amortize it across calls).  ``edges`` defaults to
    every edge of the graph; each pair must be an existing edge.
    """
    if edges is None:
        edges = graph.edges()
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] == 0:
        return np.zeros((0, graph.n), dtype=bool)
    pc = predecessor_counts(graph, dm) if pred_counts is None else pred_counts
    a = edges[:, 0]
    b = edges[:, 1]
    da = dm[a]
    db = dm[b]
    finite = (da < INT_INF_DISTANCE) & (db < INT_INF_DISTANCE)
    affected = finite & (db == da + 1) & (pc[b] < 2)
    affected |= finite & (da == db + 1) & (pc[a] < 2)
    return affected


def _invalid_set(
    indptr: np.ndarray,
    indices: np.ndarray,
    old: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Vertices whose distance from the row's source strictly increases.

    ``old`` is the pre-removal row; ``hi`` is the far endpoint of the removed
    edge (already known to have lost its only predecessor ``lo``).  A vertex
    at level ``L+1`` is invalid iff *all* of its level-``L`` predecessors are
    invalid; propagation is level-synchronous starting from ``hi``.
    """
    n = old.shape[0]
    invalid = np.zeros(n, dtype=bool)
    invalid[hi] = True
    frontier = np.asarray([hi], dtype=np.int32)
    level = int(old[hi])
    while frontier.size:
        srcs, nbrs = _frontier_neighbors(indptr, indices, frontier)
        if nbrs.size == 0:
            break
        cand = np.unique(nbrs[(old[nbrs] == level + 1) & ~invalid[nbrs]])
        if cand.size == 0:
            break
        csrcs, cnbrs = _frontier_neighbors(indptr, indices, cand.astype(np.int32))
        valid_pred = (old[cnbrs] == level) & ~invalid[cnbrs]
        has_valid = np.zeros(n, dtype=bool)
        has_valid[csrcs[valid_pred]] = True
        newly = cand[~has_valid[cand]]
        if newly.size == 0:
            break
        invalid[newly] = True
        frontier = newly.astype(np.int32)
        level += 1
    return invalid


def repair_row_after_removal(
    graph: CSRGraph,
    edge: tuple[int, int],
    old_row: np.ndarray,
) -> np.ndarray:
    """Repair one lifted distance row of ``graph`` for the deletion of ``edge``.

    ``old_row`` is the row *before* removal (lifted int64); the source is
    implicit (the unique vertex at distance 0).  Returns a fresh row equal to
    a from-scratch BFS in ``G − edge`` — including :data:`INT_INF_DISTANCE`
    entries when the removal disconnects part of the graph from the source.

    The repair is a seeded partial BFS: distances outside the invalid region
    are kept verbatim; the invalid region is re-settled by unit-weight
    multi-source Dijkstra seeded from its valid boundary.  Rows that the
    removal provably cannot change are returned as a plain copy.
    """
    a, b = _check_edge(graph, *edge)
    old = np.asarray(old_row, dtype=np.int64)
    da, db = int(old[a]), int(old[b])
    if da >= INT_INF_DISTANCE or db >= INT_INF_DISTANCE or abs(da - db) != 1:
        return old.copy()
    lo, hi = (a, b) if da < db else (b, a)
    indptr, indices = graph.indptr, graph.indices

    # If hi keeps another predecessor the row is provably unchanged.
    others = graph.neighbors(hi)
    others = others[others != lo]
    if others.size and (old[others] == old[hi] - 1).any():
        return old.copy()

    invalid = _invalid_set(indptr, indices, old, lo, hi)
    inv = np.nonzero(invalid)[0].astype(np.int32)
    new = old.copy()
    new[inv] = INT_INF_DISTANCE

    # Adjacency of the invalid region, with the removed edge masked out.
    isrcs, inbrs = _frontier_neighbors(indptr, indices, inv)
    if isrcs.size:
        keep = ~(
            ((isrcs == a) & (inbrs == b)) | ((isrcs == b) & (inbrs == a))
        )
        isrcs, inbrs = isrcs[keep], inbrs[keep]

    unresolved = invalid.copy()
    while isrcs.size:
        open_pairs = unresolved[isrcs]
        nbr_dist = new[inbrs]
        usable = open_pairs & (nbr_dist < INT_INF_DISTANCE)
        if not usable.any():
            break  # the rest is cut off from the source: stays infinite
        cand_dist = nbr_dist[usable] + 1
        settle_at = int(cand_dist.min())
        settled = np.unique(isrcs[usable][cand_dist == settle_at])
        new[settled] = settle_at
        unresolved[settled] = False
        if not unresolved.any():
            break
    return new


#: Column cap for one batched-BFS frontier block (bounds peak memory at
#: roughly ``3 · n · _BLOCK_ENTRIES_TARGET / n`` int32/bool entries).
_BLOCK_ENTRIES_TARGET = 1 << 24


def batched_removal_rows_multi(
    graph: CSRGraph,
    edges_a: np.ndarray,
    edges_b: np.ndarray,
    sources: np.ndarray,
    *,
    block_columns: int | None = None,
) -> np.ndarray:
    """Distance rows for many ``(removed edge, source)`` jobs in one BFS.

    Job ``j`` computes the distance row of ``sources[j]`` in
    ``G − {edges_a[j], edges_b[j]}`` — jobs may remove *different* edges.
    The sweep is level-synchronous over all jobs simultaneously: each BFS
    level is a single sparse product of the **full** adjacency against an
    ``(n, k)`` frontier block, after which the flow that crossed each job's
    removed edge is cancelled column-wise (``reached[b_j, j] −=
    frontier[a_j, j]`` and symmetrically).  Python overhead for a whole
    audit is therefore O(max diameter), not O(edges · diameter).

    Returns a ``(len(sources), n)`` lifted int64 matrix; vertices cut off
    from a job's source hold :data:`INT_INF_DISTANCE`.  ``block_columns``
    caps the frontier width per sweep (``None`` → a ~64 MB working set).
    """
    n = graph.n
    ea = np.asarray(edges_a, dtype=np.int64).ravel()
    eb = np.asarray(edges_b, dtype=np.int64).ravel()
    src = np.asarray(sources, dtype=np.int64).ravel()
    if not (ea.size == eb.size == src.size):
        raise GraphError(
            f"job arrays must align: {ea.size}, {eb.size}, {src.size}"
        )
    total = src.size
    out = np.full((total, n), INT_INF_DISTANCE, dtype=np.int64)
    if total == 0:
        return out
    adj = graph.to_scipy()
    if block_columns is None:
        block_columns = max(1, _BLOCK_ENTRIES_TARGET // max(n, 1))
    for lo in range(0, total, block_columns):
        hi = min(total, lo + block_columns)
        k = hi - lo
        a, b, s = ea[lo:hi], eb[lo:hi], src[lo:hi]
        dist = out[lo:hi]
        cols = np.arange(k)
        dist[cols, s] = 0
        # int32 frontier: the product counts frontier neighbours, which
        # reaches vertex degree — int8 would wrap at hubs of degree >= 128.
        frontier = np.zeros((n, k), dtype=np.int32)
        frontier[s, cols] = 1
        unvisited = np.ones((n, k), dtype=bool)
        unvisited[s, cols] = False
        level = 0
        while True:
            reached = adj.dot(frontier)
            # Cancel the contribution that flowed through each job's
            # removed edge; (b_j, j) pairs are distinct per column, so the
            # fancy-indexed subtraction is exact.
            reached[b, cols] -= frontier[a, cols]
            reached[a, cols] -= frontier[b, cols]
            newly = (reached > 0) & unvisited
            if not newly.any():
                break
            level += 1
            dist.T[newly] = level
            unvisited[newly] = False
            frontier = newly.astype(np.int32)
    return out


def _batched_removal_rows(
    graph: CSRGraph, a: int, b: int, sources: np.ndarray
) -> np.ndarray:
    """Single-edge convenience wrapper over the cross-edge batched BFS."""
    k = np.asarray(sources).size
    return batched_removal_rows_multi(
        graph,
        np.full(k, a, dtype=np.int64),
        np.full(k, b, dtype=np.int64),
        sources,
    )


#: Affected-row count above which the batched BFS beats per-row repairs.
_BATCH_THRESHOLD = 4


def repair_removal_rows(
    graph: CSRGraph,
    dm: np.ndarray,
    edge: tuple[int, int],
    rows: np.ndarray,
) -> np.ndarray:
    """Rows ``rows`` of the lifted APSP matrix of ``graph − edge``.

    The one place that picks how removal rows are repaired: a seeded
    partial BFS per row (:func:`repair_row_after_removal`) for up to
    ``_BATCH_THRESHOLD`` rows, one batched level-synchronous BFS over all
    of them (:func:`batched_removal_rows_multi`) above that.  ``dm`` is the
    lifted base matrix and ``rows`` a non-empty index array; the result is
    a ``(len(rows), n)`` lifted int64 matrix.
    """
    if rows.size <= _BATCH_THRESHOLD:
        return np.stack(
            [repair_row_after_removal(graph, edge, dm[r]) for r in rows]
        )
    return _batched_removal_rows(graph, edge[0], edge[1], rows)


def removal_matrix_repair(
    graph: CSRGraph,
    dm: np.ndarray,
    edge: tuple[int, int],
    *,
    affected: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lifted APSP matrix of ``graph − edge`` derived from the base matrix.

    Unaffected rows are copied from ``dm`` wholesale (one memcpy); affected
    rows are recomputed, picking the cheapest sound strategy:

    * **bridge** — deleting a bridge leaves within-component distances
      untouched (a simple path cannot cross a bridge twice), so the update
      is two block assignments of the infinite sentinel — the dominant case
      for tree dynamics;
    * otherwise :func:`repair_removal_rows` — per-row seeded BFS for a few
      rows, one batched BFS over many.

    Exactly equal to recomputing APSP on the rebuilt graph.  ``affected``
    lets a caller that already computed :func:`removal_affected_sources`
    pass it in.  ``out`` selects the destination: ``None`` (default)
    allocates a fresh copy of ``dm``; passing ``dm`` itself repairs **in
    place** (sound — every strategy reads only a row's own pre-repair
    state) — the dynamics engine's per-move path, which owns its matrix
    and must not pay an n×n copy per applied swap.
    """
    a, b = _check_edge(graph, *edge)
    if out is None:
        out = np.array(dm, dtype=np.int64, copy=True)
    elif out is not dm:
        np.copyto(out, dm)
    mask = (
        removal_affected_sources(graph, dm, (a, b))
        if affected is None
        else affected
    )
    sources = np.nonzero(mask)[0]
    if sources.size == 0:
        return out
    if sources.size > _BATCH_THRESHOLD:
        # A bridge affects every source, so small affected sets go straight
        # to the row repairs (which handle disconnection themselves).
        half = bfs_distances(graph, b, exclude=(a, b))
        if half[a] == UNREACHABLE:  # bridge: b's side is cut off from a's
            side = half != UNREACHABLE
            out[np.ix_(side, ~side)] = INT_INF_DISTANCE
            out[np.ix_(~side, side)] = INT_INF_DISTANCE
            return out
    out[sources] = repair_removal_rows(graph, dm, (a, b), sources)
    return out
