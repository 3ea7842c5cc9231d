"""Distance rows of ``G − e`` derived from a cached base matrix.

The audit and dynamics hot paths evaluate ``G − e`` for every edge ``e`` of a
graph whose full APSP matrix is already known.  Recomputing APSP from scratch
per edge — the seed implementation — throws that knowledge away.  This module
keeps it:

* :func:`removal_affected_sources` — the **one affected-source rule**: the
  exact set of BFS sources whose distance row changes when ``e = {a, b}``
  is deleted.  Soundness rests on two level facts: a shortest path only
  uses edges between consecutive BFS levels, so a source ``s`` with
  ``|d(s,a) − d(s,b)| ≠ 1`` never routes through ``e``; and when
  ``d(s,b) = d(s,a) + 1`` but ``b`` retains another predecessor at level
  ``d(s,a)``, every path through ``e`` can be rerouted at ``b`` without a
  detour, so the whole row survives.  What remains — sources for which
  ``a`` is ``b``'s *only* predecessor (:func:`predecessor_counts` of the
  two endpoints) — is exactly the affected set.
* :func:`batched_removal_rows_multi` — the **one row kernel**: every
  repaired row is computed by a level-synchronous BFS over a union of
  ``(removed edge, source)`` jobs, one sparse product per level.
* :func:`removal_matrix_repair` — the matrix-level wrapper: copy the base
  matrix, then blank a bridge's cross blocks (:func:`bridge_side`: a bridge
  changes every row, so only an edge that affects every source is probed,
  by one half-BFS) or recompute only the affected rows with the row kernel.

All inputs and outputs here use the *lifted* int64 convention (unreachable =
:data:`INT_INF_DISTANCE`), matching :func:`repro.core.costs.lift_distances`,
because the repair arithmetic needs infinities that compare large rather than
the raw :data:`~repro.graphs.bfs.UNREACHABLE` sentinel.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .bfs import UNREACHABLE, bfs_distances
from .csr import CSRGraph

__all__ = [
    "INT_INF_DISTANCE",
    "batched_removal_rows_multi",
    "bridge_side",
    "predecessor_counts",
    "removal_affected_sources",
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
    ``s`` of ``G − edge``'s APSP differs from ``dm[s]`` iff ``mask[s]`` —
    iff the edge joins consecutive BFS levels of ``s`` and its nearer
    endpoint is the farther one's only predecessor.
    """
    a, b = _check_edge(graph, *edge)
    da, db = dm[a], dm[b]
    pa, pb = predecessor_counts(graph, dm, (a, b))
    finite = (da < INT_INF_DISTANCE) & (db < INT_INF_DISTANCE)
    return finite & (
        ((db == da + 1) & (pb < 2)) | ((da == db + 1) & (pa < 2))
    )


def predecessor_counts(
    graph: CSRGraph,
    dm: np.ndarray,
    vertices: "np.ndarray | None" = None,
) -> np.ndarray:
    """``pc[k, s]`` = number of BFS predecessors of ``vertices[k]`` from ``s``.

    A predecessor of ``v`` is a neighbour ``u`` with ``d(s, u) = d(s, v) − 1``.
    ``dm`` is the lifted APSP matrix.  This is the quantity the
    affected-source test needs: deleting ``{a, b}`` can change row ``s``
    only when the far endpoint has *exactly one* predecessor (the near
    endpoint).  Returns one int32 row per requested vertex — O(deg · n)
    each; ``vertices`` defaults to every vertex (the full ``(n, n)`` table).
    """
    indptr, indices = graph.indptr, graph.indices
    rows = (
        np.arange(graph.n)
        if vertices is None
        else np.asarray(vertices, dtype=np.int64).ravel()
    )
    pc = np.zeros((rows.size, graph.n), dtype=np.int32)
    for k, v in enumerate(rows):
        nbrs = indices[indptr[v] : indptr[v + 1]]
        if nbrs.size:
            pc[k] = (dm[nbrs] == dm[v] - 1).sum(axis=0)
    return pc


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


def bridge_side(
    graph: CSRGraph, edge: tuple[int, int], affected: np.ndarray
) -> np.ndarray | None:
    """The side of ``b`` in ``G − edge`` when ``edge = (a, b)`` is a bridge.

    ``affected`` is the edge's :func:`removal_affected_sources` mask.  A
    bridge of a connected graph changes all n rows, so an edge that leaves
    any row unchanged is not probed; otherwise one half-BFS from ``b`` with
    the edge masked settles it.  (A bridge inside one component of a
    disconnected graph is never probed: its affected rows take the row
    kernel, exact either way.)  Returns the boolean mask of ``b``'s
    component in ``G − edge``, or ``None``.
    """
    a, b = edge
    if not affected.all():
        return None
    half = bfs_distances(graph, b, exclude=(a, b))
    if half[a] != UNREACHABLE:
        return None
    return half != UNREACHABLE


def removal_matrix_repair(
    graph: CSRGraph,
    dm: np.ndarray,
    edge: tuple[int, int],
    *,
    affected: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Lifted APSP matrix of ``graph − edge`` derived from the base matrix.

    Unaffected rows are copied from ``dm`` wholesale (one memcpy).  When
    :func:`bridge_side` finds a bridge, within-component distances are
    untouched (a simple path cannot cross a bridge twice), so the update is
    two block assignments of the infinite sentinel — the dominant case for
    tree dynamics.  Otherwise the affected rows are recomputed by the one
    row kernel, :func:`batched_removal_rows_multi`, in a single union BFS.

    Exactly equal to recomputing APSP on the rebuilt graph.  ``affected``
    lets a caller that already computed :func:`removal_affected_sources`
    pass it in.  ``out`` selects the destination: ``None`` (default)
    allocates a fresh copy of ``dm``; passing ``dm`` itself repairs **in
    place** (sound — the affected mask is taken before any write, and the
    row kernel reads only the graph) — the dynamics engine's per-move path,
    which owns its matrix and must not pay an n×n copy per applied swap.
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
    side = bridge_side(graph, (a, b), mask)
    if side is not None:
        out[np.ix_(side, ~side)] = INT_INF_DISTANCE
        out[np.ix_(~side, side)] = INT_INF_DISTANCE
        return out
    k = sources.size
    out[sources] = batched_removal_rows_multi(
        graph, np.full(k, a), np.full(k, b), sources
    )
    return out
