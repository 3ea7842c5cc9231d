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
  ``(removed edge, source)`` jobs, one compiled CSR product per level on
  the graph's own arrays, stopping once every job has reached every
  vertex or a level reaches nothing new.
* :func:`edge_removal` — the **one removal builder**: the rows of
  ``G − e`` that change, as an :class:`EdgeRemoval`.  An edge that changes
  every row is a bridge of a connected graph, and its far side is read off
  the base matrix (the vertices nearer to ``b`` than to ``a``) with no BFS;
  any other edge's affected rows come from one union BFS.
  :func:`removal_matrix_repair` (a copy of the base matrix with the removal
  written in), the batched kernel's exact patch and the dynamics engine's
  in-place update are its consumers.

All inputs and outputs here use the *lifted* int64 convention (unreachable =
:data:`INT_INF_DISTANCE`), matching :func:`repro.core.costs.lift_distances`,
because the repair arithmetic needs infinities that compare large rather than
the raw :data:`~repro.graphs.bfs.UNREACHABLE` sentinel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph

__all__ = [
    "INT_INF_DISTANCE",
    "EdgeRemoval",
    "batched_removal_rows_multi",
    "edge_removal",
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


#: Entry cap for one batched-BFS block of ``(n, k)`` arrays: the int64
#: level block, the int32 frontier and product, and two bool masks.
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
    Each ``(edges_a[j], edges_b[j])`` must be an edge of ``graph``: the
    kernel cancels flow across it without checking, so a non-edge job
    undercounts (its source loses a path it should keep).  Every job vertex
    must lie in ``0 .. n-1``, or :class:`~repro.errors.GraphError` is
    raised.

    The sweep is level-synchronous over all jobs simultaneously: each BFS
    level is one compiled CSR product (scipy's ``csr_matvecs``) of the
    **full** adjacency, read straight from the graph's int32
    ``indptr``/``indices``, against an ``(n, k)`` int32 frontier block,
    after which the flow that crossed each job's removed edge is cancelled
    column-wise (``reached[b_j, j] −= frontier[a_j, j]`` and
    symmetrically).  Python overhead for a whole audit is therefore
    O(max diameter), not O(edges · diameter).  A block stops once every
    vertex of every column is reached, or once a level reaches nothing new
    (a column cut off by its removed edge, or another component).  The
    levels are written into an ``(n, k)`` block in the frontier's own
    vertex-major layout, every per-level array is updated in place through
    flat views, and the block is copied into the output once.

    Returns a ``(len(sources), n)`` lifted int64 matrix; vertices cut off
    from a job's source hold :data:`INT_INF_DISTANCE`.  ``block_columns``
    caps the frontier width per sweep (``None`` → about 2²⁴ entries per
    block).
    """
    # Imported here, not at module level: ``import repro`` must not load
    # scipy.sparse (it adds about 0.09 s to every cold start).
    from scipy.sparse._sparsetools import csr_matvecs

    n = graph.n
    ea = np.asarray(edges_a, dtype=np.int64).ravel()
    eb = np.asarray(edges_b, dtype=np.int64).ravel()
    src = np.asarray(sources, dtype=np.int64).ravel()
    if not (ea.size == eb.size == src.size):
        raise GraphError(
            f"job arrays must align: {ea.size}, {eb.size}, {src.size}"
        )
    total = src.size
    out = np.empty((total, n), dtype=np.int64)
    if total == 0:
        return out
    jobs = np.concatenate([ea, eb, src])
    if jobs.min() < 0 or jobs.max() >= n:
        bad = int(jobs[(jobs < 0) | (jobs >= n)][0])
        raise GraphError(f"job vertex {bad} out of range for n={n}")
    indptr, indices = graph.indptr, graph.indices
    # int32 throughout (data, frontier, product): the compiled product
    # copies any operand of another dtype on every call, and the product
    # counts frontier neighbours, up to the vertex degree — int8 would wrap
    # at hubs of degree >= 128.
    ones = np.ones(indices.size, dtype=np.int32)
    if block_columns is None:
        block_columns = max(1, _BLOCK_ENTRIES_TARGET // max(n, 1))
    for lo in range(0, total, block_columns):
        hi = min(total, lo + block_columns)
        k = hi - lo
        cols = np.arange(k)
        # Flat offsets of (s_j, j), (a_j, j) and (b_j, j) in an (n, k)
        # block; the pairs are distinct per column, so the fancy-indexed
        # writes and subtractions below are exact.
        at_s = src[lo:hi] * k + cols
        at_a = ea[lo:hi] * k + cols
        at_b = eb[lo:hi] * k + cols
        dist = np.full((n, k), INT_INF_DISTANCE, dtype=np.int64)
        levels = dist.reshape(-1)
        levels[at_s] = 0
        front = np.zeros(n * k, dtype=np.int32)
        front[at_s] = 1
        # The product adds into ``reached``, zeroed once per block: a vertex
        # enters a column's frontier once (counts stay <= degree) and each
        # level's cancellation nets >= 0, so unreached vertices count 0.
        reached = np.zeros(n * k, dtype=np.int32)
        unvisited = np.ones(n * k, dtype=bool)
        unvisited[at_s] = False
        newly = np.empty(n * k, dtype=bool)
        left = n * k - k  # (vertex, job) pairs not reached yet
        level = 0
        while left:
            csr_matvecs(n, n, k, indptr, indices, ones, front, reached)
            # Cancel the contribution that flowed through each job's
            # removed edge.
            reached[at_b] -= front[at_a]
            reached[at_a] -= front[at_b]
            np.greater(reached, 0, out=newly)
            newly &= unvisited
            added = np.count_nonzero(newly)
            if not added:
                break
            left -= added
            level += 1
            np.putmask(levels, newly, level)
            unvisited ^= newly  # newly is a subset of unvisited
            np.copyto(front, newly)
        out[lo:hi] = dist.T
    return out


class EdgeRemoval(NamedTuple):
    """The rows of ``G − e`` that differ from the base matrix.

    Built by :func:`edge_removal`.  ``affected`` is the mask of changed
    rows.  For a bridge of a connected graph (every row changed) ``far`` is
    the mask of ``b``'s side and ``sources``/``rows`` are ``None``;
    otherwise ``far`` is ``None``, ``sources`` are the affected rows (those
    of them the builder was asked for) and ``rows`` their lifted distance
    rows in ``G − e``.  A removal whose ``sources`` miss an affected row
    holds only part of ``G − e``, so it cannot be written.
    """

    affected: np.ndarray
    far: "np.ndarray | None"
    sources: "np.ndarray | None"
    rows: "np.ndarray | None"

    def write(self, out: np.ndarray) -> np.ndarray:
        """Turn ``out``, holding the base matrix, into ``G − e``'s; returns it.

        A bridge blanks the two cross blocks between its sides (distances
        within a side are unchanged: a simple path cannot cross a bridge
        twice); any other edge overwrites its affected rows.  A removal
        built for some of its affected rows only raises
        :class:`~repro.errors.GraphError`.
        """
        if self.far is not None:
            out[np.ix_(self.far, ~self.far)] = INT_INF_DISTANCE
            out[np.ix_(~self.far, self.far)] = INT_INF_DISTANCE
            return out
        if self.sources.size < np.count_nonzero(self.affected):
            raise GraphError(
                "a removal built for some of its affected rows only "
                "cannot be written"
            )
        out[self.sources] = self.rows
        return out


def edge_removal(
    graph: CSRGraph,
    lifted: np.ndarray,
    edge: tuple[int, int],
    *,
    rows: "np.ndarray | None" = None,
) -> EdgeRemoval:
    """The one removal builder: the rows of ``graph − edge`` that change.

    ``lifted`` is the lifted APSP matrix of ``graph``.  An edge ``(a, b)``
    whose :func:`removal_affected_sources` mask marks every row is a bridge
    of a connected graph (DESIGN.md §2 item 1 has the proof), and ``b``'s
    side is read off the base matrix as ``lifted[b] < lifted[a]``, with no
    BFS.  Otherwise the affected rows come from one union BFS
    (:func:`batched_removal_rows_multi`) — a bridge inside one component of
    a disconnected graph included.  ``rows``, a boolean mask, restricts that
    BFS to the affected rows it marks: the batched kernel's exact patch
    asks only for the targets that can still win.  Such a removal cannot
    be written (:meth:`EdgeRemoval.write`) unless it covers every affected
    row; a bridge's removal always can.
    """
    affected = removal_affected_sources(graph, lifted, edge)
    a, b = int(edge[0]), int(edge[1])
    if affected.all():
        return EdgeRemoval(affected, lifted[b] < lifted[a], None, None)
    sources = np.flatnonzero(affected if rows is None else affected & rows)
    k = sources.size
    dist = batched_removal_rows_multi(
        graph, np.full(k, a), np.full(k, b), sources
    )
    return EdgeRemoval(affected, None, sources, dist)


def removal_matrix_repair(
    graph: CSRGraph, dm: np.ndarray, edge: tuple[int, int]
) -> np.ndarray:
    """Lifted APSP matrix of ``graph − edge`` derived from the base matrix.

    A fresh copy of ``dm`` (one memcpy) with :func:`edge_removal` written
    into it; ``dm`` is left untouched.  Exactly equal to recomputing APSP
    on the rebuilt graph.
    """
    removal = edge_removal(graph, dm, edge)
    return removal.write(np.array(dm, dtype=np.int64, copy=True))
