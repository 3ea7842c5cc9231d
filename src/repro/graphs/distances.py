"""Distance computations: APSP, eccentricities, diameter, Wiener-type costs.

Two engines are provided and cross-validated by the test suite:

* ``"scipy"`` — :func:`scipy.sparse.csgraph.shortest_path` with
  ``unweighted=True`` (compiled BFS per source; the fast path);
* ``"numpy"`` — the library's own vectorized frontier BFS from
  :mod:`repro.graphs.bfs`, one source at a time (the reference path, also the
  only path that supports patches).

``"scipy"`` is the default.  All distance matrices are int32 with
:data:`~repro.graphs.bfs.UNREACHABLE` (= -1) for disconnected pairs, a
convention chosen so a single ``>= 0`` mask recovers reachability.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from ..errors import ConfigurationError, DisconnectedGraphError
from .bfs import UNREACHABLE, bfs_distances
from .csr import CSRGraph

__all__ = [
    "distance_matrix",
    "eccentricities",
    "diameter",
    "diameter_or_inf",
    "radius",
    "is_connected",
    "sum_distances_from",
    "total_pairwise_distance",
    "average_distance",
    "distance_histogram",
    "sphere_sizes",
    "ball_sizes",
]

ApspMode = Literal["scipy", "numpy"]


def distance_matrix(graph: CSRGraph, method: ApspMode = "scipy") -> np.ndarray:
    """All-pairs shortest-path distances as an ``(n, n)`` int32 matrix.

    Unreachable pairs hold :data:`UNREACHABLE`.  The diagonal is 0.  An
    unknown ``method`` raises :class:`~repro.errors.ConfigurationError`.
    """
    if method not in ("scipy", "numpy"):
        raise ConfigurationError(f"unknown distance method {method!r}")
    n = graph.n
    if n == 0:
        return np.empty((0, 0), dtype=np.int32)
    if method == "scipy":
        from scipy.sparse import csgraph

        dm = csgraph.shortest_path(
            graph.to_scipy(), method="D", unweighted=True, directed=False
        )
        out = np.full((n, n), UNREACHABLE, dtype=np.int32)
        finite = np.isfinite(dm)
        out[finite] = dm[finite].astype(np.int32)
        return out
    out = np.empty((n, n), dtype=np.int32)
    for v in range(n):
        out[v] = bfs_distances(graph, v)
    return out


def is_connected(graph: CSRGraph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.n <= 1:
        return True
    dist = bfs_distances(graph, 0)
    return bool((dist != UNREACHABLE).all())


def eccentricities(graph: CSRGraph, dm: np.ndarray | None = None) -> np.ndarray:
    """Per-vertex eccentricity (the paper's *local diameter*), int64.

    Disconnected graphs yield :data:`UNREACHABLE` for every vertex, matching
    the convention that a swap disconnecting the graph is never improving.
    """
    n = graph.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if dm is None:
        dm = distance_matrix(graph)
    if (dm == UNREACHABLE).any():
        return np.full(n, UNREACHABLE, dtype=np.int64)
    return dm.max(axis=1).astype(np.int64)


def diameter(graph: CSRGraph, dm: np.ndarray | None = None) -> int:
    """Graph diameter; raises :class:`DisconnectedGraphError` if disconnected."""
    if graph.n <= 1:
        return 0
    if dm is None:
        dm = distance_matrix(graph)
    if (dm == UNREACHABLE).any():
        raise DisconnectedGraphError("diameter of a disconnected graph")
    return int(dm.max())


def diameter_or_inf(graph: CSRGraph, dm: np.ndarray | None = None) -> float:
    """Diameter as a float, ``math.inf`` when disconnected."""
    try:
        return float(diameter(graph, dm))
    except DisconnectedGraphError:
        return math.inf


def radius(graph: CSRGraph, dm: np.ndarray | None = None) -> int:
    """Graph radius (min eccentricity); raises when disconnected."""
    if graph.n <= 1:
        return 0
    ecc = eccentricities(graph, dm)
    if (ecc == UNREACHABLE).any():
        raise DisconnectedGraphError("radius of a disconnected graph")
    return int(ecc.min())


def sum_distances_from(graph: CSRGraph, v: int) -> float:
    """Sum of distances from ``v`` to all vertices; ``inf`` when some are unreachable."""
    dist = bfs_distances(graph, v)
    if (dist == UNREACHABLE).any():
        return math.inf
    return float(dist.sum(dtype=np.int64))


def total_pairwise_distance(
    graph: CSRGraph, dm: np.ndarray | None = None
) -> float:
    """Sum of d(u, v) over *ordered* pairs — the sum-version social cost.

    This equals twice the Wiener index.  Returns ``inf`` when disconnected.
    """
    if graph.n <= 1:
        return 0.0
    if dm is None:
        dm = distance_matrix(graph)
    if (dm == UNREACHABLE).any():
        return math.inf
    return float(dm.sum(dtype=np.int64))


def average_distance(graph: CSRGraph, dm: np.ndarray | None = None) -> float:
    """Mean distance over ordered distinct pairs; ``inf`` when disconnected."""
    n = graph.n
    if n <= 1:
        return 0.0
    total = total_pairwise_distance(graph, dm)
    return total / (n * (n - 1))


def distance_histogram(
    graph: CSRGraph, dm: np.ndarray | None = None
) -> np.ndarray:
    """Counts of ordered vertex pairs at each distance ``0..diameter``.

    Index ``k`` holds ``#{(u, v) : d(u, v) = k}``; requires connectivity.
    """
    if graph.n == 0:
        return np.zeros(1, dtype=np.int64)
    if dm is None:
        dm = distance_matrix(graph)
    if (dm == UNREACHABLE).any():
        raise DisconnectedGraphError("distance histogram of a disconnected graph")
    return np.bincount(dm.ravel()).astype(np.int64)


def sphere_sizes(graph: CSRGraph, v: int) -> np.ndarray:
    """``S_k(v)``: number of vertices at distance exactly ``k`` from ``v``.

    The paper's Theorem 9 notation.  Length is ``ecc(v) + 1``; requires the
    graph to be connected (unreachable vertices would make the spheres
    ill-defined).
    """
    dist = bfs_distances(graph, v)
    if (dist == UNREACHABLE).any():
        raise DisconnectedGraphError("sphere sizes of a disconnected graph")
    return np.bincount(dist).astype(np.int64)


def ball_sizes(graph: CSRGraph, v: int) -> np.ndarray:
    """``B_k(v) = Σ_{i ≤ k} S_i(v)``: closed-ball sizes (Theorem 9 notation)."""
    return np.cumsum(sphere_sizes(graph, v))
