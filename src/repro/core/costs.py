"""Usage costs of the basic network creation game.

The paper's two objectives for a vertex ``v`` in a graph ``G``:

* **sum cost** — ``Σ_u d(v, u)`` (the *sum version*);
* **local diameter** — ``max_u d(v, u)``, i.e. eccentricity (the *max
  version*).

Disconnection is lifted to ``math.inf`` so that "a swap that disconnects the
graph is never improving" falls out of ordinary comparison.  Internally the
distance kernels use the large-int sentinel :data:`INT_INF` (comfortably
above any finite sum ``< n²`` yet safe to add and sum in int64 without
overflow), which the vectorized equilibrium checkers rely on.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GraphError
from ..graphs import CSRGraph, UNREACHABLE, bfs_aggregates, distance_matrix

__all__ = [
    "INT_INF",
    "ensure_lifted",
    "lift_distances",
    "lifted_base",
    "sum_cost",
    "local_diameter",
    "sum_cost_vector",
    "local_diameter_vector",
]

#: Integer infinity used inside vectorized kernels.  2^40 leaves headroom for
#: "+1" shifts and for summing n < 2^20 of them in int64 without overflow.
INT_INF: int = 1 << 40


def lift_distances(dm: np.ndarray) -> np.ndarray:
    """Copy a distance matrix to int64 with ``UNREACHABLE -> INT_INF``.

    The returned matrix is safe for the min-plus candidate arithmetic used in
    :mod:`repro.core.equilibrium`.
    """
    out = dm.astype(np.int64)
    out[out == UNREACHABLE] = INT_INF
    return out


def ensure_lifted(dm: np.ndarray) -> np.ndarray:
    """:func:`lift_distances` without the copy when ``dm`` is already lifted.

    A lifted matrix is int64 with no :data:`~repro.graphs.UNREACHABLE`
    sentinel left in it, in which case :func:`lift_distances` would return a
    value-identical copy — the hot paths (``best_swap`` per dynamics
    activation, audits that amortize one base matrix across edges) call this
    instead so an already-lifted ``base_dm`` is passed through by reference.
    Callers must treat the result as read-only: it may alias the input.
    """
    dm = np.asarray(dm)
    if dm.dtype == np.int64 and not bool((dm == UNREACHABLE).any()):
        return dm
    return lift_distances(dm)


def lifted_base(graph: CSRGraph, base_dm: "np.ndarray | None") -> np.ndarray:
    """Lifted distance matrix of ``graph``: ``base_dm`` if given, else an APSP.

    ``base_dm`` is a caller's precomputed distance matrix of ``graph``, raw
    or lifted (:func:`ensure_lifted`: a lifted one is used by reference).
    One of any shape but ``(n, n)`` raises :class:`~repro.errors.GraphError`
    naming both shapes.
    """
    if base_dm is None:
        return lift_distances(distance_matrix(graph))
    shape = tuple(np.shape(base_dm))
    if shape != (graph.n, graph.n):
        raise GraphError(
            f"base_dm has shape {shape}, but the graph needs "
            f"{(graph.n, graph.n)}"
        )
    return ensure_lifted(base_dm)


def sum_cost(graph: CSRGraph, v: int) -> float:
    """Sum of distances from ``v``; ``math.inf`` when not all vertices are reachable."""
    total, _, reached = bfs_aggregates(graph, v)
    if reached < graph.n:
        return math.inf
    return float(total)


def local_diameter(graph: CSRGraph, v: int) -> float:
    """Eccentricity of ``v`` (the paper's *local diameter*); ``inf`` if disconnected."""
    _, ecc, reached = bfs_aggregates(graph, v)
    if reached < graph.n:
        return math.inf
    return float(ecc)


def sum_cost_vector(graph: CSRGraph, dm: np.ndarray | None = None) -> np.ndarray:
    """Float vector of all vertices' sum costs (``inf`` rows when disconnected)."""
    if graph.n == 0:
        return np.empty(0, dtype=np.float64)
    if dm is None:
        dm = distance_matrix(graph)
    lifted = lift_distances(dm)
    sums = lifted.sum(axis=1)
    out = sums.astype(np.float64)
    out[sums >= INT_INF] = math.inf
    return out


def local_diameter_vector(
    graph: CSRGraph, dm: np.ndarray | None = None
) -> np.ndarray:
    """Float vector of all vertices' local diameters (``inf`` when disconnected)."""
    if graph.n == 0:
        return np.empty(0, dtype=np.float64)
    if dm is None:
        dm = distance_matrix(graph)
    lifted = lift_distances(dm)
    eccs = lifted.max(axis=1)
    out = eccs.astype(np.float64)
    out[eccs >= INT_INF] = math.inf
    return out
