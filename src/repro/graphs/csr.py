"""Immutable CSR (compressed sparse row) graphs.

:class:`CSRGraph` is the read-mostly representation all distance kernels run
on.  Adjacency is stored as two contiguous ``int32`` arrays — ``indptr`` of
length ``n+1`` and ``indices`` of length ``2m`` — exactly the layout
scipy.sparse uses, so conversion to :class:`scipy.sparse.csr_array` is free.
Per the hpc-parallel guides the layout is chosen for cache-friendly frontier
expansion: the neighbours of a vertex are a contiguous slice, and batch
neighbour gathers are single fancy-indexing operations.

Graphs are simple (no self-loops, no parallel edges) and undirected; every
edge ``{u, v}`` is stored twice (as ``u -> v`` and ``v -> u``).  It is the
library's only graph type: graphs are frozen and hashable by canonical edge
set, and a move never mutates one — :meth:`CSRGraph.with_edges` derives the
next graph from the canonical edge array, so a dynamics step costs a few
array passes and no per-edge Python work.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..errors import GraphError, InvalidEdgeError

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable simple undirected graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs, or an integer array of shape
        ``(m, 2)`` (taken without a per-edge Python loop).  Order and
        orientation are irrelevant; duplicates, self-loops and out-of-range
        endpoints raise :class:`InvalidEdgeError`, as does an integer array
        of any other shape.

    Notes
    -----
    Construction sorts each adjacency slice, so neighbour arrays are ordered
    and membership tests can use :func:`numpy.searchsorted`.
    """

    __slots__ = ("n", "indptr", "indices", "_edge_array", "_hash", "_scipy")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise GraphError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        n = int(n)
        if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise InvalidEdgeError(
                    f"edge array must have shape (m, 2), got {edges.shape}"
                )
            arr = edges.astype(np.int64)
        else:
            arr = np.array(
                [(int(u), int(v)) for u, v in edges], dtype=np.int64
            ).reshape(-1, 2)
        if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n:
            bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)][0]
            raise InvalidEdgeError(f"edge {tuple(bad)} out of range for n={n}")
        if (arr[:, 0] == arr[:, 1]).any():
            bad = arr[arr[:, 0] == arr[:, 1]][0]
            raise InvalidEdgeError(f"self-loop {tuple(bad)} not allowed")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        keys = np.sort(lo * np.int64(n) + hi)
        if (keys[1:] == keys[:-1]).any():
            raise InvalidEdgeError("duplicate edges not allowed")
        self._build(n, keys)

    def _build(self, n: int, keys: np.ndarray) -> None:
        """Fill the graph from sorted, distinct keys ``u * n + v`` (u < v).

        The one CSR builder: :meth:`__init__` validates its input first,
        and :meth:`with_edges` hands over keys it kept sorted itself.
        """
        self.n = n
        arr = np.stack([keys // n, keys % n], axis=1).astype(np.int32)
        self._edge_array = arr
        self._edge_array.setflags(write=False)

        # Build CSR from the doubled (directed) edge list.
        if arr.shape[0]:
            src = np.concatenate([arr[:, 0], arr[:, 1]])
            dst = np.concatenate([arr[:, 1], arr[:, 0]])
            order = np.argsort(src * np.int64(n) + dst, kind="stable")
            src = src[order]
            dst = dst[order]
            counts = np.bincount(src, minlength=n)
            self.indptr = np.concatenate(
                [[0], np.cumsum(counts)]
            ).astype(np.int32)
            self.indices = dst.astype(np.int32)
        else:
            self.indptr = np.zeros(n + 1, dtype=np.int32)
            self.indices = np.empty(0, dtype=np.int32)
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self._hash: int | None = None
        self._scipy = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._edge_array.shape[0]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (``int32``, length ``n``)."""
        return (self.indptr[1:] - self.indptr[:-1]).astype(np.int32)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted ``int32`` array of neighbours of ``v`` (a read-only view)."""
        self._check_vertex(v)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` exists.  O(log deg) via binary search."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        nbrs = self.indices[self.indptr[u] : self.indptr[u + 1]]
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def edges(self) -> np.ndarray:
        """Canonical ``(m, 2)`` array of edges with ``u < v``, sorted."""
        return self._edge_array

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over canonical edges as Python int pairs."""
        for u, v in self._edge_array:
            yield int(u), int(v)

    def edge_set(self) -> frozenset[tuple[int, int]]:
        """Frozen set of canonical edges as Python int pairs."""
        return frozenset((int(u), int(v)) for u, v in self._edge_array)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_edges(
        self,
        add: Iterable[tuple[int, int]] = (),
        remove: Iterable[tuple[int, int]] = (),
    ) -> "CSRGraph":
        """Return a new graph with ``remove`` dropped and ``add`` inserted.

        Listed edges are found by binary search over the sorted edge keys
        ``u * n + v``, the added keys are inserted in order, and the next
        graph is built from the edited key array without a second
        validation: a few O(m) array passes, no per-edge Python work.
        Removals apply before additions, in order.  Raises :class:`InvalidEdgeError` for a
        self-loop or out-of-range edge, a removed edge that is missing (or
        already removed), and an added edge that exists (after the
        removals, or earlier in ``add``).
        """
        n = self.n
        edges = self._edge_array
        keys = edges[:, 0].astype(np.int64) * n + edges[:, 1]
        dropped: list[int] = []
        for u, v in remove:
            e = self._canon(u, v)
            key = e[0] * n + e[1]
            if key in dropped or not _holds(keys, key):
                raise InvalidEdgeError(f"cannot remove missing edge {e}")
            dropped.append(key)
        added: list[int] = []
        for u, v in add:
            e = self._canon(u, v)
            key = e[0] * n + e[1]
            if key in added or (key not in dropped and _holds(keys, key)):
                raise InvalidEdgeError(f"cannot add existing edge {e}")
            added.append(key)
        keys = np.delete(keys, np.searchsorted(keys, dropped))
        added = np.sort(np.asarray(added, dtype=np.int64))
        keys = np.insert(keys, np.searchsorted(keys, added), added)
        graph = CSRGraph.__new__(CSRGraph)
        graph._build(n, keys)
        return graph

    def _canon(self, u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidEdgeError(
                f"edge ({u}, {v}) out of range for n={self.n}"
            )
        if u == v:
            raise InvalidEdgeError(f"self-loop ({u}, {v}) not allowed")
        return (u, v) if u < v else (v, u)

    def to_scipy(self):
        """Return the adjacency as a :class:`scipy.sparse.csr_array` of 1s.

        It serves APSP only (:func:`~repro.graphs.distance_matrix`, through
        scipy's csgraph): the union BFS runs scipy's compiled product on
        :attr:`indptr`/:attr:`indices` directly and builds no matrix.
        Cached, since the graph is immutable; treat the result as
        read-only.
        """
        if self._scipy is None:
            import scipy.sparse as sp

            data = np.ones(self.indices.size, dtype=np.int8)
            self._scipy = sp.csr_array(
                (data, self.indices, self.indptr), shape=(self.n, self.n)
            )
        return self._scipy

    # ------------------------------------------------------------------
    # Protocols
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= int(v) < self.n:
            raise GraphError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(
            self._edge_array, other._edge_array
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._edge_array.tobytes()))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.m})"


def _holds(keys: np.ndarray, key: int) -> bool:
    """Whether the sorted key array ``keys`` contains ``key``."""
    i = int(np.searchsorted(keys, key))
    return i < keys.size and int(keys[i]) == key
