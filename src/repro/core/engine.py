"""The distance engine — one APSP, everything else derived.

Every dynamics activation in this library ultimately asks distance
questions about graphs that differ from a known base graph by one or two
edges.  The seed implementation answered each question from scratch (a
rebuilt CSR graph plus a fresh scipy APSP per candidate edge); the
:class:`DistanceEngine` answers them from a cached base matrix:

* **applied swaps** — :meth:`apply_swap` replaces the engine's immutable
  graph with the next one (:func:`repro.core.moves.swapped_graph`) and
  keeps the matrix current across dynamics moves: the dropped edge's
  removal (the one removal builder, :func:`repro.graphs.repair.edge_removal`
  — a bridge's sides read off the matrix, or the affected rows from one
  union BFS) is written in place, the added edge goes
  through the exact single-insertion min-plus closure
  ``d'(x, y) = min(d(x, y), d(x, v) + 1 + d(v', y), d(x, v') + 1 + d(v, y))``
  (an inserted edge appears at most once on any shortest path), so a move
  costs O(affected + n²) instead of a full APSP;
* **best responses** — :meth:`best_swap` runs the bound-then-verify
  per-vertex kernel (:func:`repro.core.batched.best_swap_scan`) against the
  cached matrix with engine-owned scratch (``dm + 1`` and an n×n
  workspace), the only state the engine keeps besides the graph and the
  matrix.

The engine reports which matrix rows each applied swap changed; the dynamics
layer uses that as its dirty-vertex signal.  Matrices use the lifted int64
convention (:data:`repro.core.costs.INT_INF` for unreachable pairs)
throughout.  The oracles the engine is checked against are the seed paths
``best_swap(mode="oracle")`` and ``SwapDynamics(engine_mode="oracle")``.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..errors import GraphError
from ..graphs import CSRGraph, distance_matrix
from ..graphs.repair import edge_removal
from .costs import lift_distances
from .moves import Swap, swapped_graph

__all__ = ["DistanceEngine"]

Objective = Literal["sum", "max"]


class DistanceEngine:
    """Cached-APSP view of a graph that moves, updated incrementally.

    Parameters
    ----------
    graph:
        Initial graph.  Graphs are immutable; each applied swap replaces
        the engine's graph with the next one.
    """

    __slots__ = ("_graph", "_dm", "_base_plus1", "_scratch")

    def __init__(self, graph: CSRGraph):
        self._base_plus1: np.ndarray | None = None  # lazy dm + 1 scratch
        self._scratch: np.ndarray | None = None  # (n, n) workspace
        if not isinstance(graph, CSRGraph):
            raise GraphError(
                f"DistanceEngine needs a CSRGraph, got {type(graph).__name__}"
            )
        self._graph = graph
        self._dm = lift_distances(distance_matrix(graph))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def graph(self) -> CSRGraph:
        """The current graph (:meth:`apply_swap` replaces it)."""
        return self._graph

    @property
    def dm(self) -> np.ndarray:
        """Current lifted (int64, :data:`INT_INF`) distance matrix."""
        return self._dm

    def _kernel_scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(dm + 1, (n, n) workspace)`` for the batched kernel.

        Built on first use.  :meth:`apply_swap` computes its insertion
        closure in both arrays and then rewrites ``dm + 1`` in place; the
        workspace is overwritten by every kernel call and persists across
        swaps.
        """
        if self._base_plus1 is None:
            self._base_plus1 = self._dm + 1
            self._scratch = np.empty((self.n, self.n), dtype=np.int64)
        return self._base_plus1, self._scratch

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_swap(self, swap: Swap) -> np.ndarray:
        """Apply ``swap`` and repair the matrix; returns the changed-row mask.

        The swap is validated (raising :class:`IllegalSwapError`) before
        any state changes.  The mask is sound: every row that differs
        between the old and new graphs is marked.  It may over-report a row
        whose removal-time change is exactly undone by the insertion
        closure — harmless for the dirty bookkeeping it feeds.
        """
        graph = self._graph
        after = swapped_graph(graph, swap)
        v, w, add = swap.vertex, swap.drop, swap.add
        removal = edge_removal(graph, self._dm, (v, w))
        # The engine owns its matrix, so the removal is written in place
        # instead of into a copy of all n×n entries per move.
        new_dm = removal.write(self._dm)
        changed = removal.affected
        base_plus1, closure = self._kernel_scratch()
        if not graph.has_edge(v, add):  # otherwise a pure deletion
            dv = new_dm[v]
            da = new_dm[add]
            # min(dv[x] + da[y], da[x] + dv[y]) + 1: two outer sums combined
            # in place, with no read of a transposed n×n view.  They go to
            # the kernel's scratch (dm + 1 is rewritten below), because two
            # fresh n×n arrays per move cost more than the sums.
            np.add.outer(dv, da, out=closure)
            np.minimum(
                closure, np.add.outer(da, dv, out=base_plus1), out=closure
            )
            closure += 1
            improved = (closure < new_dm).any(axis=1)
            changed |= improved
            # The min against new_dm (whose entries are <= INT_INF) also
            # discards any closure sums that overflowed past the sentinel.
            np.minimum(new_dm, closure, out=new_dm)
        np.add(new_dm, 1, out=base_plus1)  # derived scratch follows
        self._graph = after
        return changed

    # ------------------------------------------------------------------
    # Best response
    # ------------------------------------------------------------------
    def best_swap(self, v: int, objective: Objective = "sum"):
        """Exact best response of ``v``, computed against the cached matrix.

        The bound-then-verify per-vertex kernel
        (:func:`repro.core.batched.best_swap_scan`) with the engine's cached
        ``dm + 1`` / workspace scratch: identical in outcome (including
        tie-breaking) to the oracle ``best_swap(mode="oracle")``, and most
        activations certified move-free without repairing a single row.
        """
        from .batched import best_swap_scan

        base_plus1, buf = self._kernel_scratch()
        return best_swap_scan(
            self.graph,
            v,
            objective,
            self._dm,
            base_plus1=base_plus1,
            buf=buf,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceEngine(n={self.n}, m={self._graph.m})"
