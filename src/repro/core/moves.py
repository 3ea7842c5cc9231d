"""Move vocabulary of the basic network creation game.

The only move is the **edge swap**: vertex ``v`` replaces incident edge
``v–drop`` by ``v–add``.  Following the paper, a swap whose ``add`` endpoint
is already a neighbour (or equals ``drop``… a no-op we reject as a *move*)
encodes deletion of the dropped edge, so the move set closes over simple
graphs.  Insertions appear in the paper only inside *stability definitions*
(insertion-stable, k-insertion stability), not as game moves, and are
represented by plain edge tuples there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IllegalSwapError
from ..graphs import CSRGraph

__all__ = ["Swap", "legal_add_targets", "swapped_graph"]


@dataclass(frozen=True, slots=True)
class Swap:
    """An edge swap performed by ``vertex``: drop ``v–drop``, add ``v–add``.

    Attributes
    ----------
    vertex:
        The moving agent ``v``.
    drop:
        Current neighbour whose edge is removed.
    add:
        New endpoint.  ``add == drop`` is the identity and is rejected by
        :meth:`validate`; ``add`` being an existing *other* neighbour makes
        the swap a pure deletion.
    """

    vertex: int
    drop: int
    add: int

    def validate(self, graph: CSRGraph) -> None:
        """Raise :class:`IllegalSwapError` unless the swap is legal in ``graph``."""
        v, w, w2 = self.vertex, self.drop, self.add
        n = graph.n
        for x in (v, w, w2):
            if not 0 <= x < n:
                raise IllegalSwapError(f"{self} references vertex out of range")
        if v == w or v == w2:
            raise IllegalSwapError(f"{self} is a self-loop move")
        if w == w2:
            raise IllegalSwapError(f"{self} is the identity move")
        if not graph.has_edge(v, w):
            raise IllegalSwapError(f"{self} drops a non-existent edge")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"swap(v={self.vertex}: drop {self.drop}, add {self.add})"


def legal_add_targets(
    graph: CSRGraph, v: int, w: int, model=None
) -> np.ndarray:
    """Boolean mask of legal add-targets for ``v`` dropping edge ``v–w``.

    The base game allows every target except the mover itself (``w`` is the
    identity re-add, left to callers to exclude where it matters).  A cost
    model with a constrained move set — budget caps on incident edges —
    narrows the mask further via ``model.target_mask``; models without move
    constraints leave it untouched.
    """
    mask = np.ones(graph.n, dtype=bool)
    mask[v] = False
    if model is not None:
        extra = model.target_mask(graph, v, w)
        if extra is not None:
            mask &= extra
    return mask


def swapped_graph(graph: CSRGraph, swap: Swap) -> CSRGraph:
    """The graph ``swap`` leads to: the one way to apply a move.

    Graphs are immutable: the swap is validated (raising
    :class:`IllegalSwapError`) and the next graph derived from ``graph``'s
    edge array.  When ``add`` is an existing neighbour the result is pure
    deletion, per the paper's convention.
    """
    swap.validate(graph)
    if graph.has_edge(swap.vertex, swap.add):
        return graph.with_edges(remove=[(swap.vertex, swap.drop)])
    return graph.with_edges(
        add=[(swap.vertex, swap.add)], remove=[(swap.vertex, swap.drop)]
    )
