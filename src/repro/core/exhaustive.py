"""Exhaustive equilibrium census over *all* connected graphs of small order.

The paper's lower-bound question — how small can a diameter-3 sum
equilibrium be? — is answerable by brute force at small n: enumerate every
labelled graph on n vertices (2^C(n,2) edge subsets), keep the connected
ones, audit each.  This module implements that census with the pruning that
makes n = 7 (2 097 152 subsets) feasible:

* subsets are enumerated as bitmasks over the C(n,2) canonical edge slots;
* disconnected graphs are skipped by a union-find pass over the bitmask
  (no graph object is built);
* for the *sum* census, diameter-≤2 graphs are counted as equilibria
  without an audit (a theorem: Lemma 6 covers eccentricity-2 vertices and
  eccentricity-≤1 vertices have no legal improving swap), so the expensive
  auditor only runs on diameter-≥3 graphs — a small minority.

Labelled counting: isomorphic graphs are counted once per labelling.  That
is the right denominator for "does any graph with property X exist" — the
census's purpose — and avoids needing canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..graphs import CSRGraph, diameter
from .equilibrium import find_sum_violation, is_max_equilibrium

__all__ = [
    "CensusCell",
    "ExhaustiveCensus",
    "exhaustive_equilibrium_census",
    "smallest_diameter3_sum_equilibria",
]


@dataclass
class CensusCell:
    """Counts for one (diameter, kind) cell of the census."""

    graphs: int = 0
    equilibria: int = 0
    example: "tuple[tuple[int, int], ...] | None" = None


@dataclass
class ExhaustiveCensus:
    """Result of an exhaustive census at one n."""

    n: int
    connected_graphs: int
    audited: int
    #: diameter -> cell, for the requested objective.
    by_diameter: dict[int, CensusCell] = field(default_factory=dict)

    def equilibria_with_diameter(self, d: int) -> int:
        cell = self.by_diameter.get(d)
        return cell.equilibria if cell else 0

    def max_equilibrium_diameter(self) -> int:
        eq_diams = [
            d for d, cell in self.by_diameter.items() if cell.equilibria > 0
        ]
        return max(eq_diams) if eq_diams else 0


def _connected_bitmask(mask: int, pairs: list[tuple[int, int]], n: int) -> bool:
    """Union-find connectivity straight off the edge bitmask."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    m = mask
    idx = 0
    while m:
        if m & 1:
            u, v = pairs[idx]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
                if components == 1:
                    return True
        m >>= 1
        idx += 1
    return components == 1


def _census_shard(payload: tuple) -> "ExhaustiveCensus":
    """One contiguous mask-range shard (module-level for the process pool)."""
    n, objective, max_n, mask_range = payload
    return exhaustive_equilibrium_census(
        n, objective, max_n=max_n, mask_range=mask_range
    )


def exhaustive_equilibrium_census(
    n: int,
    objective: str = "sum",
    max_n: int = 7,
    mask_range: "tuple[int, int] | None" = None,
    workers: int = 1,
) -> ExhaustiveCensus:
    """Census all connected labelled graphs on ``n`` vertices.

    For ``objective="sum"``, diameter-≤2 graphs are equilibria by theorem
    (counted without audit); diameter-≥3 graphs get the full auditor.  For
    ``objective="max"`` every connected graph is audited (no comparable
    shortcut exists: deletion-criticality fails even at diameter 1).

    ``max_n`` guards the 2^C(n,2) enumeration; n = 7 takes minutes, n = 8
    (2^28) is out of reach for this path.

    ``mask_range`` restricts the enumeration to ``[lo, hi)`` over the edge
    bitmask space; ``workers > 1`` shards the whole space into contiguous
    ranges, runs one census per shard on the persistent process pool, and
    :func:`merge_censuses` folds them back — ascending shard order keeps
    the merged counts *and* the per-cell example graphs identical to the
    serial scan.  (``workers`` and an explicit ``mask_range`` are mutually
    exclusive: a caller sharding by hand owns the split.)
    """
    if objective not in ("sum", "max"):
        raise ConfigurationError(f"unknown objective {objective!r}")
    if n < 2:
        raise ConfigurationError(f"census needs n >= 2, got {n}")
    if n > max_n:
        raise ConfigurationError(
            f"exhaustive census capped at n <= {max_n} (2^C(n,2) blow-up), got {n}"
        )
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    total_masks = 1 << len(pairs)
    if workers > 1 and mask_range is not None:
        raise ConfigurationError(
            "pass either workers or an explicit mask_range, not both"
        )
    if workers > 1 and total_masks > workers:
        from ..parallel import parallel_map

        shards = max(1, min(4 * workers, total_masks))
        bounds = [
            round(s * total_masks / shards) for s in range(shards + 1)
        ]
        payloads = [
            (n, objective, max_n, (blo, bhi))
            for blo, bhi in zip(bounds[:-1], bounds[1:])
            if bhi > blo
        ]
        parts = parallel_map(_census_shard, payloads, workers=workers)
        return merge_censuses(parts)
    lo, hi = (0, total_masks) if mask_range is None else mask_range
    if not (0 <= lo <= hi <= total_masks):
        raise ConfigurationError(
            f"mask_range {mask_range} out of bounds for {total_masks} masks"
        )
    census = ExhaustiveCensus(n=n, connected_graphs=0, audited=0)

    for mask in range(lo, hi):
        if not _connected_bitmask(mask, pairs, n):
            continue
        census.connected_graphs += 1
        edges = tuple(
            pairs[i] for i in range(len(pairs)) if mask & (1 << i)
        )
        g = CSRGraph(n, edges)
        d = diameter(g)
        cell = census.by_diameter.setdefault(d, CensusCell())
        cell.graphs += 1
        if objective == "sum":
            if d <= 2:
                is_eq = True  # Lemma-6 shortcut, validated by tests
            else:
                census.audited += 1
                is_eq = find_sum_violation(g) is None
        else:
            census.audited += 1
            is_eq = is_max_equilibrium(g)
        if is_eq:
            cell.equilibria += 1
            if cell.example is None:
                cell.example = edges
    return census


def merge_censuses(parts: "list[ExhaustiveCensus]") -> ExhaustiveCensus:
    """Merge shard censuses produced with disjoint ``mask_range`` values."""
    if not parts:
        raise ConfigurationError("nothing to merge")
    if len({p.n for p in parts}) != 1:
        raise ConfigurationError("shards must share n")
    merged = ExhaustiveCensus(
        n=parts[0].n,
        connected_graphs=sum(p.connected_graphs for p in parts),
        audited=sum(p.audited for p in parts),
    )
    for part in parts:
        for d, cell in part.by_diameter.items():
            target = merged.by_diameter.setdefault(d, CensusCell())
            target.graphs += cell.graphs
            target.equilibria += cell.equilibria
            if target.example is None:
                target.example = cell.example
    return merged


def smallest_diameter3_sum_equilibria(
    up_to_n: int,
) -> dict[int, int]:
    """Count diameter-3 sum equilibria for each n ≤ ``up_to_n`` (labelled).

    The question the Figure 3 finding raises: since the paper's 13-vertex
    witness fails and this repo's replacement has 10 vertices, what is the
    *smallest* order at which diameter-3 sum equilibria exist at all?
    Exhaustive for the n this function is allowed to reach.
    """
    out: dict[int, int] = {}
    for n in range(4, up_to_n + 1):
        census = exhaustive_equilibrium_census(n, "sum")
        out[n] = census.equilibria_with_diameter(3)
    return out
