"""Equilibrium checkers — the paper's definitions, executable.

The paper stresses that, unlike Nash equilibria of the α-games (NP-complete
to verify), *swap equilibria can be checked in polynomial time, even locally
by each agent: simply try every possible edge swap and deletion*.  This
module is that procedure, vectorized:

* **sum equilibrium** — no swap decreases the mover's sum of distances;
* **max equilibrium** — no swap decreases the mover's local diameter, *and*
  the graph is deletion-critical (deleting any edge strictly increases the
  local diameter of both endpoints);
* **insertion-stable** — no single-edge insertion decreases the local
  diameter of either endpoint;
* **k-insertion stability** — no set of ≤ k insertions at one vertex
  decreases its local diameter (Theorem 12's trade-off notion).  By
  monotonicity of distances under edge removal this also implies stability
  under ≤ k swaps, the form the paper states.

All swap audits run through the pluggable cost-model layer
(:mod:`repro.core.costmodel` / DESIGN.md §6): :func:`find_swap_violation`
and :func:`is_equilibrium` take any model or spec string — the paper's
``"sum"``/``"max"`` plus the interest and budget variants — while the
historical :func:`find_sum_violation` / :func:`is_max_equilibrium` surface
stays bit-identical as thin wrappers.

Every audit has one fast path and one oracle.  The default
``mode="batched"`` shares one base APSP and plans the edges in lazily built
blocks — vectorized affected-source detection, one union level-synchronous
BFS for the endpoint repairs, and a bound-then-verify scan that reads the
base matrix in place instead of copying it per edge (DESIGN.md §2.6 /
:mod:`repro.core.batched`).  ``mode="rebuild"`` is the seed behaviour (a
fresh APSP per edge), kept as the cross-validation oracle; both answer
bit-identically, tie-breaks included.

Each audit is one serial scan: parallelism lives at the fleet grain, where
whole dynamics runs are independent tasks (DESIGN.md §5).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from ..errors import ConfigurationError, DisconnectedGraphError
from ..graphs import CSRGraph, distance_matrix, is_connected
from ..parallel import check_deadline
from .costmodel import CostModel, resolve_cost_model
from .costs import INT_INF, lift_distances, lifted_base
from .moves import Swap
from .swap_eval import all_swap_costs_for_drop, removal_distance_matrix

__all__ = [
    "Violation",
    "find_swap_violation",
    "find_sum_violation",
    "is_equilibrium",
    "is_sum_equilibrium",
    "sum_equilibrium_gap",
    "find_max_swap_violation",
    "find_deletion_criticality_violation",
    "is_deletion_critical",
    "is_max_equilibrium",
    "find_insertion_violation",
    "is_insertion_stable",
    "k_insertion_witness",
    "is_k_insertion_stable",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """A certified counterexample to an equilibrium/stability property.

    ``kind`` is one of ``"sum-swap"``, ``"max-swap"``, ``"deletion"``,
    ``"insertion"``, ``"k-insertion"``.  ``before``/``after`` are the mover's
    costs; for ``deletion`` the violation is that the cost did *not* strictly
    increase, so ``after <= before``.
    """

    kind: str
    vertex: int
    drop: int | None
    add: "int | tuple[int, ...] | None"
    before: float
    after: float

    @property
    def improvement(self) -> float:
        """How much the mover gains (positive for swap/insertion violations)."""
        return self.before - self.after

    def as_swap(self) -> Swap:
        """The violating move as a :class:`Swap` (swap violations only)."""
        if self.kind not in ("sum-swap", "max-swap") or self.drop is None:
            raise ConfigurationError(f"{self.kind} violation is not a swap")
        assert isinstance(self.add, int)
        return Swap(self.vertex, self.drop, self.add)


def _prepare(
    graph: CSRGraph, base_dm: np.ndarray | None = None
) -> np.ndarray:
    """Lifted distance matrix of ``graph``; requires connectivity.

    ``base_dm`` — a precomputed distance matrix of ``graph`` (raw int32 or
    already lifted) — skips the APSP: a dynamics engine auditing its own
    converged endpoint already holds the matrix, and an already-lifted
    input is used by reference.  Connectivity is validated off the matrix.
    """
    if base_dm is not None:
        lifted = lifted_base(graph, base_dm)
        if graph.n > 1 and bool((lifted[0] >= INT_INF).any()):
            raise DisconnectedGraphError(
                "equilibrium audits are defined on connected graphs"
            )
        return lifted
    _require_connected(graph)
    return lift_distances(distance_matrix(graph))


def _require_connected(graph: CSRGraph) -> None:
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "equilibrium audits are defined on connected graphs"
        )


AuditMode = Literal["batched", "rebuild"]

_AUDIT_MODES = ("batched", "rebuild")


def _check_mode(mode: str) -> None:
    if mode not in _AUDIT_MODES:
        raise ConfigurationError(
            f"unknown audit mode {mode!r}; known: {', '.join(_AUDIT_MODES)}"
        )


def _iter_drop_contexts(graph: CSRGraph):
    """Yield ``(v, w, removal_dm)`` for every directed edge — the oracle scan.

    Each removal matrix is a fresh APSP of the rebuilt graph ``G − vw``.
    """
    for a, b in graph.iter_edges():
        removal_dm = removal_distance_matrix(graph, (a, b), mode="rebuild")
        yield a, b, removal_dm
        yield b, a, removal_dm


# ---------------------------------------------------------------------------
# The generalized swap audit (sum / max / interest / budget cost models)
# ---------------------------------------------------------------------------

def find_swap_violation(
    graph: CSRGraph,
    objective: "str | CostModel" = "sum",
    *,
    mode: AuditMode = "batched",
    base_dm: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> Violation | None:
    """First swap improving some agent's model cost, or ``None`` at rest.

    ``objective`` is a :class:`~repro.core.costmodel.CostModel` or spec
    string; ``"sum"``/``"max"`` reproduce the paper's audits bit-for-bit
    (same violations, same tie-breaks, same directed-edge order).  Models
    with constrained move sets (budget caps) only audit the legal moves.

    ``base_dm`` is an optional precomputed distance matrix of ``graph``
    (see :func:`_prepare`) so callers that already hold it — dynamics
    endpoints, census probes — skip the audit's APSP.  ``deadline``
    (absolute ``time.monotonic()`` instant) bounds the whole audit: the
    scan checks it between drop contexts and raises
    :class:`~repro.errors.DeadlineExceeded` once it passes.
    """
    _check_mode(mode)
    model = resolve_cost_model(objective, graph.n)
    if graph.n <= 2:
        _require_connected(graph)
        return None
    lifted = _prepare(graph, base_dm)
    base = model.base_costs(lifted)
    if mode == "batched":
        from .batched import scan_swap_violations

        check_deadline(deadline)
        return scan_swap_violations(
            graph, lifted, base, list(graph.iter_edges()), model,
            deadline=deadline,
        )
    for v, w, removal_dm in _iter_drop_contexts(graph):
        check_deadline(deadline)
        costs = all_swap_costs_for_drop(graph, v, w, model, removal_dm)
        mask = model.target_mask(graph, v, w)
        if mask is not None:
            costs[~mask] = math.inf  # move-set constraint (budget cap)
        costs[w] = math.inf  # identity move is not a violation
        best = int(np.argmin(costs))
        if costs[best] < base[v]:
            return Violation(
                model.violation_kind, v, w, best,
                float(base[v]), float(costs[best]),
            )
    return None


def is_equilibrium(
    graph: CSRGraph,
    objective: "str | CostModel" = "sum",
    *,
    mode: AuditMode = "batched",
    base_dm: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> bool:
    """Whether ``graph`` is at rest under the model's equilibrium notion.

    Swap stability under the model's cost and move set; for the paper's max
    version (``requires_deletion_criticality``) the audit additionally
    demands deletion-criticality, matching :func:`is_max_equilibrium`
    exactly.  Variant max models (interest / budget) are swap-stability
    only — their literatures define no criticality condition.  ``base_dm``
    skips the audit's APSP when the caller already holds the matrix.
    """
    model = resolve_cost_model(objective, graph.n)
    if (
        find_swap_violation(
            graph, model, mode=mode, base_dm=base_dm, deadline=deadline
        )
        is not None
    ):
        return False
    if model.requires_deletion_criticality:
        return (
            find_deletion_criticality_violation(
                graph, mode=mode, base_dm=base_dm, deadline=deadline
            )
            is None
        )
    return True


# ---------------------------------------------------------------------------
# Sum version
# ---------------------------------------------------------------------------

def find_sum_violation(
    graph: CSRGraph, *, mode: AuditMode = "batched"
) -> Violation | None:
    """First improving sum-swap found, or ``None`` if in sum equilibrium."""
    return find_swap_violation(graph, "sum", mode=mode)


def is_sum_equilibrium(graph: CSRGraph, *, mode: AuditMode = "batched") -> bool:
    """Whether ``graph`` is a sum (swap) equilibrium."""
    return find_sum_violation(graph, mode=mode) is None


def sum_equilibrium_gap(graph: CSRGraph, *, mode: AuditMode = "batched") -> float:
    """The largest improvement any single swap offers (0.0 at equilibrium).

    A quantitative "distance from equilibrium" used by dynamics diagnostics;
    ``inf`` never occurs because disconnecting swaps cost ``inf``.
    """
    _check_mode(mode)
    if graph.n <= 2:
        _require_connected(graph)
        return 0.0
    lifted = _prepare(graph)
    base_sum = lifted.sum(axis=1)
    if mode == "batched":
        from .batched import scan_gap

        return scan_gap(graph, lifted, base_sum, list(graph.iter_edges()))
    gap = 0.0
    for v, w, removal_dm in _iter_drop_contexts(graph):
        costs = all_swap_costs_for_drop(graph, v, w, "sum", removal_dm)
        costs[w] = math.inf
        best = float(np.min(costs))
        if best < base_sum[v]:
            gap = max(gap, float(base_sum[v]) - best)
    return gap


# ---------------------------------------------------------------------------
# Max version
# ---------------------------------------------------------------------------

def find_max_swap_violation(
    graph: CSRGraph, *, mode: AuditMode = "batched"
) -> Violation | None:
    """First swap strictly decreasing the mover's local diameter, or ``None``."""
    return find_swap_violation(graph, "max", mode=mode)


def find_deletion_criticality_violation(
    graph: CSRGraph,
    *,
    mode: AuditMode = "batched",
    base_dm: np.ndarray | None = None,
    deadline: "float | None" = None,
) -> Violation | None:
    """First edge whose deletion does **not** strictly raise an endpoint's ecc.

    Deletion-criticality is part of the paper's max-equilibrium definition
    and of the lower-bound constructions.
    """
    _check_mode(mode)
    lifted = _prepare(graph, base_dm)
    base_ecc = lifted.max(axis=1)
    if mode == "batched":
        from .batched import scan_deletion_violations

        check_deadline(deadline)
        return scan_deletion_violations(
            graph, lifted, base_ecc, list(graph.iter_edges()),
            deadline=deadline,
        )
    for a, b in graph.iter_edges():
        check_deadline(deadline)
        removal_dm = removal_distance_matrix(graph, (a, b), mode="rebuild")
        ecc_after = removal_dm.max(axis=1)
        for v in (a, b):
            after = math.inf if ecc_after[v] >= INT_INF else float(ecc_after[v])
            if not after > float(base_ecc[v]):
                other = b if v == a else a
                return Violation(
                    "deletion", v, other, None, float(base_ecc[v]), after
                )
    return None


def is_deletion_critical(graph: CSRGraph, *, mode: AuditMode = "batched") -> bool:
    """Whether deleting any edge strictly increases both endpoints' ecc."""
    return find_deletion_criticality_violation(graph, mode=mode) is None


def is_max_equilibrium(graph: CSRGraph, *, mode: AuditMode = "batched") -> bool:
    """The paper's max equilibrium: swap-stable (max) **and** deletion-critical."""
    if find_max_swap_violation(graph, mode=mode) is not None:
        return False
    return find_deletion_criticality_violation(graph, mode=mode) is None


# ---------------------------------------------------------------------------
# Insertion stability
# ---------------------------------------------------------------------------

def find_insertion_violation(graph: CSRGraph) -> Violation | None:
    """First single-edge insertion decreasing an endpoint's local diameter.

    Uses the exact closure ``d_{G+uv}(u, x) = min(d(u,x), 1 + d(v,x))`` — an
    inserted edge incident to ``u`` can only be used as the first step of a
    shortest path from ``u``.
    """
    lifted = _prepare(graph)
    base_ecc = lifted.max(axis=1)
    n = graph.n
    adjacency = [set(int(x) for x in graph.neighbors(u)) for u in range(n)]
    for u in range(n):
        # Row v of `candidate` is the distance vector of u in G + uv.
        candidate = np.minimum(lifted[u][None, :], lifted + 1)
        new_ecc = candidate.max(axis=1)
        for v in np.nonzero(new_ecc < base_ecc[u])[0]:
            v = int(v)
            if v != u and v not in adjacency[u]:
                return Violation(
                    "insertion", u, None, v, float(base_ecc[u]), float(new_ecc[v])
                )
    return None


def is_insertion_stable(graph: CSRGraph) -> bool:
    """Whether no single-edge insertion helps either endpoint's local diameter."""
    return find_insertion_violation(graph) is None


# ---------------------------------------------------------------------------
# k-insertion stability (Theorem 12 trade-off)
# ---------------------------------------------------------------------------

def k_insertion_witness(
    graph: CSRGraph,
    v: int,
    k: int,
    dm: np.ndarray | None = None,
) -> tuple[int, ...] | None:
    """A set of ≤ k insertions at ``v`` lowering its local diameter, or ``None``.

    Exact: reduces to covering the far set ``F = {x : d(v,x) = ecc(v)}`` with
    balls ``{x : d(a,x) ≤ ecc(v) − 2}`` over candidate endpoints ``a``; a
    cover of size ≤ k exists iff ``v`` is k-insertion *unstable*.  The search
    enumerates candidate combinations after pruning dominated candidates, so
    it is exact for the small ``k`` (≤ 3) the paper's constructions use.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if dm is None:
        if not is_connected(graph):
            raise DisconnectedGraphError(
                "k-insertion stability is defined on connected graphs"
            )
        dm = distance_matrix(graph)
    n = graph.n
    ecc = int(dm[v].max())
    if ecc <= 1:
        return None  # cannot go below 1 by inserting edges
    far = np.nonzero(dm[v] == ecc)[0]
    neighbors = set(int(x) for x in graph.neighbors(v))
    candidates = [
        a for a in range(n) if a != v and a not in neighbors
    ]
    if not candidates:
        return None
    cover = dm[np.asarray(candidates)][:, far] <= ecc - 2  # (cands, |far|)
    useful = cover.any(axis=1)
    cand_arr = np.asarray(candidates)[useful]
    cover = cover[useful]
    if cover.size == 0:
        return None
    # Prune dominated rows (covering a subset of another row's far set).
    keep: list[int] = []
    for i in range(cover.shape[0]):
        dominated = False
        for j in range(cover.shape[0]):
            if i == j:
                continue
            if (cover[i] <= cover[j]).all() and (
                (cover[i] != cover[j]).any() or j < i
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    cover = cover[keep]
    cand_arr = cand_arr[keep]
    for size in range(1, min(k, len(cand_arr)) + 1):
        for combo in itertools.combinations(range(len(cand_arr)), size):
            if cover[list(combo)].any(axis=0).all():
                return tuple(int(cand_arr[i]) for i in combo)
    return None


def is_k_insertion_stable(
    graph: CSRGraph,
    k: int,
    vertices: Iterable[int] | None = None,
) -> bool:
    """Whether no vertex can lower its local diameter with ≤ k insertions.

    ``vertices`` restricts the audit (vertex-transitive constructions only
    need one representative).  By distance monotonicity under deletions this
    also certifies stability under ≤ k *swaps* at one vertex.
    """
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "k-insertion stability is defined on connected graphs"
        )
    dm = distance_matrix(graph)
    vs = range(graph.n) if vertices is None else vertices
    for v in vs:
        if k_insertion_witness(graph, int(v), k, dm) is not None:
            return False
    return True
