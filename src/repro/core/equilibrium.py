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

The paper's procedure is written once, as one walk over the directed
edges in the oracle's order (``(a, b)`` then ``(b, a)`` per canonical
edge), and :func:`find_swap_violation`, :func:`sum_equilibrium_gap`,
:func:`find_deletion_criticality_violation` and :func:`is_equilibrium` each
read it once.  The walk goes block by block.  For each drop ``v–w`` of a
block it gives ``v``'s exact distance row in ``G − vw`` and, on request,
``v``'s legal post-swap costs — exact wherever they are below a threshold
and at least the threshold elsewhere, or ``None`` when a bound proves that
no legal target beats it — and for a per-vertex threshold it names the
drops worth evaluating.  Two engines feed it and differ only in how they
compute those things: the default ``mode="batched"`` shares one base
APSP, takes the rows from plans of lazily built blocks of edges (one union
level-synchronous BFS each), dismisses a block's movers at rest with one
masked row minimum of its level bound, and takes the costs of the rest
from a bound-then-verify step that reads the base matrix in place
(DESIGN.md §2.6 / :mod:`repro.core.batched`); ``mode="rebuild"`` is the
seed behaviour (a fresh APSP per edge, every drop evaluated), kept as the
cross-validation oracle.  Both answer bit-identically, tie-breaks
included.  A max audit checks swaps and deletion-criticality in the same
pass, so it plans each edge once, and checks criticality with one
row-cost pass per block.

Each audit is one serial walk: parallelism lives at the fleet grain, where
whole dynamics runs are independent tasks (DESIGN.md §5).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, NamedTuple

import numpy as np

from ..errors import ConfigurationError, DisconnectedGraphError
from ..graphs import CSRGraph, distance_matrix, is_connected
from ..parallel import check_deadline
from .batched import _audit_plans, _verify
from .costmodel import MAX_COST, SUM_COST, CostModel, resolve_cost_model
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


class _Block(NamedTuple):
    """One block of the audit walk's directed edges (see :func:`_audit_walk`).

    Row ``k`` is the directed edge ``movers[k] → drops[k]``: ``rows[k]``
    is the mover's exact distance row in ``G − movers[k]drops[k]``, and
    ``costs(k, threshold)`` its legal post-swap costs (illegal targets and
    the identity re-add at ``inf``), exact wherever they are below
    ``threshold`` and at least ``threshold`` elsewhere, or ``None`` when a
    bound proves that no legal target beats ``threshold``.
    ``evaluate(threshold)``, for a per-vertex threshold array, gives in
    ascending order every ``k`` whose costs may have a legal target below
    ``threshold[movers[k]]``; ``costs`` of any other row would be ``None``.
    """

    movers: np.ndarray
    drops: np.ndarray
    rows: np.ndarray
    evaluate: Callable[[np.ndarray], Iterable[int]]
    costs: Callable[[int, float], "np.ndarray | None"]


def _audit_walk(graph, lifted, model, mode, deadline):
    """Yield the directed edges block by block — the one audit loop.

    Blocks hold their directed edges in the oracle's order, ``(a, b)``
    then ``(b, a)`` per canonical edge, and follow one another in it.
    The audits evaluate a block's rows at their movers' base costs: a row
    left out, like a cost at or above its threshold, can neither beat nor
    tie a cost below it, and adds nothing to a gap.  ``mode`` picks the
    engine.  ``"batched"`` takes each block's rows from one plan of the
    kernel (:mod:`repro.core.batched`).  Where the plan's level bound ran,
    it evaluates only the plan's survivors, found with one masked row
    minimum over the whole block; elsewhere (a scan's first block, and
    level sets that refuse) it evaluates every row, one at a time.  Its
    costs come from the bound and verify steps, which repair only the
    targets below the threshold.  ``"rebuild"`` yields one canonical edge
    per block, takes rows and costs from a fresh APSP of ``G − ab``,
    shares no per-edge computation with the kernel, evaluates every row,
    and returns all-exact costs, never ``None``.  ``deadline`` is checked
    once per block and once per evaluated row.
    """
    if mode == "batched":
        base_plus1 = lifted + 1
        buf = np.empty((graph.n, graph.n), dtype=np.int64)

        def evaluate(plan, threshold):
            survivors = plan.survivors(model, threshold)
            if survivors is None:  # the plan bounds row by row
                survivors = range(plan.movers.size)
            for k in survivors:
                check_deadline(deadline)
                yield int(k)

        def costs(plan, k, threshold):
            i, v, w = k // 2, int(plan.movers[k]), int(plan.drops[k])
            bound = plan.bound_costs(i, v, w, model, base_plus1, buf)
            mask = model.target_mask(graph, v, w)
            return _verify(plan, i, v, w, model, bound, mask, threshold)

        for plan in _audit_plans(graph, lifted, graph.iter_edges(), deadline):
            yield _Block(
                plan.movers, plan.drops, plan.rows,
                functools.partial(evaluate, plan),
                functools.partial(costs, plan),
            )
        return

    def rebuilt_costs(removal_dm, ends, k, threshold):
        v, w = ends[k], ends[1 - k]
        costs = all_swap_costs_for_drop(graph, v, w, model, removal_dm)
        mask = model.target_mask(graph, v, w)
        if mask is not None:
            costs[~mask] = math.inf  # move-set constraint (budget cap)
        costs[w] = math.inf  # identity move is not a violation
        return costs

    for a, b in graph.iter_edges():
        check_deadline(deadline)
        removal_dm = removal_distance_matrix(graph, (a, b), mode="rebuild")
        yield _Block(
            np.array([a, b]), np.array([b, a]), removal_dm[[a, b]],
            lambda threshold: range(2),
            functools.partial(rebuilt_costs, removal_dm, (a, b)),
        )


def _row_costs(model, movers, rows):
    """``model.row_cost(movers[k], rows[k])`` of every row, in one pass.

    The ``kind`` aggregate over each mover's interest entries with the
    connectivity lift, as the cost-model contract defines it
    (:meth:`~repro.core.costmodel.CostModel.interest_mask`).
    """
    interest = model.interest_mask(movers)
    picked = rows if interest is None else np.where(interest, rows, 0)
    raw = (
        picked.sum(axis=1) if model.kind == "sum"
        else picked.max(axis=1, initial=0)
    )
    costs = raw.astype(np.float64)
    costs[(rows >= INT_INF).any(axis=1)] = math.inf
    return costs


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
    walk checks it once per block and once per evaluated edge, and raises
    :class:`~repro.errors.DeadlineExceeded` once it passes.
    """
    _check_mode(mode)
    model = resolve_cost_model(objective, graph.n)
    if graph.n <= 2:
        _require_connected(graph)
        return None
    lifted = _prepare(graph, base_dm)
    base = model.base_costs(lifted)
    for block in _audit_walk(graph, lifted, model, mode, deadline):
        for k in block.evaluate(base):
            v = int(block.movers[k])
            legal = block.costs(k, base[v])
            if legal is None:
                continue
            best = int(np.argmin(legal))
            if legal[best] < base[v]:
                return Violation(
                    model.violation_kind, v, int(block.drops[k]), best,
                    float(base[v]), float(legal[best]),
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

    ``True`` exactly when no agent has a best-response move —
    ``best_swap(graph, v, objective).swap`` is ``None`` for every ``v``.
    That is swap stability under the model's cost and move set; for the
    paper's max version (``prefer_deletions_on_tie``, the lexicographic
    (cost, degree) objective) also deletion-criticality, since a drop that
    leaves its mover's local diameter unchanged is exactly the cost-neutral
    deletion a max agent takes.  One pass over the walk checks both
    conditions, so a max audit plans each edge once, and the verdict
    matches :func:`is_max_equilibrium`.  Variant max models (interest /
    budget) are swap-stability only — their literatures define no
    criticality condition.  ``base_dm`` skips the audit's APSP when the
    caller already holds the matrix: the dynamics engine certifies a graph
    at rest with this call on its own matrix.
    """
    _check_mode(mode)
    model = resolve_cost_model(objective, graph.n)
    if graph.n <= 2:
        _require_connected(graph)
        return True
    lifted = _prepare(graph, base_dm)
    base = model.base_costs(lifted)
    critical = model.prefer_deletions_on_tie
    for block in _audit_walk(graph, lifted, model, mode, deadline):
        if critical and not (
            _row_costs(model, block.movers, block.rows) > base[block.movers]
        ).all():
            return False  # a cost-neutral deletion
        for k in block.evaluate(base):
            v = block.movers[k]
            legal = block.costs(k, base[v])
            if legal is not None and float(np.min(legal)) < base[v]:
                return False
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
    ``inf`` never occurs because disconnecting swaps cost ``inf``.  Sound
    despite the batched bound: a drop is skipped, or a target left at its
    bound, only when it cannot beat its mover's current cost, and then it
    adds nothing to the gap.
    """
    _check_mode(mode)
    if graph.n <= 2:
        _require_connected(graph)
        return 0.0
    lifted = _prepare(graph)
    base_sum = lifted.sum(axis=1)
    gap = 0.0
    for block in _audit_walk(graph, lifted, SUM_COST, mode, None):
        for k in block.evaluate(base_sum):
            v = block.movers[k]
            legal = block.costs(k, base_sum[v])
            if legal is not None:
                gap = max(gap, float(base_sum[v]) - float(np.min(legal)))
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
    and of the lower-bound constructions.  It reads only the walk's
    endpoint rows, one row-cost pass per block, never its costs.
    """
    _check_mode(mode)
    lifted = _prepare(graph, base_dm)
    base_ecc = lifted.max(axis=1)
    for block in _audit_walk(graph, lifted, MAX_COST, mode, deadline):
        after = _row_costs(MAX_COST, block.movers, block.rows)
        failing = np.flatnonzero(~(after > base_ecc[block.movers]))
        if failing.size:
            k = failing[0]
            v = int(block.movers[k])
            return Violation(
                "deletion", v, int(block.drops[k]), None,
                float(base_ecc[v]), float(after[k]),
            )
    return None


def is_deletion_critical(graph: CSRGraph, *, mode: AuditMode = "batched") -> bool:
    """Whether deleting any edge strictly increases both endpoints' ecc."""
    return find_deletion_criticality_violation(graph, mode=mode) is None


def is_max_equilibrium(graph: CSRGraph, *, mode: AuditMode = "batched") -> bool:
    """The paper's max equilibrium: swap-stable (max) **and** deletion-critical."""
    return is_equilibrium(graph, "max", mode=mode)


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
