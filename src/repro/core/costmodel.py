"""Pluggable cost models — the objective layer of the swap game.

The paper fixes two objectives (sum of distances, local diameter) and the
rest of the library used to hard-wire them as ``objective="sum"|"max"``
strings.  This module turns the objective into a first-class object so that
game *variants* — the nearest follow-up models in the literature — plug into
the same best-response / equilibrium / dynamics / census machinery:

* :class:`SumCost` / :class:`MaxCost` — the paper's objectives, bit-identical
  to the historical string forms (costs, tie-breaking, record order);
* :class:`InterestCost` — communication interests à la Cord-Landwehr et al.
  (*Basic Network Creation Games with Communication Interests*): each agent
  aggregates distances only over its personal interest set;
* :class:`BudgetCost` — a bounded-budget variant à la Ehsani et al. (*On a
  Bounded Budget Network Creation Game*): the cost is the plain sum/max, but
  the *move set* is constrained — no swap may push a vertex above its cap of
  incident edges.

The protocol a model must satisfy
---------------------------------
A cost model answers three questions, always from **lifted** distance rows
(int64 with :data:`~repro.core.costs.INT_INF` for unreachable pairs):

1. ``row_cost(v, row)`` / ``base_costs(lifted)`` — agent ``v``'s cost given
   its distance row (vectorized over the base matrix);
2. ``candidate_costs(v, candidate)`` — agent ``v``'s cost for each row of a
   candidate matrix (row ``w'`` = ``v``'s distances after re-targeting the
   dropped edge to ``w'``);
3. ``target_mask(graph, v, w)`` — which add-targets are *legal* for ``v``
   when dropping ``v–w`` (``None`` = all; this is where budget constraints
   live).

One flag, ``prefer_deletions_on_tie``, marks the paper's lexicographic
(cost, degree) max objective.  Best responses read it to take cost-neutral
deletions, and :func:`~repro.core.equilibrium.is_equilibrium` reads it to
demand deletion-criticality: a drop that leaves the mover's cost unchanged
is both the deletion such an agent takes and the edge that breaks
criticality, so one flag serves both.

**Monotonicity contract** (load-bearing for the batched audit kernel): if
``row1 <= row2`` entrywise then ``row_cost(v, row1) <= row_cost(v, row2)``,
and likewise per-row for ``candidate_costs``.  Edge removal only increases
distances, so the kernel's optimistic bound (computed from the base matrix)
row-dominates the exact candidate rows; monotone aggregation is exactly what
makes "bound never beats the current cost" a *proof* that no improving swap
exists.  All models here are monotone: sums with non-negative weights,
maxes over subsets, and the connectivity lift (any ``INT_INF`` entry
anywhere in the row lifts the cost to ``inf``) all preserve dominance.

Connectivity lift: like the base game, every variant charges ``inf`` for any
move that disconnects the graph — :class:`InterestCost` is therefore the
*connectivity-preserving* restriction of the interest game (agents may not
cut even vertices they are indifferent to).  This keeps every invariant the
engine relies on (dynamics stay on connected graphs, audits well-defined).

Spec strings
------------
Models serialize to compact spec strings — what census JSONL records and
fleet flags carry — and round-trip through :func:`resolve_cost_model`:

* ``"sum"``, ``"max"`` — the paper's objectives;
* ``"interest-sum:k=4,seed=9"`` / ``"interest-max:k=4,seed=9"`` — every
  agent interested in a deterministic random ``k``-subset of the others
  (the subsets derive from ``seed`` and the vertex id, so a spec plus ``n``
  fully determines the game);
* ``"budget-sum:cap=3"`` / ``"budget-max:cap=3"`` — per-agent cap on
  incident edges.

Interest specs need ``n`` to materialize; pass it to
:func:`resolve_cost_model` (audits and dynamics do this for you).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..graphs import CSRGraph, bfs_aggregates, bfs_distances
from ..rng import derive_seed, make_rng
from .costs import INT_INF, lift_distances

__all__ = [
    "BudgetCost",
    "CostModel",
    "InterestCost",
    "MaxCost",
    "SumCost",
    "cost_model_spec",
    "interest_sets",
    "parse_cost_spec",
    "resolve_cost_model",
]


class CostModel:
    """Base class / protocol for swap-game objectives.

    Subclasses set the class attributes and implement the row-aggregation
    methods.  ``kind`` is the base aggregate (``"sum"`` or ``"max"``) —
    variants refine *which* entries are aggregated or *which* moves are
    legal, never the comparison direction (lower cost is always better).
    """

    #: base aggregate, ``"sum"`` or ``"max"``
    kind: str = "sum"
    #: canonical spec string (round-trips through :func:`resolve_cost_model`)
    spec: str = "sum"
    #: the ``Violation.kind`` tag audits emit for this model
    violation_kind: str = "sum-swap"
    #: the paper's lexicographic (cost, degree) objective of its max agents
    #: (true only for :class:`MaxCost`): best responses take cost-neutral
    #: deletions, and the equilibrium notion includes deletion-criticality
    prefer_deletions_on_tie: bool = False

    # ------------------------------------------------------------------
    def resolve(self, n: int) -> "CostModel":
        """This model, validated for an ``n``-vertex game."""
        return self

    # ------------------------------------------------------------------
    def base_costs(self, lifted: np.ndarray) -> np.ndarray:
        """Raw int64 per-vertex costs from the lifted base matrix.

        ``>= INT_INF`` encodes infinity; callers compare float candidate
        costs against these raw values (exactly as the historical code
        compared against ``lifted.sum(axis=1)`` / ``.max(axis=1)``).
        """
        raise NotImplementedError

    def row_cost(self, v: int, row: np.ndarray) -> float:
        """Agent ``v``'s cost from one lifted row (``inf`` when lifted)."""
        raise NotImplementedError

    def candidate_costs(self, v: int, candidate: np.ndarray) -> np.ndarray:
        """Float costs of agent ``v`` for each row of ``candidate``.

        Must be monotone per row (see the module docstring's contract) and
        lift to ``math.inf`` exactly when :meth:`row_cost` would.
        """
        raise NotImplementedError

    def interest_mask(self, vertices: np.ndarray) -> "np.ndarray | None":
        """Which entries of each agent's row its cost aggregates.

        A ``(len(vertices), n)`` boolean mask, or ``None`` when every
        agent aggregates its whole row.  ``candidate_costs`` must be
        the ``kind`` aggregate over these entries (with the connectivity
        lift): the level-set bound of :mod:`repro.core.batched` relies on
        it.
        """
        return None

    # ------------------------------------------------------------------
    def social_cost(self, lifted: np.ndarray) -> float:
        """The game's social cost: every agent's cost summed.

        ``inf`` as soon as any agent's cost is lifted (a disconnected
        graph costs everyone ∞ anyway under the connectivity lift).  For
        :class:`SumCost` this equals the total pairwise distance — the
        quantity the trajectory traces historically recorded; for every
        other model it is the model's own Σ-of-agent-costs, which is what
        dynamics instrumentation must report (see ISSUE 4).
        """
        if lifted.size == 0:
            return 0.0
        costs = self.base_costs(lifted)
        if bool((costs >= INT_INF).any()):
            return math.inf
        return float(costs.sum(dtype=np.int64))

    # ------------------------------------------------------------------
    def target_mask(
        self, graph: CSRGraph, v: int, w: int
    ) -> "np.ndarray | None":
        """Boolean mask of legal add-targets for ``v`` dropping ``v–w``.

        ``None`` means every target is legal (the base game).  Masks only
        *restrict* the move set; they never alter costs, so equilibrium
        under a mask is "no improving move among the legal ones".
        """
        return None

    # ------------------------------------------------------------------
    def bfs_cost(
        self,
        graph: CSRGraph,
        v: int,
        *,
        exclude: "tuple[int, int] | None" = None,
        extra=(),
    ) -> float:
        """Agent ``v``'s cost in ``graph`` (optionally patched), via BFS."""
        row = lift_distances(
            bfs_distances(graph, v, exclude=exclude, extra=extra)
        )
        return self.row_cost(v, row)

    def __eq__(self, other) -> bool:
        return isinstance(other, CostModel) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec!r})"


class _PlainRows(CostModel):
    """Shared full-row sum/max aggregation (Sum, Max, Budget).

    The arithmetic here is byte-for-byte the historical ``objective=`` code:
    int64 aggregate, float cast, ``raw >= INT_INF -> inf``.
    """

    def base_costs(self, lifted: np.ndarray) -> np.ndarray:
        return lifted.sum(axis=1) if self.kind == "sum" else lifted.max(axis=1)

    def row_cost(self, v: int, row: np.ndarray) -> float:
        agg = row.sum() if self.kind == "sum" else row.max()
        return math.inf if agg >= INT_INF else float(agg)

    def candidate_costs(self, v: int, candidate: np.ndarray) -> np.ndarray:
        raw = (
            candidate.sum(axis=1)
            if self.kind == "sum"
            else candidate.max(axis=1)
        )
        costs = raw.astype(np.float64)
        costs[raw >= INT_INF] = math.inf
        return costs

    def bfs_cost(self, graph, v, *, exclude=None, extra=()):
        # bfs_aggregates skips materializing the row — the seed fast path.
        total, ecc, reached = bfs_aggregates(
            graph, v, exclude=exclude, extra=extra
        )
        if reached < graph.n:
            return math.inf
        return float(total if self.kind == "sum" else ecc)


class SumCost(_PlainRows):
    """The paper's sum version: ``cost(v) = Σ_u d(v, u)``."""

    kind = "sum"
    spec = "sum"
    violation_kind = "sum-swap"


class MaxCost(_PlainRows):
    """The paper's max version: ``cost(v) = max_u d(v, u)`` (local diameter)."""

    kind = "max"
    spec = "max"
    violation_kind = "max-swap"
    prefer_deletions_on_tie = True


class InterestCost(CostModel):
    """Per-agent interest sets (Cord-Landwehr-style communication interests).

    ``weights`` is an (n, n) boolean matrix; row ``v`` marks the vertices
    agent ``v`` cares about.  Cost is the sum/max of distances restricted to
    that set, with the connectivity lift (any unreachable vertex — interested
    or not — costs ``inf``; see the module docstring).
    """

    prefer_deletions_on_tie = False

    def __init__(self, kind: str, weights: np.ndarray, *, spec: str):
        if kind not in ("sum", "max"):
            raise ConfigurationError(f"unknown interest kind {kind!r}")
        weights = np.asarray(weights, dtype=bool)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ConfigurationError(
                f"interest weights must be square, got shape {weights.shape}"
            )
        self.kind = kind
        self.spec = spec
        self.violation_kind = f"interest-{kind}-swap"
        self.weights = weights

    def resolve(self, n: int) -> "InterestCost":
        if self.weights.shape[0] != n:
            raise ConfigurationError(
                f"{self.spec!r} was built for n={self.weights.shape[0]}, "
                f"cannot be used on an n={n} graph"
            )
        return self

    def interest_mask(self, vertices: np.ndarray) -> np.ndarray:
        return self.weights[vertices]

    def base_costs(self, lifted: np.ndarray) -> np.ndarray:
        masked = np.where(self.weights, lifted, 0)
        raw = (
            masked.sum(axis=1)
            if self.kind == "sum"
            else masked.max(axis=1, initial=0)
        )
        raw = np.minimum(raw, INT_INF)
        raw[(lifted >= INT_INF).any(axis=1)] = INT_INF  # connectivity lift
        return raw

    def row_cost(self, v: int, row: np.ndarray) -> float:
        if (row >= INT_INF).any():
            return math.inf
        sel = row[self.weights[v]]
        if sel.size == 0:
            return 0.0
        return float(sel.sum() if self.kind == "sum" else sel.max())

    def candidate_costs(self, v: int, candidate: np.ndarray) -> np.ndarray:
        sel = candidate[:, self.weights[v]]
        if sel.shape[1] == 0:
            raw = np.zeros(candidate.shape[0], dtype=np.int64)
        else:
            raw = sel.sum(axis=1) if self.kind == "sum" else sel.max(axis=1)
        raw = np.minimum(raw, INT_INF)
        costs = raw.astype(np.float64)
        costs[raw >= INT_INF] = math.inf
        costs[(candidate >= INT_INF).any(axis=1)] = math.inf
        return costs


class BudgetCost(_PlainRows):
    """Plain sum/max cost under a per-agent cap on incident edges.

    The Ehsani-style budget enters through the *move set*: a swap
    ``v: drop w, add w'`` raises only ``deg(w')``, so it is legal iff the
    target is below its cap (deletions and re-adds never raise any degree
    and stay legal).  Costs are the plain full-row aggregates, so a budget
    equilibrium is "no improving move among the budget-legal ones".
    """

    prefer_deletions_on_tie = False

    def __init__(self, kind: str, cap: int):
        if kind not in ("sum", "max"):
            raise ConfigurationError(f"unknown budget kind {kind!r}")
        cap = int(cap)
        if cap < 1:
            raise ConfigurationError(f"budget cap must be >= 1, got {cap}")
        self.kind = kind
        self.cap = cap
        self.spec = f"budget-{kind}:cap={cap}"
        self.violation_kind = f"budget-{kind}-swap"

    def target_mask(self, graph: CSRGraph, v: int, w: int) -> np.ndarray:
        allowed = np.diff(graph.indptr) < self.cap
        # Existing neighbours of v are deletion targets (and w the identity
        # re-add): no degree rises, so the budget never blocks them.
        allowed[graph.neighbors(v)] = True
        allowed[v] = True  # illegal for other reasons; evaluation infs it
        return allowed


def interest_sets(n: int, k: int, seed: int) -> np.ndarray:
    """Deterministic per-agent interest subsets as an (n, n) boolean matrix.

    Agent ``v`` is interested in a uniform random ``min(k, n-1)``-subset of
    the other vertices, drawn from ``derive_seed(seed, v)`` — so the matrix
    is a pure function of ``(n, k, seed)``, reproducible across processes
    and census workers.
    """
    if k < 1:
        raise ConfigurationError(f"interest size k must be >= 1, got {k}")
    weights = np.zeros((n, n), dtype=bool)
    for v in range(n):
        others = np.concatenate([np.arange(v), np.arange(v + 1, n)])
        if others.size == 0:
            continue
        rng = make_rng(derive_seed(seed, v))
        pick = rng.choice(others, size=min(k, others.size), replace=False)
        weights[v, pick] = True
    return weights


# ---------------------------------------------------------------------------
# Spec parsing / resolution
# ---------------------------------------------------------------------------

#: model name -> (required params, optional params with defaults)
_SPEC_PARAMS: dict[str, tuple[frozenset, dict]] = {
    "sum": (frozenset(), {}),
    "max": (frozenset(), {}),
    "interest-sum": (frozenset({"k"}), {"seed": 0}),
    "interest-max": (frozenset({"k"}), {"seed": 0}),
    "budget-sum": (frozenset({"cap"}), {}),
    "budget-max": (frozenset({"cap"}), {}),
}

SUM_COST = SumCost()
MAX_COST = MaxCost()


def parse_cost_spec(spec: str) -> tuple[str, dict]:
    """Validate a cost-model spec string -> ``(name, params)``.

    Raises :class:`~repro.errors.ConfigurationError` (a ``ValueError``) on
    unknown names, malformed or unknown parameters, and missing required
    parameters.  Does *not* need ``n`` — use it for early CLI/census
    validation before graphs exist.
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"objective must be a spec string or CostModel, got {spec!r}"
        )
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in _SPEC_PARAMS:
        raise ConfigurationError(
            f"unknown objective {spec!r}; known: {', '.join(_SPEC_PARAMS)}"
        )
    required, defaults = _SPEC_PARAMS[name]
    params = dict(defaults)
    if rest:
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            key = key.strip()
            if not eq or key not in required | set(defaults):
                raise ConfigurationError(
                    f"bad parameter {part!r} in objective spec {spec!r}"
                )
            try:
                params[key] = int(val)
            except ValueError:
                raise ConfigurationError(
                    f"parameter {key}={val!r} in {spec!r} is not an integer"
                ) from None
    missing = required - set(params)
    if missing:
        raise ConfigurationError(
            f"objective spec {spec!r} is missing {', '.join(sorted(missing))}"
        )
    for key in ("k", "cap"):
        if key in params and params[key] < 1:
            raise ConfigurationError(
                f"parameter {key}={params[key]} in {spec!r} must be >= 1"
            )
    return name, params


def cost_model_spec(objective: "str | CostModel") -> str:
    """Canonical spec string of an objective (validating it on the way)."""
    if isinstance(objective, CostModel):
        return objective.spec
    name, params = parse_cost_spec(objective)
    if not params:
        return name
    return name + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def resolve_cost_model(
    objective: "str | CostModel", n: "int | None" = None
) -> CostModel:
    """A :class:`CostModel` from a spec string / model instance.

    ``"sum"`` and ``"max"`` resolve to shared singletons (the hot path);
    interest specs need ``n`` to materialize their weight matrices, and a
    passed-through model instance is re-validated against ``n`` when given.
    """
    if isinstance(objective, CostModel):
        return objective if n is None else objective.resolve(n)
    if objective == "sum":
        return SUM_COST
    if objective == "max":
        return MAX_COST
    name, params = parse_cost_spec(objective)
    if name in ("sum", "max"):
        return SUM_COST if name == "sum" else MAX_COST
    kind = name.rsplit("-", 1)[1]
    if name.startswith("budget-"):
        return BudgetCost(kind, params["cap"])
    # interest-*: needs n to build the weight matrix.
    if n is None:
        raise ConfigurationError(
            f"objective {objective!r} needs the graph size n to resolve; "
            "pass resolve_cost_model(spec, n)"
        )
    k, seed = params["k"], params["seed"]
    return InterestCost(
        kind,
        interest_sets(n, k, seed),
        spec=f"interest-{kind}:k={k},seed={seed}",
    )
