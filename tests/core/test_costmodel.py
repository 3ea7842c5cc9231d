"""Cost-model layer tests: alias bit-identity, variant oracles, move masks.

Three guarantees under test:

1. **Alias bit-identity** — ``objective="sum"|"max"`` strings, the
   ``SumCost``/``MaxCost`` singletons they resolve to, and the historical
   call sites all agree exactly (costs, tie-breaks, record order) on the
   deterministic graph battery.
2. **Variant exactness** — ``InterestCost`` and ``BudgetCost`` agree with an
   independent brute-force evaluation (copied swapped graphs, BFS rows,
   manual aggregation); their batched audits agree with the rebuild oracle
   in the differential harness, ``test_oracles.py``.
3. **Reachability** — both variants run end-to-end through dynamics and
   the census fleet and their converged endpoints pass the model-aware
   equilibrium audit.
"""

import math

import numpy as np
import pytest

from repro.core import (
    BudgetCost,
    InterestCost,
    MaxCost,
    SumCost,
    SwapDynamics,
    all_swap_costs_for_drop,
    best_swap,
    census_experiment,
    cost_model_spec,
    find_sum_violation,
    find_swap_violation,
    interest_sets,
    is_equilibrium,
    is_max_equilibrium,
    is_sum_equilibrium,
    legal_add_targets,
    parse_cost_spec,
    resolve_cost_model,
)
from repro.core.costmodel import MAX_COST, SUM_COST
from repro.core.moves import Swap, swapped_graph
from repro.errors import ConfigurationError
from repro.experiments import run_fleet
from repro.graphs import (
    CSRGraph,
    bfs_distances,
    path_graph,
    random_connected_gnm,
    random_tree,
    star_graph,
)
from repro.graphs.bfs import UNREACHABLE

from ..conftest import graph_battery

BATTERY = graph_battery()

INTEREST_SPEC = "interest-sum:k=3,seed=7"
BUDGET_SPEC = "budget-sum:cap=3"


# ---------------------------------------------------------------------------
# Spec parsing / resolution
# ---------------------------------------------------------------------------

class TestSpecs:
    def test_sum_max_resolve_to_singletons(self):
        assert resolve_cost_model("sum") is SUM_COST
        assert resolve_cost_model("max") is MAX_COST
        assert resolve_cost_model(SUM_COST, 9) is SUM_COST

    def test_canonical_spec_roundtrip(self):
        assert cost_model_spec("sum") == "sum"
        # Parameter order is canonicalized.
        assert (
            cost_model_spec("interest-sum:seed=2,k=3")
            == "interest-sum:k=3,seed=2"
        )
        model = resolve_cost_model("interest-max:k=2", 8)
        assert model.spec == "interest-max:k=2,seed=0"
        assert resolve_cost_model(model.spec, 8).spec == model.spec
        assert cost_model_spec(BudgetCost("max", 4)) == "budget-max:cap=4"

    def test_unknown_spec_rejected_as_both_error_types(self):
        for bad in ("median", "interest", "budget-sum", "sum:k=3",
                    "interest-sum:k=x", "interest-sum:cap=3",
                    "budget-sum:cap=0", "interest-sum:k=0"):
            with pytest.raises(ConfigurationError):
                parse_cost_spec(bad)
            with pytest.raises(ValueError):  # ConfigurationError is one
                parse_cost_spec(bad)

    def test_interest_needs_n(self):
        with pytest.raises(ConfigurationError):
            resolve_cost_model("interest-sum:k=3")

    def test_interest_wrong_n_rejected(self):
        model = resolve_cost_model("interest-sum:k=3", 8)
        with pytest.raises(ConfigurationError):
            resolve_cost_model(model, 9)

    def test_budget_cap_validated(self):
        with pytest.raises(ConfigurationError):
            BudgetCost("sum", 0)

    def test_interest_sets_shape_and_determinism(self):
        w = interest_sets(12, 4, seed=3)
        assert w.shape == (12, 12)
        assert not w.diagonal().any()  # no self-interest
        assert (w.sum(axis=1) == 4).all()
        assert np.array_equal(w, interest_sets(12, 4, seed=3))
        assert not np.array_equal(w, interest_sets(12, 4, seed=4))
        # k larger than n-1 saturates.
        assert (interest_sets(5, 99, seed=0).sum(axis=1) == 4).all()

    def test_model_equality_by_spec(self):
        assert SumCost() == SUM_COST
        assert BudgetCost("sum", 3) == BudgetCost("sum", 3)
        assert BudgetCost("sum", 3) != BudgetCost("sum", 4)


# ---------------------------------------------------------------------------
# Alias bit-identity on the battery
# ---------------------------------------------------------------------------

class TestAliasBitIdentity:
    """Model objects and objective strings must be indistinguishable."""

    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 7))
    def test_swap_violation_matches_sum_audit(self, idx):
        g = BATTERY[idx]
        assert find_swap_violation(g, SumCost()) == find_sum_violation(g)

    @pytest.mark.parametrize("idx", range(3, len(BATTERY), 17))
    def test_swap_violation_matches_rebuild_oracle(self, idx):
        g = BATTERY[idx]
        assert find_swap_violation(
            g, "sum", mode="rebuild"
        ) == find_sum_violation(g, mode="rebuild")

    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 11))
    def test_is_equilibrium_matches_max_audit(self, idx):
        g = BATTERY[idx]
        assert is_equilibrium(g, "max") == is_max_equilibrium(g)
        assert is_equilibrium(g, MaxCost(), mode="batched") == (
            is_max_equilibrium(g, mode="batched")
        )
        assert is_equilibrium(g, "sum") == is_sum_equilibrium(g)

    @pytest.mark.parametrize("idx", range(1, len(BATTERY), 13))
    def test_best_swap_model_vs_string(self, idx):
        g = BATTERY[idx]
        if g.n < 2:
            return
        for v in range(0, g.n, 3):
            for obj, model in (("sum", SumCost()), ("max", MaxCost())):
                a = best_swap(g, v, obj)
                b = best_swap(g, v, model)
                assert (a.swap, a.before, a.after, a.is_deletion) == (
                    b.swap, b.before, b.after, b.is_deletion
                )

    def test_dynamics_model_vs_string(self):
        for seed in (1, 5):
            g = random_connected_gnm(14, 24, seed=seed)
            a = SwapDynamics(objective="max", seed=3).run(g)
            b = SwapDynamics(objective=MaxCost(), seed=3).run(g)
            assert a.graph == b.graph
            assert (a.steps, a.activations, a.converged) == (
                b.steps, b.activations, b.converged
            )

    def test_census_records_model_vs_string(self, tmp_path):
        kwargs = dict(
            n_values=[8], families=("tree", "sparse"), replicates=2,
            root_seed=5,
        )
        a = run_fleet(census_experiment(objective="sum", **kwargs))
        b = run_fleet(census_experiment(objective=SumCost(), **kwargs))
        assert a == b
        assert all(r.objective == "sum" for r in b)


# ---------------------------------------------------------------------------
# Brute-force oracle for the variant evaluations
# ---------------------------------------------------------------------------

def _brute_cost(graph: CSRGraph, v: int, model) -> float:
    """Independent evaluation: plain BFS row + manual aggregation."""
    row = bfs_distances(graph, v)
    if (row == UNREACHABLE).any():
        return math.inf
    row = row.astype(np.int64)
    if isinstance(model, InterestCost):
        sel = row[model.weights[v]]
        if sel.size == 0:
            return 0.0
        return float(sel.sum() if model.kind == "sum" else sel.max())
    return float(row.sum() if model.kind == "sum" else row.max())


def _brute_swap_costs(graph: CSRGraph, v: int, w: int, model) -> np.ndarray:
    """Swap costs for every target via copied swapped graphs."""
    costs = np.full(graph.n, math.inf)
    for w2 in range(graph.n):
        if w2 in (v, w):
            continue
        g2 = swapped_graph(graph, Swap(v, w, w2))
        costs[w2] = _brute_cost(g2, v, model)
    return costs


class TestVariantOracle:
    @pytest.mark.parametrize("idx", range(2, len(BATTERY), 23))
    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_interest_swap_costs_match_brute_force(self, idx, kind):
        g = BATTERY[idx]
        if g.n < 3:
            return
        model = resolve_cost_model(f"interest-{kind}:k=2,seed=11", g.n)
        for v in range(0, g.n, 4):
            for w in map(int, g.neighbors(v)[:2]):
                costs = all_swap_costs_for_drop(g, v, w, model)
                brute = _brute_swap_costs(g, v, w, model)
                brute[v] = math.inf
                brute[w] = math.inf
                costs = costs.copy()
                costs[w] = math.inf
                assert np.array_equal(costs, brute), (v, w)


# ---------------------------------------------------------------------------
# Budget move-set semantics
# ---------------------------------------------------------------------------

class TestBudgetMoves:
    def test_target_mask_blocks_full_vertices(self):
        g = star_graph(6)  # center 0 has degree 5
        model = BudgetCost("sum", 2)
        leaf = 1
        w = 0  # the leaf's only neighbour
        mask = model.target_mask(g, leaf, w)
        assert mask[0]  # neighbour of the mover: deletion slot stays legal
        assert mask[2] and mask[5]  # other leaves are below cap
        mask_center = model.target_mask(g, 0, 1)
        # From the center's perspective every leaf has degree 1 < cap.
        assert mask_center[np.arange(1, 6)].all()

    def test_legal_add_targets_composes_mask(self):
        g = path_graph(4)
        model = BudgetCost("sum", 2)
        mask = legal_add_targets(g, 0, 1, model)
        assert not mask[0]  # the mover itself is never a target
        assert not mask[2]  # interior vertex at its cap
        assert mask[1] and mask[3]

    def test_budget_blocks_the_base_game_violation(self):
        # P4 admits an improving sum swap (0: drop 1, add 2), but under a
        # cap of 2 the interior target is full — the path is a budget
        # equilibrium while not a base sum equilibrium.
        g = path_graph(4)
        assert find_sum_violation(g) is not None
        for mode in ("batched", "rebuild"):
            assert find_swap_violation(g, "budget-sum:cap=2", mode=mode) is None
        assert is_equilibrium(g, "budget-sum:cap=2")

    def test_best_swap_respects_budget(self):
        g = path_graph(4)
        br = best_swap(g, 0, "budget-sum:cap=2")
        assert br.swap is None
        unconstrained = best_swap(g, 0, "sum")
        assert unconstrained.swap is not None

    def test_first_improving_swap_respects_budget(self):
        from repro.core import first_improving_swap

        g = path_graph(4)
        for seed in range(5):
            br = first_improving_swap(g, 0, "budget-sum:cap=2", seed=seed)
            assert br.swap is None


# ---------------------------------------------------------------------------
# End-to-end reachability: dynamics + census for both variants
# ---------------------------------------------------------------------------

class TestVariantReachability:
    def test_interest_census_reaches_verified_equilibrium(self):
        records = run_fleet(census_experiment(
            [10], families=("tree", "sparse"), replicates=2,
            objective=INTEREST_SPEC, root_seed=2,
        ))
        assert all(r.objective == INTEREST_SPEC for r in records)
        converged = [r for r in records if r.converged]
        assert converged, "interest dynamics never converged"
        assert all(r.verified_equilibrium is True for r in converged)
        # Independent re-audit of one endpoint through the public API.
        res = SwapDynamics(objective=INTEREST_SPEC, seed=4).run(
            random_tree(10, 6)
        )
        assert res.converged
        assert is_equilibrium(res.graph, INTEREST_SPEC, mode="batched")

    def test_budget_census_reaches_verified_equilibrium(self):
        records = run_fleet(census_experiment(
            [10], families=("tree", "sparse"), replicates=2,
            objective=BUDGET_SPEC, root_seed=3,
        ))
        assert all(r.objective == BUDGET_SPEC for r in records)
        converged = [r for r in records if r.converged]
        assert converged, "budget dynamics never converged"
        assert all(r.verified_equilibrium is True for r in converged)
        # The cap binds: a vertex's degree never grows past max(start, cap)
        # (swaps keep the mover's degree; adds are blocked at the cap).
        initial = random_tree(12, 1)
        res = SwapDynamics(objective=BUDGET_SPEC, seed=1).run(initial)
        assert (
            np.diff(res.graph.indptr)
            <= np.maximum(np.diff(initial.indptr), 3)
        ).all()

    def test_budget_equilibrium_is_brute_force_stable(self):
        res = SwapDynamics(objective="budget-sum:cap=3", seed=9).run(
            random_tree(9, 12)
        )
        assert res.converged
        g = res.graph
        model = BudgetCost("sum", 3)
        deg = np.diff(g.indptr)
        for v in range(g.n):
            base = _brute_cost(g, v, model)
            for w in map(int, g.neighbors(v)):
                for w2 in range(g.n):
                    if w2 in (v, w):
                        continue
                    legal = deg[w2] < 3 or g.has_edge(v, w2)
                    if not legal:
                        continue
                    after = _brute_cost(
                        swapped_graph(g, Swap(v, w, w2)), v, model
                    )
                    assert after >= base, (v, w, w2)

    def test_interest_equilibrium_is_brute_force_stable(self):
        spec = "interest-sum:k=2,seed=3"
        res = SwapDynamics(objective=spec, seed=2).run(random_tree(8, 3))
        assert res.converged
        g = res.graph
        model = resolve_cost_model(spec, g.n)
        for v in range(g.n):
            base = _brute_cost(g, v, model)
            for w in map(int, g.neighbors(v)):
                for w2 in range(g.n):
                    if w2 in (v, w):
                        continue
                    after = _brute_cost(
                        swapped_graph(g, Swap(v, w, w2)), v, model
                    )
                    assert after >= base, (v, w, w2)

    def test_variant_census_streams_spec_in_jsonl(self, tmp_path):
        import json

        path = tmp_path / "variant.jsonl"
        run_fleet(
            census_experiment(
                [8], families=("tree",), replicates=1,
                objective="budget-max:cap=3",
            ),
            jsonl_path=path,
        )
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["objective"] == "budget-max:cap=3"
        assert json.loads(lines[1])["objective"] == "budget-max:cap=3"
