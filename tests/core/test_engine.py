"""DistanceEngine cross-validation: the fast paths vs the seed oracles.

Every fast path introduced by the incremental engine — removal matrices,
engine-backed best responses, repair-mode audits, and the incrementally
maintained matrix inside the dynamics loop — is compared here against the
corresponding rebuild/copy oracle on the deterministic battery (trees,
sparse and dense G(n, m), bridges, n ≤ 3) plus targeted scenarios.
Agreement must be exact, tie-breaking included.
"""

import inspect
import math

import numpy as np
import pytest

from repro.core import equilibrium
from repro.core import (
    DistanceEngine,
    SwapDynamics,
    Swap,
    best_swap,
    find_max_swap_violation,
    find_sum_violation,
    is_sum_equilibrium,
    removal_distance_matrix,
    sum_equilibrium_gap,
)
from repro.core.costs import lift_distances
from repro.core.equilibrium import find_deletion_criticality_violation
from repro.errors import ConfigurationError
from repro.graphs import (
    CSRGraph,
    cycle_graph,
    distance_matrix,
    path_graph,
    random_connected_gnm,
    random_tree,
    star_graph,
)

from ..conftest import graph_battery

BATTERY = graph_battery()


class TestRemovalMatrix:
    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 2))
    def test_engine_matches_rebuild_oracle(self, idx):
        g = BATTERY[idx]
        engine = DistanceEngine(g)
        for edge in g.iter_edges():
            oracle = removal_distance_matrix(g, edge, mode="rebuild")
            assert np.array_equal(engine.removal_matrix(*edge), oracle)

    def test_default_mode_is_repair_and_agrees(self):
        g = random_connected_gnm(12, 20, seed=3)
        for edge in list(g.iter_edges())[:5]:
            assert np.array_equal(
                removal_distance_matrix(g, edge),
                removal_distance_matrix(g, edge, mode="rebuild"),
            )

    def test_precomputed_base_dm_accepted(self):
        g = cycle_graph(9)
        base = distance_matrix(g)
        edge = (0, 8)
        assert np.array_equal(
            removal_distance_matrix(g, edge, base_dm=base),
            removal_distance_matrix(g, edge, mode="rebuild"),
        )

    def test_unknown_mode_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            removal_distance_matrix(g, (0, 1), mode="telepathy")


def _responses_equal(a, b) -> bool:
    return (
        a.swap == b.swap
        and a.before == b.before
        and a.after == b.after
        and a.is_deletion == b.is_deletion
    )


class TestBestSwap:
    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 3))
    @pytest.mark.parametrize("objective", ["sum", "max"])
    def test_all_modes_agree(self, idx, objective):
        g = BATTERY[idx]
        if g.n < 2:
            return
        engine = DistanceEngine(g)
        for v in range(min(g.n, 5)):
            oracle = best_swap(g, v, objective, mode="oracle")
            repair = best_swap(g, v, objective, mode="repair")
            via_engine = engine.best_swap(v, objective)
            assert _responses_equal(oracle, repair), (g.edges().tolist(), v)
            assert _responses_equal(oracle, via_engine), (g.edges().tolist(), v)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            best_swap(path_graph(4), 0, mode="psychic")


class TestAuditModes:
    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 2))
    def test_sum_violation_repair_equals_rebuild(self, idx):
        g = BATTERY[idx]
        fast = find_sum_violation(g, mode="repair")
        slow = find_sum_violation(g, mode="rebuild")
        assert fast == slow, g.edges().tolist()

    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 5))
    def test_max_violation_repair_equals_rebuild(self, idx):
        g = BATTERY[idx]
        fast = find_max_swap_violation(g, mode="repair")
        slow = find_max_swap_violation(g, mode="rebuild")
        assert fast == slow, g.edges().tolist()

    @pytest.mark.parametrize("idx", range(0, len(BATTERY), 7))
    def test_gap_and_criticality_agree(self, idx):
        g = BATTERY[idx]
        assert sum_equilibrium_gap(g, mode="repair") == pytest.approx(
            sum_equilibrium_gap(g, mode="rebuild")
        )
        assert find_deletion_criticality_violation(
            g, mode="repair"
        ) == find_deletion_criticality_violation(g, mode="rebuild")


class TestSerialAudits:
    # Parallelism lives at the fleet grain (DESIGN.md §5): an audit is one
    # serial job and has no worker-count knob to shard it.
    @pytest.mark.parametrize("name", [
        "find_swap_violation",
        "is_equilibrium",
        "find_sum_violation",
        "is_sum_equilibrium",
        "sum_equilibrium_gap",
        "find_max_swap_violation",
        "find_deletion_criticality_violation",
        "is_deletion_critical",
        "is_max_equilibrium",
    ])
    def test_audit_takes_no_workers(self, name):
        audit = getattr(equilibrium, name)
        assert "workers" not in inspect.signature(audit).parameters
        with pytest.raises(TypeError):
            audit(star_graph(5), workers=2)
        assert audit(star_graph(5)) in (None, True, 0.0)


class TestIncrementalApply:
    def _random_legal_swap(self, adj, rng) -> Swap | None:
        n = adj.n
        for _ in range(50):
            v = int(rng.integers(0, n))
            nbrs = sorted(adj.neighbors(v))
            if not nbrs:
                continue
            w = int(rng.choice(nbrs))
            add = int(rng.integers(0, n))
            if add in (v, w):
                continue
            return Swap(v, w, add)
        return None

    @pytest.mark.parametrize("seed", range(12))
    def test_matrix_stays_exact_across_swap_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        g = (
            random_tree(n, seed + 100)
            if seed % 2
            else random_connected_gnm(
                n, min(n * (n - 1) // 2, 2 * n), seed + 100
            )
        )
        engine = DistanceEngine(g)
        for _ in range(8):
            swap = self._random_legal_swap(engine.adjacency, rng)
            if swap is None:
                break
            before = engine.dm.copy()
            changed = engine.apply_swap(swap)
            fresh = lift_distances(distance_matrix(engine.graph))
            assert np.array_equal(engine.dm, fresh)
            # soundness of the changed-row mask: unflagged rows unchanged
            quiet = ~changed
            assert np.array_equal(engine.dm[quiet], before[quiet])

    def test_pure_deletion_swap(self):
        g = cycle_graph(6).with_edges(add=[(0, 2)])
        engine = DistanceEngine(g)
        engine.apply_swap(Swap(0, 2, 1))  # add == existing neighbour: delete
        assert engine.graph.m == g.m - 1
        assert np.array_equal(
            engine.dm, lift_distances(distance_matrix(engine.graph))
        )

    def test_disconnecting_then_reconnecting_swap(self):
        g = path_graph(6)
        engine = DistanceEngine(g)
        engine.apply_swap(Swap(0, 1, 5))  # relocate the end edge
        assert engine.is_connected()
        assert np.array_equal(
            engine.dm, lift_distances(distance_matrix(engine.graph))
        )

    def test_cost_views(self):
        g = star_graph(7)
        engine = DistanceEngine(g)
        dm = lift_distances(distance_matrix(g))
        assert engine.cost(0, "sum") == float(dm[0].sum())
        assert engine.cost(1, "max") == float(dm[1].max())
        assert np.array_equal(engine.sum_costs(), dm.sum(axis=1))
        assert np.array_equal(engine.eccentricities(), dm.max(axis=1))

    def test_rejects_non_graph(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            DistanceEngine([(0, 1)])


class TestDynamicsEngineModes:
    @pytest.mark.parametrize("schedule", ["round_robin", "random", "greedy"])
    def test_incremental_reaches_verified_equilibrium(self, schedule):
        g = random_tree(12, seed=4)
        res = SwapDynamics(
            objective="sum", schedule=schedule, seed=2
        ).run(g)
        assert res.converged
        assert is_sum_equilibrium(res.graph, mode="rebuild")

    @pytest.mark.parametrize("objective", ["sum", "max"])
    def test_oracle_and_incremental_agree_on_equilibria(self, objective):
        from repro.core import is_max_equilibrium

        g = random_connected_gnm(10, 14, seed=6)
        check = is_sum_equilibrium if objective == "sum" else is_max_equilibrium
        for mode in ("incremental", "oracle"):
            res = SwapDynamics(
                objective=objective, seed=1, engine_mode=mode
            ).run(g)
            assert res.converged
            assert check(res.graph)

    def test_incremental_is_deterministic(self):
        g = cycle_graph(9)
        a = SwapDynamics(objective="sum", schedule="random", seed=11).run(g)
        b = SwapDynamics(objective="sum", schedule="random", seed=11).run(g)
        assert a.graph == b.graph
        assert a.steps == b.steps
        assert a.activations == b.activations

    def test_fixed_point_applies_no_moves(self):
        g = star_graph(8)
        res = SwapDynamics(objective="sum", seed=0).run(g)
        assert res.converged
        assert res.steps == 0
        assert res.graph == g

    def test_recording_traces_match_oracle_lengths(self):
        g = path_graph(8)
        inc = SwapDynamics(objective="sum", record=True, seed=0).run(g)
        assert len(inc.moves) == inc.steps
        assert len(inc.diameter_trace) == inc.steps + 1
        assert len(inc.social_cost_trace) == inc.steps + 1
        assert inc.social_cost_trace[-1] <= inc.social_cost_trace[0]
        assert all(math.isfinite(x) for x in inc.social_cost_trace)

    def test_unknown_engine_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SwapDynamics(engine_mode="quantum")
