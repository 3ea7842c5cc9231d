"""Dynamics engine tests: convergence, schedules, instrumentation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, DisconnectedGraphError
from repro.core import (
    SwapDynamics,
    is_max_equilibrium,
    is_sum_equilibrium,
    lift_distances,
    resolve_cost_model,
)
from repro.graphs import (
    CSRGraph,
    cycle_graph,
    distance_matrix,
    path_graph,
    random_connected_gnm,
    random_tree,
    total_pairwise_distance,
)
from repro.theory import is_star


class TestConfiguration:
    def test_bad_objective(self):
        with pytest.raises(ConfigurationError):
            SwapDynamics(objective="median")

    def test_bad_schedule(self):
        with pytest.raises(ConfigurationError):
            SwapDynamics(schedule="chaotic")

    def test_bad_responder(self):
        with pytest.raises(ConfigurationError):
            SwapDynamics(responder="psychic")

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            SwapDynamics(max_steps=0)

    def test_disconnected_start_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            SwapDynamics().run(CSRGraph(3, [(0, 1)]))


class TestSumConvergence:
    def test_tree_converges_to_star(self):
        # Theorem 1 in motion: swaps preserve the edge count and cannot
        # disconnect, so trees stay trees and must end at the star.
        res = SwapDynamics(objective="sum", seed=0).run(random_tree(14, seed=2))
        assert res.converged
        assert is_star(res.graph)
        assert is_sum_equilibrium(res.graph)

    def test_path_converges(self):
        res = SwapDynamics(objective="sum", seed=1).run(path_graph(10))
        assert res.converged
        assert is_sum_equilibrium(res.graph)

    def test_equilibrium_input_is_fixed_point(self):
        from repro.graphs import star_graph

        g = star_graph(8)
        res = SwapDynamics(objective="sum", seed=0).run(g)
        assert res.converged
        assert res.steps == 0
        assert res.graph == g

    @pytest.mark.parametrize("schedule", ["round_robin", "random", "greedy"])
    def test_all_schedules_converge_on_small_tree(self, schedule):
        res = SwapDynamics(
            objective="sum", schedule=schedule, seed=7
        ).run(random_tree(10, seed=3))
        assert res.converged
        assert is_sum_equilibrium(res.graph)

    @pytest.mark.parametrize("responder", ["best", "first"])
    def test_both_responders_converge(self, responder):
        res = SwapDynamics(
            objective="sum", responder=responder, seed=9, max_steps=5000
        ).run(cycle_graph(8))
        assert res.converged
        assert is_sum_equilibrium(res.graph)


class TestMaxConvergence:
    def test_max_dynamics_reach_max_equilibrium(self):
        res = SwapDynamics(objective="max", seed=4).run(random_tree(10, seed=6))
        assert res.converged
        # Best-responder max dynamics apply neutral deletions, so the
        # terminal graph satisfies the full definition incl. criticality.
        assert is_max_equilibrium(res.graph)

    def test_extraneous_chord_gets_deleted(self):
        g = cycle_graph(6).with_edges(add=[(0, 2)])
        res = SwapDynamics(objective="max", seed=0).run(g)
        assert res.converged
        assert is_max_equilibrium(res.graph)
        assert res.graph.m < g.m  # something extraneous was dropped


class TestInstrumentation:
    def test_traces_recorded(self):
        res = SwapDynamics(objective="sum", record=True, seed=0).run(
            path_graph(8)
        )
        assert len(res.moves) == res.steps
        # One snapshot at start plus one per applied move.
        assert len(res.diameter_trace) == res.steps + 1
        assert len(res.social_cost_trace) == res.steps + 1

    def test_traces_absent_without_recording(self):
        res = SwapDynamics(objective="sum", record=False, seed=0).run(
            path_graph(8)
        )
        assert res.moves == []

    def test_budget_exhaustion_reported(self):
        res = SwapDynamics(objective="sum", max_steps=1, seed=0).run(
            path_graph(12)
        )
        assert not res.converged
        assert res.steps == 1

    def test_determinism(self):
        a = SwapDynamics(objective="sum", schedule="random", seed=11).run(
            cycle_graph(9)
        )
        b = SwapDynamics(objective="sum", schedule="random", seed=11).run(
            cycle_graph(9)
        )
        assert a.graph == b.graph
        assert a.steps == b.steps

    def test_edge_count_preserved_by_sum_dynamics(self):
        g = cycle_graph(10)
        res = SwapDynamics(objective="sum", seed=2).run(g)
        assert res.graph.m == g.m  # sum agents never delete

    def test_final_dm_matches_final_graph(self):
        g = random_tree(12, seed=6)
        res = SwapDynamics(objective="sum", seed=1).run(g)
        expected = lift_distances(distance_matrix(res.graph))
        assert np.array_equal(res.final_dm, expected)
        oracle = SwapDynamics(
            objective="sum", seed=1, engine_mode="oracle"
        ).run(g)
        assert oracle.final_dm is None

    def test_exhausted_distinguishes_budget_from_cycle(self):
        res = SwapDynamics(objective="sum", max_steps=1, seed=0).run(
            path_graph(12)
        )
        assert res.exhausted
        assert not res.converged and not res.cycle_detected
        done = SwapDynamics(objective="sum", seed=0).run(path_graph(12))
        assert done.converged and not done.exhausted


class TestCertified:
    """``certified``: the batched certificate ended the run."""

    def test_batched_best_response_run_is_certified(self):
        res = SwapDynamics(objective="sum", seed=0).run(random_tree(12, 3))
        assert res.converged and res.certified

    @pytest.mark.parametrize("setting", [
        {"engine_mode": "oracle"},
        {"schedule": "greedy"},
        {"responder": "first"},
    ], ids=["oracle", "greedy", "first"])
    def test_runs_converged_without_the_certificate(self, setting):
        res = SwapDynamics(objective="sum", seed=0, **setting).run(
            random_tree(12, 3)
        )
        assert res.converged and not res.certified

    def test_unconverged_runs_are_not_certified(self):
        exhausted = SwapDynamics(objective="sum", max_steps=1, seed=0).run(
            path_graph(12)
        )
        assert exhausted.exhausted and not exhausted.certified
        cycled = SwapDynamics(
            "interest-sum:k=3,seed=0", seed=0, max_steps=500
        ).run(random_connected_gnm(8, 12, 0))
        assert cycled.cycle_detected and not cycled.certified

    def test_excluded_from_equality(self):
        from dataclasses import replace

        res = SwapDynamics(objective="sum", seed=0).run(random_tree(12, 3))
        assert replace(res, certified=not res.certified) == res


class TestPerRunRNG:
    """A second run() on the same instance must replay the seed (ISSUE 4)."""

    @pytest.mark.parametrize("schedule", ["random", "round_robin"])
    @pytest.mark.parametrize("responder", ["best", "first"])
    def test_two_runs_on_one_instance_identical(self, schedule, responder):
        g = random_connected_gnm(10, 16, seed=8)
        dyn = SwapDynamics(
            objective="sum", schedule=schedule, responder=responder,
            record=True, seed=11, max_steps=2000,
        )
        a = dyn.run(g)
        b = dyn.run(g)
        assert a.graph == b.graph
        assert a.steps == b.steps
        assert a.activations == b.activations
        assert a.moves == b.moves

    def test_rerun_matches_fresh_instance(self):
        g = random_connected_gnm(10, 16, seed=8)
        dyn = SwapDynamics(
            objective="sum", schedule="random", responder="first", seed=7
        )
        dyn.run(g)  # burn a run: must not perturb the next one
        again = dyn.run(g)
        fresh = SwapDynamics(
            objective="sum", schedule="random", responder="first", seed=7
        ).run(g)
        assert again.graph == fresh.graph
        assert again.moves == fresh.moves
        assert again.steps == fresh.steps

    def test_generator_seed_keeps_caller_owned_stream(self):
        # The documented opt-out: an explicit Generator is used as-is, so
        # successive runs continue one stream instead of replaying it.
        g = random_connected_gnm(10, 16, seed=8)
        rng = np.random.default_rng(3)
        dyn = SwapDynamics(
            objective="sum", schedule="random", responder="first", seed=rng
        )
        assert dyn.run(g).converged
        assert dyn.run(g).converged  # stream advanced; still reproducible
        # ... as a pair: replaying both runs from a fresh generator matches.
        rng2 = np.random.default_rng(3)
        dyn2 = SwapDynamics(
            objective="sum", schedule="random", responder="first", seed=rng2
        )
        assert dyn2.run(g).graph == SwapDynamics(
            objective="sum", schedule="random", responder="first",
            seed=np.random.default_rng(3),
        ).run(g).graph
        assert dyn2.run(g).converged


def _model_social_cost(graph, spec):
    model = resolve_cost_model(spec, graph.n)
    return model.social_cost(lift_distances(distance_matrix(graph)))


class TestModelCorrectTraces:
    """Traces must record the resolved model's social cost (ISSUE 4)."""

    VARIANTS = ["sum", "max", "interest-sum:k=3,seed=2", "budget-sum:cap=3"]

    @pytest.mark.parametrize("spec", VARIANTS)
    def test_trace_endpoints_are_model_social_costs(self, spec):
        g = random_connected_gnm(10, 16, seed=5)
        res = SwapDynamics(
            objective=spec, record=True, seed=3, max_steps=300
        ).run(g)
        trace = res.social_cost_trace
        assert trace[0] == _model_social_cost(g, spec)
        assert trace[-1] == _model_social_cost(res.graph, spec)

    def test_sum_trace_still_total_pairwise_distance(self):
        # The historical recording (bit-compatible for the paper's game).
        g = random_tree(12, seed=4)
        res = SwapDynamics(objective="sum", record=True, seed=0).run(g)
        assert res.social_cost_trace[0] == total_pairwise_distance(g)
        assert res.social_cost_trace[-1] == total_pairwise_distance(res.graph)

    def test_max_trace_is_sum_of_eccentricities(self):
        g = random_tree(12, seed=4)
        res = SwapDynamics(objective="max", record=True, seed=0).run(g)
        dm = lift_distances(distance_matrix(res.graph))
        assert res.social_cost_trace[-1] == float(dm.max(axis=1).sum())
        # ... which differs from the pairwise total the old code recorded.
        assert res.social_cost_trace[-1] != total_pairwise_distance(res.graph)

    def test_interest_trace_is_sum_of_agent_costs(self):
        spec = "interest-sum:k=3,seed=2"
        g = random_connected_gnm(10, 16, seed=5)
        res = SwapDynamics(objective=spec, record=True, seed=3).run(g)
        model = resolve_cost_model(spec, 10)
        dm = lift_distances(distance_matrix(res.graph))
        expected = sum(model.row_cost(v, dm[v]) for v in range(10))
        assert res.social_cost_trace[-1] == expected
        assert not math.isinf(expected)
