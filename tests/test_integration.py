"""Cross-module integration tests: whole-pipeline behaviours.

These exercise the library the way the experiments do — dynamics feeding
auditors feeding analysis — asserting the paper-level invariants that no
single module owns.
"""

import math

import pytest

from repro.analysis import distance_uniformity, theorem13_transform
from repro.constructions import (
    polarity_graph,
    repaired_diameter3_witness,
    rotated_torus,
)
from repro.core import (
    SwapDynamics,
    census_experiment,
    is_max_equilibrium,
    is_sum_equilibrium,
    sum_equilibrium_gap,
)
from repro.experiments import run_fleet
from repro.games import (
    FabrikantGame,
    greedy_dynamics,
    owner_swap_stable,
    profile_from_graph,
    random_profile,
)
from repro.graphs import (
    diameter,
    eccentricities,
    random_connected_gnm,
    random_tree,
)
from repro.theory import (
    corollary11_holds,
    lemma2_holds,
    lemma3_holds,
    lemma10_holds,
)


class TestDynamicsToAudit:
    """Graphs produced by dynamics must satisfy everything the paper says
    about equilibria."""

    def test_sum_endpoints_satisfy_lemma10_and_cor11(self):
        for seed in (1, 2):
            g0 = random_connected_gnm(20, 30, seed=seed)
            res = SwapDynamics(objective="sum", seed=seed).run(g0)
            assert res.converged
            g = res.graph
            assert is_sum_equilibrium(g)
            assert sum_equilibrium_gap(g) == 0.0
            assert lemma10_holds(g, 0) is not None
            assert corollary11_holds(g)

    def test_max_endpoints_satisfy_lemma2_and_lemma3(self):
        for seed in (3, 4):
            g0 = random_connected_gnm(14, 20, seed=seed)
            res = SwapDynamics(objective="max", seed=seed).run(g0)
            if not res.converged:
                continue
            g = res.graph
            assert is_max_equilibrium(g)
            assert lemma2_holds(g)
            assert lemma3_holds(g)

    def test_census_diameters_below_theorem9_curve(self):
        from repro.analysis import theorem9_diameter_bound

        records = run_fleet(census_experiment(
            [12, 20], families=("tree", "sparse"), replicates=2, root_seed=17,
        ))
        for r in records:
            if r.converged:
                assert r.diameter_final <= theorem9_diameter_bound(r.n)


class TestEquilibriumZoo:
    """Every equilibrium family in the paper, all auditors at once."""

    @pytest.mark.parametrize(
        "factory,kind",
        [
            (lambda: polarity_graph(3), "sum"),
            (lambda: repaired_diameter3_witness(), "sum"),
            (lambda: rotated_torus(3), "max"),
        ],
    )
    def test_families(self, factory, kind):
        g = factory()
        if kind == "sum":
            assert is_sum_equilibrium(g)
        else:
            assert is_max_equilibrium(g)
            assert lemma2_holds(g)
            assert lemma3_holds(g)


class TestAlphaGameBridge:
    def test_alpha_equilibria_are_owner_swap_stable_for_all_alpha(self):
        # The uniform-treatment claim, end to end: for a spread of alpha
        # spanning both optimum regimes, greedy equilibria pass the
        # owner-restricted swap audit (the basic game's move).
        for alpha in (0.5, 1.5, 4.0, 32.0):
            game = FabrikantGame(7, alpha)
            res = greedy_dynamics(game, random_profile(7, 2, seed=8), seed=9)
            assert res.converged
            assert owner_swap_stable(game, res.profile)

    def test_star_is_equilibrium_in_both_games(self):
        # alpha-game Nash (alpha >= 1) AND basic-game sum equilibrium.
        from repro.games import is_nash_equilibrium
        from repro.graphs import star_graph

        star = star_graph(6)
        assert is_sum_equilibrium(star)
        game = FabrikantGame(6, 2.0)
        assert is_nash_equilibrium(game, profile_from_graph(star))


class TestUniformityPipeline:
    def test_torus_through_theorem13(self):
        g = rotated_torus(12)  # n=288, d=12 > 2 lg 288? 2*8.17=16.3: no —
        # premise unmet, but the pipeline must still run and the power
        # arithmetic must hold.
        res = theorem13_transform(g, p=0.5)
        assert res.almost_diameter == math.ceil(
            res.input_diameter / res.almost_power
        )
        assert 0 <= res.uniform_report.epsilon <= 1

    def test_tree_dynamics_then_uniformity(self):
        # Stars are maximally non-uniform at r=1 for the hub vs leaves;
        # the measurement must agree with closed form.
        res = SwapDynamics(objective="sum", seed=0).run(random_tree(16, seed=0))
        report = distance_uniformity(res.graph)
        n = res.graph.n
        # Star: at r=2 every leaf covers n-2, hub covers 0; at r=1 hub
        # covers n-1, leaves 1. Best min-coverage is max(1, ...) = 1/n at
        # r=1 vs 0 at r=2 -> epsilon = 1 - 1/n.
        assert report.epsilon == pytest.approx(1 - 1 / n)


class TestDeterminismEndToEnd:
    def test_census_bitwise_reproducible(self):
        a, b = (
            run_fleet(census_experiment(
                [10], families=("dense",), replicates=2, root_seed=42,
            ))
            for _ in range(2)
        )
        assert [(r.diameter_final, r.steps, r.m_final) for r in a] == [
            (r.diameter_final, r.steps, r.m_final) for r in b
        ]

    def test_experiment_tables_reproducible(self):
        from repro.bench import run_experiment

        t1 = run_experiment("poa-diameter", "quick")[0]
        t2 = run_experiment("poa-diameter", "quick")[0]
        assert t1.rows == t2.rows
