"""Equilibrium auditor tests — the paper's definitions, checked on knowns."""

import math

import pytest
from hypothesis import given, settings

from repro.errors import DisconnectedGraphError
from repro.core import (
    find_deletion_criticality_violation,
    find_insertion_violation,
    find_max_swap_violation,
    find_sum_violation,
    is_deletion_critical,
    is_insertion_stable,
    is_k_insertion_stable,
    is_max_equilibrium,
    is_sum_equilibrium,
    k_insertion_witness,
    sum_equilibrium_gap,
    swapped_graph,
)
from repro.constructions import (
    diagonal_torus,
    double_star,
    rotated_torus,
    standard_torus,
)
from repro.graphs import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from ..conftest import connected_graphs


class TestBaseDmPassThrough:
    """Audits accept a precomputed base_dm (raw or lifted) and agree exactly."""

    @pytest.mark.parametrize("mode", ["batched", "rebuild"])
    def test_violation_identical_with_base_dm(self, mode):
        from repro.core import find_swap_violation, lift_distances
        from repro.graphs import distance_matrix, random_connected_gnm

        g = random_connected_gnm(12, 20, seed=4)
        raw = distance_matrix(g)
        plain = find_swap_violation(g, "sum", mode=mode)
        assert plain is not None  # dense random graphs are not at rest
        for dm in (raw, lift_distances(raw)):
            assert find_swap_violation(g, "sum", mode=mode, base_dm=dm) == plain

    def test_is_equilibrium_with_base_dm_and_criticality(self):
        from repro.core import is_equilibrium, lift_distances
        from repro.graphs import distance_matrix

        g = cycle_graph(5)
        dm = lift_distances(distance_matrix(g))
        assert is_equilibrium(g, "max", base_dm=dm) == is_equilibrium(g, "max")
        assert is_equilibrium(g, "sum", base_dm=dm) == is_equilibrium(g, "sum")

    def test_disconnected_base_dm_raises(self):
        from repro.core import find_swap_violation, lift_distances
        from repro.graphs import distance_matrix

        g = CSRGraph(4, [(0, 1), (2, 3)])
        dm = lift_distances(distance_matrix(g))
        with pytest.raises(DisconnectedGraphError):
            find_swap_violation(g, "sum", base_dm=dm)


class TestSumEquilibrium:
    def test_star_is_equilibrium(self):
        assert is_sum_equilibrium(star_graph(8))

    def test_complete_is_equilibrium(self):
        assert is_sum_equilibrium(complete_graph(6))

    def test_path_is_not(self):
        v = find_sum_violation(path_graph(6))
        assert v is not None
        assert v.improvement > 0
        assert v.kind == "sum-swap"

    def test_violation_is_real(self):
        # Applying the reported violation must actually improve the mover.
        from repro.core import sum_cost

        g = cycle_graph(9)
        v = find_sum_violation(g)
        assert v is not None
        g2 = swapped_graph(g, v.as_swap())
        assert sum_cost(g2, v.vertex) == v.after < v.before

    def test_tiny_graphs_trivially_stable(self):
        assert is_sum_equilibrium(CSRGraph(1, []))
        assert is_sum_equilibrium(CSRGraph(2, [(0, 1)]))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            is_sum_equilibrium(CSRGraph(3, [(0, 1)]))

    @pytest.mark.parametrize("mode", ["batched", "rebuild"])
    def test_gap_rejects_disconnected_two_vertex_graph(self, mode):
        # Regression: the n <= 2 shortcut used to answer 0.0 before any
        # connectivity check, unlike every other audit.
        with pytest.raises(DisconnectedGraphError):
            sum_equilibrium_gap(CSRGraph(2, []), mode=mode)

    def test_gap_zero_at_equilibrium(self):
        assert sum_equilibrium_gap(star_graph(7)) == 0.0

    def test_gap_positive_off_equilibrium(self):
        gap = sum_equilibrium_gap(path_graph(7))
        assert gap > 0

    def test_gap_matches_best_violation(self):
        from repro.core import best_swap

        g = path_graph(6)
        gap = sum_equilibrium_gap(g)
        best = max(
            best_swap(g, v, "sum").improvement for v in range(g.n)
        )
        assert gap == best

    @given(connected_graphs(min_n=3, max_n=10))
    @settings(max_examples=30, deadline=None)
    def test_diameter_2_graphs_are_sum_equilibria(self, g):
        # Lemma 6 consequence: diameter <= 2 implies sum equilibrium.
        from repro.graphs import diameter

        if diameter(g) <= 2:
            assert is_sum_equilibrium(g)


class TestMaxEquilibrium:
    def test_torus_is_max_equilibrium(self):
        assert is_max_equilibrium(rotated_torus(3))

    def test_standard_torus_is_not(self):
        assert not is_max_equilibrium(standard_torus(6, 6))

    def test_double_star_is_max_equilibrium(self):
        assert is_max_equilibrium(double_star(2, 2))
        assert is_max_equilibrium(double_star(3, 5))

    def test_single_leaf_double_star_is_not(self):
        assert not is_max_equilibrium(double_star(1, 2))

    def test_star_is_max_equilibrium(self):
        assert is_max_equilibrium(star_graph(6))

    def test_path_fails_swap_condition(self):
        assert find_max_swap_violation(path_graph(6)) is not None

    def test_violation_improves_ecc(self):
        from repro.core import local_diameter

        g = path_graph(7)
        v = find_max_swap_violation(g)
        assert v is not None
        g2 = swapped_graph(g, v.as_swap())
        assert local_diameter(g2, v.vertex) == v.after < v.before


class TestDeletionCriticality:
    def test_cycle_with_chord_not_critical(self):
        # The chord's deletion leaves eccs unchanged or the chord is
        # extraneous for one endpoint.
        g = cycle_graph(6).with_edges(add=[(0, 2)])
        assert not is_deletion_critical(g)

    def test_tree_is_deletion_critical(self):
        # Removing any tree edge disconnects -> ecc becomes inf (> any).
        assert is_deletion_critical(path_graph(5))
        assert is_deletion_critical(star_graph(6))

    def test_torus_is_deletion_critical(self):
        assert is_deletion_critical(rotated_torus(4))

    def test_violation_reports_edge(self):
        g = cycle_graph(6).with_edges(add=[(0, 2)])
        v = find_deletion_criticality_violation(g)
        assert v is not None
        assert v.kind == "deletion"
        assert v.after <= v.before

    def test_complete_graph_is_deletion_critical(self):
        # Removing any K_n edge lifts both endpoints' ecc from 1 to 2.
        assert is_deletion_critical(complete_graph(4))


class TestInsertionStability:
    def test_torus_is_insertion_stable(self):
        assert is_insertion_stable(rotated_torus(4))

    def test_path_is_not(self):
        v = find_insertion_violation(path_graph(5))
        assert v is not None
        assert v.kind == "insertion"

    def test_complete_graph_vacuously_stable(self):
        assert is_insertion_stable(complete_graph(5))

    def test_insertion_violation_is_real(self):
        g = path_graph(6)
        v = find_insertion_violation(g)
        added = g.with_edges(add=[(v.vertex, v.add)])
        from repro.core import local_diameter

        assert local_diameter(added, v.vertex) == v.after < v.before


class TestKInsertionStability:
    def test_torus_2d_is_1_stable_unstable_at_2(self):
        g = rotated_torus(4)
        assert is_k_insertion_stable(g, 1, vertices=[0])
        assert not is_k_insertion_stable(g, 2, vertices=[0])

    def test_torus_3d_meets_papers_d_minus_1_guarantee(self):
        # The paper claims stability under d-1 = 2 insertions; at small side
        # lengths the construction is in fact even more stable (no claim is
        # violated — the guarantee is a lower bound on stability).
        g = diagonal_torus(3, 3)
        assert is_k_insertion_stable(g, 2, vertices=[0])

    def test_torus_4d_meets_papers_d_minus_1_guarantee(self):
        g = diagonal_torus(2, 4)
        assert is_k_insertion_stable(g, 3, vertices=[0])

    def test_witness_actually_improves(self):
        from repro.core import local_diameter

        g = rotated_torus(4)
        witness = k_insertion_witness(g, 0, 2)
        assert witness is not None and len(witness) <= 2
        added = g.with_edges(add=[(0, a) for a in witness])
        assert local_diameter(added, 0) < local_diameter(g, 0)

    def test_low_eccentricity_always_stable(self):
        assert k_insertion_witness(star_graph(6), 0, 3) is None

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            k_insertion_witness(rotated_torus(3), 0, 0)
