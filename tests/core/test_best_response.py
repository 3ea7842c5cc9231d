"""Best-response computation tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import best_swap, find_sum_violation, first_improving_swap, sum_cost
from repro.core.moves import Swap
from repro.graphs import CSRGraph, cycle_graph, path_graph, star_graph

from ..conftest import connected_graphs


class TestBestSwap:
    def test_no_move_at_equilibrium(self):
        g = star_graph(7)
        for v in range(g.n):
            br = best_swap(g, v, "sum")
            assert br.swap is None
            assert br.improvement == 0.0

    def test_path_end_moves_to_center(self):
        g = path_graph(7)
        br = best_swap(g, 0, "sum")
        assert br.swap is not None
        assert br.after < br.before
        # The optimal relocation target for an end leaf is the tree median.
        assert br.swap.add == 3

    def test_best_is_at_least_first(self):
        g = cycle_graph(9)
        for v in range(g.n):
            best = best_swap(g, v, "sum")
            first = first_improving_swap(g, v, "sum", seed=1)
            assert best.improvement >= first.improvement

    @given(connected_graphs(min_n=3, max_n=10), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_best_swap_is_exact(self, g, v):
        # Exhaustive comparison against copy-mode evaluation of every swap.
        from repro.core import swap_cost_after

        v = v % g.n
        br = best_swap(g, v, "sum")
        best_direct = math.inf
        for w in map(int, g.neighbors(v)):
            for w2 in range(g.n):
                if w2 in (v, w):
                    continue
                c = swap_cost_after(g, Swap(v, w, w2), "sum", "copy")
                best_direct = min(best_direct, c)
        base = sum_cost(g, v)
        if best_direct < base:
            assert br.swap is not None
            assert br.after == best_direct
        else:
            assert br.swap is None


class TestDeletionTieBreaking:
    def test_extraneous_edge_deleted_under_max(self):
        # C6 plus a long chord: the chord does not change the endpoint
        # eccentricities, so max agents prefer deleting it.
        g = cycle_graph(6).with_edges(add=[(0, 2)])
        br = best_swap(g, 0, "max")
        assert br.swap is not None
        assert br.is_deletion

    def test_sum_agents_never_delete(self):
        g = cycle_graph(6).with_edges(add=[(0, 2)])
        br = best_swap(g, 0, "sum")
        # Deleting strictly increases the mover's sum, so either no move or
        # a relocation.
        if br.swap is not None:
            assert not br.is_deletion


class TestFirstImproving:
    def test_finds_improvement_when_one_exists(self):
        g = path_graph(8)
        assert find_sum_violation(g) is not None
        br = first_improving_swap(g, 0, "sum", seed=3)
        assert br.swap is not None
        assert br.after < br.before

    def test_none_at_equilibrium(self):
        g = star_graph(6)
        for v in range(g.n):
            assert first_improving_swap(g, v, "sum", seed=0).swap is None

    def test_deterministic_given_seed(self):
        g = cycle_graph(10)
        a = first_improving_swap(g, 0, "sum", seed=42)
        b = first_improving_swap(g, 0, "sum", seed=42)
        assert a.swap == b.swap

    def test_reported_costs_match_application(self):
        from repro.core import swapped_graph

        g = cycle_graph(10)
        br = first_improving_swap(g, 0, "sum", seed=5)
        assert br.swap is not None
        g2 = swapped_graph(g, br.swap)
        assert sum_cost(g2, 0) == br.after
