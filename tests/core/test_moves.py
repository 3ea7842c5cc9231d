"""Swap move vocabulary tests."""

import pytest

from repro.errors import IllegalSwapError
from repro.core import Swap, swapped_graph
from repro.graphs import CSRGraph, path_graph


class TestValidation:
    def test_valid_swap(self):
        Swap(0, 1, 3).validate(path_graph(4))

    def test_identity_rejected(self):
        with pytest.raises(IllegalSwapError):
            Swap(0, 1, 1).validate(path_graph(4))

    def test_self_loop_rejected(self):
        with pytest.raises(IllegalSwapError):
            Swap(0, 1, 0).validate(path_graph(4))
        with pytest.raises(IllegalSwapError):
            Swap(1, 1, 2).validate(path_graph(4))

    def test_missing_edge_rejected(self):
        with pytest.raises(IllegalSwapError):
            Swap(0, 2, 3).validate(path_graph(4))

    def test_out_of_range_rejected(self):
        with pytest.raises(IllegalSwapError):
            Swap(0, 1, 9).validate(path_graph(4))


class TestApplication:
    def test_swapped_graph_relocation(self):
        g = path_graph(4)
        g2 = swapped_graph(g, Swap(0, 1, 3))
        assert g2.has_edge(0, 3)
        assert not g2.has_edge(0, 1)
        assert g2.m == g.m

    def test_swapped_graph_deletion(self):
        g = CSRGraph(4, [(0, 1), (0, 2), (2, 3)])
        g2 = swapped_graph(g, Swap(0, 1, 2))  # 2 already a neighbour
        assert g2.m == 2
        assert not g2.has_edge(0, 1)

    @pytest.mark.parametrize("swap", [
        Swap(0, 2, 1),  # drops a missing edge
        Swap(0, 1, 1),  # identity
        Swap(0, 1, 0),  # self-loop
        Swap(0, 1, 3),  # out of range
    ], ids=["missing-drop", "identity", "self-loop", "out-of-range"])
    def test_swapped_graph_validates(self, swap):
        g = CSRGraph(3, [(0, 1)])
        with pytest.raises(IllegalSwapError):
            swapped_graph(g, swap)
        assert g == CSRGraph(3, [(0, 1)])  # graphs are never mutated

    def test_as_swap_dataclass_semantics(self):
        assert Swap(1, 2, 3) == Swap(1, 2, 3)
        assert Swap(1, 2, 3) != Swap(1, 3, 2)
