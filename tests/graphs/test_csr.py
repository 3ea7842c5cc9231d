"""Unit tests for the CSR graph core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, InvalidEdgeError
from repro.graphs import CSRGraph

from ..conftest import connected_graphs, edge_lists


class TestConstruction:
    def test_empty_graph(self):
        g = CSRGraph(0, [])
        assert g.n == 0
        assert g.m == 0

    def test_isolated_vertices(self):
        g = CSRGraph(5, [])
        assert g.n == 5
        assert g.m == 0
        assert g.degrees().tolist() == [0] * 5

    def test_single_edge(self):
        g = CSRGraph(2, [(0, 1)])
        assert g.m == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_edge_orientation_is_irrelevant(self):
        a = CSRGraph(3, [(0, 1), (1, 2)])
        b = CSRGraph(3, [(1, 0), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_edges_are_canonical_and_sorted(self):
        g = CSRGraph(4, [(3, 1), (2, 0), (1, 0)])
        assert g.edges().tolist() == [[0, 1], [0, 2], [1, 3]]

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(-1, [])

    @pytest.mark.parametrize("n", [2.5, "3", None, True],
                             ids=["float", "str", "none", "bool"])
    def test_non_integer_vertex_count_rejected(self, n):
        with pytest.raises(GraphError, match="must be an integer"):
            CSRGraph(n, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdgeError):
            CSRGraph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidEdgeError):
            CSRGraph(3, [(0, 1), (1, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidEdgeError):
            CSRGraph(3, [(0, 3)])
        with pytest.raises(InvalidEdgeError):
            CSRGraph(3, [(-1, 0)])

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_integer_array_equals_pair_list(self, dtype):
        pairs = [(3, 1), (2, 0), (1, 0)]
        g = CSRGraph(4, np.array(pairs, dtype=dtype))
        assert g == CSRGraph(4, pairs)
        assert g.edges().dtype == np.int32
        assert CSRGraph(4, np.empty((0, 2), dtype=dtype)).m == 0

    @pytest.mark.parametrize("shape", [(3,), (0,), (2, 3), (2, 1), (1, 2, 2)])
    def test_integer_array_must_be_m_by_2(self, shape):
        arr = np.zeros(shape, dtype=np.int64)
        with pytest.raises(InvalidEdgeError, match=r"shape \(m, 2\)"):
            CSRGraph(4, arr)

    @pytest.mark.parametrize("pairs", [
        [(0, 4)], [(-1, 0)], [(2, 2)], [(0, 1), (1, 0)],
    ], ids=["out-of-range", "negative", "self-loop", "duplicate"])
    def test_integer_array_is_checked_like_pairs(self, pairs):
        with pytest.raises(InvalidEdgeError):
            CSRGraph(4, np.array(pairs, dtype=np.int64))


class TestAccessors:
    def test_neighbors_sorted(self):
        g = CSRGraph(5, [(2, 4), (2, 0), (2, 3)])
        assert g.neighbors(2).tolist() == [0, 3, 4]

    def test_degree_matches_neighbors(self):
        g = CSRGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_degrees_vector(self):
        g = CSRGraph(4, [(0, 1), (2, 3)])
        assert g.degrees().tolist() == [1, 1, 1, 1]

    def test_has_edge_false_for_self(self):
        g = CSRGraph(3, [(0, 1)])
        assert not g.has_edge(1, 1)

    def test_vertex_range_checked(self):
        g = CSRGraph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.degree(3)
        with pytest.raises(GraphError):
            g.neighbors(-1)

    def test_edge_set_round_trip(self):
        edges = {(0, 1), (1, 2), (0, 3)}
        g = CSRGraph(4, edges)
        assert g.edge_set() == frozenset(edges)

    def test_iter_edges_yields_python_ints(self):
        g = CSRGraph(3, [(0, 2)])
        (edge,) = list(g.iter_edges())
        assert edge == (0, 2)
        assert all(type(x) is int for x in edge)


class TestWithEdges:
    def test_add_edge(self):
        g = CSRGraph(3, [(0, 1)])
        g2 = g.with_edges(add=[(1, 2)])
        assert g2.m == 2
        assert g.m == 1  # immutability

    def test_remove_edge(self):
        g = CSRGraph(3, [(0, 1), (1, 2)])
        g2 = g.with_edges(remove=[(1, 2)])
        assert g2.m == 1
        assert not g2.has_edge(1, 2)

    def test_swap_via_with_edges(self):
        g = CSRGraph(4, [(0, 1), (1, 2)])
        g2 = g.with_edges(add=[(0, 3)], remove=[(0, 1)])
        assert g2.has_edge(0, 3) and not g2.has_edge(0, 1)

    def test_remove_missing_raises(self):
        g = CSRGraph(3, [(0, 1)])
        with pytest.raises(InvalidEdgeError):
            g.with_edges(remove=[(1, 2)])

    def test_add_existing_raises(self):
        g = CSRGraph(3, [(0, 1)])
        with pytest.raises(InvalidEdgeError):
            g.with_edges(add=[(1, 0)])

    def test_remove_then_add_same_edge(self):
        g = CSRGraph(3, [(0, 1)])
        g2 = g.with_edges(add=[(0, 1)], remove=[(0, 1)])
        assert g2 == g


def _reference_with_edges(g, add=(), remove=()):
    """The set-based ``with_edges`` the edge-key version replaced: every
    edge through one Python set, removals then additions, in order.  Its
    range check raises ``InvalidEdgeError``, as both versions now do."""

    def canon(u, v):
        u, v = int(u), int(v)
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise InvalidEdgeError(
                f"edge ({u}, {v}) out of range for n={g.n}"
            )
        if u == v:
            raise InvalidEdgeError(f"self-loop ({u}, {v}) not allowed")
        return (u, v) if u < v else (v, u)

    current = set(g.edge_set())
    for u, v in remove:
        e = canon(u, v)
        if e not in current:
            raise InvalidEdgeError(f"cannot remove missing edge {e}")
        current.discard(e)
    for u, v in add:
        e = canon(u, v)
        if e in current:
            raise InvalidEdgeError(f"cannot add existing edge {e}")
        current.add(e)
    return CSRGraph(g.n, current)


def _outcome(fn, *args, **kwargs):
    """A derived graph, or the error's type and message."""
    try:
        return fn(*args, **kwargs)
    except InvalidEdgeError as exc:
        return type(exc), str(exc)


@st.composite
def _edits(draw):
    """A connected graph plus add and remove lists drawn from its edges,
    its non-edges, self-loops and one step past either end of the range."""
    g = draw(connected_graphs(max_n=10))
    vertex = st.integers(min_value=-1, max_value=g.n)
    pair = st.one_of(
        st.sampled_from([tuple(e) for e in g.edges().tolist()]),
        st.tuples(vertex, vertex),
    )
    edits = st.lists(pair, max_size=4)
    return g, draw(edits), draw(edits)


class TestWithEdgesAgainstSetReference:
    """``with_edges`` is the one way a move derives the next graph, and
    both dynamics engines apply moves through it, so the dynamics oracle
    pair cannot catch a fault in it: this reference does."""

    @given(_edits())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_set_reference(self, case):
        g, add, remove = case
        expected = _outcome(_reference_with_edges, g, add=add, remove=remove)
        assert _outcome(g.with_edges, add=add, remove=remove) == expected

    @given(connected_graphs(max_n=10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_legal_edits_agree(self, g, data):
        edges = [tuple(e) for e in g.edges().tolist()]
        non_edges = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        remove = data.draw(st.lists(st.sampled_from(edges), unique=True))
        add = data.draw(
            st.lists(st.sampled_from(non_edges + remove), unique=True)
            if non_edges or remove else st.just([])
        )
        derived = g.with_edges(add=add, remove=remove)
        assert derived == _reference_with_edges(g, add=add, remove=remove)
        assert derived.m == g.m - len(remove) + len(add)

    @pytest.mark.parametrize("add, remove, message", [
        ([], [(1, 2)], "cannot remove missing edge (1, 2)"),
        ([], [(0, 1), (1, 0)], "cannot remove missing edge (0, 1)"),
        ([(1, 0)], [], "cannot add existing edge (0, 1)"),
        ([(0, 2), (2, 0)], [], "cannot add existing edge (0, 2)"),
        ([(1, 1)], [], "self-loop (1, 1) not allowed"),
        ([], [(2, 2)], "self-loop (2, 2) not allowed"),
        ([(0, 3)], [], "edge (0, 3) out of range for n=3"),
        ([], [(-1, 0)], "edge (-1, 0) out of range for n=3"),
    ], ids=["missing-removal", "repeated-removal", "existing-addition",
            "repeated-addition", "self-loop-add", "self-loop-remove",
            "out-of-range-add", "out-of-range-remove"])
    def test_errors_match_reference(self, add, remove, message):
        g = CSRGraph(3, [(0, 1)])
        expected = (InvalidEdgeError, message)
        assert _outcome(_reference_with_edges, g, add, remove) == expected
        assert _outcome(g.with_edges, add=add, remove=remove) == expected


class TestScipyBridge:
    def test_to_scipy_shape_and_symmetry(self):
        g = CSRGraph(4, [(0, 1), (1, 2), (2, 3)])
        mat = g.to_scipy()
        assert mat.shape == (4, 4)
        dense = mat.toarray()
        assert (dense == dense.T).all()
        assert dense.sum() == 2 * g.m


class TestCSRInvariants:
    @given(edge_lists())
    @settings(max_examples=80, deadline=None)
    def test_indptr_indices_consistency(self, nl):
        n, edges = nl
        g = CSRGraph(n, edges)
        assert g.indptr.shape == (n + 1,)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == 2 * g.m
        assert (np.diff(g.indptr) >= 0).all()
        # Adjacency symmetric: u in N(v) iff v in N(u).
        for u, v in g.iter_edges():
            assert v in g.neighbors(u)
            assert u in g.neighbors(v)

    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, nl):
        n, edges = nl
        g = CSRGraph(n, edges)
        assert int(g.degrees().sum()) == 2 * g.m

    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_equality_independent_of_edge_order(self, nl):
        n, edges = nl
        g1 = CSRGraph(n, edges)
        g2 = CSRGraph(n, list(reversed([(v, u) for u, v in edges])))
        assert g1 == g2
        assert hash(g1) == hash(g2)
