"""Removal-row repair kernel vs the fresh-APSP oracle.

The distance engine's correctness reduces to one claim: for every edge
``e`` of every graph, :func:`removal_matrix_repair` equals APSP of the
rebuilt graph ``G − e``.  These tests check the claim exhaustively on the
deterministic battery (trees / sparse / dense, so bridges and disconnecting
removals occur by construction), on Hypothesis-driven graphs, on the
hand-picked degenerate cases and on high-diameter cycles, spiders and
paths the n ≤ 14 battery lacks, along with the exactness of the
affected-source mask (and of the predecessor-count rows it reads), the
bridge lemma the one removal builder rests on (every row is affected
exactly when the graph is connected and ``G − e`` is not, and then the far
side is read off the base matrix), the refusal to write a removal built
for only some of its affected rows, and the one row kernel, the union BFS,
at its default and at narrow and uneven frontier block widths: its compiled
product against scipy's public one, its two exits, the count of products it
runs and of scipy matrices a dynamics run builds, and its typed refusal of
out-of-range jobs.
"""

import numpy as np
import pytest
import scipy.sparse._sparsetools as sparsetools
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constructions.spider import SpiderShape, spider_graph
from repro.core import SwapDynamics, seed_graph
from repro.core.costs import lift_distances
from repro.errors import GraphError
from repro.graphs import (
    CSRGraph,
    INT_INF_DISTANCE,
    batched_removal_rows_multi,
    cycle_graph,
    distance_matrix,
    path_graph,
    predecessor_counts,
    removal_affected_sources,
    removal_matrix_repair,
    star_graph,
)
from repro.graphs.repair import edge_removal

from ..conftest import connected_graphs, edge_lists, graph_battery

BATTERY = graph_battery()


#: High-diameter inputs the n ≤ 14 random battery lacks — long cycles with
#: and without one chord, a spider (every edge a bridge) whose legs run
#: five edges from the hub, and a 12-path (diameter 11, a chain of eleven
#: bridges) — plus the C8-plus-chord graph.
HIGH_DIAMETER = {
    "C8+chord": cycle_graph(8).with_edges(add=[(0, 4)]),
    "C16": cycle_graph(16),
    "C17": cycle_graph(17),
    "C16+chord": cycle_graph(16).with_edges(add=[(0, 8)]),
    "C20+chord": cycle_graph(20).with_edges(add=[(3, 11)]),
    "spider": spider_graph(SpiderShape(legs=3, path_len=4, blob=2)),
    "P12": path_graph(12),
}

_K4 = [(x, y) for x in range(4) for y in range(x + 1, 4)]

#: Every fourth battery graph, the high-diameter inputs, and a bridge
#: inside one component of a disconnected graph (K4 - bridge - K4 beside a
#: K2): removing it changes every row of its component but not the K2's.
AFFECTED_INPUTS = {
    **{str(idx): BATTERY[idx] for idx in range(0, len(BATTERY), 4)},
    **HIGH_DIAMETER,
    "K4-bridge-K4+K2": CSRGraph(
        10, _K4 + [(x + 4, y + 4) for x, y in _K4] + [(3, 4), (8, 9)]
    ),
}


def _oracle(g: CSRGraph, edge) -> np.ndarray:
    return lift_distances(distance_matrix(g.with_edges(remove=[edge])))


def _check_bridge_lemma(g: CSRGraph) -> None:
    """Every row is affected iff ``g`` is connected and ``g − e`` is not;
    then the builder's far side is ``b``'s component in ``g − e``, and
    otherwise it returns the affected rows of ``g − e``."""
    base = lift_distances(distance_matrix(g))
    connected = bool((base < INT_INF_DISTANCE).all())
    for a, b in g.iter_edges():
        after = _oracle(g, (a, b))
        mask = removal_affected_sources(g, base, (a, b))
        splits = bool((after >= INT_INF_DISTANCE).any())
        assert mask.all() == (connected and splits), (g.edges().tolist(), a, b)
        removal = edge_removal(g, base, (a, b))
        assert np.array_equal(removal.affected, mask)
        if mask.all():
            assert np.array_equal(removal.far, after[b] < INT_INF_DISTANCE)
            assert removal.sources is None and removal.rows is None
        else:
            assert removal.far is None
            assert np.array_equal(removal.sources, np.flatnonzero(mask))
            assert np.array_equal(removal.rows, after[mask])


class TestBatteryCrossValidation:
    def test_battery_is_large_enough(self):
        assert len(BATTERY) >= 200

    @pytest.mark.parametrize("idx", range(len(BATTERY)))
    def test_every_edge_removal_matches_oracle(self, idx):
        g = BATTERY[idx]
        base = lift_distances(distance_matrix(g))
        for edge in g.iter_edges():
            oracle = _oracle(g, edge)
            fast = removal_matrix_repair(g, base, edge)
            assert np.array_equal(fast, oracle), (g.edges().tolist(), edge)

    @pytest.mark.parametrize("name", list(AFFECTED_INPUTS))
    def test_affected_mask_is_exact(self, name):
        g = AFFECTED_INPUTS[name]
        base = lift_distances(distance_matrix(g))
        for edge in g.iter_edges():
            mask = removal_affected_sources(g, base, edge)
            truth = (_oracle(g, edge) != base).any(axis=1)
            assert np.array_equal(mask, truth), (g.edges().tolist(), edge)

    @pytest.mark.parametrize("name", list(AFFECTED_INPUTS))
    def test_every_row_affected_iff_the_edge_is_a_bridge(self, name):
        _check_bridge_lemma(AFFECTED_INPUTS[name])

    @pytest.mark.parametrize("name", list(AFFECTED_INPUTS))
    def test_predecessor_count_rows_match_full_table(self, name):
        # The affected-source rule reads the rows of an edge's endpoints.
        g = AFFECTED_INPUTS[name]
        base = lift_distances(distance_matrix(g))
        table = predecessor_counts(g, base)
        assert table.shape == (g.n, g.n)
        for edge in g.iter_edges():
            rows = predecessor_counts(g, base, edge)
            assert np.array_equal(rows, table[list(edge)]), edge


class TestHypothesisFuzz:
    @given(connected_graphs(min_n=2, max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_random_graph_random_edges(self, g):
        base = lift_distances(distance_matrix(g))
        for edge in list(g.iter_edges())[:6]:
            assert np.array_equal(
                removal_matrix_repair(g, base, edge), _oracle(g, edge)
            )

    @given(edge_lists(max_n=9))
    @settings(max_examples=30, deadline=None)
    def test_disconnected_base_graphs(self, ne):
        # The kernel must also be exact when the *base* graph is already
        # disconnected (rows with infinite entries).
        n, edges = ne
        g = CSRGraph(n, edges)
        base = lift_distances(distance_matrix(g))
        for edge in g.iter_edges():
            assert np.array_equal(
                removal_matrix_repair(g, base, edge), _oracle(g, edge)
            )

    @given(edge_lists(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_bridge_lemma_on_possibly_disconnected_graphs(self, ne):
        _check_bridge_lemma(CSRGraph(*ne))


class TestStructuredCases:
    def test_bridge_fast_path_on_paths(self):
        g = path_graph(9)
        base = lift_distances(distance_matrix(g))
        for edge in g.iter_edges():
            assert np.array_equal(
                removal_matrix_repair(g, base, edge), _oracle(g, edge)
            )

    def test_star_leaf_removal(self):
        g = star_graph(8)
        base = lift_distances(distance_matrix(g))
        assert np.array_equal(
            removal_matrix_repair(g, base, (0, 3)), _oracle(g, (0, 3))
        )

    def test_cycle_uses_batched_path(self):
        # Removing a cycle edge affects most sources; their rows come from
        # one union BFS.
        g = cycle_graph(12)
        base = lift_distances(distance_matrix(g))
        edge = (0, 11)
        assert np.array_equal(
            removal_matrix_repair(g, base, edge), _oracle(g, edge)
        )

    def test_batched_rows_directly(self):
        g = cycle_graph(10)
        sources = np.asarray([0, 3, 7])
        rows = batched_removal_rows_multi(
            g, np.full(3, 0), np.full(3, 9), sources
        )
        oracle = _oracle(g, (0, 9))
        assert np.array_equal(rows, oracle[sources])

    def test_tiny_graphs(self):
        for g in (CSRGraph(2, [(0, 1)]), CSRGraph(3, [(0, 1), (1, 2)])):
            base = lift_distances(distance_matrix(g))
            for edge in g.iter_edges():
                assert np.array_equal(
                    removal_matrix_repair(g, base, edge), _oracle(g, edge)
                )

    def test_high_degree_hub_batched_no_overflow(self):
        # Regression: the batched BFS once used int8 frontier accumulators,
        # which wrap when >= 128 frontier vertices share an unvisited
        # neighbour — the hub was never settled and its distances corrupted.
        leaves = list(range(4, 154))  # 150 leaves, all adjacent to b and h
        hub = 154
        chain = list(range(155, 165))
        edges = [(0, 1), (0, 2), (2, 3), (3, 1)]  # a=0, b=1 + alternate path
        edges += [(1, leaf) for leaf in leaves]
        edges += [(hub, leaf) for leaf in leaves]
        edges += [(0, chain[0])]
        edges += list(zip(chain, chain[1:]))
        g = CSRGraph(165, edges)
        base = lift_distances(distance_matrix(g))
        assert np.array_equal(
            removal_matrix_repair(g, base, (0, 1)), _oracle(g, (0, 1))
        )

    def test_missing_edge_rejected(self):
        g = path_graph(4)
        base = lift_distances(distance_matrix(g))
        with pytest.raises(GraphError):
            removal_matrix_repair(g, base, (0, 3))

    def test_restricted_removal_refuses_write(self):
        # A removal built for some of its affected rows holds only part of
        # G − e; its rows are still exact, but it cannot be written.
        g = cycle_graph(12)
        base = lift_distances(distance_matrix(g))
        edge = (0, 11)
        full = edge_removal(g, base, edge)
        wanted = np.zeros(g.n, dtype=bool)
        wanted[np.flatnonzero(full.affected)[::2]] = True
        part = edge_removal(g, base, edge, rows=wanted)
        assert np.array_equal(part.sources, np.flatnonzero(wanted))
        assert np.array_equal(part.rows, _oracle(g, edge)[wanted])
        with pytest.raises(GraphError):
            part.write(base.copy())
        # A mask covering every affected row, and any bridge, still write.
        covering = edge_removal(g, base, edge, rows=full.affected)
        assert np.array_equal(covering.write(base.copy()), _oracle(g, edge))
        tree = path_graph(6)
        tree_base = lift_distances(distance_matrix(tree))
        bridge = edge_removal(tree, tree_base, (2, 3), rows=wanted[:6])
        assert np.array_equal(
            bridge.write(tree_base.copy()), _oracle(tree, (2, 3))
        )


class TestHighDiameter:
    @pytest.mark.parametrize("name", list(HIGH_DIAMETER))
    def test_every_edge_removal_matches_oracle(self, name):
        g = HIGH_DIAMETER[name]
        base = lift_distances(distance_matrix(g))
        untouched = base.copy()
        for edge in g.iter_edges():
            fast = removal_matrix_repair(g, base, edge)
            assert np.array_equal(fast, _oracle(g, edge)), edge
            assert not np.shares_memory(fast, base)
        assert np.array_equal(base, untouched)

    @pytest.mark.parametrize("block_columns", [None, 1, 2, 3])
    @pytest.mark.parametrize("name", list(AFFECTED_INPUTS))
    def test_union_bfs_blocks_match_oracle(self, name, block_columns):
        # Jobs remove different edges: both endpoints of every edge plus
        # the vertex half-way round from its first endpoint.  Blocks mix
        # columns the removal cuts off (bridges, the K2 of the disconnected
        # input) with columns that reach every vertex, so both exits of the
        # level loop run.
        g = AFFECTED_INPUTS[name]
        edges = g.edges()
        a = np.repeat(edges[:, 0], 3)
        b = np.repeat(edges[:, 1], 3)
        sources = np.stack(
            [edges[:, 0], edges[:, 1], (edges[:, 0] + g.n // 2) % g.n], axis=1
        ).ravel()
        rows = batched_removal_rows_multi(
            g, a, b, sources, block_columns=block_columns
        )
        oracle = {edge: _oracle(g, edge) for edge in g.iter_edges()}
        for j, s in enumerate(sources):
            edge = (int(a[j]), int(b[j]))
            assert np.array_equal(rows[j], oracle[edge][s]), (edge, s)


def _compiled_product(g: CSRGraph, block: np.ndarray, out: np.ndarray):
    """The union BFS's level product: ``out += A @ block``, all int32."""
    ones = np.ones(g.indices.size, dtype=np.int32)
    sparsetools.csr_matvecs(
        g.n, g.n, block.shape[1], g.indptr, g.indices, ones, block.ravel(),
        out.reshape(-1),
    )


class TestUnionBfsKernel:
    """The compiled product the level loop calls, and the loop's exits."""

    @given(
        edge_lists(max_n=12),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example((1, []), 3, 0)
    @example((2, [(0, 1)]), 2, 1)
    @example((3, [(0, 2)]), 4, 2)  # vertex 1 isolated
    @settings(max_examples=60, deadline=None)
    def test_compiled_product_is_the_public_product(self, ne, k, seed):
        g = CSRGraph(*ne)
        block = np.random.default_rng(seed).integers(
            0, 2, size=(g.n, k), dtype=np.int32
        )
        out = np.zeros((g.n, k), dtype=np.int32)
        _compiled_product(g, block, out)
        assert np.array_equal(out, g.to_scipy() @ block)

    def test_compiled_product_adds_into_its_output(self):
        # The level loop zeroes its product buffer every level because the
        # compiled call accumulates; it must write the buffer in place.
        g = cycle_graph(6)
        block = np.eye(6, 2, dtype=np.int32)
        out = np.zeros((6, 2), dtype=np.int32)
        _compiled_product(g, block, out)
        _compiled_product(g, block, out)
        assert np.array_equal(out, 2 * (g.to_scipy() @ block))

    def test_full_reach_ends_the_sweep(self, monkeypatch):
        # Dropping (0, 15) from C16 leaves a path with 0 and 15 at its
        # ends: 15 levels reach every vertex of both columns, and no
        # sixteenth product runs to find nothing new.
        g = cycle_graph(16)
        calls = []
        product = sparsetools.csr_matvecs

        def counted(*args):
            calls.append(args[2])
            return product(*args)

        monkeypatch.setattr(sparsetools, "csr_matvecs", counted)
        rows = batched_removal_rows_multi(
            g, np.full(2, 0), np.full(2, 15), np.array([0, 15])
        )
        assert calls == [2] * 15
        oracle = _oracle(g, (0, 15))
        assert np.array_equal(rows, oracle[[0, 15]])

    def test_a_dynamics_run_builds_one_scipy_matrix(self, monkeypatch):
        # The union BFS reads the graph's own CSR arrays, so the only scipy
        # matrix a batched run builds is the one its initial APSP takes.
        built = []
        to_scipy = CSRGraph.to_scipy

        def counted(graph):
            built.append(graph)
            return to_scipy(graph)

        monkeypatch.setattr(CSRGraph, "to_scipy", counted)
        result = SwapDynamics("sum").run(seed_graph("sparse", 24, 0))
        assert result.converged and result.steps > 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "job",
        [(0, 1, -1), (0, 1, 5), (0, 5, 1), (-1, 0, 1)],
        ids=["negative-source", "source-past-n", "endpoint-past-n",
             "negative-endpoint"],
    )
    def test_out_of_range_jobs_raise(self, job):
        a, b, s = job
        with pytest.raises(GraphError, match="out of range"):
            batched_removal_rows_multi(path_graph(5), [a], [b], [s])
