"""DistanceEngine and audit-surface tests.

The engine's maintained matrix must stay exact across applied swaps (the
changed-row mask sound), and the removal-matrix helpers must agree with the
rebuild oracle.  Fast-path-vs-oracle agreement of audits, best responses
and dynamics lives in the one differential harness, ``test_oracles.py``.
"""

import inspect
import sys

import numpy as np
import pytest

from repro.core import equilibrium
from repro.core import DistanceEngine, Swap, removal_distance_matrix
from repro.core.costs import INT_INF, lift_distances
from repro.core.moves import swapped_graph
from repro.graphs import (
    bfs_distances,
    batched_removal_rows_multi,
    cycle_graph,
    distance_matrix,
    path_graph,
    random_connected_gnm,
    random_tree,
    star_graph,
)


class TestRemovalMatrix:
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
    def _random_legal_swap(self, graph, rng) -> Swap | None:
        n = graph.n
        for _ in range(50):
            v = int(rng.integers(0, n))
            nbrs = graph.neighbors(v).tolist()
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
            swap = self._random_legal_swap(engine.graph, rng)
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
        assert (engine.dm < INT_INF).all()  # connected again
        assert np.array_equal(
            engine.dm, lift_distances(distance_matrix(engine.graph))
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_move_runs_no_bfs(self, seed, monkeypatch):
        # Every edge of a tree is a bridge: the removal builder reads its
        # far side off the matrix, so applying the move runs no BFS at all.
        g = random_tree(12, seed)
        v, w = (int(x) for x in g.edges()[seed])
        far = distance_matrix(g.with_edges(remove=[(v, w)]))[w] >= 0
        if far.sum() < 2:  # w is a leaf: move from its side instead
            v, w, far = w, v, ~far
        far[w] = False
        swap = Swap(v, w, int(np.flatnonzero(far)[0]))  # reconnects the tree
        expected = lift_distances(distance_matrix(swapped_graph(g, swap)))
        engine = DistanceEngine(g)
        with monkeypatch.context() as patch:
            _forbid(patch, bfs_distances, batched_removal_rows_multi)
            changed = engine.apply_swap(swap)
        assert changed.all()
        assert np.array_equal(engine.dm, expected)

    def test_rejects_non_graph(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            DistanceEngine([(0, 1)])


def _forbid(patch, *functions):
    """Make every binding of ``functions`` in the library raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a BFS ran")

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if any(value is f for f in functions):
                patch.setattr(module, name, refuse)
