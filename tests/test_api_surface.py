"""API surface tests: exports resolve, error hierarchy, version.

Guards against the classic packaging failures — `__all__` names that don't
exist, subpackage re-exports drifting from implementations, and error
classes that stop deriving from the library root.
"""

import importlib

import pytest

import repro
from repro import errors


PACKAGES = [
    "repro",
    "repro.graphs",
    "repro.core",
    "repro.constructions",
    "repro.analysis",
    "repro.theory",
    "repro.games",
    "repro.parallel",
    "repro.bench",
    "repro.io",
    "repro.experiments",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_sorted_unique(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"{name} has duplicate exports"


def test_version_is_pep440ish():
    assert repro.__version__.count(".") == 2
    assert all(part.isdigit() for part in repro.__version__.split("."))


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for symbol in errors.__all__:
            cls = getattr(errors, symbol)
            assert issubclass(cls, errors.ReproError)

    def test_graph_errors(self):
        assert issubclass(errors.InvalidEdgeError, errors.GraphError)
        assert issubclass(errors.DisconnectedGraphError, errors.GraphError)

    def test_move_errors(self):
        assert issubclass(errors.IllegalSwapError, errors.MoveError)

    def test_convergence_error_carries_state(self):
        err = errors.ConvergenceError("budget", state="partial", steps=12)
        assert err.state == "partial"
        assert err.steps == 12

    def test_catching_the_root_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.IllegalSwapError("x")
        with pytest.raises(errors.ReproError):
            raise errors.ConfigurationError("y")


class TestCrossLayerConsistency:
    def test_top_level_reexports_match_sources(self):
        from repro.core import is_sum_equilibrium as src

        assert repro.is_sum_equilibrium is src

    def test_fleet_entry_points_reexport_their_sources(self):
        from repro import core
        from repro.core.census import census_experiment
        from repro.core.trajcensus import trajectory_experiment
        from repro.experiments.experiment import run_fleet

        assert repro.census_experiment is census_experiment
        assert core.census_experiment is census_experiment
        assert core.trajectory_experiment is trajectory_experiment
        assert repro.run_fleet is run_fleet

    def test_graph_fingerprint_exported_from_io_only(self):
        from repro import core, io
        from repro.core import trajcensus

        assert "graph_fingerprint" in io.__all__
        assert "graph_fingerprint" not in core.__all__
        assert "graph_fingerprint" not in trajcensus.__all__

    def test_one_graph_type_and_one_move_path(self):
        # Graphs are immutable CSRGraphs; `swapped_graph` applies a move.
        from repro import core, graphs

        assert "AdjacencyGraph" not in repro.__all__
        assert "AdjacencyGraph" not in graphs.__all__
        assert "apply_swap" not in core.__all__
        assert "swapped_graph" in core.__all__

    def test_unreachable_constant_consistent(self):
        from repro.graphs import UNREACHABLE
        from repro.graphs.bfs import UNREACHABLE as inner

        assert UNREACHABLE == inner == -1

    def test_int_inf_headroom_documented_invariant(self):
        import numpy as np

        from repro.core import INT_INF

        # (INT_INF + 1) * n must not overflow int64 for any plausible n.
        assert (INT_INF + 1) * (1 << 20) < np.iinfo(np.int64).max
