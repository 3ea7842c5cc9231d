"""Census experiment tests."""

import io
import json
import math

import pytest

from repro.core import census_experiment, equilibrium
from repro.core.census import _census_task, seed_graph
from repro.experiments import run_fleet
from repro.graphs import is_connected
from repro.io.jsonl_store import write_records


class TestSeedGraphs:
    def test_families(self):
        t = seed_graph("tree", 20, 1)
        s = seed_graph("sparse", 20, 1)
        d = seed_graph("dense", 20, 1)
        assert t.m == 19
        assert s.m > t.m
        assert d.m >= s.m
        for g in (t, s, d):
            assert is_connected(g)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            seed_graph("clique", 10, 0)

    def test_deterministic(self):
        assert seed_graph("sparse", 16, 5) == seed_graph("sparse", 16, 5)


class TestCensus:
    def test_records_shape_and_verification(self):
        records = run_fleet(census_experiment(
            [8, 12], families=("tree",), replicates=2, root_seed=1
        ))
        assert len(records) == 4
        for r in records:
            assert r.objective == "sum"
            assert r.m_initial == r.n - 1
            if r.converged:
                assert r.verified_equilibrium is True
                assert math.isfinite(r.diameter_final)
                # Trees under sum dynamics end as stars (Theorem 1).
                assert r.is_star
                assert r.diameter_final <= 2

    def test_deterministic_across_runs(self):
        exp = census_experiment(
            [10], families=("sparse",), replicates=2, root_seed=3
        )
        a, b = run_fleet(exp), run_fleet(exp)
        assert [r.diameter_final for r in a] == [r.diameter_final for r in b]
        assert [r.steps for r in a] == [r.steps for r in b]

    def test_rows_conversion(self):
        records = run_fleet(census_experiment(
            [8], families=("tree",), replicates=1, root_seed=0
        ))
        sink = io.StringIO()
        write_records(sink, records)
        rows = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert isinstance(rows[0], dict)
        assert rows[0]["n"] == 8

    def test_max_objective_census(self):
        records = run_fleet(census_experiment(
            [8], families=("sparse",), replicates=1,
            objective="max", root_seed=2,
        ))
        (r,) = records
        if r.converged:
            assert r.verified_equilibrium is True

    @pytest.mark.parametrize("objective", ["sum", "max"])
    def test_endpoint_audit_reuses_the_dynamics_matrix(
        self, monkeypatch, objective
    ):
        # A converged slot's audit (for max: the swap audit and the
        # criticality audit) reads the matrix the dynamics already hold.
        calls = []
        original = equilibrium.distance_matrix

        def counting(graph):
            calls.append(graph.n)
            return original(graph)

        monkeypatch.setattr(equilibrium, "distance_matrix", counting)
        task = (10, "sparse", 4, objective, "round_robin", "best",
                20_000, True, "batched")
        record = _census_task(task)
        assert record.converged and record.verified_equilibrium is True
        assert calls == []
