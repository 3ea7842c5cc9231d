"""Census experiment tests."""

import inspect
import io
import json
import math

import pytest

from repro.core import census_experiment, equilibrium, trajectory_experiment
from repro.core import census as census_mod
from repro.core import dynamics as dynamics_mod
from repro.core import trajcensus
from repro.core.census import _census_task, seed_graph
from repro.errors import ConfigurationError
from repro.experiments import run_fleet
from repro.graphs import is_connected
from repro.io import graph_fingerprint
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
        (task,) = census_experiment(
            [10], families=("sparse",), replicates=1, objective=objective,
            root_seed=4,
        ).compile_tasks()
        record = _census_task(task)
        assert record.converged and record.verified_equilibrium is True
        assert calls == []


def _count_audits(monkeypatch, *modules):
    """Record every ``is_equilibrium`` call made through ``modules``.

    A module that does not import ``is_equilibrium`` makes no such call.
    """
    calls = []
    for module in modules:
        original = getattr(module, "is_equilibrium", None)
        if original is None:
            continue

        def counting(graph, objective, *, _original=original, **kw):
            verdict = _original(graph, objective, **kw)
            mode = kw.get("mode", "batched")
            calls.append((graph, objective, mode, verdict))
            return verdict

        monkeypatch.setattr(module, "is_equilibrium", counting)
    return calls


class TestOneAuditPerSlot:
    """The batched certificate that ended a run is the slot's audit."""

    def test_slot_fields_are_the_slot_parameters(self):
        # Both censuses splat their task tuples into the one slot.
        params = tuple(inspect.signature(census_mod._run_slot).parameters)
        fields = census_mod._SLOT_FIELDS
        assert params[:len(fields)] == fields
        assert census_experiment([8]).task_fields == fields
        assert trajectory_experiment([8]).task_fields[:len(fields)] == fields

    def test_census_certified_slots_are_audited_once(self, monkeypatch):
        calls = _count_audits(monkeypatch, dynamics_mod, census_mod)
        records = run_fleet(census_experiment([16], replicates=2))
        assert len(records) == 6 and all(r.converged for r in records)
        assert [r.verified_equilibrium for r in records] == [True] * 6
        # One certificate per slot, and no second, identical audit.
        assert len(calls) == 6

    def test_trajectory_certified_slots_are_audited_once(self, monkeypatch):
        calls = _count_audits(
            monkeypatch, dynamics_mod, census_mod, trajcensus
        )
        records = run_fleet(trajectory_experiment([16], replicates=2))
        assert len(records) == 6 and all(r.converged for r in records)
        assert [r.verified_equilibrium for r in records] == [True] * 6
        assert len(calls) == 6

    @pytest.mark.parametrize("setting", [
        {"audit_mode": "rebuild"},
        {"engine_mode": "oracle"},
        {"schedules": ("greedy",)},
        {"responders": ("first",)},
    ], ids=["rebuild", "oracle", "greedy", "first"])
    def test_uncertified_endpoints_are_audited(self, monkeypatch, setting):
        # The certificate did not end these runs (or audits another
        # mode), so every converged slot runs exactly one audit of its own.
        calls = _count_audits(monkeypatch, census_mod)
        records = run_fleet(trajectory_experiment(
            [10], families=("tree", "sparse"), replicates=1, root_seed=6,
            **setting,
        ))
        converged = [r for r in records if r.converged]
        assert converged
        assert len(calls) == len(converged)
        mode = setting.get("audit_mode", "batched")
        for record, (graph, model, audit_mode, verdict) in zip(
            converged, calls
        ):
            assert audit_mode == mode
            assert graph_fingerprint(graph) == record.final_fingerprint
            assert verdict == record.verified_equilibrium
            assert verdict == equilibrium.is_equilibrium(graph, model)


class TestBuilderValidation:
    """A setting no slot can run fails in the builder, before any stream."""

    @pytest.mark.parametrize("name, value, message", [
        ("families", ("tree", "clique"), "unknown census family"),
        ("schedule", "sideways", "unknown schedule"),
        ("responder", "worst", "unknown responder"),
        ("max_steps", 0, "max_steps must be >= 1"),
        ("audit_mode", "bogus", "unknown audit mode"),
    ])
    def test_census_rejects(self, name, value, message):
        with pytest.raises(ConfigurationError, match=message):
            census_experiment([8], replicates=1, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("families", ("tree", "clique"), "unknown census family"),
        ("schedules", ("round_robin", "sideways"), "unknown schedule"),
        ("responders", ("best", "worst"), "unknown responder"),
        ("max_steps", 0, "max_steps must be >= 1"),
        ("audit_mode", "bogus", "unknown audit mode"),
        ("engine_mode", "turbo", "unknown engine_mode"),
    ])
    def test_trajectory_rejects(self, name, value, message):
        with pytest.raises(ConfigurationError, match=message):
            trajectory_experiment([8], replicates=1, **{name: value})
