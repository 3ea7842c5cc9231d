"""Trajectory census tests: grid, outcomes, sharding, resumable streams.

The resume-hardening classes mirror ``tests/core/test_census_resume.py``
(the PR-3 crash-window pattern) on the trajectory stream, which now rides
the shared :class:`repro.io.jsonl_store.JsonlStore`.
"""

import json
from dataclasses import replace

import pytest

import repro.io.jsonl_store as store_mod
from repro.core.costmodel import cost_model_spec, resolve_cost_model
from repro.core.equilibrium import is_equilibrium
from repro.core.trajcensus import (
    TRAJ_CONFIG_KEY,
    TrajectoryRecord,
    trajectory_experiment,
)
from repro.experiments import run_fleet
from repro.graphs import CSRGraph, path_graph
from repro.io import graph_fingerprint
from repro.rng import derive_seed

# A small grid that exercises both outcomes: the sum game converges from
# every family; the interest variant cycles from dense starts.
KWARGS = dict(
    n_values=[8],
    families=("tree", "dense"),
    objectives=("sum", "interest-sum:k=3,seed=0"),
    schedules=("round_robin",),
    responders=("best",),
    replicates=2,
    root_seed=0,
    max_steps=500,
)


def experiment(**overrides):
    return trajectory_experiment(**{**KWARGS, **overrides})


@pytest.fixture(scope="module")
def records():
    return run_fleet(experiment())


class TestGrid:
    def test_one_record_per_grid_point_and_replicate(self, records):
        assert len(records) == 2 * 2 * 2  # objectives x families x reps

    def test_records_carry_grid_coordinates(self, records):
        coords = {
            (r.objective, r.family, r.replicate) for r in records
        }
        assert len(coords) == len(records)
        assert all(r.n == 8 and r.schedule == "round_robin" for r in records)
        assert all(r.responder == "best" for r in records)

    def test_seeds_derive_from_flat_grid_position(self, records):
        # Objective slowest, n fastest: point index = (objective, family).
        points = [
            (cost_model_spec(o), f)
            for o in KWARGS["objectives"] for f in KWARGS["families"]
        ]
        expect = [
            (point, rep, derive_seed(KWARGS["root_seed"], point, rep))
            for point in range(len(points))
            for rep in range(KWARGS["replicates"])
        ]
        assert [
            (points.index((r.objective, r.family)), r.replicate, r.seed)
            for r in records
        ] == expect

    def test_reruns_are_bit_identical(self, records):
        assert run_fleet(experiment()) == records


class TestOutcomes:
    def test_trichotomy_is_exclusive(self, records):
        for r in records:
            assert (
                int(r.converged) + int(r.cycle_detected) + int(r.exhausted)
            ) == 1

    def test_cycles_are_recorded(self, records):
        cycles = [r for r in records if r.cycle_detected]
        assert cycles, "the interest/dense grid corner must cycle"
        for r in cycles:
            assert r.objective == "interest-sum:k=3,seed=0"
            assert not r.converged and not r.exhausted
            assert r.verified_equilibrium is None

    def test_exhaustion_is_not_cycling(self):
        # One-move budget from a restless start: the run must report
        # max-steps exhaustion, not a cycle (and not convergence).
        recs = run_fleet(trajectory_experiment(
            [10], families=("tree",), objectives=("sum",),
            replicates=1, max_steps=1, root_seed=1,
        ))
        (rec,) = recs
        assert rec.exhausted
        assert not rec.converged and not rec.cycle_detected
        assert rec.steps == 1

    def test_converged_endpoints_verify(self, records):
        conv = [r for r in records if r.converged]
        assert conv
        assert all(r.verified_equilibrium for r in conv)

    def test_trajectory_summary_fields_populated(self, records):
        for r in records:
            assert r.social_cost_initial > 0
            assert r.diameter_peak >= max(
                r.diameter_initial, r.diameter_final
            )
            assert r.socially_monotone == (r.selfish_regressions == 0)

    def test_sum_records_socially_monotone_cost_endpoints(self, records):
        # Sum dynamics from trees end at stars: the recorded social cost
        # must be the model's (= total pairwise distance for SumCost).
        tree_sum = [
            r for r in records if r.objective == "sum" and r.family == "tree"
        ]
        star_cost = 2.0 * ((8 - 1) + (8 - 1) * (8 - 2))  # sum version, n=8
        for r in tree_sum:
            assert r.converged
            assert r.social_cost_final == star_cost


class TestFingerprint:
    def test_deterministic_and_edge_order_independent(self):
        g1 = CSRGraph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = CSRGraph(4, [(2, 3), (0, 1), (1, 2)])
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_label_sensitive(self):
        g1 = path_graph(4)
        g2 = CSRGraph(4, [(1, 0), (0, 2), (2, 3)])  # isomorphic, relabelled
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_distinguishes_n(self):
        g1 = path_graph(3)
        g2 = CSRGraph(4, [(0, 1), (1, 2)])  # same edges, extra isolate
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_converged_same_endpoint_shares_fingerprint(self, records):
        by_fp: dict = {}
        for r in records:
            if r.converged:
                by_fp.setdefault(r.final_fingerprint, []).append(r)
        assert by_fp  # smoke: fingerprints group converged runs


class TestEngineModeInvariance:
    """The oracle engine replays this grid's trajectories exactly.

    Only the ``activations`` column differs: the seed oracle path counts
    full sweeps instead of dirty-set skips, so the stream header records
    the accounting and refuses to splice across it.
    """

    def test_oracle_records_match_but_for_activations(self, records):
        oracle = run_fleet(experiment(engine_mode="oracle"))
        assert [replace(r, activations=0) for r in oracle] == [
            replace(r, activations=0) for r in records
        ]

    def test_resume_rejects_oracle_accounting_mismatch(self, tmp_path):
        # The oracle path counts activations by full sweeps — resuming an
        # engine-written stream with it would silently mix incompatible
        # activation columns, so the header records the accounting.
        path = tmp_path / "traj.jsonl"
        run_fleet(experiment(engine_mode="batched"), jsonl_path=path)
        with pytest.raises(ValueError):
            run_fleet(
                experiment(engine_mode="oracle"), jsonl_path=path, resume=True
            )


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_records_identical_across_worker_counts(self, records, workers):
        assert run_fleet(experiment(), workers=workers) == records

    def test_streamed_jsonl_identical_across_worker_counts(
        self, records, tmp_path
    ):
        texts = []
        for w in (1, 2):
            path = tmp_path / f"w{w}.jsonl"
            run_fleet(experiment(), workers=w, jsonl_path=path)
            texts.append(path.read_text())
        assert texts[0] == texts[1]


@pytest.fixture()
def full_run(tmp_path):
    """An uninterrupted streamed run -> (records, path, text)."""
    path = tmp_path / "traj.jsonl"
    records = run_fleet(experiment(), jsonl_path=path)
    return records, path, path.read_text()


class TestStream:
    def test_first_line_is_config_header(self, full_run):
        _, path, text = full_run
        header = json.loads(text.splitlines()[0])
        assert header[TRAJ_CONFIG_KEY] == 2  # v2: activation accounting
        assert header["activation_accounting"] == "engine"
        assert header["objectives"] == ["sum", "interest-sum:k=3,seed=0"]
        assert header["schedules"] == ["round_robin"]
        assert header["families"] == ["tree", "dense"]
        assert header["n_values"] == [8]
        assert header["replicates"] == 2

    def test_records_roundtrip(self, full_run):
        records, path, _ = full_run
        _, parsed = experiment().make_store(path).read_prefix()
        assert all(isinstance(r, TrajectoryRecord) for r in parsed)
        assert parsed == records

    def test_resume_of_complete_run_recomputes_nothing(self, full_run):
        records, path, text = full_run

        def boom(task):
            raise AssertionError("resume recomputed a finished trajectory")

        resumed = run_fleet(
            replace(experiment(), point_fn=boom), jsonl_path=path, resume=True
        )
        assert resumed == records
        assert path.read_text() == text

    def test_resume_mid_fleet_is_lossless(self, full_run):
        records, path, text = full_run
        lines = text.splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")  # header + 3 records
        resumed = run_fleet(experiment(), jsonl_path=path, resume=True)
        assert resumed == records
        assert path.read_text() == text

    def test_torn_tail_resume_is_lossless(self, full_run):
        records, path, text = full_run
        path.write_text(text[: len(text) - 40])
        resumed = run_fleet(experiment(), jsonl_path=path, resume=True)
        assert resumed == records
        assert path.read_text() == text

    def test_resume_without_path_rejected(self):
        with pytest.raises(ValueError, match="needs a jsonl_path"):
            run_fleet(experiment(), resume=True)


class TestResumeValidation:
    @pytest.mark.parametrize(
        "override",
        [
            {"objectives": ("sum",)},
            {"objectives": ("sum", "interest-sum:k=4,seed=0")},
            {"schedules": ("random",)},
            {"responders": ("first",)},
            {"families": ("tree", "sparse")},
            {"max_steps": 777},
            {"replicates": 3},
            {"root_seed": 4},
            {"verify": False},
            {"audit_mode": "rebuild"},
        ],
    )
    def test_resume_with_changed_config_raises(self, full_run, override):
        _, path, text = full_run
        with pytest.raises(ValueError, match="resume mismatch"):
            run_fleet(experiment(**override), jsonl_path=path, resume=True)
        assert path.read_text() == text  # refused resume must not touch it

    def test_header_pasted_onto_foreign_records_is_caught(self, full_run):
        _, path, text = full_run
        lines = text.splitlines()
        foreign = json.loads(lines[1])
        foreign["objective"] = "max"
        lines[1] = json.dumps(foreign)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="resume mismatch"):
            run_fleet(experiment(), jsonl_path=path, resume=True)

    def test_mid_file_tear_raises(self, full_run):
        _, path, text = full_run
        lines = text.splitlines()
        lines[2] = lines[2][:11]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt mid-file"):
            run_fleet(experiment(), jsonl_path=path, resume=True)

    def test_headerless_file_is_refused(self, full_run):
        _, path, text = full_run
        path.write_text("\n".join(text.splitlines()[1:]) + "\n")
        with pytest.raises(ValueError, match="no run-config header"):
            run_fleet(experiment(), jsonl_path=path, resume=True)

    def test_crash_mid_rewrite_loses_no_records(self, full_run, monkeypatch):
        """Die while rewriting the prefix: the original stream survives."""
        records, path, text = full_run
        lines = text.splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        interrupted = path.read_text()

        real_write = store_mod.write_records
        calls = {"n": 0}

        def dying_write(sink, recs):
            recs = list(recs)
            if calls["n"] == 0 and recs:
                calls["n"] += 1
                real_write(sink, recs[:1])
                raise RuntimeError("simulated crash mid-rewrite")
            real_write(sink, recs)

        monkeypatch.setattr(store_mod, "write_records", dying_write)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_fleet(experiment(), jsonl_path=path, resume=True)
        # The live file is untouched; the torn prefix only ever existed in
        # the .tmp sidecar.
        assert path.read_text() == interrupted
        monkeypatch.undo()

        resumed = run_fleet(experiment(), jsonl_path=path, resume=True)
        assert resumed == records
        assert path.read_text() == text


class TestRecordCorrectness:
    def test_final_graph_audit_matches_record(self):
        # Rerun one grid cell standalone and re-audit its endpoint with the
        # model-aware checker: the record's verdict must agree.
        recs = run_fleet(trajectory_experiment(
            [10], families=("tree",), objectives=("max",),
            replicates=1, root_seed=3, max_steps=1000,
        ))
        (rec,) = recs
        assert rec.converged and rec.objective == "max"
        from repro.core.dynamics import SwapDynamics
        from repro.core.census import seed_graph

        dyn = SwapDynamics(
            objective="max", max_steps=1000, seed=derive_seed(rec.seed, 1)
        )
        final = dyn.run(seed_graph("tree", 10, rec.seed)).graph
        assert graph_fingerprint(final) == rec.final_fingerprint
        model = resolve_cost_model("max", 10)
        assert is_equilibrium(final, model) == rec.verified_equilibrium
