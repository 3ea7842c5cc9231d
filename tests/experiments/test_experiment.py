"""Unit tests for the Experiment dataclass and run_fleet (DESIGN.md §12)."""

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, StoreIntegrityError
from repro.experiments import Experiment, run_fleet
from repro.io.jsonl_store import FleetFailure
from repro.rng import derive_seed


def eval_task(task):
    n, mode, seed, scale = task
    return {"n": n, "mode": mode, "seed": seed, "value": n * scale}


def echo_task(task):
    n, seed = task
    return {"n": n, "seed": seed, "double_n": 2 * n}


def make_experiment(**overrides):
    kwargs = dict(
        name="demo",
        point_fn=eval_task,
        grid={"n": [2, 3], "mode": ["a", "b"]},
        task_fields=("n", "mode", "seed", "scale"),
        coord_fields=("n", "mode", "seed"),
        replicates=2,
        root_seed=9,
        fixed={"scale": 10},
        int_coords=("n", "seed"),
        config={"scale": 10, "root_seed": 9},
    )
    kwargs.update(overrides)
    return Experiment(**kwargs)


def make_grid_experiment(grid, **overrides):
    """An experiment whose tasks are its grid axes plus the seed."""
    return Experiment(
        name="grid", point_fn=eval_task, grid=grid,
        task_fields=(*grid, "seed"), coord_fields=(), **overrides,
    )


def grid_seeds(grid, **overrides):
    exp = make_grid_experiment(grid, **overrides)
    return [task[-1] for task in exp.compile_tasks()]


class TestValidation:
    def test_bad_seed_scheme(self):
        with pytest.raises(ConfigurationError, match="seed_scheme"):
            make_experiment(seed_scheme="zigzag")

    def test_fixed_shadowing_grid(self):
        with pytest.raises(ConfigurationError, match="shadow grid"):
            make_experiment(fixed={"scale": 10, "n": 5})

    def test_unresolved_task_field(self):
        with pytest.raises(ConfigurationError, match="'ghost'"):
            make_experiment(task_fields=("n", "mode", "seed", "ghost"))

    def test_coord_field_must_be_task_field(self):
        with pytest.raises(ConfigurationError, match="not task fields"):
            make_experiment(coord_fields=("n", "elsewhere"))

    def test_replicates_and_axes_validated(self):
        with pytest.raises(ConfigurationError, match="replicates"):
            make_grid_experiment({"n": [1]}, replicates=0)
        with pytest.raises(ConfigurationError, match="empty"):
            make_grid_experiment({"n": []})

    @pytest.mark.parametrize("name", ["seed", "replicate"])
    def test_reserved_grid_names_rejected(self, name):
        # A grid axis named like a derived column would shadow it.
        with pytest.raises(ConfigurationError, match="collide"):
            make_grid_experiment({"n": [4], name: [1, 2]})

    def test_reserved_name_error_is_eager_and_names_the_culprit(self):
        with pytest.raises(ConfigurationError, match="'seed'"):
            make_grid_experiment({"seed": [1]})


class TestCompileTasks:
    def test_stream_order_and_fixed_resolution(self):
        tasks = make_experiment().compile_tasks()
        assert len(tasks) == 8
        assert [t[0] for t in tasks] == [2, 2, 2, 2, 3, 3, 3, 3]
        assert [t[1] for t in tasks] == ["a", "a", "b", "b"] * 2
        assert all(t[3] == 10 for t in tasks)

    def test_flat_seed_scheme_derives_from_point_index(self):
        exp = make_experiment()
        seeds = [t[2] for t in exp.compile_tasks()]
        expect = [
            derive_seed(9, point, rep)
            for point in range(4) for rep in range(2)
        ]
        assert seeds == expect

    @pytest.mark.parametrize("scheme", ["flat", "axes"])
    def test_seeds_unique_and_deterministic(self, scheme):
        kwargs = dict(replicates=3, root_seed=5, seed_scheme=scheme)
        a = grid_seeds({"n": [4, 8]}, **kwargs)
        b = grid_seeds({"n": [4, 8]}, **kwargs)
        assert a == b
        assert len(set(a)) == len(a)

    @pytest.mark.parametrize("scheme", ["flat", "axes"])
    def test_root_seed_changes_everything(self, scheme):
        a, b = (
            grid_seeds(
                {"n": [4]}, replicates=2, root_seed=root, seed_scheme=scheme,
            )
            for root in (1, 2)
        )
        assert set(a).isdisjoint(b)

    def test_axes_seed_scheme_derives_from_axis_indices(self):
        exp = make_experiment(seed_scheme="axes")
        seeds = [t[2] for t in exp.compile_tasks()]
        expect = [
            derive_seed(9, i, j, rep)
            for i in range(2) for j in range(2) for rep in range(2)
        ]
        assert seeds == expect

    def test_total_tasks(self):
        assert make_experiment().total_tasks() == 8

    def test_point_enumeration(self):
        exp = make_grid_experiment(
            {"n": [4, 8], "family": ["a", "b", "c"]}, replicates=2,
        )
        tasks = exp.compile_tasks()
        assert len(tasks) == exp.total_tasks() == 12
        # First axis slowest, replicates fastest.
        assert [t[0] for t in tasks] == [4] * 6 + [8] * 6
        assert [t[1] for t in tasks] == ["a", "a", "b", "b", "c", "c"] * 2

    def test_default_order_is_declaration_order(self):
        forward = make_grid_experiment({"n": [4, 8], "family": ["a", "b"]})
        backward = make_grid_experiment({"family": ["a", "b"], "n": [4, 8]})
        assert [t[:2] for t in forward.compile_tasks()] == [
            (4, "a"), (4, "b"), (8, "a"), (8, "b"),
        ]
        assert [t[:2] for t in backward.compile_tasks()] == [
            ("a", 4), ("a", 8), ("b", 4), ("b", 8),
        ]

    def test_task_tuple_follows_task_fields_not_grid_order(self):
        # The grid fixes enumeration order; task_fields alone fix the
        # tuple layout the point function unpacks.
        exp = make_experiment(task_fields=("scale", "seed", "mode", "n"))
        for task, base in zip(
            exp.compile_tasks(), make_experiment().compile_tasks()
        ):
            n, mode, seed, scale = base
            assert task == (scale, seed, mode, n)


class TestCoords:
    def test_coords_follow_coord_field_order(self):
        exp = make_experiment()
        task = exp.compile_tasks()[0]
        coords = exp.task_coords(task)
        assert list(coords) == ["n", "mode", "seed"]
        assert coords["n"] == 2 and coords["mode"] == "a"

    def test_int_coords_coerce_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        exp = make_experiment(grid={"n": [np.int64(2)], "mode": ["a"]})
        coords = exp.task_coords(exp.compile_tasks()[0])
        assert type(coords["n"]) is int

    def test_coord_overrides_win(self):
        exp = make_experiment(coord_overrides={"mode": "canonical"})
        coords = exp.task_coords(exp.compile_tasks()[0])
        assert coords["mode"] == "canonical"


class TestCheckResumed:
    def test_matching_record_passes(self):
        exp = make_experiment()
        coords = {"n": 2, "mode": "a", "seed": 5}
        exp.check_resumed(coords, {"n": 2, "mode": "a", "seed": 5, "x": 1})

    def test_mismatching_record_names_every_coord(self):
        exp = make_experiment()
        with pytest.raises(StoreIntegrityError, match="n=3, mode='a'"):
            exp.check_resumed(
                {"n": 2, "mode": "a", "seed": 5},
                {"n": 3, "mode": "a", "seed": 5},
            )

    def test_quarantine_slot_checked_against_coords(self):
        exp = make_experiment()
        good = FleetFailure(
            coords={"n": 2, "mode": "a", "seed": 5}, error="x", attempts=1
        )
        exp.check_resumed({"n": 2, "mode": "a", "seed": 5}, good)
        with pytest.raises(StoreIntegrityError, match="quarantined slot"):
            exp.check_resumed({"n": 3, "mode": "a", "seed": 5}, good)


class TestStore:
    def test_header_is_config_key_then_config(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        run_fleet(make_experiment(), jsonl_path=path)
        header = path.read_text().splitlines()[0]
        assert header == json.dumps(
            {"experiment_config": 1, "scale": 10, "root_seed": 9}
        )

    def test_default_decoder_reads_records_and_quarantine_slots(
        self, tmp_path
    ):
        exp = make_experiment()
        tasks = exp.compile_tasks()
        failure = FleetFailure(
            coords=exp.task_coords(tasks[1]), error="x", attempts=2,
        )
        store = exp.make_store(tmp_path / "demo.jsonl")
        rows = [eval_task(tasks[0]), failure]
        store.rewrite_prefix(rows)
        assert store.resume_records() == rows

    @pytest.mark.parametrize("durability", ["flush", "fsync"])
    def test_make_store_applies_durability(self, tmp_path, durability):
        store = make_experiment().make_store(tmp_path / "x.jsonl", durability)
        assert store.durability == durability
        assert store.path == tmp_path / "x.jsonl"

    def test_run_fleet_rejects_durability_none(self, tmp_path):
        with pytest.raises(ConfigurationError, match="durability"):
            run_fleet(
                make_experiment(), jsonl_path=tmp_path / "x.jsonl",
                durability="none",
            )
        assert not (tmp_path / "x.jsonl").exists()


class TestRunFleet:
    def test_resume_requires_path(self):
        with pytest.raises(ConfigurationError, match="needs a jsonl_path"):
            run_fleet(make_experiment(), resume=True)

    @pytest.mark.parametrize("streamed", [True, False])
    def test_retry_failed_requires_resume(self, tmp_path, streamed):
        # Without resume there is no streamed prefix to heal, so the flag
        # is refused rather than rewriting the stream and re-running every
        # slot, quarantined or not.
        exp = make_experiment()
        path = tmp_path / "demo.jsonl"
        run_fleet(exp, jsonl_path=path)
        lines = path.read_text().splitlines(keepends=True)
        failure = FleetFailure(
            coords=exp.task_coords(exp.compile_tasks()[1]),
            error="x", attempts=3,
        )
        lines[2] = json.dumps(failure.encode()) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ConfigurationError, match="needs resume=True"):
            run_fleet(
                exp, jsonl_path=path if streamed else None,
                retry_failed=True,
            )
        assert path.read_text() == "".join(lines)

    def test_records_match_tasks_in_order(self):
        exp = make_experiment()
        records = run_fleet(exp)
        assert [r["n"] for r in records] == [t[0] for t in exp.compile_tasks()]
        assert all(r["value"] == r["n"] * 10 for r in records)

    def test_records_merge_params_and_results(self):
        exp = make_grid_experiment({"n": [2, 3]}, replicates=2, root_seed=0)
        exp = replace(exp, point_fn=echo_task)
        records = run_fleet(exp)
        assert records == [
            {"n": n, "seed": seed, "double_n": 2 * n}
            for n, seed in exp.compile_tasks()
        ]

    def test_workers_bit_identical(self, tmp_path):
        exp = make_experiment()
        a, b = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        serial = run_fleet(exp, workers=1, jsonl_path=a)
        sharded = run_fleet(exp, workers=2, jsonl_path=b)
        assert serial == sharded
        assert a.read_bytes() == b.read_bytes()

    def test_resume_skips_streamed_prefix(self, tmp_path):
        exp = make_experiment()
        path = tmp_path / "demo.jsonl"
        full = run_fleet(exp, jsonl_path=path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))
        resumed = run_fleet(exp, jsonl_path=path, resume=True)
        assert resumed == full
        assert path.read_text() == "".join(lines)

    def test_resume_refuses_foreign_records(self, tmp_path):
        exp = make_experiment()
        path = tmp_path / "demo.jsonl"
        run_fleet(exp, jsonl_path=path)
        other = make_experiment(grid={"n": [7, 8], "mode": ["a", "b"]})
        with pytest.raises(StoreIntegrityError, match="resume mismatch"):
            run_fleet(other, jsonl_path=path, resume=True)
