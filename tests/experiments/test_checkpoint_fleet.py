"""Fleet-level checkpoint wiring (DESIGN.md §13): declaration, task
compilation, deadline preemption that quarantines with progress, and the
resume that heals a preempted stream to clean-run bytes."""

import time

import pytest

from repro.core.census import census_experiment
from repro.core.trajcensus import trajectory_experiment
from repro.errors import ConfigurationError, DeadlineExceeded
from repro.experiments import run_fleet
from repro.io.checkpoint import peek_checkpoint
from repro.io.jsonl_store import FleetFailure, summarize_stream
from repro.parallel import shutdown_shared_pools


@pytest.fixture(autouse=True)
def _clean_runtime():
    yield
    shutdown_shared_pools()


def _experiment(**overrides):
    kwargs = dict(
        n_values=[8], families=("tree",), replicates=2,
        root_seed=3, max_steps=2000,
    )
    kwargs.update(overrides)
    return trajectory_experiment(**kwargs)


def _census(**overrides):
    kwargs = dict(n_values=[8], families=("tree",), replicates=2, root_seed=3)
    kwargs.update(overrides)
    return census_experiment(**kwargs)


class TestDeclaration:
    def test_trajectory_experiment_supports_checkpoints(self):
        assert _experiment().supports_checkpoints

    def test_census_experiment_supports_checkpoints(self):
        assert _census().supports_checkpoints

    def test_compile_without_dir_leaves_slots_unarmed(self):
        exp = _experiment()
        for task in exp.compile_tasks():
            assert exp.task_checkpoint(task) is None

    def test_compile_with_dir_assigns_stable_slot_paths(self, tmp_path):
        exp = _experiment()
        tasks = exp.compile_tasks(
            checkpoint_dir=tmp_path, checkpoint_every=25
        )
        paths = [exp.task_checkpoint(t) for t in tasks]
        assert paths == [
            str(tmp_path / f"slot-{i:05d}.ckpt") for i in range(len(tasks))
        ]

    def test_half_declared_checkpoint_fields_rejected(self):
        from repro.experiments import Experiment

        with pytest.raises(ConfigurationError, match="checkpoint"):
            Experiment(
                name="half",
                point_fn=lambda task: {"seed": task[0]},
                grid={},
                task_fields=("seed", "checkpoint_path"),
                coord_fields=("seed",),
                replicates=1,
                root_seed=0,
                config={},
            )


class TestRunFleetValidation:
    def test_checkpoint_every_requires_dir(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            run_fleet(
                _experiment(replicates=1),
                jsonl_path=tmp_path / "s.jsonl", checkpoint_every=5,
            )

    def test_checkpoint_dir_requires_capable_experiment(self, tmp_path):
        from tests.experiments.test_experiment import make_experiment

        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_fleet(
                make_experiment(),
                jsonl_path=tmp_path / "s.jsonl",
                checkpoint_dir=tmp_path / "ckpt",
            )


class TestDeadlinePreemption:
    def test_expired_deadline_preempts_before_any_task(self, tmp_path):
        exp = _experiment(n_values=[10], root_seed=5)
        clean = tmp_path / "clean.jsonl"
        run_fleet(exp, jsonl_path=clean)

        smoke = tmp_path / "smoke.jsonl"
        with pytest.raises(DeadlineExceeded):
            run_fleet(
                exp, jsonl_path=smoke, checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=1, deadline=time.monotonic() - 1.0,
            )
        # Between-task expiry: typed raise, nothing quarantined, and the
        # (empty) streamed prefix resumes to clean bytes.
        assert summarize_stream(smoke).failures == []
        run_fleet(
            exp, jsonl_path=smoke, checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=1, resume=True, retry_failed=True,
        )
        assert smoke.read_bytes() == clean.read_bytes()

    def test_mid_task_yield_quarantines_with_checkpoint(self, tmp_path):
        # One ~0.3s task against a 0.05s budget: the deadline must land
        # mid-run, so the task checkpoint-and-yields (DESIGN.md §13)
        # rather than being retried past the budget.
        _yield_mid_task_then_heal(tmp_path, _experiment(
            n_values=[32], families=("sparse",), replicates=1,
            root_seed=5, max_steps=4000,
        ))

    def test_census_mid_slot_yield_heals_to_clean_bytes(self, tmp_path):
        # The census slot records no trace, so a larger start runs as long
        # (about 0.4 s with a snapshot per move).
        _yield_mid_task_then_heal(tmp_path, _census(
            n_values=[64], families=("dense",), replicates=1, root_seed=5,
        ))


def _yield_mid_task_then_heal(tmp_path, exp):
    """Preempt ``exp``'s sole slot mid-run, then heal it to clean bytes."""
    clean = tmp_path / "clean.jsonl"
    run_fleet(exp, jsonl_path=clean)

    smoke = tmp_path / "smoke.jsonl"
    ckpt = tmp_path / "ckpt"
    # The sole task yields mid-run and is quarantined; with no later
    # task left, the map finishes normally instead of raising (a
    # multi-task fleet would raise at the next boundary).
    run_fleet(
        exp, jsonl_path=smoke, checkpoint_dir=ckpt, checkpoint_every=1,
        deadline=time.monotonic() + 0.05,
    )
    failures = summarize_stream(smoke).failures
    assert len(failures) == 1
    (failure,) = failures
    assert "DeadlineExceeded" in failure.error
    # The quarantine record carries the slot's checkpoint progress,
    # and the file actually holds a resumable snapshot.
    assert failure.checkpoint is not None
    assert peek_checkpoint(failure.checkpoint["path"]) is not None

    healed = run_fleet(
        exp, jsonl_path=smoke, checkpoint_dir=ckpt, checkpoint_every=1,
        resume=True, retry_failed=True,
    )
    assert not any(isinstance(r, FleetFailure) for r in healed)
    assert smoke.read_bytes() == clean.read_bytes()
    assert sorted(ckpt.glob("*.ckpt")) == []
