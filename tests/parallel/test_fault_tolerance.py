"""Fault-tolerance suite: fleets converge bit-identically under injected faults.

The contract under test (DESIGN.md §9): the resilient runtime recovers from
worker death, hangs, poisoned tasks, and torn appends, and the recovered
run's records are **bit-identical** to a clean run's — recovery changes
where tasks execute, never what they return, and ``/dev/shm`` is left empty
afterwards.
"""

import glob
import os

import pytest

from repro.core import census_experiment, trajectory_experiment
from repro.errors import TaskExecutionError
from repro.experiments import run_fleet
from repro.io.jsonl_store import FleetFailure
from repro.parallel import (
    TaskFailure,
    faults,
    parallel_map,
    shutdown_shared_pools,
)
from repro.parallel.faults import InjectedFault, injected_env


def our_shm_segments():
    return glob.glob("/dev/shm/repro-shm-*")


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Pools down and fault channels clear on both sides of every test."""
    faults.clear_hooks()
    faults._LOCAL_TOKENS.clear()
    yield
    faults.clear_hooks()
    faults._LOCAL_TOKENS.clear()
    shutdown_shared_pools()
    assert our_shm_segments() == []


def record_task(task):
    """A deterministic toy experiment: the record is a pure function of it."""
    idx, seed = task
    from repro.rng import make_rng

    rng = make_rng(seed)
    return {"idx": idx, "value": int(rng.integers(0, 1_000_000))}


def flaky_task(task):
    idx, seed = task
    if idx == 5:
        raise ValueError(f"poisoned task {idx}")
    return record_task(task)


TASKS = [(i, 1000 + i) for i in range(24)]
CLEAN = [record_task(t) for t in TASKS]


class TestInjectedWorkerDeath:
    def test_kill_on_chunk_is_bit_identical(self, tmp_path):
        with injected_env("kill:chunk=1", tmp_path / "tok"):
            out = parallel_map(
                record_task, TASKS, workers=2, chunk_size=4,
                retries=2, timeout=60,
            )
        assert out == CLEAN

    def test_kill_on_task_is_bit_identical(self, tmp_path):
        with injected_env("kill:task=7", tmp_path / "tok"):
            out = parallel_map(
                record_task, TASKS, workers=2, chunk_size=4,
                retries=2, timeout=60,
            )
        assert out == CLEAN

    def test_repeated_kills_exhaust_into_quarantine(self, tmp_path):
        # A task that SIGKILLs its worker on every attempt ends up
        # quarantined via the owner-side degraded attempt (where the kill
        # downgrades to InjectedFault), never killing the fleet.
        with injected_env("kill:task=7,times=50", tmp_path / "tok"):
            out = parallel_map(
                record_task, TASKS, workers=2, chunk_size=4,
                retries=1, timeout=60, on_error="record",
            )
        assert isinstance(out[7], TaskFailure)
        assert out[7].index == 7
        assert [x for i, x in enumerate(out) if i != 7] == [
            x for i, x in enumerate(CLEAN) if i != 7
        ]


class TestInjectedHang:
    def test_hang_recovers_via_timeout(self, tmp_path):
        with injected_env("hang:chunk=2,seconds=120", tmp_path / "tok"):
            out = parallel_map(
                record_task, TASKS, workers=2, chunk_size=4,
                retries=2, timeout=3,
            )
        assert out == CLEAN


class TestInjectedRaise:
    def test_transient_raise_retried_to_identical_records(self, tmp_path):
        with injected_env("raise:task=5", tmp_path / "tok"):
            out = parallel_map(
                record_task, TASKS, workers=2, chunk_size=4, retries=2,
            )
        assert out == CLEAN

    def test_persistent_raise_quarantined_with_identity(self, tmp_path):
        with injected_env("raise:task=5,times=50", tmp_path / "tok"):
            out = parallel_map(
                record_task, TASKS, workers=2, chunk_size=4,
                retries=1, on_error="record",
            )
        assert isinstance(out[5], TaskFailure)
        assert out[5].index == 5
        assert "InjectedFault" in out[5].error

    def test_persistent_raise_raises_with_identity(self, tmp_path):
        with injected_env("raise:task=5,times=50", tmp_path / "tok"):
            with pytest.raises(TaskExecutionError) as err:
                parallel_map(
                    record_task, TASKS, workers=2, chunk_size=4, retries=1,
                )
        assert err.value.index == 5
        assert isinstance(err.value.__cause__, InjectedFault)

    def test_serial_path_same_contract(self, tmp_path):
        with injected_env("raise:task=5", tmp_path / "tok"):
            out = parallel_map(record_task, TASKS, workers=1, retries=2)
        assert out == CLEAN


class TestGenuinePoison:
    def test_quarantine_does_not_disturb_neighbours(self):
        out = parallel_map(
            flaky_task, TASKS, workers=2, chunk_size=4,
            retries=1, on_error="record",
        )
        assert isinstance(out[5], TaskFailure)
        assert out[5].attempts >= 2  # retried before quarantine
        assert [x for i, x in enumerate(out) if i != 5] == [
            x for i, x in enumerate(CLEAN) if i != 5
        ]

    def test_retries_do_not_perturb_rng_streams(self):
        # The poisoned run's successful records must be byte-equal to the
        # clean run's: retries must not consume any RNG state.
        poisoned = parallel_map(
            flaky_task, TASKS, workers=2, chunk_size=4,
            retries=3, on_error="record",
        )
        again = parallel_map(
            flaky_task, TASKS, workers=2, chunk_size=4,
            retries=1, on_error="record",
        )
        for i in range(len(TASKS)):
            if i != 5:
                assert poisoned[i] == again[i] == CLEAN[i]


class TestFleetsUnderFaults:
    """End-to-end: census fleets under injected faults vs. clean runs."""

    CENSUS = census_experiment(
        [8], families=("tree",), replicates=4, verify=False
    )

    def _clean_stream(self, path):
        run_fleet(self.CENSUS, workers=2, jsonl_path=path)
        return path.read_text()

    def test_census_with_killed_worker_bit_identical(self, tmp_path):
        clean = self._clean_stream(tmp_path / "clean.jsonl")
        faulted = tmp_path / "faulted.jsonl"
        with injected_env("kill:chunk=0", tmp_path / "tok"):
            run_fleet(
                self.CENSUS, workers=2, jsonl_path=faulted, retries=2,
                timeout=60,
            )
        assert faulted.read_text() == clean

    def test_census_quarantine_then_retry_failed_resume(self, tmp_path):
        clean = self._clean_stream(tmp_path / "clean.jsonl")
        faulted = tmp_path / "faulted.jsonl"
        # Persistent fault: task 2 fails on every attempt -> quarantined.
        with injected_env("raise:task=2,times=50", tmp_path / "tok"):
            out = run_fleet(
                self.CENSUS, workers=2, jsonl_path=faulted, retries=1,
            )
        assert isinstance(out[2], FleetFailure)
        assert out[2].coords["n"] == 8 and out[2].attempts >= 2
        assert "fleet_failure" in faulted.read_text()
        # Resume with --retry-failed semantics, faults disarmed: the
        # quarantined slot is re-run and the merged stream is bit-identical
        # to the uninterrupted run.
        fixed = run_fleet(
            self.CENSUS, workers=2, jsonl_path=faulted, resume=True,
            retry_failed=True,
        )
        assert not any(isinstance(r, FleetFailure) for r in fixed)
        assert faulted.read_text() == clean

    def test_trajectory_census_with_killed_worker_bit_identical(
        self, tmp_path
    ):
        exp = trajectory_experiment(
            [8], families=("tree",), replicates=4, verify=False,
        )
        clean = tmp_path / "clean.jsonl"
        run_fleet(exp, workers=2, jsonl_path=clean)
        faulted = tmp_path / "faulted.jsonl"
        with injected_env("kill:chunk=1", tmp_path / "tok"):
            run_fleet(
                exp, workers=2, jsonl_path=faulted, retries=2, timeout=60
            )
        assert faulted.read_text() == clean.read_text()

    def test_torn_append_then_resume_bit_identical(self, tmp_path):
        clean = self._clean_stream(tmp_path / "clean.jsonl")
        faulted = tmp_path / "faulted.jsonl"
        # Serial fleet so the torn batch cuts a record in half mid-stream;
        # the injected tear raises in the owner, like a crash would stop it.
        with injected_env("torn-write:batch=2", tmp_path / "tok"):
            with pytest.raises(InjectedFault):
                run_fleet(self.CENSUS, workers=1, jsonl_path=faulted)
        # The stream's final line is torn; resume drops it and re-runs.
        run_fleet(self.CENSUS, workers=1, jsonl_path=faulted, resume=True)
        assert faulted.read_text() == clean

    def test_crash_resume_merges_to_uninterrupted_stream(self, tmp_path):
        """Kill a worker mid-fleet, then resume: merged JSONL bit-identical.

        The ISSUE-6 crash-resume satellite end-to-end: the first run dies
        mid-flight (fail-fast so the injected kill aborts the fleet), the
        resumed run (fault disarmed) picks up the streamed prefix and
        finishes; the merged stream equals the uninterrupted run's.
        """
        exp = trajectory_experiment(
            [8], families=("tree",), replicates=6, verify=False,
        )
        clean = tmp_path / "clean.jsonl"
        run_fleet(exp, jsonl_path=clean, workers=2)
        interrupted = tmp_path / "interrupted.jsonl"
        with injected_env("raise:task=3,times=50", tmp_path / "tok"):
            with pytest.raises(TaskExecutionError):
                # Fail-fast + a persistent fault: the failure survives the
                # degraded serial attempt too, aborting the fleet
                # mid-stream (a stand-in for an operator Ctrl-C / crash).
                run_fleet(
                    exp, jsonl_path=interrupted, workers=2, retries=0,
                    timeout=60, on_error="raise",
                )
        streamed = interrupted.read_text()
        assert streamed  # header at minimum; typically a strict prefix
        assert clean.read_text().startswith(streamed.splitlines()[0])
        run_fleet(
            exp, jsonl_path=interrupted, workers=2, resume=True,
            retry_failed=True,
        )
        assert interrupted.read_text() == clean.read_text()


class TestExecutorRecovery:
    def test_pool_heals_after_broken_executor(self, tmp_path):
        from repro.parallel import get_shared_pool

        with injected_env("kill:chunk=0,times=1", tmp_path / "tok"):
            pool = get_shared_pool(2)
            out = pool.map(record_task, TASKS, chunk_size=6, retries=1)
            assert out == CLEAN
            # The same cached pool object keeps serving after the rebuild
            # (the fault's one-firing budget is already spent).
            assert get_shared_pool(2) is pool
            assert pool.map(record_task, TASKS, chunk_size=6) == CLEAN
