"""Process-pool tests: ``parallel_map`` and the persistent fleet pool."""

import os

import pytest

from repro.errors import ConfigurationError, TaskExecutionError
from repro.parallel import (
    SharedArrayPool,
    TaskFailure,
    default_workers,
    get_shared_pool,
    map_streamed,
    parallel_map,
)


def square(x: int) -> int:
    return x * x


def fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"cannot square {x}")
    return x * x


def seeded_record(task: tuple[int, int]) -> dict:
    # A toy deterministic "experiment": result depends only on the task.
    idx, seed = task
    from repro.rng import make_rng

    rng = make_rng(seed)
    return {"idx": idx, "value": int(rng.integers(0, 1_000_000))}


def pid_tag(task: int) -> tuple[int, int]:
    return task, os.getpid()


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(square, [], workers=1) == []

    def test_serial_matches_parallel(self):
        tasks = list(range(20))
        serial = parallel_map(square, tasks, workers=1)
        parallel = parallel_map(square, tasks, workers=2)
        assert serial == parallel == [x * x for x in tasks]

    def test_order_preserved(self):
        tasks = list(range(31, 0, -1))
        assert parallel_map(square, tasks, workers=2) == [x * x for x in tasks]

    def test_seeded_results_worker_independent(self):
        tasks = [(i, 1000 + i) for i in range(12)]
        one = parallel_map(seeded_record, tasks, workers=1)
        two = parallel_map(seeded_record, tasks, workers=2)
        assert one == two

    def test_lambda_rejected_for_multiprocess(self):
        with pytest.raises(ConfigurationError):
            parallel_map(lambda x: x, [1, 2, 3], workers=2)

    def test_lambda_fine_serially(self):
        assert parallel_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]

    def test_worker_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1], workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 8, 64])
    def test_results_independent_of_chunking(self, chunk_size):
        tasks = [(i, 1000 + i) for i in range(19)]
        serial = parallel_map(seeded_record, tasks, workers=1)
        assert parallel_map(
            seeded_record, tasks, workers=2, chunk_size=chunk_size
        ) == serial

    def test_multi_worker_call_runs_on_the_persistent_pool(self):
        out = parallel_map(pid_tag, list(range(12)), workers=2)
        assert [t for t, _ in out] == list(range(12))
        pool_pids = set(get_shared_pool(2)._executor._processes)
        assert {p for _, p in out} <= pool_pids
        assert os.getpid() not in pool_pids

    def test_single_task_runs_in_process(self):
        assert parallel_map(pid_tag, [7], workers=2) == [(7, os.getpid())]

    @pytest.mark.parametrize("knob", [
        {"shared": {}}, {"backend": "fork"},
    ], ids=["shared", "backend"])
    def test_removed_channel_knobs_rejected(self, knob):
        # Tasks are plain picklable tuples; there is no side channel for
        # arrays and no second backend to pick.
        with pytest.raises(TypeError):
            parallel_map(square, [1, 2], workers=2, **knob)


class TestMapStreamed:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_consume_sees_every_result_in_task_order(self, workers):
        batches: list = []
        tasks = list(range(23))
        out = map_streamed(square, tasks, workers, batches.append)
        assert out == [x * x for x in tasks]
        assert [x for batch in batches for x in batch] == out

    def test_record_policy_streams_failures_in_their_slots(self):
        batches: list = []
        out = map_streamed(
            fail_on_three, list(range(8)), 2, batches.append,
            retries=0, on_error="record",
        )
        assert isinstance(out[3], TaskFailure) and out[3].index == 3
        assert [x for batch in batches for x in batch] == out


class TestWorkerExceptionIdentity:
    """ISSUE 6 satellite: raised errors carry the failing task's identity."""

    @pytest.mark.parametrize("workers", [2])
    def test_error_names_task_index_and_repr(self, workers):
        with pytest.raises(TaskExecutionError) as err:
            parallel_map(
                fail_on_three, list(range(8)), workers=workers,
                chunk_size=2,
            )
        assert err.value.index == 3
        assert "3" in err.value.task_repr
        assert "cannot square 3" in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)

    def test_serial_fault_tolerant_path_same_identity(self):
        with pytest.raises(TaskExecutionError) as err:
            parallel_map(fail_on_three, list(range(8)), workers=1, retries=1)
        assert err.value.index == 3
        assert err.value.attempts == 2

    def test_on_error_record_quarantines_slot(self):
        out = parallel_map(
            fail_on_three, list(range(8)), workers=1, on_error="record"
        )
        assert isinstance(out[3], TaskFailure)
        assert out[3].index == 3
        assert [x for i, x in enumerate(out) if i != 3] == [
            x * x for x in range(8) if x != 3
        ]


class TestFaultToleranceKnobs:
    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1], workers=1, on_error="ignore")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1], workers=1, retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1], workers=1, timeout=0)

    def test_retries_do_not_change_results(self):
        tasks = [(i, 1000 + i) for i in range(12)]
        plain = parallel_map(seeded_record, tasks, workers=2)
        retried = parallel_map(
            seeded_record, tasks, workers=2, retries=3, timeout=60
        )
        assert plain == retried


class TestSharedArrayPool:
    def test_map_preserves_order_and_reuses_workers(self):
        pool = get_shared_pool(2)
        tasks = list(range(17))
        first = pool.map(pid_tag, tasks)
        spawned = set(pool._executor._processes)
        second = pool.map(pid_tag, tasks)
        assert [t for t, _ in first] == tasks
        assert [t for t, _ in second] == tasks
        # Persistent pool: the second call runs on the same executor and
        # spawns no new worker processes.  (Which of the spawned workers
        # executes a given chunk is scheduler timing — an idle worker may
        # first pick up work in call 2 — so assert the process table, not
        # the executed-PID sets.)
        assert set(pool._executor._processes) == spawned
        assert {p for _, p in second} <= spawned

    def test_get_shared_pool_caches_by_worker_count(self):
        assert get_shared_pool(2) is get_shared_pool(2)
        assert get_shared_pool(2) is not get_shared_pool(3)

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            SharedArrayPool(0)
        with pytest.raises(ConfigurationError):
            get_shared_pool(0)


class TestExecutorHealing:
    """A cached pool must never serve a dead executor."""

    def test_broken_executor_detected_and_rebuilt(self):
        pool = get_shared_pool(2)
        assert pool.map(pid_tag, list(range(4)))  # spin the workers up
        # Simulate an external OOM-kill of every worker, then poke the
        # executor so it marks itself broken.
        for proc in pool._executor._processes.values():
            proc.kill()
        try:
            pool._executor.submit(os.getpid).result(timeout=30)
        except Exception:
            pass
        assert getattr(pool._executor, "_broken", False)
        # The next map on the same cached pool heals and serves.
        out = pool.map(pid_tag, list(range(6)))
        assert [t for t, _ in out] == list(range(6))

    def test_ensure_executor_discards_broken_corpse(self):
        pool = get_shared_pool(3)
        ex = pool._ensure_executor()
        ex.submit(os.getpid).result(timeout=30)  # spawn the workers
        for proc in ex._processes.values():
            proc.kill()
        try:
            ex.submit(os.getpid).result(timeout=30)
        except Exception:
            pass
        rebuilt = pool._ensure_executor()
        assert rebuilt is not ex
        assert not getattr(rebuilt, "_broken", False)
