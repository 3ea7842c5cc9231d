"""Checkpoint/resume bit-identity for the dynamics engine (DESIGN.md §13).

The contract under test: a run killed at an arbitrary checkpoint boundary
and resumed from its snapshot produces a :class:`DynamicsResult` equal to
the uninterrupted run — same moves, traces, counters, terminal graph —
for both ``engine_mode`` values and every cost-model family.  The kill is
simulated deterministically: a :class:`CheckpointStore` subclass raises
right *after* the Nth snapshot publishes, exactly the state a SIGKILL
between two moves leaves on disk.
"""

import pytest

from repro.core import Swap, SwapDynamics, swapped_graph
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    StoreIntegrityError,
)
from repro.graphs import random_connected_gnm, random_tree
from repro.io.checkpoint import CheckpointStore


class _SimulatedKill(BaseException):
    """Out-of-band 'the process died here' — not an Exception subclass,
    so no library recovery path may swallow it."""


class _KillAfter(CheckpointStore):
    """A store whose owner dies immediately after the Nth publish."""

    def __init__(self, path, kills_after: int):
        super().__init__(path)
        self.saves = 0
        self.kills_after = kills_after

    def save(self, payload, config, meta=None):
        out = super().save(payload, config, meta)
        self.saves += 1
        self.payload = payload
        if self.saves >= self.kills_after:
            raise _SimulatedKill()
        return out


OBJECTIVES = ["sum", "max", "interest-sum:k=3,seed=0", "budget-sum:cap=3"]
ENGINE_MODES = ["batched", "oracle"]


def _dyn(objective, engine_mode) -> SwapDynamics:
    return SwapDynamics(
        objective=objective,
        engine_mode=engine_mode,
        record=True,
        max_steps=400,
        seed=7,
    )


@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
@pytest.mark.parametrize("objective", OBJECTIVES)
class TestResumeBitIdentity:
    def test_kill_mid_run_then_resume_matches_clean(
        self, tmp_path, objective, engine_mode
    ):
        initial = random_connected_gnm(9, 12, seed=3)
        clean = _dyn(objective, engine_mode).run(initial)
        assert clean.steps >= 2, "grid must exercise a multi-move run"

        path = tmp_path / "slot.ckpt"
        killer = _KillAfter(path, kills_after=2)
        with pytest.raises(_SimulatedKill):
            _dyn(objective, engine_mode).run(
                initial, checkpoint=killer, checkpoint_every=1
            )
        assert path.exists(), "the snapshot must survive its owner"

        resumed = _dyn(objective, engine_mode).run(
            initial, checkpoint=path, checkpoint_every=1
        )
        assert resumed == clean
        assert resumed.moves == clean.moves
        assert resumed.social_cost_trace == clean.social_cost_trace
        assert resumed.diameter_trace == clean.diameter_trace
        assert resumed.activations == clean.activations
        # Equality ignores ``certified``, so compare it on its own: the
        # resumed run's certificate ends it exactly as the clean run's did.
        assert resumed.certified == clean.certified
        assert clean.certified == (
            engine_mode == "batched" and clean.converged
        )
        assert not path.exists(), "a finished run clears its slot"

    def test_kill_at_first_snapshot_then_resume(
        self, tmp_path, objective, engine_mode
    ):
        initial = random_tree(10, seed=5)
        clean = _dyn(objective, engine_mode).run(initial)
        killer = _KillAfter(tmp_path / "slot.ckpt", kills_after=1)
        with pytest.raises(_SimulatedKill):
            _dyn(objective, engine_mode).run(
                initial, checkpoint=killer, checkpoint_every=1
            )
        resumed = _dyn(objective, engine_mode).run(
            initial, checkpoint=tmp_path / "slot.ckpt", checkpoint_every=1
        )
        assert resumed == clean


class TestEngineModeSplice:
    def test_oracle_checkpoints_refuse_engine_resume(self, tmp_path):
        # Oracle activation accounting differs; splicing would lie.
        initial = random_connected_gnm(9, 12, seed=3)
        killer = _KillAfter(tmp_path / "slot.ckpt", kills_after=1)
        with pytest.raises(_SimulatedKill):
            _dyn("sum", "oracle").run(
                initial, checkpoint=killer, checkpoint_every=1
            )
        with pytest.raises(StoreIntegrityError):
            _dyn("sum", "batched").run(
                initial, checkpoint=tmp_path / "slot.ckpt", checkpoint_every=1
            )


#: The payload keys of an oracle snapshot.  The oracle keeps no dirty set,
#: so only batched snapshots add a "dirty" key; resume reads both formats.
ORACLE_KEYS = {
    "edges", "seen", "rng", "steps", "activations", "moves", "diam", "cost",
    "idx", "quiet",
}


@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
@pytest.mark.parametrize("schedule", ["round_robin", "random", "greedy"])
def test_snapshot_keys_and_resume_per_schedule(tmp_path, schedule, engine_mode):
    def dyn():
        return SwapDynamics(
            engine_mode=engine_mode, schedule=schedule, record=True,
            max_steps=400, seed=7,
        )

    initial = random_connected_gnm(9, 12, seed=3)
    clean = dyn().run(initial)
    assert clean.steps >= 2
    path = tmp_path / "slot.ckpt"
    killer = _KillAfter(path, kills_after=2)
    with pytest.raises(_SimulatedKill):
        dyn().run(initial, checkpoint=killer, checkpoint_every=1)
    expected = ORACLE_KEYS | ({"dirty"} if engine_mode == "batched" else set())
    assert set(killer.payload) == expected
    resumed = dyn().run(initial, checkpoint=path, checkpoint_every=1)
    assert resumed == clean
    assert resumed.activations == clean.activations


@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
@pytest.mark.parametrize("schedule", ["round_robin", "random", "greedy"])
def test_snapshot_edges_and_seen_replay_its_moves(
    tmp_path, schedule, engine_mode
):
    # The payload's graph state is exactly what its moves lead to: `edges`
    # is the current graph and `seen` every state the run has visited,
    # each as the sorted canonical edge list.
    initial = random_connected_gnm(9, 12, seed=3)
    killer = _KillAfter(tmp_path / "slot.ckpt", kills_after=3)
    with pytest.raises(_SimulatedKill):
        SwapDynamics(
            engine_mode=engine_mode, schedule=schedule, record=True,
            max_steps=400, seed=7,
        ).run(initial, checkpoint=killer, checkpoint_every=1)
    payload = killer.payload
    assert payload["steps"] == 3 and len(payload["moves"]) == 3
    visited = [initial]
    for move in payload["moves"]:
        visited.append(swapped_graph(visited[-1], Swap(*move)))
    assert payload["edges"] == visited[-1].edges().tolist()
    assert payload["seen"] == sorted(g.edges().tolist() for g in visited)


class TestDeadlinePreemption:
    def test_expired_deadline_checkpoints_and_yields(self, tmp_path):
        initial = random_connected_gnm(9, 12, seed=3)
        clean = _dyn("sum", "batched").run(initial)
        path = tmp_path / "slot.ckpt"
        with pytest.raises(DeadlineExceeded):
            # Monotonic instant 0.0 is always in the past: the run must
            # snapshot at the first move boundary and yield, not die dry.
            _dyn("sum", "batched").run(
                initial, checkpoint=path, deadline=0.0
            )
        assert path.exists()
        resumed = _dyn("sum", "batched").run(initial, checkpoint=path)
        assert resumed == clean

    def test_expired_deadline_without_store_still_typed(self):
        initial = random_connected_gnm(9, 12, seed=3)
        with pytest.raises(DeadlineExceeded):
            _dyn("sum", "batched").run(initial, deadline=0.0)


class TestCheckpointConfiguration:
    def test_cadence_without_store_rejected(self):
        with pytest.raises(ConfigurationError):
            SwapDynamics().run(random_tree(6, seed=0), checkpoint_every=5)

    def test_nonpositive_cadence_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SwapDynamics().run(
                random_tree(6, seed=0),
                checkpoint=tmp_path / "s.ckpt",
                checkpoint_every=0,
            )

    def test_different_objective_refuses_foreign_snapshot(self, tmp_path):
        initial = random_tree(10, seed=5)
        killer = _KillAfter(tmp_path / "slot.ckpt", kills_after=1)
        with pytest.raises(_SimulatedKill):
            _dyn("sum", "batched").run(
                initial, checkpoint=killer, checkpoint_every=1
            )
        with pytest.raises(StoreIntegrityError):
            _dyn("max", "batched").run(
                initial, checkpoint=tmp_path / "slot.ckpt", checkpoint_every=1
            )

    def test_corrupt_snapshot_restarts_clean(self, tmp_path):
        initial = random_tree(10, seed=5)
        clean = _dyn("sum", "batched").run(initial)
        killer = _KillAfter(tmp_path / "slot.ckpt", kills_after=1)
        with pytest.raises(_SimulatedKill):
            _dyn("sum", "batched").run(
                initial, checkpoint=killer, checkpoint_every=1
            )
        path = tmp_path / "slot.ckpt"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        resumed = _dyn("sum", "batched").run(
            initial, checkpoint=path, checkpoint_every=1
        )
        assert resumed == clean  # quarantined + restarted from scratch
        assert list(tmp_path.glob("*.quarantined.*"))
