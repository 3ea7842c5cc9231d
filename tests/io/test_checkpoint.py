"""CheckpointStore contract: atomic durable publish, verified reads,
quarantine-not-resume on corruption, and the injected disk-fault sites
(DESIGN.md §13)."""

import json
import os

import pytest

from repro.errors import StoreIntegrityError
from repro.io.checkpoint import CheckpointStore, peek_checkpoint
from repro.parallel import faults
from repro.parallel.faults import InjectedFault


@pytest.fixture(autouse=True)
def _clean_channels(monkeypatch):
    """Every test starts with no armed faults and leaves none behind."""
    for key in (faults.ENV_SPEC, faults.ENV_DIR, faults.ENV_SAFE_PID):
        monkeypatch.delenv(key, raising=False)
    faults.clear_hooks()
    faults._LOCAL_TOKENS.clear()
    yield
    faults.clear_hooks()
    faults._LOCAL_TOKENS.clear()


CONFIG = {"v": 1, "objective": "sum", "n": 8, "initial": "abc123"}
OTHER = {"v": 1, "objective": "max", "n": 8, "initial": "abc123"}


def _store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "slot-00000.ckpt")


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = _store(tmp_path)
        payload = {"steps": 17, "profile": [1, 2, 3], "rng": "deadbeef"}
        store.save(payload, CONFIG, meta={"steps": 17})
        assert store.load(CONFIG) == payload

    def test_missing_slot_loads_none(self, tmp_path):
        store = _store(tmp_path)
        assert store.load(CONFIG) is None
        assert not store.exists()

    def test_save_replaces_previous(self, tmp_path):
        store = _store(tmp_path)
        store.save({"steps": 1}, CONFIG)
        store.save({"steps": 2}, CONFIG)
        assert store.load(CONFIG) == {"steps": 2}

    def test_clear_removes_slot_and_is_idempotent(self, tmp_path):
        store = _store(tmp_path)
        store.save({"steps": 1}, CONFIG)
        store.clear()
        assert not store.exists()
        store.clear()  # no slot -> no error
        assert store.load(CONFIG) is None


class TestPeek:
    def test_peek_returns_meta_without_payload_semantics(self, tmp_path):
        store = _store(tmp_path)
        store.save({"big": list(range(50))}, CONFIG,
                   meta={"steps": 9, "activations": 4})
        assert peek_checkpoint(store.path) == {"steps": 9, "activations": 4}

    def test_peek_checkpoint_reads_only_verified_entries(self, tmp_path):
        # Progress is reported from a verified entry only: a slot whose
        # checksum fails reports none (status shows the recorded block).
        store = _store(tmp_path)
        store.save({"steps": 9}, CONFIG, meta={"steps": 9})
        entry = json.loads(store.path.read_text())
        entry["payload"] = {"steps": 99}
        store.path.write_text(json.dumps(entry))
        assert peek_checkpoint(store.path) is None
        assert store.exists()

    def test_peek_checkpoint_missing_is_none(self, tmp_path):
        assert peek_checkpoint(tmp_path / "nope.ckpt") is None

    def test_peek_checkpoint_garbage_is_none_and_side_effect_free(
        self, tmp_path
    ):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"\x00\xffnot json")
        assert peek_checkpoint(path) is None
        # Unlike load(), the status path must not quarantine or touch
        # files it does not own.
        assert path.exists()
        assert list(tmp_path.iterdir()) == [path]


class TestCorruption:
    def test_torn_bytes_quarantined_and_restart(self, tmp_path):
        store = _store(tmp_path)
        store.save({"steps": 5}, CONFIG)
        blob = store.path.read_bytes()
        store.path.write_bytes(blob[: len(blob) // 2])
        assert store.load(CONFIG) is None
        assert not store.exists()
        quarantined = list(tmp_path.glob("*.quarantined.*"))
        assert len(quarantined) == 1

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = _store(tmp_path)
        store.save({"steps": 5}, CONFIG)
        entry = json.loads(store.path.read_text())
        entry["payload"] = {"steps": 99}  # bit rot with intact JSON
        store.path.write_text(json.dumps(entry))
        assert store.load(CONFIG) is None
        assert list(tmp_path.glob("*.quarantined.*"))

    def test_unknown_version_quarantined(self, tmp_path):
        store = _store(tmp_path)
        store.path.write_text(json.dumps({"v": 999, "payload": {}}))
        assert store.load(CONFIG) is None
        assert list(tmp_path.glob("*.quarantined.*"))

    def test_config_mismatch_is_loud_not_quarantined(self, tmp_path):
        # A *valid* checkpoint for a different run is somebody else's
        # progress: refusing loudly beats silently splicing two games.
        store = _store(tmp_path)
        store.save({"steps": 5}, CONFIG)
        with pytest.raises(StoreIntegrityError, match="different config"):
            store.load(OTHER)
        assert store.exists()  # never destroyed
        assert store.load(CONFIG) == {"steps": 5}  # still good for its owner


class TestSweep:
    def test_stale_tmp_sidecars_swept_on_construction(self, tmp_path):
        path = tmp_path / "slot-00000.ckpt"
        CheckpointStore(path).save({"steps": 3}, CONFIG)
        stale = path.with_name(f"{path.name}.4242.0.tmp")
        stale.write_bytes(b"half-written")
        reopened = CheckpointStore(path)
        assert reopened.swept_tmp == 1
        assert not stale.exists()
        assert reopened.load(CONFIG) == {"steps": 3}

    def test_sweep_ignores_other_slots(self, tmp_path):
        path = tmp_path / "slot-00000.ckpt"
        other = tmp_path / "slot-00001.ckpt.4242.0.tmp"
        other.write_bytes(b"someone else's sidecar")
        assert CheckpointStore(path).swept_tmp == 0
        assert other.exists()


class TestInjectedFaults:
    def test_enospc_keeps_previous_checkpoint_live(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        store.save({"steps": 5}, CONFIG)
        monkeypatch.setenv(faults.ENV_SPEC, "enospc:path=slot-00000")
        with pytest.raises(StoreIntegrityError, match="ENOSPC"):
            store.save({"steps": 6}, CONFIG)
        # The fault fires once; after it, the earlier snapshot is intact
        # and the next save succeeds.
        assert store.load(CONFIG) == {"steps": 5}
        store.save({"steps": 7}, CONFIG)
        assert store.load(CONFIG) == {"steps": 7}

    def test_torn_write_detected_by_checksum(self, tmp_path, monkeypatch):
        store = _store(tmp_path)
        monkeypatch.setenv(faults.ENV_SPEC, "torn-write:path=slot-00000")
        with pytest.raises(InjectedFault):
            store.save({"steps": 6}, CONFIG)
        # Half an entry landed on the final path: load must quarantine it
        # and report "no checkpoint", never resume from garbage.
        assert store.load(CONFIG) is None
        assert list(tmp_path.glob("*.quarantined.*"))

    def test_torn_rename_leaves_old_file_authoritative(
        self, tmp_path, monkeypatch
    ):
        store = _store(tmp_path)
        store.save({"steps": 5}, CONFIG)
        monkeypatch.setenv(faults.ENV_SPEC, "torn-rename:path=slot-00000")
        with pytest.raises(InjectedFault):
            store.save({"steps": 6}, CONFIG)
        # The rename was lost: the previous checkpoint is still the live
        # one and the abandoned sidecar is swept on the next open.
        assert store.load(CONFIG) == {"steps": 5}
        assert CheckpointStore(store.path).swept_tmp == 1

    def test_real_oserror_on_sidecar_is_typed(self, tmp_path, monkeypatch):
        store = _store(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError(28, os.strerror(28))

        monkeypatch.setattr("builtins.open", full_disk)
        with pytest.raises(StoreIntegrityError, match="write failed"):
            store.save({"steps": 6}, CONFIG)
