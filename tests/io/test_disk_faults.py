"""ENOSPC and torn-rename regressions across every persistence path.

DESIGN.md §13's disk-fault model: a full disk mid-write surfaces as the
typed :class:`~repro.errors.StoreIntegrityError` with the published state
unchanged (a torn JSONL tail is dropped on resume; a cache/checkpoint
final file is never half-new), and a rename lost before the directory
fsync leaves the *old* file authoritative with the complete sidecar as
sweepable litter.  The end-to-end heal is ``scripts/chaos_soak.py``;
these are the per-store unit regressions.
"""

import os
from dataclasses import dataclass

import pytest

from repro.errors import StoreIntegrityError
from repro.io import CheckpointStore, JsonlStore, ResultCache, cache_key
from repro.parallel import faults
from repro.parallel.faults import InjectedFault


@pytest.fixture(autouse=True)
def _clean_channels(monkeypatch):
    for key in (faults.ENV_SPEC, faults.ENV_DIR, faults.ENV_SAFE_PID):
        monkeypatch.delenv(key, raising=False)
    faults.clear_hooks()
    faults._LOCAL_TOKENS.clear()
    yield
    faults.clear_hooks()
    faults._LOCAL_TOKENS.clear()


@dataclass
class Item:
    a: int


def make_store(path):
    return JsonlStore(
        path,
        config_key="item_config",
        config_version=1,
        config={"mode": "x"},
        decode=lambda obj: Item(**obj),
        record_name="item record",
    )


class TestJsonlEnospc:
    def test_append_enospc_is_typed_and_tail_drops_on_resume(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "items.jsonl"
        store = make_store(path)
        store.rewrite_prefix([Item(1)])
        monkeypatch.setenv(faults.ENV_SPEC, "enospc:path=items.jsonl")
        with store.open_append() as sink:
            with pytest.raises(StoreIntegrityError, match="ENOSPC"):
                store.append(sink, [Item(2)])
        # Half the batch landed: a torn tail, dropped on resume; the
        # durable prefix survives untouched.
        resumed = make_store(path).start_stream(resume=True, count=99)
        assert resumed == [Item(1)]

    def test_append_after_spent_enospc_succeeds(self, tmp_path, monkeypatch):
        path = tmp_path / "items.jsonl"
        store = make_store(path)
        store.rewrite_prefix([])
        monkeypatch.setenv(faults.ENV_SPEC, "enospc:path=items.jsonl")
        with store.open_append() as sink:
            with pytest.raises(StoreIntegrityError):
                store.append(sink, [Item(1)])
        # The disk "recovered" (the spec's budget is spent): the stream
        # heals by rewriting the validated prefix and appending afresh.
        healed = make_store(path)
        healed.rewrite_prefix(healed.start_stream(resume=True, count=99))
        with healed.open_append() as sink:
            healed.append(sink, [Item(1)])
        assert make_store(path).resume_records() == [Item(1)]


class TestJsonlTornRename:
    def test_lost_rewrite_rename_keeps_old_prefix_authoritative(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "items.jsonl"
        store = make_store(path)
        store.rewrite_prefix([Item(1), Item(2)])
        before = path.read_bytes()
        monkeypatch.setenv(faults.ENV_SPEC, "torn-rename:path=items.jsonl")
        with pytest.raises(InjectedFault):
            store.rewrite_prefix([Item(1), Item(2), Item(3)])
        # The crash window between os.replace and the directory fsync:
        # the old file is still the live one, bit for bit, and the
        # complete sidecar is litter a resume may sweep.
        assert path.read_bytes() == before
        assert make_store(path).resume_records() == [Item(1), Item(2)]


class TestResultCacheDiskFaults:
    KEY = cache_key("ab" * 8, "sum", "is_equilibrium")

    def test_enospc_leaves_no_entry_and_next_put_wins(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "rc")
        monkeypatch.setenv(faults.ENV_SPEC, "enospc:path=rc")
        with pytest.raises(StoreIntegrityError, match="ENOSPC"):
            cache.put(self.KEY, {"ok": 1})
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, {"ok": 1})
        assert cache.get(self.KEY) == {"ok": 1}

    def test_torn_rename_keeps_previous_entry_live(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "rc")
        cache.put(self.KEY, {"gen": 1})
        monkeypatch.setenv(faults.ENV_SPEC, "torn-rename:path=rc")
        with pytest.raises(InjectedFault):
            cache.put(self.KEY, {"gen": 2})
        assert cache.get(self.KEY) == {"gen": 1}
        # A fresh cache over the same directory sweeps the orphaned
        # sidecar and still serves the last published generation.
        reopened = ResultCache(tmp_path / "rc")
        assert reopened.get(self.KEY) == {"gen": 1}
        assert reopened.stats()["swept_tmp"] >= 1


class _CheckpointSlot:
    CONFIG = {"v": 1, "objective": "sum", "n": 3}
    PAYLOAD = {"steps": 2, "edges": [[0, 1], [1, 2]]}
    BYTES = (
        b'{"checksum":"7fa97f10d61d258a45fa669719cb89b5d165b9e69a4310d098ed'
        b'9a697e373b2e","config":{"n":3,"objective":"sum","v":1},"meta":'
        b'{"steps":2},"payload":{"edges":[[0,1],[1,2]],"steps":2},"v":1}'
    )

    def __init__(self, tmp_path):
        self.path = tmp_path / "slot-00000.ckpt"

    def open(self):
        return CheckpointStore(self.path)

    def write(self, store, payload):
        return store.save(payload, self.CONFIG, meta={"steps": 2})

    def read(self, store):
        return store.load(self.CONFIG)


class _CacheSlot:
    KEY = cache_key("ab" * 8, "sum", "is_equilibrium")
    PAYLOAD = {"is_equilibrium": True}
    BYTES = (
        b'{"checksum":"2cd8f7a848d2febc83cde26fecf7d4f459db05049d42f0a182e5'
        b'8757d2127b7b","key":"2a8043c2a53c6ede7ca4df9429a3b1a1","meta":'
        b'{"query":"is_equilibrium"},"payload":{"is_equilibrium":true},"v":1}'
    )

    def __init__(self, tmp_path):
        self.root = tmp_path / "rc"

    def open(self):
        return ResultCache(self.root)

    def write(self, store, payload):
        return store.put(self.KEY, payload, {"query": "is_equilibrium"})

    def read(self, store):
        return store.get(self.KEY)


@pytest.fixture(params=[_CheckpointSlot, _CacheSlot],
                ids=["checkpoint", "cache"])
def slot(request, tmp_path):
    return request.param(tmp_path)


class TestSharedEntryWriter:
    """Checkpoints and cache entries share one writer: one byte format and
    one answer to a failed sidecar write or a lost rename."""

    def test_entry_bytes_are_pinned(self, slot):
        path = slot.write(slot.open(), slot.PAYLOAD)
        assert path.read_bytes() == slot.BYTES

    def test_real_oserror_on_sidecar_keeps_previous_entry(
        self, slot, monkeypatch
    ):
        store = slot.open()
        path = slot.write(store, slot.PAYLOAD)

        def full_disk(*args, **kwargs):
            raise OSError(28, os.strerror(28))

        with monkeypatch.context() as patched:
            patched.setattr("builtins.open", full_disk)
            with pytest.raises(StoreIntegrityError, match="write failed"):
                slot.write(store, {"gen": 2})
        assert path.read_bytes() == slot.BYTES
        assert list(path.parent.glob("*.tmp")) == []
        assert slot.read(store) == slot.PAYLOAD

    def test_torn_rename_keeps_old_entry_and_reopen_sweeps(
        self, slot, monkeypatch
    ):
        store = slot.open()
        path = slot.write(store, slot.PAYLOAD)
        monkeypatch.setenv(faults.ENV_SPEC, f"torn-rename:path={path.name}")
        with pytest.raises(InjectedFault):
            slot.write(store, {"gen": 2})
        assert path.read_bytes() == slot.BYTES
        assert len(list(path.parent.glob("*.tmp"))) == 1
        reopened = slot.open()
        assert reopened.swept_tmp == 1
        assert list(path.parent.glob("*.tmp")) == []
        assert slot.read(reopened) == slot.PAYLOAD
