"""Integrity and concurrency contract of the content-addressed result cache.

ISSUE 7 satellite: torn writes are quarantined and recomputed, a crash
mid-write leaves neither ``.tmp`` litter nor a partial entry, concurrent
writers of one key converge to one valid entry, and a corrupted-checksum
entry is never returned to a caller.
"""

import json
import os
import threading

import pytest

from repro.errors import ConfigurationError
from repro.io import ResultCache, cache_key, canonical_json
from repro.io.fsutil import entry_checksum
from repro.parallel import faults
from repro.parallel.faults import InjectedFault


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "rc")


KEY = cache_key("ab" * 8, "sum", "is_equilibrium")
PAYLOAD = {"is_equilibrium": True}


class TestKeying:
    def test_key_is_hex_and_stable(self):
        assert KEY == cache_key("ab" * 8, "sum", "is_equilibrium")
        assert len(KEY) == 32 and set(KEY) <= set("0123456789abcdef")

    def test_every_component_matters(self):
        base = ("ab" * 8, "sum", "is_equilibrium")
        assert cache_key("cd" * 8, *base[1:]) != KEY
        assert cache_key(base[0], "max", base[2]) != KEY
        assert cache_key(base[0], base[1], "best_swap") != KEY
        assert cache_key(*base, {"vertex": 1}) != KEY
        assert cache_key(*base, {"vertex": 1}) != cache_key(
            *base, {"vertex": 2}
        )

    def test_malformed_key_rejected(self, cache):
        with pytest.raises(ConfigurationError):
            cache.entry_path("../escape")
        with pytest.raises(ConfigurationError):
            cache.entry_path("")


class TestRoundTrip:
    def test_miss_then_hit(self, cache):
        assert cache.get(KEY) is None
        cache.put(KEY, PAYLOAD, {"query": "is_equilibrium"})
        assert cache.get(KEY) == PAYLOAD
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1 and stats["hit_rate"] == 0.5

    def test_overwrite_wins(self, cache):
        cache.put(KEY, {"is_equilibrium": True})
        cache.put(KEY, {"is_equilibrium": False})
        assert cache.get(KEY) == {"is_equilibrium": False}

    def test_non_finite_payload_rejected_before_disk(self, cache):
        with pytest.raises(ValueError):
            cache.put(KEY, {"after": float("inf")})
        # The encoding error surfaced before any disk state changed.
        assert not cache.entry_path(KEY).exists()
        assert list(cache.root.glob("*/*.tmp")) == []


class TestCorruption:
    def _entry(self, cache):
        cache.put(KEY, PAYLOAD)
        return cache.entry_path(KEY)

    def test_corrupted_checksum_never_served(self, cache):
        path = self._entry(cache)
        entry = json.loads(path.read_text())
        entry["payload"] = {"is_equilibrium": False}  # checksum now stale
        path.write_text(canonical_json(entry))
        assert cache.get(KEY) is None
        assert cache.stats()["quarantined"] == 1

    def test_truncated_entry_quarantined(self, cache):
        path = self._entry(cache)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert cache.get(KEY) is None
        assert not path.exists()
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_wrong_key_entry_quarantined(self, cache):
        # A valid entry copied under the wrong address must not answer it.
        other = cache_key("cd" * 8, "sum", "is_equilibrium")
        path = self._entry(cache)
        dest = cache.entry_path(other)
        dest.parent.mkdir(exist_ok=True)
        dest.write_bytes(path.read_bytes())
        assert cache.get(other) is None
        assert cache.get(KEY) == PAYLOAD

    def test_unreadable_entry_is_a_plain_miss(self, cache):
        # A path that cannot be read (here a directory) is a miss, as an
        # unreadable checkpoint is "no checkpoint": nothing to quarantine.
        cache.entry_path(KEY).mkdir(parents=True)
        assert cache.get(KEY) is None
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["quarantined"] == 0

    def test_quarantined_entry_recomputable(self, cache):
        path = self._entry(cache)
        path.write_bytes(b"\x00garbage")
        assert cache.get(KEY) is None  # quarantined
        cache.put(KEY, PAYLOAD)  # the caller recomputes and re-publishes
        assert cache.get(KEY) == PAYLOAD


class TestTornWrite:
    def test_injected_tear_is_quarantined_then_recomputed(
        self, cache, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            faults.ENV_SPEC, f"torn-write:path={cache.root.name}"
        )
        with pytest.raises(InjectedFault):
            cache.put(KEY, PAYLOAD)
        path = cache.entry_path(KEY)
        assert path.exists()  # the torn bytes landed on the final path
        assert cache.get(KEY) is None  # detected, quarantined, miss
        assert cache.stats()["quarantined"] == 1
        cache.put(KEY, PAYLOAD)  # budget spent: the recompute write is clean
        assert cache.get(KEY) == PAYLOAD

    def test_path_filter_protects_other_files(self, cache, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "torn-write:path=not-this-cache")
        cache.put(KEY, PAYLOAD)
        assert cache.get(KEY) == PAYLOAD


class TestCrashMidWrite:
    def test_crash_before_rename_leaves_no_partial_entry(self, cache):
        # Simulate the crash window: the tmp sidecar is fully written but
        # the process dies before os.replace publishes it.
        final = cache.entry_path(KEY)
        final.parent.mkdir(exist_ok=True)
        tmp = final.with_name(f"{final.name}.4242.0.tmp")
        tmp.write_bytes(b'{"half": ')
        assert cache.get(KEY) is None  # no partial entry visible
        fresh = ResultCache(cache.root)  # next startup sweeps the litter
        assert fresh.swept_tmp == 1
        assert list(fresh.root.glob("*/*.tmp")) == []

    def test_clean_writes_leave_no_tmp_litter(self, cache):
        for i in range(5):
            cache.put(KEY, {"is_equilibrium": bool(i % 2)})
        assert list(cache.root.glob("*/*.tmp")) == []


class TestConcurrentWriters:
    def test_same_key_writers_converge_to_one_valid_entry(self, cache):
        barrier = threading.Barrier(8)
        errors = []

        def writer(i):
            try:
                barrier.wait()
                for _ in range(20):
                    cache.put(KEY, PAYLOAD, {"writer": i})
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        shard = cache.entry_path(KEY).parent
        entries = [p for p in shard.iterdir() if p.suffix == ".json"]
        assert len(entries) == 1
        assert list(cache.root.glob("*/*.tmp")) == []
        assert cache.get(KEY) == PAYLOAD
        assert cache.stats()["quarantined"] == 0


class TestEntryFormat:
    def test_entry_checksum_matches_canonical_payload(self, cache):
        cache.put(KEY, PAYLOAD, {"query": "is_equilibrium"})
        entry = json.loads(cache.entry_path(KEY).read_text())
        assert entry["v"] == 1 and entry["key"] == KEY
        assert entry["checksum"] == entry_checksum(PAYLOAD)
        assert entry["meta"] == {"query": "is_equilibrium"}

    def test_sharded_layout(self, cache):
        cache.put(KEY, PAYLOAD)
        path = cache.entry_path(KEY)
        assert path.parent.name == KEY[:2]
        assert path.name == f"{KEY}.json"
        assert os.path.commonpath([path, cache.root]) == str(cache.root)
