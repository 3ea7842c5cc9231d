"""Crash-safe content-addressed store for equilibrium-audit results.

The audit service (DESIGN.md §10) answers pure queries — ``(graph,
cost model, query)`` determines the answer bit-for-bit — so answers are
cached on disk keyed by content, not by request identity:
:func:`cache_key` hashes ``(graph_fingerprint, model_spec, query_kind,
params)`` into a hex digest, and :class:`ResultCache` maps each key to one
JSON entry file under a two-level sharded directory layout
(``root/<key[:2]>/<key>.json``).

Each entry is one checksummed entry, written and verified by
:mod:`repro.io.fsutil` (fault sites included; ``path=`` filters match
the entry's final path).  The cache adds the key each entry claims to
answer, and the quarantine: an entry that fails verification or answers
another key is moved into ``root/quarantine/`` and reported as a miss,
so corruption is *recomputed around*, never served.  An unreadable file
is a plain miss.  Concurrent writers of one key converge — each publishes
a complete entry and the last rename wins, both valid because the
payload is a pure function of the key — and a failed write raises
:class:`~repro.errors.StoreIntegrityError` with the final path untouched,
so callers serve the computed answer uncached.

Counters (hits / misses / writes / quarantined / swept tmp files) feed the
service's ``/stats`` endpoint.  All methods are thread-safe: the service
handles requests from ``ThreadingHTTPServer`` threads.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path

from ..errors import ConfigurationError
from .fsutil import canonical_json, read_entry, sweep_tmp, write_entry

# canonical_json lives in fsutil; it is re-exported here, where the cache
# key and the traced `io.canonical_json` layer have always found it.
__all__ = ["ResultCache", "cache_key", "canonical_json"]


def cache_key(
    fingerprint: str,
    model_spec: str,
    query_kind: str,
    params: "dict | None" = None,
) -> str:
    """Content address of one audit answer: 32 hex chars.

    ``fingerprint`` is :func:`repro.io.hashing.graph_fingerprint` output;
    ``model_spec`` the canonical cost-model spec string; ``params`` any
    extra query arguments that change the answer (e.g. ``{"vertex": 3}``
    for a best-swap query).  The audit ``mode`` is deliberately *not* part
    of the key: batched and rebuild are answer-equivalent by the library's
    core invariant, and the cache stores answers.
    """
    material = canonical_json(
        [fingerprint, model_spec, query_kind, params or {}]
    )
    return hashlib.sha256(material.encode("ascii")).hexdigest()[:32]


class ResultCache:
    """Content-addressed audit-result store with integrity verification.

    ``get`` returns the verified payload or ``None``; ``put`` atomically
    publishes ``payload`` under ``key``.  Payloads must be canonical-JSON
    serializable (plain dicts/lists/strings/finite numbers).  Stale
    ``.tmp`` sidecars (crashed writers, lost renames) are swept on
    construction.
    """

    def __init__(self, root: "str | os.PathLike"):
        self.root = Path(root)
        self.quarantine_dir = self.root / "quarantine"
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.swept_tmp = sweep_tmp(self.root, "*/*.tmp")

    def entry_path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigurationError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    # -- read path --------------------------------------------------------

    def get(self, key: str, *, count_miss: bool = True):
        """The verified payload stored under ``key``, or ``None``.

        An unparsable, checksum-failing, or mis-keyed entry is moved to
        ``quarantine/`` and reported as a miss — the caller recomputes and
        overwrites.  ``count_miss=False`` keeps a re-check of an
        already-counted miss (the service double-checks under its
        admission gate) from inflating the miss counter; hits always count.
        """
        path = self.entry_path(key)
        entry = read_entry(path)
        if entry and entry.get("key") == key:
            with self._lock:
                self.hits += 1
            return entry.get("payload")
        if entry is not None:
            self._quarantine(path)
        if count_miss:
            with self._lock:
                self.misses += 1
        return None

    def _quarantine(self, path: Path) -> None:
        dest = self.quarantine_dir / f"{path.name}.{os.getpid()}.quarantined"
        try:
            os.replace(path, dest)
        except OSError:  # pragma: no cover - concurrent quarantine/overwrite
            return
        with self._lock:
            self.quarantined += 1

    # -- write path -------------------------------------------------------

    def put(self, key: str, payload, meta: "dict | None" = None) -> Path:
        """Atomically publish ``payload`` under ``key``; returns the path.

        A failed write raises :class:`~repro.errors.StoreIntegrityError`
        with the final path untouched.
        """
        final = self.entry_path(key)
        final.parent.mkdir(exist_ok=True)
        write_entry(
            final, {"key": key, "meta": meta or {}}, payload,
            what="cache entry",
        )
        with self._lock:
            self.writes += 1
        return final

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot (feeds the service's ``/stats``)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "quarantined": self.quarantined,
                "swept_tmp": self.swept_tmp,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
