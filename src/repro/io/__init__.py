"""Audited on-disk state: record streams, fingerprints, caches, checkpoints."""

from .checkpoint import CheckpointStore, peek_checkpoint
from .fsutil import canonical_json, fsync_dir, publish_replace
from .hashing import graph_fingerprint
from .jsonl_store import (
    FleetFailure,
    JsonlStore,
    StreamSummary,
    maybe_decode_failure,
    summarize_stream,
)
from .result_cache import ResultCache, cache_key

__all__ = [
    "CheckpointStore",
    "FleetFailure",
    "JsonlStore",
    "ResultCache",
    "StreamSummary",
    "cache_key",
    "canonical_json",
    "fsync_dir",
    "graph_fingerprint",
    "maybe_decode_failure",
    "peek_checkpoint",
    "publish_replace",
    "summarize_stream",
]
