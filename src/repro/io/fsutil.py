"""Durable publish and the checksummed entry shared by every crash-safe store.

Every "atomic write" in this package follows the same discipline: build the
complete new content in a sidecar, ``os.replace`` it onto the final path,
and **fsync the parent directory**.  ``os.replace`` alone makes the swap
atomic against process crashes, but the *rename itself* lives in the
directory, and a directory entry is just more file data: until it is
synced, a power cut can roll the rename back and resurrect the old file
(or nothing).  :class:`~repro.io.jsonl_store.JsonlStore`,
:class:`~repro.io.result_cache.ResultCache`, and
:class:`~repro.io.checkpoint.CheckpointStore` all publish through
:func:`publish_replace`.

:func:`publish_replace` is also the instrumented ``torn-rename`` fault
site (:mod:`repro.parallel.faults`): a firing leaves the complete sidecar
in place, skips the rename, and raises — the deterministic stand-in for
the lost-rename crash window, which the stores' resume/sweep machinery
must absorb (the old final file is still authoritative; the sidecar is
garbage to sweep).

**The checksummed entry.**  Checkpoints and result-cache entries are one
format, written only by :func:`write_entry` and verified only by
:func:`read_entry`: one canonical-JSON object
``{"v": 1, **fields, "checksum": ..., "payload": ...}`` whose checksum is
the SHA-256 of the canonically serialized payload.  The stores add only
their own ``fields`` (the checkpoint's ``config``, the cache's ``key``,
both a ``meta`` block), what a verified entry must agree on, and where a
corrupt one is quarantined.

Lint rule R10 pins the discipline: raw ``os.replace`` / ``os.fsync``
calls outside :mod:`repro.io` are findings — durable writes go through
the sanctioned stores, and the stores come through here.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from ..errors import StoreIntegrityError
from ..parallel import faults

__all__ = [
    "canonical_json",
    "entry_checksum",
    "fsync_dir",
    "publish_replace",
    "read_entry",
    "sweep_tmp",
    "write_entry",
]

_ENTRY_VERSION = 1


def canonical_json(value) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace, strict).

    The checksum contract hashes these bytes, so the encoding must be
    canonical and standard: ``allow_nan=False`` rejects non-finite floats
    — callers encode them as strings first (see the service's payload
    builders) — because ``Infinity`` is not valid JSON and would make
    entries unreadable to strict parsers.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def entry_checksum(payload) -> str:
    """SHA-256 hex digest of the canonically serialized ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def fsync_dir(path: "str | os.PathLike") -> None:
    """Fsync a directory, making previously renamed entries crash-durable.

    Best-effort on platforms/filesystems that refuse to open or fsync a
    directory (some network filesystems): durability degrades to the
    filesystem's own guarantees there — never an error on the write path.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def publish_replace(tmp: "str | os.PathLike", final: "str | os.PathLike") -> None:
    """Atomically publish ``tmp`` as ``final`` and sync the directory entry.

    The one sanctioned way a complete sidecar becomes the live file: the
    caller has already written and fsynced ``tmp``; this renames it over
    ``final`` and fsyncs the parent directory so the rename survives power
    loss.  Honours an armed ``torn-rename`` fault (``path=`` filter
    matches ``final``): the sidecar is left intact, the rename is skipped,
    and :class:`~repro.parallel.faults.InjectedFault` is raised — the
    crash-window the directory fsync exists to close, injected
    deterministically so the recovery paths stay tested.
    """
    final = Path(final)
    spec = faults.take("torn-rename", path=str(final))
    if spec is not None:
        raise faults.InjectedFault(
            f"injected torn-rename publishing {final} (sidecar left behind)"
        )
    os.replace(tmp, final)
    fsync_dir(final.parent)


def write_entry(
    final: "str | os.PathLike", fields: dict, payload, *, what: str
) -> Path:
    """Atomically publish a checksummed entry at ``final``; returns the path.

    ``fields`` are the store's own top-level keys; ``what`` names the
    store in error messages.  The entry is serialized before any disk
    state changes (a non-finite float raises ``ValueError`` with the disk
    untouched), written to a writer-unique ``<final>.<pid>.<thread>.tmp``
    sidecar, fsynced, and published by :func:`publish_replace`: a crash
    leaves the previous entry or the new one, never a torn final file.
    A failed sidecar write — any ``OSError``, or the injected ``enospc``
    site, which leaves half the entry in the sidecar — raises
    :class:`~repro.errors.StoreIntegrityError` with ``final`` untouched.
    The injected ``torn-write`` site writes half the entry **to**
    ``final`` and raises :class:`~repro.parallel.faults.InjectedFault`:
    the post-rename content loss of a power cut, which the checksum must
    catch.  Both sites' ``path=`` filters match ``final``.
    """
    final = Path(final)
    blob = canonical_json({
        "v": _ENTRY_VERSION,
        **fields,
        "checksum": entry_checksum(payload),
        "payload": payload,
    }).encode("utf-8")
    if faults.take("torn-write", path=str(final)) is not None:
        final.write_bytes(blob[: len(blob) // 2])
        raise faults.InjectedFault(f"injected torn-write of {what} {final}")
    # A thread runs one write at a time, so (pid, thread) names a writer.
    tmp = final.with_name(
        f"{final.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    if faults.take("enospc", path=str(final)) is not None:
        tmp.write_bytes(blob[: len(blob) // 2])
        raise StoreIntegrityError(
            f"{what} write failed: injected ENOSPC at {final}"
        ) from faults.InjectedFault("no space left on device")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - full-disk unlink race
            pass
        raise StoreIntegrityError(
            f"{what} write failed at {final}: {exc}"
        ) from exc
    publish_replace(tmp, final)
    return final


def read_entry(path: "str | os.PathLike") -> "dict | None":
    """The verified entry at ``path``; ``None`` when there is none to read.

    Returns ``{}`` for an entry that cannot be trusted — unparsable, of
    another version, or failing its checksum — which the caller
    quarantines.  Only reads: the file is never moved or changed.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {}
    if not isinstance(entry, dict) or entry.get("v") != _ENTRY_VERSION:
        return {}
    try:
        ok = entry_checksum(entry.get("payload")) == entry.get("checksum")
    except (TypeError, ValueError):
        return {}
    return entry if ok else {}


def sweep_tmp(root: Path, pattern: str) -> int:
    """Unlink the ``.tmp`` sidecars under ``root`` matching ``pattern``.

    Crashed writers and lost renames leave sidecars behind; the final
    file is always authoritative, so they are garbage.  Returns the count.
    """
    swept = 0
    for tmp in root.glob(pattern):
        try:
            tmp.unlink()
            swept += 1
        except OSError:  # pragma: no cover - racing sweeper
            pass
    return swept
