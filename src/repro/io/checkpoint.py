"""Crash-safe single-slot checkpoints for resumable long-running tasks.

A :class:`CheckpointStore` holds the latest snapshot of one resumable
computation — for the dynamics engine, the full mid-run state of one
:meth:`~repro.core.dynamics.SwapDynamics.run` (DESIGN.md §13).  Each
snapshot is one checksummed entry, written and verified by
:mod:`repro.io.fsutil` (fault sites included).  The store adds the run's
``config``, which a resume must match (a verified entry of another run
raises and is never quarantined); the quarantine of a corrupt entry to
``<path>.quarantined.<pid>``, so a damaged snapshot degrades to a
restart, never to a wrong resume; and a ``meta`` progress block, which
:func:`peek_checkpoint` reads from verified entries only.

Payloads must be canonical-JSON serializable (the dynamics snapshot
encodes non-finite trace floats as strings; see ``core/dynamics.py``).
``clear()`` removes the slot once the computation finishes — a completed
run leaves no checkpoint behind.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..errors import StoreIntegrityError
from .fsutil import read_entry, sweep_tmp, write_entry

__all__ = ["CheckpointStore", "peek_checkpoint"]


def peek_checkpoint(path: "str | os.PathLike") -> "dict | None":
    """The ``meta`` block of a verified checkpoint, with **no side effects**.

    Unlike constructing a :class:`CheckpointStore` (which sweeps stale
    sidecars and creates the parent directory), this only reads: the
    status path reports progress of checkpoints owned by a possibly-live
    fleet and must not race its writers.  Returns ``None`` for a missing
    slot and for one that fails verification.
    """
    entry = read_entry(path)
    if not entry:
        return None
    meta = entry.get("meta")
    return dict(meta) if isinstance(meta, dict) else None


class CheckpointStore:
    """One crash-safe checkpoint slot at ``path``.

    ``save(payload, config, meta=...)`` atomically replaces the slot;
    ``load(config)`` returns the verified payload (or ``None`` after
    quarantining corruption / when no checkpoint exists); ``clear()``
    removes the slot.  Stale ``.tmp`` sidecars of this slot (crashed
    writers, injected torn renames) are swept on construction — the final
    file is always authoritative.
    """

    def __init__(self, path: "str | os.PathLike"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.swept_tmp = sweep_tmp(self.path.parent, self.path.name + ".*.tmp")

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, payload, config: dict, meta: "dict | None" = None) -> Path:
        """Atomically replace the slot with ``payload``; returns the path.

        ``config`` pins the run this snapshot continues (validated by
        :meth:`load`); ``meta`` is a small progress block readable via
        :func:`peek_checkpoint`.  A failed write raises
        :class:`~repro.errors.StoreIntegrityError` with the previous
        checkpoint, if any, still live.
        """
        return write_entry(
            self.path, {"config": config, "meta": meta or {}}, payload,
            what="checkpoint",
        )

    def load(self, config: dict):
        """The verified payload, or ``None`` (no / quarantined checkpoint).

        Corruption moves the file to ``<path>.quarantined.<pid>`` and
        returns ``None``: the caller restarts from scratch, which is always
        correct.  A verified entry written under a *different* config
        raises :class:`~repro.errors.StoreIntegrityError` instead: that
        file is not noise, it is somebody else's run.
        """
        entry = read_entry(self.path)
        if entry is None:
            return None
        if not entry:
            self._quarantine()
            return None
        if entry.get("config") != config:
            raise StoreIntegrityError(
                f"checkpoint {self.path} was written by a run with a "
                f"different configuration ({entry.get('config')!r} != "
                f"{config!r}); resuming it would splice two different "
                "runs — clear the checkpoint or rerun with the original "
                "arguments"
            )
        return entry.get("payload")

    def _quarantine(self) -> None:
        dest = self.path.with_name(
            f"{self.path.name}.quarantined.{os.getpid()}"
        )
        try:
            os.replace(self.path, dest)
        except OSError:  # pragma: no cover - concurrent quarantine
            pass

    def clear(self) -> None:
        """Remove the slot (a finished run leaves no checkpoint behind)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
