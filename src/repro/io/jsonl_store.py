"""Resumable JSONL record streams with config headers and atomic rewrites.

Every fleet (:func:`repro.experiments.run_fleet`, whose
:meth:`~repro.experiments.Experiment.make_store` builds the one
:class:`JsonlStore` per stream) writes one record per line to disk so an
interrupted overnight run can be picked back up.  The resume machinery was
hardened in ISSUE 3 against three real failure modes and lives here so
every stream shares one audited implementation:

1. **Config headers** — the first line of a stream is a run-config header
   (a JSON object carrying ``config_key``).  Resume validates the embedded
   header against the current run's configuration and raises on any
   mismatch instead of silently mixing records from different games.
   Headerless (pre-header) files are refused outright: the arguments they
   cannot prove are exactly the ones the header exists to pin.
2. **Atomic prefix rewrites** — re-emitting the validated prefix goes
   through a ``.tmp`` sidecar and ``os.replace``, so a crash at any instant
   leaves either the old file or the complete new prefix on disk — never a
   truncated stream.
3. **Torn-line policy** — a crash mid-append can only tear the *final*
   line (records are appended strictly in order), so a torn tail is dropped
   on resume.  An undecodable line anywhere earlier means the file was
   corrupted, hand-edited, or interleaved by two runs; resuming past it
   would silently discard every record after the tear, so it raises loudly.

The store is generic over the record type: callers supply ``decode``
(dict → record, raising ``TypeError`` on a shape mismatch, as a dataclass
constructor does), and every prefix rewrite and append goes through the
one module-level serializer :func:`write_records` — looked up at call time,
so crash-injection tests can intercept exactly the writes a store performs.

Fault-tolerance additions (ISSUE 6, DESIGN.md §9):

* **Durability cadence** — ``durability=`` selects how far each appended
  batch is pushed: ``"flush"`` (the default: the Python-level buffer is
  flushed after every batch, so a fleet crash loses at most the final
  batch to the torn-tail policy, never minutes of buffered records) or
  ``"fsync"`` (also ``os.fsync``, surviving host power loss at a per-batch
  syscall cost).  The default is ``"flush"`` because the failure mode
  fleets actually see is process death, not power loss.
* **Quarantine records** — :class:`FleetFailure` is the on-disk shape of a
  task that failed past its retry budget: the task's grid coordinates, the
  error, and the attempt count, marked with the ``"fleet_failure"`` key so
  :func:`maybe_decode_failure` can tell it apart from a result record.
  Fleets stream it in the failed task's slot and ``--retry-failed`` resumes
  re-run exactly those slots.
* **Torn-write injection** — when the fault harness
  (:mod:`repro.parallel.faults`) is armed, ``append`` checks the
  ``torn-write`` site (``batch=`` ordinal) and, on a firing, writes only
  half of the serialized batch before flushing and raising — the
  deterministic stand-in for a crash tearing the stream's final line, which
  is exactly what the torn-tail resume policy must absorb.

Disk-fault hardening (ISSUE 10, DESIGN.md §13):

* **Directory durability** — the atomic prefix rewrite publishes through
  :func:`~repro.io.fsutil.publish_replace` (``os.replace`` **plus a
  parent-directory fsync** — a rename is not crash-durable until the
  directory entry is synced), and ``durability="fsync"`` appends sync the
  parent too.  ``publish_replace`` doubles as the ``torn-rename`` fault
  site.
* **ENOSPC as a typed error** — a failed append (injected ``enospc`` site
  per batch, or any real ``OSError``) raises
  :class:`~repro.errors.StoreIntegrityError` after at most tearing the
  stream's *tail* (which resume drops); fleets quarantine the slot and
  heal on retry instead of dying on a raw ``OSError``.
"""

from __future__ import annotations

import glob
import io
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError, StoreIntegrityError
from ..parallel import faults
from .fsutil import fsync_dir, publish_replace, sweep_tmp

__all__ = [
    "FleetFailure",
    "JsonlStore",
    "StreamSummary",
    "maybe_decode_failure",
    "summarize_stream",
    "write_records",
]

#: Marker key identifying a quarantine line in a record stream.
_FAILURE_KEY = "fleet_failure"


@dataclass
class FleetFailure:
    """A permanently failed fleet task, quarantined in its record slot.

    ``coords`` carries the task's grid coordinates (the same fields the
    fleet's resume validation checks on result records, e.g. ``n`` /
    ``family`` / ``seed``), so a resumed run can both validate the slot and
    re-run exactly this task under ``--retry-failed``.

    ``checkpoint`` (optional) records the slot's in-task checkpoint
    progress at quarantine time — ``{"path": ..., "steps": ...}`` for a
    checkpointed dynamics task — so status readers and schedulers can see
    that a retry resumes rather than restarts.  ``None`` (the default, and
    every pre-checkpoint stream) serializes to *no* field at all, keeping
    historical stream bytes unchanged.
    """

    coords: dict
    error: str
    attempts: int
    checkpoint: "dict | None" = None

    def encode(self) -> dict:
        obj = {_FAILURE_KEY: 1, **asdict(self)}
        if obj.get("checkpoint") is None:
            obj.pop("checkpoint", None)
        return obj


def maybe_decode_failure(obj: dict) -> "FleetFailure | None":
    """Decode a quarantine line, or ``None`` when ``obj`` is a result record.

    Raises ``TypeError`` on a marked-but-torn line, matching the decode
    contract :meth:`JsonlStore.read_prefix` expects.
    """
    if not isinstance(obj, dict) or _FAILURE_KEY not in obj:
        return None
    try:
        checkpoint = obj.get("checkpoint")
        if checkpoint is not None:
            checkpoint = dict(checkpoint)
        return FleetFailure(
            coords=dict(obj["coords"]),
            error=str(obj["error"]),
            attempts=int(obj["attempts"]),
            checkpoint=checkpoint,
        )
    except (KeyError, TypeError, ValueError):
        raise TypeError(f"torn {_FAILURE_KEY} line: {obj!r}") from None


def write_records(sink: "IO[str]", records: Iterable) -> None:
    """The record serializer: one JSON object per line, then flush.

    Quarantined slots (:class:`FleetFailure`) serialize with their marker
    key, mappings as-is, dataclass records via :func:`dataclasses.asdict`.
    """
    for rec in records:
        if isinstance(rec, FleetFailure):
            obj = rec.encode()
        elif isinstance(rec, Mapping):
            obj = dict(rec)
        else:
            obj = asdict(rec)
        sink.write(json.dumps(obj) + "\n")
    sink.flush()


@dataclass
class StreamSummary:
    """What a stream contains, read without recomputing anything.

    ``results`` counts decoded result records, ``failures`` holds the
    quarantined :class:`FleetFailure` slots in stream order, and
    ``torn_tail`` reports whether the final line was torn by a crash (the
    resume machinery would drop it).  ``header`` is the raw run-config
    header dict (``None`` for legacy headerless files).
    """

    path: Path
    header: "dict | None"
    results: int
    failures: list
    torn_tail: bool

    @property
    def completed(self) -> int:
        """Slots occupied in the stream (results + quarantined failures)."""
        return self.results + len(self.failures)


def _read_stream(
    path: Path,
    is_header: Callable[[object], bool],
    decode: Callable[[dict], object],
    record_name: str,
) -> "tuple[dict | None, list, bool]":
    """Apply the torn-line policy to the stream at ``path``.

    Returns ``(header, records, torn_tail)``: ``header`` is the first line
    when ``is_header`` accepts it (else ``None``), ``records`` holds
    ``decode`` of every later line, and a final line that is not JSON or
    that ``decode`` rejects with ``TypeError`` is dropped as the torn
    tail.  The same failure on any earlier line raises
    :class:`~repro.errors.StoreIntegrityError`: records beyond a mid-file
    tear would be silently lost.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    header: "dict | None" = None
    records: list = []
    for idx, line in enumerate(lines):
        final = idx == len(lines) - 1
        try:
            obj = json.loads(line)
        except ValueError:
            if final:
                return header, records, True
            raise StoreIntegrityError(
                f"{path}: line {idx + 1} of {len(lines)} is not valid JSON "
                "but is not the final line — the stream is corrupt "
                "mid-file, not merely torn by a crash"
            ) from None
        if idx == 0 and is_header(obj):
            header = obj
            continue
        try:
            records.append(decode(obj))
        except TypeError:
            if final:
                return header, records, True
            raise StoreIntegrityError(
                f"{path}: line {idx + 1} of {len(lines)} is valid JSON but "
                f"not a {record_name}; the stream is corrupt mid-file"
            ) from None
    return header, records, False


def _is_any_header(obj) -> bool:
    return isinstance(obj, dict) and any(k.endswith("_config") for k in obj)


def summarize_stream(
    path: "str | Path", *, record_name: str = "record"
) -> StreamSummary:
    """Summarize any record stream at ``path`` without a record schema.

    Applies the store's torn-line policy (a torn **final** line is
    reported, a tear anywhere earlier raises) and classifies every line:
    the first line whose keys include one ending in ``_config`` is the
    run-config header, ``fleet_failure``-marked lines decode to
    :class:`FleetFailure`, everything else counts as a result record.
    This is what ``repro experiment status`` reads — headers plus
    quarantine coordinates, no recompute.
    """
    path = Path(path)
    header, decoded, torn_tail = _read_stream(
        path, _is_any_header, maybe_decode_failure, record_name
    )
    failures = [failure for failure in decoded if failure is not None]
    return StreamSummary(
        path=path,
        header=header,
        results=len(decoded) - len(failures),
        failures=failures,
        torn_tail=torn_tail,
    )


class JsonlStore:
    """One resumable JSONL stream: header, prefix validation, atomic rewrite.

    Parameters
    ----------
    path:
        The stream file.
    config_key:
        Header marker key; its value in the header is the format version.
    config_version:
        Current format version (resume refuses other versions).
    config:
        Every record-determining run argument, as JSON-compatible values.
        Written into the header and validated field-by-field on resume.
    decode:
        ``dict -> record``; must raise ``TypeError`` when the dict does not
        have the record's shape (a dataclass ``**kwargs`` constructor does).
    record_name:
        Human name of the record type, used in corruption errors.
    durability:
        How far :meth:`append` pushes each batch: ``"flush"`` (default) or
        ``"fsync"`` — see the module docstring.
    """

    def __init__(
        self,
        path: "str | Path",
        *,
        config_key: str,
        config_version: int,
        config: Mapping,
        decode: Callable[[dict], object],
        record_name: str = "record",
        durability: str = "flush",
    ):
        if durability not in ("flush", "fsync"):
            raise ConfigurationError(
                f"durability must be 'flush' or 'fsync', got {durability!r}"
            )
        self.path = Path(path)
        self.config_key = config_key
        self.config_version = config_version
        self.header = {config_key: config_version, **config}
        self._decode = decode
        self.record_name = record_name
        self.durability = durability
        self._append_batch = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_prefix(self) -> "tuple[dict | None, list]":
        """Parse a (possibly torn) stream -> ``(config header, records)``.

        Implements the torn-line policy from the module docstring: a torn
        or wrong-shape **final** line is dropped silently; anything broken
        earlier raises.  The header (first line carrying ``config_key``)
        is returned separately when present; legacy files that start
        straight with records yield ``header=None``.
        """
        header, records, _ = _read_stream(
            self.path,
            lambda obj: isinstance(obj, dict) and self.config_key in obj,
            self._decode,
            self.record_name,
        )
        return header, records

    def check_header(self, header: dict) -> None:
        """Raise when a resumed file's embedded config differs from this run's."""
        version = header.get(self.config_key)
        if version != self.config_version:
            raise StoreIntegrityError(
                f"{self.path}: {self.config_key} header version {version!r} "
                f"!= {self.config_version}; cannot resume across formats"
            )
        mismatched = {
            key: (header.get(key), value)
            for key, value in self.header.items()
            if header.get(key) != value
        }
        if mismatched:
            detail = ", ".join(
                f"{key}: file has {old!r}, run has {new!r}"
                for key, (old, new) in sorted(mismatched.items())
            )
            raise StoreIntegrityError(
                f"resume mismatch: {self.path} was written by a run with a "
                f"different configuration ({detail}) — resuming would "
                "silently mix records from different games; rerun with the "
                "original arguments or point the stream at a fresh file"
            )

    def resume_records(self) -> list:
        """Validated records of an existing stream (``[]`` if no file yet).

        Reads the prefix, refuses headerless files, and checks the embedded
        header against this store's configuration.  Per-record validation
        (grid membership, objective tags, …) is the caller's job — the
        store knows the config, not the grid.
        """
        if not self.path.exists():
            return []
        header, records = self.read_prefix()
        if header is None:
            # Pre-header (legacy) files cannot prove the run arguments the
            # header exists to pin — exactly the silent-mixing bug it
            # closes — so refuse rather than guess.
            raise StoreIntegrityError(
                f"{self.path} has no run-config header (written before the "
                "header format); its configuration cannot be validated "
                "against this run.  Prepend the matching config line (the "
                f"{self.config_key!r} key) to adopt the file, or start a "
                "fresh stream path"
            )
        self.check_header(header)
        return records

    def start_stream(
        self,
        resume: bool,
        count: int,
        validate: "Callable[[int, object], None] | None" = None,
    ) -> list:
        """Prepare the stream for a run; returns the resumed prefix.

        A fresh run (``resume=False``) just (re)writes the header; a resume
        reloads the streamed prefix, truncates it to the run's ``count``
        tasks, calls ``validate(task_index, record)`` on each record (the
        caller's grid check — it must raise on any mismatch), and re-emits
        the validated prefix atomically.  Either way the caller continues
        with :meth:`open_append` and the remaining tasks.
        """
        # A crash mid-rewrite can leave the `.tmp` sidecar behind.  The
        # main file is always authoritative (`os.replace` is atomic: the
        # swap either happened completely or not at all), so a stale
        # sidecar is pure garbage — drop it rather than let it shadow the
        # next rewrite or alarm forensics.
        sweep_tmp(self.path.parent, glob.escape(self.path.name) + ".tmp")
        done: list = []
        if resume:
            done = self.resume_records()[:count]
            if validate is not None:
                for idx, rec in enumerate(done):
                    validate(idx, rec)
        self.rewrite_prefix(done)
        return done

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def rewrite_prefix(self, records: Sequence) -> None:
        """Atomically replace the stream with header + ``records``.

        Builds the new content in a ``.tmp`` sidecar and swaps it in with
        ``os.replace``, so a crash between truncate and rewrite can no
        longer lose a previously streamed fleet.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as sink:
            sink.write(json.dumps(self.header) + "\n")
            write_records(sink, records)
            sink.flush()
            os.fsync(sink.fileno())
        # publish_replace = os.replace + parent-directory fsync (the rename
        # is not crash-durable until the directory entry is synced) + the
        # torn-rename fault site; see repro.io.fsutil.
        publish_replace(tmp, self.path)

    def open_append(self) -> "IO[str]":
        """An append handle for streaming finished records."""
        return self.path.open("a", encoding="utf-8")

    def append(self, sink: "IO[str]", records: Iterable) -> None:
        """Append ``records`` through :func:`write_records`.

        Applies the store's durability cadence per batch, and honours an
        armed ``torn-write`` or ``enospc`` fault: half the serialized batch
        is written and flushed, then
        :class:`~repro.parallel.faults.InjectedFault` (the crash) or
        :class:`~repro.errors.StoreIntegrityError` (the full disk) is
        raised — the torn tail the resume policy must absorb.
        """
        batch = self._append_batch
        self._append_batch += 1
        if faults.faults_armed():
            records = list(records)
            torn = faults.take("torn-write", batch=batch, path=str(self.path))
            if torn is not None or faults.take(
                "enospc", batch=batch, path=str(self.path)
            ) is not None:
                # A crash or a full disk mid-append: half the batch lands
                # (a torn tail the resume policy drops), then the site's
                # error — the injected crash, or the typed integrity error
                # of the real-OSError branch below.
                buf = io.StringIO()
                write_records(buf, records)
                text = buf.getvalue()
                sink.write(text[: len(text) // 2])
                sink.flush()
                if torn is not None:
                    raise faults.InjectedFault(
                        f"injected torn-write at batch {batch}"
                    )
                raise StoreIntegrityError(
                    f"stream append failed: injected ENOSPC at batch "
                    f"{batch} of {self.path}"
                ) from faults.InjectedFault("no space left on device")
        try:
            write_records(sink, records)
            sink.flush()
            if self.durability == "fsync":
                os.fsync(sink.fileno())
                # An appended record is only durable once the *file* is —
                # and a freshly created stream only once its directory
                # entry is.  Sync the parent to close the rename/creation
                # window under the fsync cadence.
                fsync_dir(self.path.parent)
        except OSError as exc:
            # A torn tail is recoverable (dropped on resume); losing the
            # typed error would not be.  ENOSPC and friends surface as the
            # store's integrity error so fleets quarantine the slot
            # instead of dying on a raw OSError.
            raise StoreIntegrityError(
                f"stream append failed at batch {batch} of "
                f"{self.path}: {exc}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JsonlStore({str(self.path)!r}, key={self.config_key!r})"
