"""Deterministic fault injection for the fleet runtime.

The fault-tolerance layer (DESIGN.md §9) is only trustworthy if its
recovery paths are exercised the same way every run.  This module arms
*deterministic* faults at the runtime's instrumented sites — worker chunk
starts, individual tasks, and JSONL append batches — driven either by an
environment variable (so forked workers, fleet scripts, and CI jobs inherit
the fault plan with no code changes) or by in-process callable hooks (the
serial path and unit tests).

Environment channel::

    REPRO_FAULTS="kill:chunk=1;raise:task=5,times=2"
    REPRO_FAULTS_DIR=/tmp/fault-tokens     # cross-process firing budget
    REPRO_FAULTS_SAFE_PID=12345            # owner pid: kill/hang downgrade

Grammar: ``;``-separated specs, each ``kind[:key=value,...]``.

Kinds
-----
* ``kill`` — ``SIGKILL`` the current process (a worker OOM-kill/segfault;
  the parent sees ``BrokenProcessPool``);
* ``hang`` — sleep ``seconds`` (default 3600), tripping per-chunk
  ``timeout=`` recovery;
* ``raise`` — raise :class:`InjectedFault` (a poisoned task);
* ``torn-write`` — a file write is torn in half: :meth:`repro.io.
  jsonl_store.JsonlStore.append` writes only half of the serialized batch,
  flushes, and raises (a host crash tearing the stream's final line);
  :func:`repro.io.fsutil.write_entry`, the one writer of result-cache
  entries and checkpoints, writes only half of the serialized entry *to
  the final path* and raises (the post-rename content loss a power cut
  can inflict on an unsynced entry — exactly the corruption the entry
  checksum must quarantine);
* ``enospc`` — the disk fills mid-write: the store writes a partial blob,
  then raises the typed integrity error its write contract promises
  (wrapping ``OSError(ENOSPC)``); fired at the same two sites,
  :meth:`~repro.io.jsonl_store.JsonlStore.append` and
  :func:`~repro.io.fsutil.write_entry`.  The partial bytes land where a
  real ``ENOSPC`` would leave them — a torn stream tail, a dead ``.tmp``
  sidecar — never a torn final entry;
* ``torn-rename`` — the crash window *between* ``os.replace`` and the
  parent-directory fsync: :func:`repro.io.fsutil.publish_replace` leaves
  the complete ``.tmp`` sidecar in place, skips the rename, and raises —
  the deterministic stand-in for a power cut that loses the rename
  because the directory entry was never synced (the durability bug the
  directory fsync exists to close).

Filters: ``chunk=N`` (original chunk ordinal, stable across retries and
splits), ``task=N`` (absolute task index within the parallel call),
``batch=N`` (JSONL append-batch ordinal), and — for sites that write named
files: ``torn-write``, ``enospc``, ``torn-rename`` — ``path=SUBSTRING``:
the spec fires
only at sites whose ``path`` contains ``SUBSTRING`` (so one env string can
target the result cache, a specific stream, or any file-writing site
without knowing absolute paths; ``=`` and ``,`` cannot appear in the
substring — pick a different fragment of the path).  A spec fires at a
site iff every filter it sets is satisfied there; a filterless spec fires
at the first instrumented site of its kind.

Determinism contract: each spec fires at most ``times`` times (default 1)
*globally across every process of the run* — each firing consumes a token
file created with ``O_CREAT|O_EXCL`` in ``REPRO_FAULTS_DIR``, so a retried
chunk or a freshly forked worker can never replay a consumed fault.
Without a token dir a per-process counter is used (sufficient for
owner-side faults such as ``torn-write``; worker-side faults need the dir
because every forked worker would otherwise carry its own budget).
``REPRO_FAULTS_SAFE_PID`` names the fleet owner: ``kill``/``hang`` firing
there downgrade to :class:`InjectedFault`, so the runtime's degraded
serial path records a quarantined failure instead of killing the fleet
itself — which is also what keeps the injected suites deterministic.

The harness never touches any RNG stream: firing decisions are pure
functions of the spec, the site coordinates, and the consumed-token state.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import ConfigurationError, ReproError

__all__ = [
    "ENV_DIR",
    "ENV_SAFE_PID",
    "ENV_SPEC",
    "FaultSpec",
    "InjectedFault",
    "clear_hooks",
    "faults_armed",
    "injected_env",
    "install_hook",
    "maybe_fault",
    "parse_faults",
    "remove_hook",
    "take",
]

ENV_SPEC = "REPRO_FAULTS"
ENV_DIR = "REPRO_FAULTS_DIR"
ENV_SAFE_PID = "REPRO_FAULTS_SAFE_PID"

KINDS = ("kill", "hang", "raise", "torn-write", "enospc", "torn-rename")

_SITE_KEYS = ("chunk", "task", "batch")


class InjectedFault(ReproError):
    """An injected fault (or its owner-side downgrade) fired."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a kind, site filters, and a firing budget."""

    kind: str
    chunk: "int | None" = None
    task: "int | None" = None
    batch: "int | None" = None
    path: "str | None" = None
    times: int = 1
    seconds: float = 3600.0

    def matches(self, site: dict) -> bool:
        if self.path is not None:
            target = site.get("path")
            if target is None or self.path not in str(target):
                return False
        return all(
            getattr(self, key) is None or site.get(key) == getattr(self, key)
            for key in _SITE_KEYS
        )


def parse_faults(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` spec string into :class:`FaultSpec` tuples."""
    specs: list[FaultSpec] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, rest = part.partition(":")
        kind = kind.strip()
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r} in {text!r}; "
                f"expected one of {KINDS}"
            )
        kwargs: dict = {}
        if rest.strip():
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                key = key.strip()
                if not eq:
                    raise ConfigurationError(
                        f"fault option {item!r} is not key=value (in {text!r})"
                    )
                if key in ("chunk", "task", "batch", "times"):
                    kwargs[key] = int(value)
                elif key == "seconds":
                    kwargs[key] = float(value)
                elif key == "path":
                    if not value:
                        raise ConfigurationError(
                            f"empty path filter in {text!r}"
                        )
                    kwargs[key] = value
                else:
                    raise ConfigurationError(
                        f"unknown fault option {key!r} in {text!r}"
                    )
        if kwargs.get("times", 1) < 1:
            raise ConfigurationError(f"times must be >= 1 in {text!r}")
        specs.append(FaultSpec(kind=kind, **kwargs))
    return tuple(specs)


#: Parse cache keyed on the raw env string (workers re-read it per call;
#: parsing is cheap but per-task call sites deserve a dict lookup).
_PARSE_CACHE: dict[str, tuple[FaultSpec, ...]] = {}

#: Fallback firing budget when no token dir is configured, keyed by
#: (spec text, spec index).  Per-process only — see the module docstring.
_LOCAL_TOKENS: dict[tuple[str, int], int] = {}

#: In-process callable hooks: each is called with the site dict and may
#: raise (or kill) to inject.  The serial-path / unit-test channel.
_HOOKS: list[Callable[[dict], None]] = []


def install_hook(hook: Callable[[dict], None]) -> None:
    """Install an in-process fault hook, called with every site dict."""
    _HOOKS.append(hook)


def remove_hook(hook: Callable[[dict], None]) -> None:
    """Remove a previously installed hook (no-op if absent)."""
    try:
        _HOOKS.remove(hook)
    except ValueError:
        pass


def clear_hooks() -> None:
    """Remove every in-process hook."""
    _HOOKS.clear()


def faults_armed() -> bool:
    """True when any fault channel (env or hook) is active."""
    return bool(_HOOKS) or ENV_SPEC in os.environ


def _take_token(text: str, idx: int, spec: FaultSpec) -> bool:
    """Consume one firing of spec ``idx``; False when the budget is spent."""
    token_dir = os.environ.get(ENV_DIR)
    if token_dir:
        for slot in range(spec.times):
            path = os.path.join(token_dir, f"fault-{idx}-{slot}")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False  # token dir vanished: disarm rather than loop
            os.close(fd)
            return True
        return False
    key = (text, idx)
    used = _LOCAL_TOKENS.get(key, 0)
    if used >= spec.times:
        return False
    _LOCAL_TOKENS[key] = used + 1
    return True


def take(kind: str, **site) -> "FaultSpec | None":
    """Consume a matching armed env fault of ``kind`` at this site, if any.

    Returns the spec that fired (its token now consumed) or ``None``.  The
    byte-writing sites — :func:`repro.io.fsutil.write_entry`, the JSONL
    append, and :func:`repro.io.fsutil.publish_replace` — use this
    directly (the tear itself is performed by the writer, which knows the
    bytes); the runtime sites go through :func:`maybe_fault`.
    """
    text = os.environ.get(ENV_SPEC)
    if not text:
        return None
    specs = _PARSE_CACHE.get(text)
    if specs is None:
        specs = _PARSE_CACHE[text] = parse_faults(text)
    for idx, spec in enumerate(specs):
        if spec.kind == kind and spec.matches(site):
            if _take_token(text, idx, spec):
                return spec
    return None


def _owner_safe() -> bool:
    pid = os.environ.get(ENV_SAFE_PID, "")
    return pid.isdigit() and int(pid) == os.getpid()


def maybe_fault(**site) -> None:
    """Fire any armed fault matching this site (the runtime's check hook).

    Called by the chunk runners (``chunk=`` ordinal at chunk start,
    ``task=`` absolute index per task) and the degraded serial path.  No-op
    unless a fault channel is armed.
    """
    for hook in list(_HOOKS):
        hook(site)
    if ENV_SPEC not in os.environ:
        return
    for kind in ("raise", "hang", "kill"):
        spec = take(kind, **site)
        if spec is None:
            continue
        if kind == "raise" or _owner_safe():
            raise InjectedFault(f"injected {kind} at {site!r}")
        if kind == "hang":
            time.sleep(spec.seconds)
            return
        os.kill(os.getpid(), signal.SIGKILL)


@contextmanager
def injected_env(
    spec: str,
    token_dir: "str | os.PathLike",
    safe_pid: "int | None" = None,
) -> Iterator[None]:
    """Arm env-driven faults for a with-block, restoring the env afterwards.

    Shuts down the persistent pools on entry *and* exit so workers are
    forked with (and, afterwards, without) the fault plan in their
    environment — a pool that outlived the block would otherwise keep the
    stale plan alive in its already-forked workers.  ``safe_pid`` defaults
    to the calling process (the fleet owner).
    """
    from .shared import shutdown_shared_pools

    parse_faults(spec)  # validate before arming
    os.makedirs(token_dir, exist_ok=True)
    shutdown_shared_pools()
    saved = {k: os.environ.get(k) for k in (ENV_SPEC, ENV_DIR, ENV_SAFE_PID)}
    os.environ[ENV_SPEC] = spec
    os.environ[ENV_DIR] = str(token_dir)
    os.environ[ENV_SAFE_PID] = str(
        os.getpid() if safe_pid is None else safe_pid
    )
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutdown_shared_pools()
