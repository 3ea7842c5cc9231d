"""Host fingerprint recorded beside every benchmark result.

Enough to tell a host change from a code change: CPU model, usable cores,
cache sizes, interpreter and numeric-library versions, the filesystem the
benchmark writes to, and the code version (git commit when the checkout is
a repository, plus a digest of the library sources either way).
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

__all__ = ["host_fingerprint"]


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> "dict[str, str]":
    out = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if level and kind != "Instruction":
            out[f"L{level}"] = _read(index / "size")
    return out


def _filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    path = path.resolve()
    best, fstype = "", "unknown"
    for line in _read(Path("/proc/mounts")).splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "none"
    ref = head[5:]
    value = _read(root / ".git" / ref)
    if value:
        return value
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "none"


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(root: Path, workdir: Path) -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "filesystem": _filesystem(workdir),
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root / "src"),
    }
