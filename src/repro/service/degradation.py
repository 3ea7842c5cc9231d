"""The audit service's degradation ladder: serial → cache-only.

Infrastructure failures (injected faults, a broken compute path — *not*
client errors, *not* spent deadlines) walk the service down a ladder of
compute modes:

* ``serial`` — audits run in the owner process (an audit is a small
  serial job; parallelism lives at the fleet grain, DESIGN.md §5);
* ``cache-only`` — no compute at all: hits are served, misses are shed
  with a typed retry-after.

Descent needs ``threshold`` *consecutive* failures at the current rung (a
single blip is one failed request, not a mode change).  Recovery is
probed, not assumed: after ``recover_after`` seconds at a degraded rung,
one request is allowed to attempt the rung above — success ascends,
failure restarts the probe clock.  The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import threading
import time

from ..errors import ConfigurationError

__all__ = ["DegradationLadder", "MODES"]

#: Best-first rungs; index = degradation depth.
MODES = ("serial", "cache-only")


class DegradationLadder:
    """Thread-safe degradation state machine over :data:`MODES`."""

    def __init__(
        self,
        *,
        threshold: int = 2,
        recover_after: float = 30.0,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ConfigurationError(
                f"threshold must be >= 1, got {threshold}"
            )
        self.threshold = threshold
        self.recover_after = recover_after
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._consecutive = 0
        self._descended_at: "float | None" = None
        self._probing = False
        self.descents = 0
        self.recoveries = 0

    @property
    def mode(self) -> str:
        """Current steady-state compute mode."""
        with self._lock:
            return MODES[self._level]

    def plan(self) -> list[str]:
        """Compute modes this request may use, best first.

        Normally the current rung and everything below it.  When a
        recovery probe is due, the rung above is prepended — exactly one
        request probes at a time.
        """
        with self._lock:
            start = self._level
            if (
                self._level > 0
                and not self._probing
                and self._descended_at is not None
                and self._clock() - self._descended_at >= self.recover_after
            ):
                self._probing = True
                start = self._level - 1
            return list(MODES[start:])

    def record_failure(self, mode: str) -> None:
        """An infrastructure failure at ``mode``; may descend the ladder."""
        level = MODES.index(mode)
        with self._lock:
            if level < self._level:
                # A failed recovery probe: stay put, restart the clock.
                self._probing = False
                self._descended_at = self._clock()
                return
            if level > self._level:
                return  # in-request fallback already past this rung
            self._consecutive += 1
            if (
                self._consecutive >= self.threshold
                and self._level < len(MODES) - 1
            ):
                self._level += 1
                self._consecutive = 0
                self._probing = False
                self._descended_at = self._clock()
                self.descents += 1

    def record_success(self, mode: str) -> None:
        """A compute succeeded at ``mode``; may ascend the ladder."""
        level = MODES.index(mode)
        with self._lock:
            if level < self._level:
                # A recovery probe came back healthy: ascend one rung.
                self._level = level
                self._consecutive = 0
                self._probing = False
                self._descended_at = (
                    self._clock() if self._level > 0 else None
                )
                self.recoveries += 1
            elif level == self._level:
                self._consecutive = 0

    def snapshot(self) -> dict:
        """Ladder state for ``/stats``."""
        with self._lock:
            return {
                "mode": MODES[self._level],
                "consecutive_failures": self._consecutive,
                "threshold": self.threshold,
                "descents": self.descents,
                "recoveries": self.recoveries,
                "probing": self._probing,
            }
