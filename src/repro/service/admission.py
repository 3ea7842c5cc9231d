"""Bounded admission for the audit service's compute path.

Cache hits are served by any handler thread without coordination; *compute*
(a cache miss) funnels through :class:`AdmissionGate` — at most
``capacity`` concurrent computes (each a CPU-bound serial audit),
at most ``queue_limit`` requests waiting for a slot, and everything beyond
that is **shed immediately** with a typed :class:`LoadShed` carrying a
retry-after hint.  A queued request's wait is capped by its own deadline,
so a spent budget surfaces as :class:`~repro.errors.DeadlineExceeded`
rather than a silently queue-bound hang.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..errors import ConfigurationError, DeadlineExceeded, ReproError

__all__ = ["AdmissionGate", "LoadShed"]


class LoadShed(ReproError):
    """The admission queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, *, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionGate:
    """Counting gate: ``capacity`` compute slots, ``queue_limit`` waiters."""

    def __init__(
        self,
        *,
        capacity: int = 1,
        queue_limit: int = 8,
        retry_after: float = 1.0,
    ):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if queue_limit < 0:
            raise ConfigurationError(
                f"queue_limit must be >= 0, got {queue_limit}"
            )
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        self.shed_count = 0
        self.admitted_count = 0

    @contextmanager
    def slot(self, deadline: "float | None" = None) -> Iterator[None]:
        """Hold one compute slot for the with-block (queue / shed / expire)."""
        self._acquire(deadline)
        try:
            yield
        finally:
            self._release()

    def _acquire(self, deadline: "float | None") -> None:
        with self._cond:
            if self._inflight < self.capacity:
                self._inflight += 1
                self.admitted_count += 1
                return
            if self._queued >= self.queue_limit:
                self.shed_count += 1
                raise LoadShed(
                    f"admission queue full ({self._queued} queued, "
                    f"{self._inflight} in flight)",
                    retry_after=self.retry_after,
                )
            self._queued += 1
            try:
                while self._inflight >= self.capacity:
                    wait = None
                    if deadline is not None:
                        wait = deadline - time.monotonic()
                        if wait <= 0:
                            raise DeadlineExceeded(
                                "request deadline passed while queued "
                                "for a compute slot"
                            )
                    self._cond.wait(wait)
            finally:
                self._queued -= 1
            self._inflight += 1
            self.admitted_count += 1

    def _release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    def snapshot(self) -> dict:
        """Gate state for ``/stats``."""
        with self._cond:
            return {
                "inflight": self._inflight,
                "queued": self._queued,
                "capacity": self.capacity,
                "queue_limit": self.queue_limit,
                "shed_count": self.shed_count,
                "admitted_count": self.admitted_count,
            }
