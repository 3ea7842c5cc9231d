"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graphs import CSRGraph, random_connected_gnm, random_tree


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 16):
    """A random connected graph with a deterministic Hypothesis-driven seed."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n - 1, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_connected_gnm(n, m, seed)


@st.composite
def trees(draw, min_n: int = 2, max_n: int = 20):
    """A uniform random labelled tree."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_tree(n, seed)


@st.composite
def edge_lists(draw, max_n: int = 12):
    """A (possibly disconnected) simple graph as (n, edges)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return n, chosen


# ---------------------------------------------------------------------------
# Deterministic cross-validation battery
# ---------------------------------------------------------------------------

def graph_battery(
    count: int = 216, min_n: int = 2, max_n: int = 14
) -> list[CSRGraph]:
    """≥ ``count`` deterministic connected graphs for oracle cross-checks.

    Cycles through the three census-style families — uniform random trees
    (every edge a bridge), sparse connected G(n, m), and dense G(n, m) —
    plus the n ≤ 3 edge cases, so fast-path-vs-oracle tests exercise
    bridges, disconnecting removals, and degenerate sizes by construction.
    """
    graphs: list[CSRGraph] = [
        CSRGraph(1, []),
        CSRGraph(2, [(0, 1)]),
        CSRGraph(3, [(0, 1), (1, 2)]),
        CSRGraph(3, [(0, 1), (1, 2), (0, 2)]),
    ]
    rng = np.random.default_rng(20260726)
    while len(graphs) < count:
        n = int(rng.integers(min_n, max_n + 1))
        family = len(graphs) % 3
        seed = int(rng.integers(2**31 - 1))
        if family == 0:
            graphs.append(random_tree(n, seed))
        else:
            max_m = n * (n - 1) // 2
            lo = n - 1
            hi = max(lo, (n - 1) + (max_m - (n - 1)) // 4)
            if family == 2:
                lo, hi = hi, max_m
            m = int(rng.integers(lo, hi + 1))
            graphs.append(random_connected_gnm(n, m, seed))
    return graphs


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def medium_graph() -> CSRGraph:
    """A fixed 40-vertex connected graph reused by integration tests."""
    return random_connected_gnm(40, 90, seed=12345)


@pytest.fixture(scope="session")
def small_tree() -> CSRGraph:
    """A fixed 12-vertex random tree."""
    return random_tree(12, seed=999)


# ---------------------------------------------------------------------------
# Sanitizers (DESIGN.md §11): fail fast on silent numerics, leaked threads,
# and leaked shared-memory segments.  These are autouse so every test in the
# suite runs hardened — a kernel that divides by zero or a service test that
# forgets to join a worker thread fails *here*, not three PRs later.
# ---------------------------------------------------------------------------

import glob as _glob
import threading as _threading
import time as _time


@pytest.fixture(autouse=True, scope="session")
def _numpy_strict_errors():
    """Promote silent numpy floating-point warnings to hard errors."""
    old = np.seterr(all="raise")
    yield
    np.seterr(**old)


def _lingering_threads() -> "set[_threading.Thread]":
    """Non-daemon threads a test must not leak.

    Daemon threads and the persistent shared pool's executor machinery
    (``_ExecutorManagerThread`` — alive by design between tests) are
    exempt; everything else must be joined by the test that started it.
    """
    allowed_types = {"_ExecutorManagerThread", "QueueFeederThread"}
    return {
        t
        for t in _threading.enumerate()
        if t is not _threading.main_thread()
        and not t.daemon
        and type(t).__name__ not in allowed_types
    }


@pytest.fixture(autouse=True)
def _no_thread_leak():
    """Every test must join the non-daemon threads it starts."""
    before = _lingering_threads()
    yield
    leaked = _lingering_threads() - before
    deadline = _time.monotonic() + 2.0
    while leaked and _time.monotonic() < deadline:
        _time.sleep(0.02)  # grace: threads mid-shutdown when the test ends
        leaked = {t for t in _lingering_threads() - before if t.is_alive()}
    assert not leaked, (
        f"test leaked non-daemon thread(s): {sorted(t.name for t in leaked)}"
    )


@pytest.fixture(autouse=True)
def _no_shm_leak():
    """Every test must release the /dev/shm segments it creates.

    The explicit crash-path checks live in tests/parallel; this autouse
    promotion catches the quiet leaks — a test that maps over a bundle and
    forgets to close it passes its own asserts but fails here.
    """
    before = set(_glob.glob("/dev/shm/repro-shm-*"))
    yield
    leaked = set(_glob.glob("/dev/shm/repro-shm-*")) - before
    deadline = _time.monotonic() + 2.0
    while leaked and _time.monotonic() < deadline:
        _time.sleep(0.02)  # grace: worker detach / finalizer timing
        leaked = set(_glob.glob("/dev/shm/repro-shm-*")) - before
    assert not leaked, f"test leaked shared-memory segment(s): {sorted(leaked)}"
