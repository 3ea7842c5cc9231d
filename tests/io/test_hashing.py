"""Stability pins for :func:`repro.io.hashing.graph_fingerprint`.

The fingerprint is a *persisted* identity — trajectory-census JSONL records
carry it and the audit-service result cache keys on it — so the digest
algorithm is frozen.  These tests pin literal digests for known graphs: if
a refactor shifts any of them, every cache entry and census record on disk
silently re-keys, which is a format break, not a cleanup.  Bump the
consumers' format versions instead of updating these constants casually.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_gnm,
    random_tree,
    star_graph,
)
from repro.io.hashing import graph_fingerprint

from ..conftest import edge_lists

#: (constructor, pinned digest) — computed once at introduction (ISSUE 7)
#: and frozen since.
PINNED = [
    (lambda: path_graph(5), "d95373e7be5c28f7"),
    (lambda: cycle_graph(6), "ddc7fb0902b632da"),
    (lambda: star_graph(7), "cc1eb2760ef90f54"),
    (lambda: complete_graph(4), "71baf0ab19d4654c"),
    (lambda: random_tree(16, seed=3), "021362e4364c35e7"),
    (lambda: random_connected_gnm(24, 40, seed=7), "7d881a3a1d679be3"),
]


@pytest.mark.parametrize("make,expected", PINNED)
def test_pinned_fingerprints_are_stable(make, expected):
    assert graph_fingerprint(make()) == expected


def test_label_sensitive_not_isomorphism_invariant():
    # Two isomorphic labelled paths with different labellings must differ:
    # the fingerprint identifies labelled graphs (the cycle detector's and
    # the cache's equality), not isomorphism classes.
    a = CSRGraph(3, [(0, 1), (1, 2)])
    b = CSRGraph(3, [(1, 0), (0, 2)])
    assert graph_fingerprint(a) != graph_fingerprint(b)


def test_edge_order_and_orientation_invariant():
    a = CSRGraph(4, [(0, 1), (1, 2), (2, 3)])
    b = CSRGraph(4, [(3, 2), (2, 1), (1, 0)])
    assert graph_fingerprint(a) == graph_fingerprint(b)


def _per_edge_fingerprint(graph) -> str:
    """The digest as first written: per-edge ``(min, max)`` tuples, sorted."""
    edges = sorted(
        (min(int(a), int(b)), max(int(a), int(b)))
        for a, b in graph.iter_edges()
    )
    payload = f"{graph.n}|" + ";".join(f"{a},{b}" for a, b in edges)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


@given(edge_lists(max_n=40), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_canonical_edge_array_hashes_the_same_bytes(nl, rnd):
    # Built from shuffled, reoriented edges: the canonical edge array
    # must give the per-edge formula's digest.
    n, edges = nl
    edges = [(b, a) if rnd.random() < 0.5 else (a, b) for a, b in edges]
    rnd.shuffle(edges)
    graph = CSRGraph(n, edges)
    assert graph_fingerprint(graph) == _per_edge_fingerprint(graph)


def test_trajcensus_reexport_is_the_same_function():
    # The compatibility shim must keep the census importing this exact
    # implementation — a fork would let the two identities drift apart.
    from repro.core import trajcensus

    assert trajcensus.graph_fingerprint is graph_fingerprint
