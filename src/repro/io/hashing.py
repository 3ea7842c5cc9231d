"""Content hashing: stable graph fingerprints for caches and censuses.

:func:`graph_fingerprint` started life inside the trajectory census
(:mod:`repro.core.trajcensus`) as the terminal-graph identity; the
equilibrium-audit service's content-addressed result cache (DESIGN.md §10)
keys on the same digest, and a cache key must not import the census layer —
so the function lives here, at the bottom of the io stack, and the census
re-exports it.

Stability is the whole point: fingerprints are **persisted** — in trajectory
JSONL records and as result-cache keys on disk — so the digest algorithm is
frozen.  ``tests/io/test_hashing.py`` pins known fingerprints; any change
that shifts them is a cache/census-breaking format change and must bump the
consumers' format versions, not silently re-key the world.
"""

from __future__ import annotations

import hashlib

__all__ = ["graph_fingerprint"]


def graph_fingerprint(graph) -> str:
    """Stable hex digest of ``(n, edge set)`` — the library's graph identity.

    Label-sensitive on purpose: two graphs share a fingerprint iff they are
    the *same labelled graph* (the equality the dynamics cycle detector also
    uses), which is what makes "k distinct terminal equilibria" a meaningful
    aggregate over a trajectory dataset and what lets the audit service
    cache answers per labelled instance.

    ``graph`` is anything with ``.n`` and ``.edges()`` (a
    :class:`~repro.graphs.CSRGraph`, whose edge array is canonical:
    ``a < b`` per row, rows sorted); the digest is the first 16 hex chars
    of SHA-256 over ``"n|a1,b1;a2,b2;..."`` with edges normalized to
    ``(min, max)`` and sorted.  **Frozen format** — see the module
    docstring.
    """
    edges = graph.edges().tolist()
    payload = f"{graph.n}|" + ";".join(f"{a},{b}" for a, b in edges)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
