"""The committed audit fixtures are n=512, m=1024 sum equilibria."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import is_equilibrium
from repro.errors import ConfigurationError
from repro.graphs import CSRGraph, from_graph6
from repro.io import graph_fingerprint

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
LINES = (FIXTURES / "audit_sum_n512.g6").read_text().split()
MANIFEST = json.loads((FIXTURES / "audit_sum_n512.json").read_text())


def _relabeled(graph: CSRGraph, seed: int) -> CSRGraph:
    perm = np.random.default_rng(seed).permutation(graph.n)
    return CSRGraph(graph.n, [(perm[a], perm[b]) for a, b in graph.iter_edges()])


def test_manifest_describes_every_line():
    entries = MANIFEST["fixtures"]
    assert [e["line"] for e in entries] == list(range(len(LINES)))
    for entry, line in zip(entries, LINES):
        graph = from_graph6(line)
        assert (graph.n, graph.m) == (512, 1024) == (entry["n"], entry["m"])
        assert graph_fingerprint(graph) == entry["fingerprint"]
        assert entry["steps"] > 0


@pytest.mark.parametrize("line", range(len(LINES)))
@pytest.mark.parametrize("mode", ["batched", "repair"])
def test_fixture_is_a_sum_equilibrium(line, mode):
    """The batched kernel and the repair oracle agree, before and after a
    relabeling (an oracle mode the library has since dropped is skipped)."""
    graph = from_graph6(LINES[line])
    try:
        assert is_equilibrium(graph, "sum", mode=mode) is True
    except ConfigurationError as exc:
        pytest.skip(str(exc))
    assert is_equilibrium(_relabeled(graph, line), "sum", mode=mode) is True
