"""graph6 codec tests (cross-validated against networkx's implementation)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_graph6,
    path_graph,
    random_connected_gnm,
    star_graph,
    to_graph6,
    to_networkx,
)

from ..conftest import edge_lists


def _bit_loop_edges(n: int, body: str) -> "list[tuple[int, int]]":
    """The upper triangle's edges, read bit by bit, column-major."""
    bits = [
        (ord(ch) - 63) >> shift & 1
        for ch in body
        for shift in (5, 4, 3, 2, 1, 0)
    ]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return [pair for pair, bit in zip(pairs, bits) if bit]


class TestKnownEncodings:
    def test_trivial_graphs(self):
        # Reference strings from the format specification.
        assert to_graph6(empty_graph(0)) == "?"
        assert to_graph6(empty_graph(1)) == "@"
        assert to_graph6(CSRGraph(2, [(0, 1)])) == "A_"

    def test_k4(self):
        assert to_graph6(complete_graph(4)) == "C~"

    def test_p4(self):
        # Path 0-1-2-3: the spec's worked example encodes as 'Ch'... verify
        # against networkx instead of hardcoding.
        g = path_graph(4)
        assert to_graph6(g) == nx.to_graph6_bytes(
            to_networkx(g), header=False
        ).decode().strip()


class TestRoundTrip:
    @given(edge_lists(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, nl):
        n, edges = nl
        g = CSRGraph(n, edges)
        assert from_graph6(to_graph6(g)) == g

    @given(edge_lists(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx_encoder(self, nl):
        n, edges = nl
        g = CSRGraph(n, edges)
        ref = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert to_graph6(g) == ref

    @given(edge_lists(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_decodes_networkx_output(self, nl):
        n, edges = nl
        g = CSRGraph(n, edges)
        ref = nx.to_graph6_bytes(to_networkx(g), header=False).decode()
        assert from_graph6(ref) == g

    def test_large_n_prefix(self):
        # n = 100 > 62 exercises the 4-byte size prefix.
        g = star_graph(100)
        assert from_graph6(to_graph6(g)) == g

    def test_header_tolerated(self):
        s = ">>graph6<<" + to_graph6(cycle_graph(5))
        assert from_graph6(s) == cycle_graph(5)

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64])
    def test_round_trip_at_size_prefix_boundaries(self, n):
        graphs = [empty_graph(n), complete_graph(n)]
        if n >= 2:
            m = max(n - 1, n * (n - 1) // 4)
            graphs.append(random_connected_gnm(n, m, seed=n))
        for g in graphs:
            assert from_graph6(to_graph6(g)) == g

    @given(
        st.integers(0, 70).flatmap(lambda n: st.tuples(
            st.just(n),
            st.text(
                st.characters(min_codepoint=63, max_codepoint=126),
                min_size=(n * (n - 1) // 2 + 5) // 6,
                max_size=(n * (n - 1) // 2 + 5) // 6,
            ),
        ))
    )
    @settings(max_examples=80, deadline=None)
    def test_any_body_decodes_as_the_bit_loop_does(self, n_body):
        # Arbitrary bodies, junk padding included, against the per-bit
        # decoder the vectorized one replaced.
        n, body = n_body
        text = to_graph6(empty_graph(n))[: 1 if n <= 62 else 4] + body
        assert from_graph6(text) == CSRGraph(n, _bit_loop_edges(n, body))

    def test_nonzero_padding_is_not_read(self):
        # n = 2 holds one bit in a 6-bit character; the rest is padding.
        assert from_graph6("A~") == CSRGraph(2, [(0, 1)])
        assert from_graph6("A^") == CSRGraph(2, [])


class TestErrors:
    def test_empty_string(self):
        with pytest.raises(GraphError):
            from_graph6("")

    def test_truncated_body(self):
        s = to_graph6(complete_graph(6))
        with pytest.raises(GraphError):
            from_graph6(s[:-1])

    def test_invalid_byte(self):
        with pytest.raises(GraphError):
            from_graph6("\x01")

    @pytest.mark.parametrize("body,bad", [
        ("\x01\u00e9", "\x01"), ("\u00e9\x01", "\u00e9"), ("?\x7f", "\x7f"),
    ])
    def test_invalid_body_byte_names_the_first(self, body, bad):
        # n = 5 holds 10 bits: two body characters.
        with pytest.raises(GraphError) as err:
            from_graph6("D" + body)
        assert str(err.value) == f"invalid graph6 byte {bad!r}"

    def test_eight_byte_sizes_rejected(self):
        with pytest.raises(GraphError):
            from_graph6("~~" + "?" * 10)
