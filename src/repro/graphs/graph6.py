"""graph6 encoding/decoding — interop with the nauty/geng ecosystem.

The graph6 format (McKay) is the lingua franca of exhaustive graph
enumeration tools; supporting it means censuses and witnesses from this
library can be exchanged with ``geng``/``nauty`` pipelines and vice versa
(e.g. to re-run the equilibrium census over *isomorphism classes* produced
by ``geng -c``).

Implemented: the standard format for 0 ≤ n ≤ 258047 (1- and 4-byte size
prefixes; the 8-byte variant for n ≥ 258048 is far beyond anything the
library handles and is rejected explicitly).  Upper-triangle bits are packed
column-major in 6-bit chunks offset by 63, per the specification.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph

__all__ = ["to_graph6", "from_graph6"]

_MAX_SMALL = 62
_MAX_SUPPORTED = 258047


def _encode_size(n: int) -> str:
    if n <= _MAX_SMALL:
        return chr(n + 63)
    # 4-byte form: '~' then 18 bits, big-endian, in three 6-bit chunks.
    return "~" + "".join(
        chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
    )


def _decode_size(s: str) -> tuple[int, int]:
    """Return (n, chars consumed)."""
    if not s:
        raise GraphError("empty graph6 string")
    c0 = ord(s[0]) - 63
    if c0 < 0:
        raise GraphError(f"invalid graph6 byte {s[0]!r}")
    if s[0] != "~":
        return c0, 1
    if len(s) >= 2 and s[1] == "~":
        raise GraphError(
            "8-byte graph6 sizes (n >= 258048) are not supported"
        )
    if len(s) < 4:
        raise GraphError("truncated graph6 size prefix")
    n = 0
    for ch in s[1:4]:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise GraphError(f"invalid graph6 byte {ch!r}")
        n = (n << 6) | v
    return n, 4


def to_graph6(graph: CSRGraph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    n = graph.n
    if n > _MAX_SUPPORTED:
        raise GraphError(f"graph6 encoder supports n <= {_MAX_SUPPORTED}")
    header = _encode_size(n)
    # Upper-triangle bit vector, column-major: bit for (i, j), i < j, is at
    # position j(j-1)/2 + i.
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits)
    for u, v in graph.iter_edges():
        i, j = (u, v) if u < v else (v, u)
        bits[j * (j - 1) // 2 + i] = 1
    chunks = []
    for start in range(0, nbits, 6):
        value = 0
        for offset in range(6):
            value <<= 1
            if start + offset < nbits and bits[start + offset]:
                value |= 1
        chunks.append(chr(value + 63))
    return header + "".join(chunks)


def from_graph6(text: str) -> CSRGraph:
    """Decode a graph6 string (leading '>>graph6<<' header tolerated)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    n, consumed = _decode_size(s)
    body = s[consumed:]
    nbits = n * (n - 1) // 2
    expected_chars = (nbits + 5) // 6
    if len(body) != expected_chars:
        raise GraphError(
            f"graph6 body for n={n} needs {expected_chars} chars, got {len(body)}"
        )
    values = None
    if body.isascii():
        # uint8 arithmetic: a character below '?' wraps above 63 as well.
        values = np.frombuffer(body.encode("ascii"), dtype=np.uint8) - 63
    if values is None or (values > 63).any():
        ch = next(ch for ch in body if not 0 <= ord(ch) - 63 < 64)
        raise GraphError(f"invalid graph6 byte {ch!r}")
    # Six bits per character, most significant first.  Padding bits beyond
    # nbits must be zero per the spec; tolerate quietly (several producers
    # emit junk padding) but never read them as edges.
    bits = np.unpackbits(values[:, None], axis=1)[:, 2:].ravel()
    p = np.flatnonzero(bits[:nbits])
    # Bit p is (i, j) with p = j(j-1)/2 + i, 0 <= i < j: the closed form
    # j = floor((1 + sqrt(1 + 8p)) / 2), corrected in integers.
    j = ((1 + np.sqrt(1 + 8 * p)) // 2).astype(np.int64)
    j -= j * (j - 1) // 2 > p
    j += (j + 1) * j // 2 <= p
    return CSRGraph(n, np.stack([p - j * (j - 1) // 2, j], axis=1))
