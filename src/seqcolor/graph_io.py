"""Text serialization of graphs: graph6 (n <= 62) and plain edge lists."""

from __future__ import annotations

import functools
import json
from itertools import compress

from .errors import GraphError, PreconditionError
from .graph import Graph, build_graph

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_VERTICES = 62


# Each payload character's six bits, most significant first, as 0/1 bytes,
# and the inverse map for encoding.
_SIX_BITS = {chr(63 + val): bytes((val >> shift) & 1 for shift in range(5, -1, -1))
             for val in range(64)}
_PAYLOAD_CHAR = {bits: ch for ch, bits in _SIX_BITS.items()}


@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The strict upper triangle in column-major order: the graph6 bit layout,
    and so the order of a decoded graph's edges."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def parse_graph6(text: str) -> Graph:
    """Decode a single-line graph6 string (single-byte size, n <= 62)."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise GraphError("multi-byte graph6 sizes (n > 62) are not supported")
    if not 63 <= head <= 63 + GRAPH6_MAX_VERTICES:
        raise GraphError(f"malformed graph6 length byte {s[0]!r}")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) < nbytes:
        raise GraphError(f"truncated graph6 payload: need {nbytes} bytes, got {len(payload)}")
    if len(payload) > nbytes:
        raise GraphError("trailing data after graph6 payload")
    try:
        # map stops at the first character outside the table.
        bits = b"".join(map(_SIX_BITS.__getitem__, payload))
    except KeyError as exc:
        raise GraphError(f"invalid graph6 payload byte {exc.args[0]!r}") from None
    if any(bits[nbits:]):
        raise GraphError("non-canonical graph6 padding bits")
    # The pairs are normalized, distinct and in range: nothing to validate.
    return Graph(n, tuple(compress(_pairs(n), bits)))


def emit_graph6(g: Graph) -> str:
    """Encode ``g`` as a canonical graph6 string (no header)."""
    n = g.vertex_count
    if n > GRAPH6_MAX_VERTICES:
        raise PreconditionError(f"graph6 output supports at most {GRAPH6_MAX_VERTICES} vertices, got {n}")
    bits = bytes(map(g.edge_set.__contains__, _pairs(n)))
    bits += bytes(-len(bits) % 6)
    return chr(63 + n) + "".join(_PAYLOAD_CHAR[bits[pos:pos + 6]] for pos in range(0, len(bits), 6))


_DECODER = json.JSONDecoder()
# A comma, which str.split() does not split at, and each character that
# starts a JSON value other than a number or makes a number a float.
_NOT_INT = ',"{[ntfNI.eE'


def scan_ints(text: str, line_end: str) -> list | None:
    r"""The ints of ``text`` from one pass of the JSON scanner, each " " read
    as a comma and each "\n" as ``line_end``; None where ``text`` holds a
    character of ``_NOT_INT`` or that array is not JSON. The whitespace JSON
    also skips ("\t", "\r") is whitespace to ``str.split``, and JSON's
    integers are ``int`` literals, so each int is the one ``int`` reads from
    the token between two single separators."""
    if any(ch in text for ch in _NOT_INT):
        return None
    array = "[" + text.replace(" ", ",").replace("\n", line_end) + "]"
    try:
        values, end = _DECODER.raw_decode(array)
    except ValueError:  # not JSON, or an int past the digit limit
        return None
    return values if end == len(array) else None


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: header "n m" then m pairs "u v".

    Tokens may be separated by any whitespace; the edge count must match the
    header exactly. Text that :func:`scan_ints` does not read as a whole edge
    list, and every fault, goes to ``str.split`` and ``int``.
    """
    values = scan_ints(text.strip(), ",")
    if values is None or len(values) < 2 or len(values) != 2 + 2 * values[1]:
        values = _split_edge_list(text)
    body = iter(values)
    next(body)
    next(body)
    return build_graph(values[0], zip(body, body))


def _split_edge_list(text: str) -> list[int]:
    """The ints of an edge list's tokens, with the edge count checked."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphError("edge list needs an 'n m' header")
    try:
        values = list(map(int, tokens))
    except ValueError as exc:
        raise GraphError(f"non-integer token in edge list: {exc}") from None
    del tokens  # the ints replace the strings; keep one copy of the body alive
    m = values[1]
    if m < 0:
        raise GraphError(f"negative edge count {m}")
    if len(values) != 2 + 2 * m:
        raise GraphError(
            f"header promises {m} edges but body has {(len(values) - 2) / 2:g} pairs"
        )
    return values


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
