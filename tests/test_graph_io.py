import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    GraphError,
    PreconditionError,
    build_graph,
    complete_graph,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from seqcolor.graph_io import GRAPH6_MAX_VERTICES

from .conftest import graphs
from .reference import reference_emit_graph6, reference_parse_graph6


class TestGraph6:
    def test_parse_k4(self):
        g = parse_graph6("C~")
        assert g.vertex_count == 4
        assert g.edge_set == complete_graph(4).edge_set

    def test_parse_single_edge(self):
        g = parse_graph6("A_")
        assert g.vertex_count == 2
        assert g.edges == ((0, 1),)

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<C~").edge_count == 6

    def test_emit_k4(self):
        assert emit_graph6(complete_graph(4)) == "C~"

    def test_roundtrip_canonical_string(self):
        for s in ("A_", "C~", "D?{", "E?~o"):
            assert emit_graph6(parse_graph6(s)) == s

    @given(graphs(max_n=20))
    def test_roundtrip_graph(self, g):
        back = parse_graph6(emit_graph6(g))
        assert back.vertex_count == g.vertex_count
        assert back.edge_set == g.edge_set

    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_networkx(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 20)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = build_graph(n, pairs)
        reference = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert set(reference.nodes()) == set(g.vertices)
        assert {tuple(sorted(e)) for e in reference.edges()} == set(g.edge_set)
        encoded = nx.to_graph6_bytes(reference, header=False).decode().strip()
        assert parse_graph6(encoded).edge_set == g.edge_set

    def test_malformed_length_byte(self):
        with pytest.raises(GraphError, match="length byte"):
            parse_graph6(":Fa@x^")

    def test_multibyte_size_rejected(self):
        with pytest.raises(GraphError, match="multi-byte"):
            parse_graph6("~??~?????")

    def test_truncated_payload(self):
        with pytest.raises(GraphError, match="truncated"):
            parse_graph6("C")

    def test_trailing_data(self):
        with pytest.raises(GraphError, match="trailing"):
            parse_graph6("C~~")

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        # ">" (62) is below the payload range 63..126.
        ("C>", "invalid graph6 payload byte '>'"),
    ], ids=["empty", "header-only", "payload-byte"])
    def test_rejected(self, text, message):
        with pytest.raises(GraphError) as info:
            parse_graph6(text)
        assert str(info.value) == message

    def test_noncanonical_padding(self):
        # Two vertices, one edge: only the first of six payload bits may be set.
        assert parse_graph6("A_").edge_count == 1
        with pytest.raises(GraphError, match="padding"):
            parse_graph6("A" + chr(63 + 0b110000))

    def test_emit_rejects_large(self):
        # More than 62 vertices is an oversize refusal, not a parse error.
        g = build_graph(63, [])
        with pytest.raises(PreconditionError) as info:
            emit_graph6(g)
        assert str(info.value) == "graph6 output supports at most 62 vertices, got 63"

    def test_emit_accepts_62_vertices(self):
        g = build_graph(62, [(0, 61)])
        assert parse_graph6(emit_graph6(g)).edges == ((0, 61),)


def seeded_graph(n, seed):
    """A graph on n vertices at a seeded random density, edges in random order."""
    rng = random.Random(seed)
    density = rng.random()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    rng.shuffle(pairs)
    return build_graph(n, pairs)


def error_text(decode, text):
    with pytest.raises(GraphError) as info:
        decode(text)
    return str(info.value)


class TestGraph6AgainstReference:
    """The table-driven codec against the per-bit one it replaced, at every
    single-byte size: same edge order, same strings, same error texts."""

    @pytest.mark.parametrize("n", range(GRAPH6_MAX_VERTICES + 1))
    def test_same_graphs(self, n):
        for seed in range(3):
            g = seeded_graph(n, 1000 * n + seed)
            text = reference_emit_graph6(g)
            assert emit_graph6(g) == text
            decoded, expected = parse_graph6(text), reference_parse_graph6(text)
            assert decoded.vertex_count == expected.vertex_count == n
            assert decoded.edges == expected.edges

    @pytest.mark.parametrize("n", range(GRAPH6_MAX_VERTICES + 1))
    def test_same_errors(self, n):
        rng = random.Random(n)
        text = reference_emit_graph6(seeded_graph(n, n))
        # Truncated, one byte too long, and a padding bit set.
        faults = [text[:-1], text + "?"]
        if n * (n - 1) // 2 % 6:
            faults.append(text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1)))
        corrupted = list(faults)
        if len(text) > 1:
            for bad in (">", "\x7f", "é"):
                pos = rng.randrange(1, len(text))
                corrupted.append(text[:pos] + bad + text[pos + 1:])
            # Two bad characters: the error names the first.
            corrupted.append(text[:1] + "é" + text[2:-1] + ">")
        # A bad character beside each other fault: the checks fire in order.
        corrupted += [fault[:1] + ">" + fault[2:] for fault in faults if len(fault) > 2]
        for bad_text in corrupted:
            assert error_text(parse_graph6, bad_text) == error_text(reference_parse_graph6, bad_text)


class TestEdgeList:
    def test_parse_k4(self):
        text = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3"
        assert parse_edge_list(text).edge_set == complete_graph(4).edge_set

    def test_parse_single_edge(self):
        g = parse_edge_list("2 1\n0 1")
        assert g.edges == ((0, 1),)

    def test_loop_propagates(self):
        with pytest.raises(GraphError, match="loop"):
            parse_edge_list("3 1\n0 0")

    def test_count_mismatch(self):
        with pytest.raises(GraphError, match="promises"):
            parse_edge_list("3 2\n0 1")

    def test_non_integer(self):
        with pytest.raises(GraphError, match="non-integer"):
            parse_edge_list("2 1\n0 x")

    def test_negative_edge_count(self):
        with pytest.raises(GraphError, match="^negative edge count -1$"):
            parse_edge_list("3 -1")

    def test_missing_header(self):
        with pytest.raises(GraphError, match="header"):
            parse_edge_list("")

    @given(graphs())
    def test_roundtrip(self, g):
        back = parse_edge_list(emit_edge_list(g))
        assert back.vertex_count == g.vertex_count
        assert back.edges == g.edges
