"""The near-regular census: byte-identical output, the from-scratch generator
and a brute-force reference for the canonicity test, and class counts against
OEIS and the networkx graph atlas."""

import hashlib
from collections import Counter
from itertools import permutations

import pytest

from seqcolor import connected_near_regular_graphs, degree_profile
from seqcolor.oracle import _graphs_with_degrees, _is_connected

from .conftest import census_graphs
from .reference import reference_graphs_with_degrees, reference_is_canonical

# sha256 of repr([(g.vertex_count, g.edges) for g in census(E)]). E <= 11 were
# recorded from the census that tried every block-preserving relabeling at
# each leaf, E = 12 and 13 from the one that searched each row check from
# scratch (reference_graphs_with_degrees).
CENSUS_DIGESTS = {
    0: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    1: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    2: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    3: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    4: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    5: "792b4d52901a65c0febcc712d6a114982453cb0daa5349e98a7739915b805187",
    6: "c3e82b1b06b25e92ff6c6b1281872e6a7a7a8912d9ace24b9efdf9bc98dfbecc",
    7: "e086699b1d8d5ff8803c1efbc430a6cd24cf48c162e0b6c9980f39df5568db51",
    8: "28624c8b59bc0e72559263ec71686a5247fc16eab6a31236a77385fe43d4e8dc",
    9: "676c3d5bc9e4f1508572acc98e68e7378cf5416b54674c798ce959f2131b36f1",
    10: "4ef0a341b15b3b59352995430a7ce813ebe4151a9e6712cd47b88c2b989e4008",
    11: "7c209ddceb482b15ef5ee5b3d0a88064ca102fa827647abb55348c01c3de219a",
    12: "fadd09ee3ff9a63df6afea0d013c22827b6214fcb8b3f0dea1416039280b3986",
    13: "bd16e6428f40a353eaab7f2834f32eec4176dc66feea60ace9c3df4137e945e9",
}


def census(max_edges):
    return [(g.vertex_count, g.edges) for g in connected_near_regular_graphs(max_edges)]


@pytest.mark.parametrize("max_edges", sorted(CENSUS_DIGESTS))
def test_census_byte_identical(max_edges):
    graphs = census(max_edges)
    assert hashlib.sha256(repr(graphs).encode()).hexdigest() == CENSUS_DIGESTS[max_edges]
    # The shared census of tests/conftest.py, filtered, is the same list.
    assert [(g.vertex_count, g.edges) for g in census_graphs(max_edges)] == graphs


def all_realizations(degrees):
    # Every labeled simple graph with this degree sequence, pairs decided in
    # row-major order, with no canonicity pruning.
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    remaining = list(degrees)
    chosen = []

    def extend(k):
        if k == len(pairs):
            if not any(remaining):
                yield tuple(chosen)
            return
        i, j = pairs[k]
        if remaining[i] > n - j:
            return
        row_done = j == n - 1
        if not (row_done and remaining[i] > 0):
            yield from extend(k + 1)
        if remaining[i] > 0 and remaining[j] > 0:
            remaining[i] -= 1
            remaining[j] -= 1
            chosen.append((i, j))
            if not (row_done and remaining[i] > 0):
                yield from extend(k + 1)
            chosen.pop()
            remaining[i] += 1
            remaining[j] += 1

    yield from extend(0)


def brute_force_is_canonical(edges, n_top, n):
    # Try every relabeling that permutes the top-degree block and the rest
    # separately; the representative has the smallest sorted edge tuple.
    base = tuple(sorted(edges))
    image = list(range(n))
    for top_perm in permutations(range(n_top)):
        image[:n_top] = top_perm
        for low_perm in permutations(range(n_top, n)):
            image[n_top:] = low_perm
            mapped = tuple(
                sorted(
                    (image[u], image[v]) if image[u] < image[v] else (image[v], image[u])
                    for u, v in edges
                )
            )
            if mapped < base:
                return False
    return True


def test_canonicity_matches_brute_force_up_to_9_edges():
    checked = canonical = 0
    for r in (3, 4):
        for n_top in range(1, 7):
            for n_low in range(0, 10):
                total = r * n_top + (r - 1) * n_low
                n = n_top + n_low
                if total % 2 or total > 18 or n < r + 1:
                    continue
                for edges in all_realizations([r] * n_top + [r - 1] * n_low):
                    adj = [0] * n
                    for u, v in edges:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
                    if not _is_connected(adj):
                        continue
                    expected = brute_force_is_canonical(edges, n_top, n)
                    assert reference_is_canonical(adj, n_top, n) == expected, edges
                    if expected:
                        # The row-boundary test must never cut a canonical graph.
                        assert all(
                            reference_is_canonical(adj, n_top, known) for known in range(n)
                        ), edges
                        canonical += 1
                    checked += 1
    assert canonical == 43
    assert checked == 5279


def near_regular_degree_sequences(max_edges):
    # The (degrees, n_top) pairs the census enumerates, disconnected ones
    # (n < r + 1 or m < n - 1) included.
    for r in range(3, max_edges + 1):
        for n_top in range(1, 2 * max_edges // r + 1):
            for n_low in range(0, (2 * max_edges - r * n_top) // (r - 1) + 1):
                if (r * n_top + (r - 1) * n_low) % 2 == 0:
                    yield [r] * n_top + [r - 1] * n_low, n_top


def test_continued_row_checks_match_the_from_scratch_generator():
    sequences = yielded = 0
    for degrees, n_top in near_regular_degree_sequences(12):
        expected = list(reference_graphs_with_degrees(degrees, n_top))
        assert list(_graphs_with_degrees(degrees, n_top)) == expected, degrees
        sequences += 1
        yielded += len(expected)
    assert yielded == 396
    assert sequences == 60


def test_counts_against_networkx_atlas():
    nx = pytest.importorskip("networkx")
    # The atlas holds every graph on at most 7 vertices.
    census_side = [g for g in connected_near_regular_graphs(12) if g.vertex_count <= 7]
    atlas_side = []
    for graph in nx.graph_atlas_g():
        degrees = [d for _, d in graph.degree()]
        if (
            graph.number_of_nodes()
            and nx.is_connected(graph)
            and max(degrees) >= 3
            and max(degrees) - min(degrees) <= 1
            and graph.number_of_edges() <= 12
        ):
            atlas_side.append(graph)
    assert len(census_side) == len(atlas_side) == 59
    for g in census_side:
        as_nx = nx.Graph(list(g.edges))
        matches = [graph for graph in atlas_side if nx.is_isomorphic(as_nx, graph)]
        assert len(matches) == 1, g.edges


def test_counts_against_oeis():
    assert len(census(10)) == 89
    assert len(census(11)) == 184
    graphs = list(connected_near_regular_graphs(12))
    assert len(graphs) == 396
    regular = Counter()
    for g in graphs:
        profile = degree_profile(g)
        if profile.n_r == profile.n:
            regular[profile.max_degree, profile.n] += 1
    # A002851 (connected cubic graphs) and A006820 (connected quartic graphs);
    # no other regular graph with r >= 3 fits in 12 edges.
    assert regular == {(3, 4): 1, (3, 6): 2, (3, 8): 5, (4, 5): 1, (4, 6): 1}
    # Past 12 edges, straight from the degree-sequence enumerator (every
    # vertex in the top block): 10 cubic vertices and 7 quartic ones.
    assert sum(1 for _ in _graphs_with_degrees([3] * 10, 10)) == 19
    assert sum(1 for _ in _graphs_with_degrees([4] * 7, 7)) == 2
