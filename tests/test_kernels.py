"""The per-edge kernels of the certify pipeline against the versions they
replaced, kept in tests/reference.py: ``build_graph`` (graphs and error
texts), ``Graph.sides``, ``konig_color_bipartite`` and ``coloring_masks``,
on the census, seeded random graphs, graphs built like the benchmark's and
hypothesis graphs."""

import random

import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    EdgeColoring,
    GraphError,
    build_graph,
    connected_near_regular_graphs,
    emit_graph6,
    generate_random_biregular,
    konig_color_bipartite,
    misra_gries,
    parse_graph6,
)
from seqcolor.coloring import coloring_masks

from .conftest import graphs
from .reference import (
    reference_build_graph,
    reference_coloring_masks,
    reference_konig_color_bipartite,
    reference_parse_graph6,
    reference_sides,
)


def scrambled(rng, edges):
    """``edges`` in shuffled order, each in a random orientation."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def with_faults(rng, n, edges):
    """``edges`` with one to three faults (a repeat, a loop, an id out of
    range) inserted at random positions."""
    out = list(edges)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["repeat", "loop", "range"])
        if kind == "repeat" and out:
            u, v = rng.choice(out)
            fault = (u, v) if rng.random() < 0.5 else (v, u)
        elif kind == "loop":
            w = rng.randrange(max(n, 1))
            fault = (w, w)
        else:
            fault = (rng.randrange(max(n, 1)), rng.choice([n, n + 3, -1]))
            fault = fault if rng.random() < 0.5 else fault[::-1]
        out.insert(rng.randint(0, len(out)), fault)
    return out


def outcome(build, n, edges):
    try:
        return build(n, edges)
    except GraphError as exc:
        return f"GraphError: {exc}"


def mask_cases(rng, g, proper):
    """Colorings of ``g`` to read: ``proper``, then with a clash, colors
    outside 1..m, random colors and another edge order."""
    m = len(g.edges)
    colors = list(proper.colors)
    yield proper
    if not m:
        return
    t = proper.color_count
    recolored = list(colors)
    recolored[rng.randrange(m)] = rng.randint(1, t)
    yield EdgeColoring(g.edges, tuple(recolored), t)
    outside = list(colors)
    for _ in range(rng.randint(1, 3)):
        outside[rng.randrange(m)] = rng.choice([0, -2, m + 1, 10**12, rng.randint(1, t)])
    yield EdgeColoring(g.edges, tuple(outside), t)
    yield EdgeColoring(g.edges, tuple(rng.randint(1, t + 1) for _ in range(m)), t + 1)
    order = list(range(m))
    rng.shuffle(order)
    yield EdgeColoring(tuple(g.edges[i] for i in order), tuple(recolored[i] for i in order), t)


def assert_kernels_match(rng, n, raw):
    """Every kernel on the graph of ``raw`` edges, and ``build_graph`` on
    faulty copies of them, against its reference."""
    g = build_graph(n, raw)
    assert g == reference_build_graph(n, raw)
    assert g.ends == tuple(u ^ v for u, v in g.edges)
    assert g.sides == reference_sides(g)
    if g.sides is not None:
        coloring = konig_color_bipartite(g)
        expected = reference_konig_color_bipartite(g)
        assert (coloring.edges, coloring.colors, coloring.color_count) == (
            expected.edges, expected.colors, expected.color_count)
    else:
        coloring = misra_gries(g)
    for case in mask_cases(rng, g, coloring):
        assert coloring_masks(g, case) == reference_coloring_masks(g, case)
    for _ in range(3):
        bad = with_faults(rng, n, raw)
        assert outcome(build_graph, n, bad) == outcome(reference_build_graph, n, bad)


def bipartite_minus_matching(rng, half, r, removed):
    """r disjoint perfect matchings between two parts of ``half`` vertices
    (cyclic shifts, then relabeled), ``removed`` edges of the last one
    deleted."""
    shifts = rng.sample(range(half), r)
    matchings = [[(x, half + (x + s) % half) for x in range(half)] for s in shifts]
    rng.shuffle(matchings[-1])
    edges = [e for mt in matchings[:-1] for e in mt] + matchings[-1][removed:]
    perm = list(range(2 * half))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def matching_union(rng, n, r, removed):
    """r disjoint random perfect matchings on n vertices, ``removed`` edges
    of the last one deleted."""
    taken, matchings = set(), []
    while len(matchings) < r:
        order = list(range(n))
        rng.shuffle(order)
        matching = {(min(a, b), max(a, b)) for a, b in zip(order[::2], order[1::2])}
        if not matching & taken:
            taken |= matching
            matchings.append(sorted(matching))
    rng.shuffle(matchings[-1])
    return [e for mt in matchings[:-1] for e in mt] + matchings[-1][removed:]


class TestKernelsAgainstReference:
    def test_census_up_to_12_edges(self):
        rng = random.Random(23)
        classes = 0
        for g in connected_near_regular_graphs(12):
            assert_kernels_match(rng, g.vertex_count, list(g.edges))
            assert_kernels_match(rng, g.vertex_count, scrambled(rng, g.edges))
            classes += 1
        assert classes == 396

    def test_seeded_random_graphs_in_shuffled_order(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 40)
            p = rng.random()
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            assert_kernels_match(rng, n, scrambled(rng, pairs))

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_biregular(self, r, seed):
        rng = random.Random(seed)
        g = generate_random_biregular(r, 60, seed)
        assert_kernels_match(rng, g.vertex_count, list(g.edges))
        assert_kernels_match(rng, g.vertex_count, scrambled(rng, g.edges))

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_regular_minus_matching(self, r, seed):
        rng = random.Random(10 * seed + r)
        half = 150
        edges = bipartite_minus_matching(rng, half, r, rng.randint(1, half - 1))
        assert_kernels_match(rng, 2 * half, scrambled(rng, edges))

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matching_unions(self, r, seed):
        rng = random.Random(100 * seed + r)
        n = 200
        edges = matching_union(rng, n, r, rng.randint(0, n // 4))
        assert_kernels_match(rng, n, scrambled(rng, edges))

    @given(graphs(max_n=16), st.integers(0, 2**32 - 1))
    def test_property(self, g, seed):
        rng = random.Random(seed)
        assert_kernels_match(rng, g.vertex_count, scrambled(rng, g.edges))


class TestGraph6DecodesWithoutBuildGraph:
    """``parse_graph6`` builds its graph from the column-major pairs directly:
    the graph ``build_graph`` returns on those pairs."""

    @staticmethod
    def assert_decodes_as_built(g):
        text = emit_graph6(g)
        decoded = parse_graph6(text)
        pairs = sorted(g.edges, key=lambda e: (e[1], e[0]))
        assert decoded == reference_build_graph(g.vertex_count, pairs)
        assert decoded == reference_parse_graph6(text)

    def test_census_up_to_12_edges(self):
        for g in connected_near_regular_graphs(12):
            self.assert_decodes_as_built(g)

    @pytest.mark.parametrize("n", range(63))
    def test_random_graphs(self, n):
        rng = random.Random(n)
        for _ in range(3):
            p = rng.random()
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            self.assert_decodes_as_built(build_graph(n, scrambled(rng, pairs)))
