"""The per-edge kernels of the certify pipeline against the versions they
replaced, kept in tests/reference.py: ``build_graph`` (graphs and error
texts), ``Graph.degrees``, ``Graph.sides``, ``konig_color_bipartite`` and
``coloring_masks``, on the census, seeded random graphs, graphs of several
components, graphs built like the benchmark's and hypothesis graphs; and the
certify pipeline, which caches nothing on ``Graph`` but ``degrees`` and
``sides``."""

import random

import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    ClassTwoError,
    EdgeColoring,
    GraphError,
    UnknownClassError,
    build_graph,
    complete_graph,
    connected_near_regular_graphs,
    emit_graph6,
    generate_random_biregular,
    konig_color_bipartite,
    misra_gries,
    parse_graph6,
    sum_report,
    verify_certificate,
)
from seqcolor.coloring import coloring_masks
from seqcolor.graph import Graph

from .conftest import graphs, prism_graph
from .reference import (
    incidence_of,
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
    assert g.degrees == tuple(map(len, incidence_of(g)))
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


def several_components(rng, odd):
    """Two to five components on disjoint vertex sets and up to five isolated
    vertices, relabeled at random, with the edges listed component by
    component: random bipartite ones and then, when ``odd``, one holding an
    odd cycle. Returns the vertex count and the edges."""
    pieces = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(2, 9)
        a = rng.randint(1, size - 1)
        pieces.append((size, [(x, y) for x in range(a) for y in range(a, size) if rng.random() < 0.6]))
    if odd:
        k = rng.choice([3, 5, 7])
        size = k + rng.randint(0, 3)
        cycle = {(i, i + 1) for i in range(k - 1)} | {(0, k - 1)}
        extra = {(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3}
        pieces.append((size, sorted(cycle | extra)))
    else:
        size = rng.randint(2, 9)
        pieces.append((size, [(i, i + 1) for i in range(size - 1)]))
    n = sum(size for size, _ in pieces) + rng.randint(0, 5)
    label = list(range(n))
    rng.shuffle(label)
    edges, offset = [], 0
    for size, piece in pieces:
        part = [(label[offset + u], label[offset + v]) for u, v in piece]
        rng.shuffle(part)
        edges += part
        offset += size
    return n, edges


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

    @pytest.mark.parametrize("odd", [False, True])
    def test_several_components(self, odd):
        rng = random.Random(31 + odd)
        for _ in range(200):
            n, edges = several_components(rng, odd)
            assert (build_graph(n, edges).sides is None) == odd
            assert_kernels_match(rng, n, edges)
            assert_kernels_match(rng, n, scrambled(rng, edges))

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_property_several_components(self, seed, odd):
        rng = random.Random(seed)
        n, edges = several_components(rng, odd)
        assert_kernels_match(rng, n, edges)

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


class TestPipelineBuildsNoIncidence:
    """The certify pipeline and ``verify_certificate`` read ``Graph.degrees``
    and ``Graph.sides``, and name clashes from one scan of ``Graph.edges``:
    they cache nothing else on the graph. The per-vertex edge-id lists are
    built only by the min-sum oracle, and the Kempe far-end table lives in
    the colorer's state."""

    CACHED = {"vertex_count", "edges", "degrees", "sides"}

    @pytest.mark.parametrize("make, error", [
        (lambda: generate_random_biregular(3, 4, 1), None),
        (prism_graph, None),
        # K_4 minus an edge: Misra-Gries needs a fourth color, the exact
        # solver finds three.
        (lambda: build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), None),
        (lambda: complete_graph(5), ClassTwoError),
        (lambda: complete_graph(10), UnknownClassError),
    ], ids=["konig", "misra-prism", "exact-k4-minus-edge", "overfull-k5", "unknown-k10"])
    def test_sum_report(self, make, error):
        g = make()
        if error is None:
            sum_report(g)
        else:
            with pytest.raises(error):
                sum_report(g)
        assert set(vars(g)) <= self.CACHED

    def test_verify_certificate(self):
        made = generate_random_biregular(3, 2, 1)
        certificate = sum_report(made).certificate
        g = Graph(made.vertex_count, made.edges)
        proper, sequential = verify_certificate(g, certificate.coloring, certificate.sequential_vertices)
        assert proper.ok and sequential.ok
        assert set(vars(g)) <= self.CACHED
        colors = list(certificate.coloring.colors)
        colors[0] = colors[1] = colors[2]
        clashing = EdgeColoring(g.edges, tuple(colors), certificate.coloring.color_count)
        expected = []
        for v in g.vertices:
            at_v = [c for (a, b), c in zip(g.edges, colors) if v in (a, b)]
            expected += [(v, c) for c in sorted(set(at_v)) if at_v.count(c) > 1]
        proper, _ = verify_certificate(g, clashing, ())
        assert expected and proper.violations == tuple(expected)
        assert set(vars(g)) <= self.CACHED


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
