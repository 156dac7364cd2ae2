"""The per-edge kernels of the certify pipeline against the versions they
replaced, kept in tests/reference.py: ``build_graph`` (graphs and error
texts), ``Graph.degrees``, ``Graph.sides``, ``konig_color_bipartite``,
``misra_gries`` (full and within the max degree) and ``coloring_masks``, on
the census, seeded random graphs, graphs of several components, complete
graphs, circulants, graphs built like the benchmark's and hypothesis graphs;
the shared graph families of tests/conftest.py; and the certify pipeline,
which caches nothing on ``Graph`` but ``degrees`` and ``sides``."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    ClassTwoError,
    EdgeColoring,
    UnknownClassError,
    build_graph,
    complete_graph,
    emit_graph6,
    generate_random_biregular,
    konig_color_bipartite,
    parse_graph6,
    sum_report,
    verify_certificate,
)
from seqcolor.coloring import coloring_masks
from seqcolor.graph import Graph

from .conftest import (
    assert_misra_gries_matches,
    assert_stops_exactly_when_over,
    bipartite_minus_matching,
    census_graphs,
    graphs,
    matching_union,
    outcome,
    prism_graph,
    scrambled,
    several_components,
)
from .reference import (
    incidence_of,
    reference_build_graph,
    reference_coloring_masks,
    reference_konig_color_bipartite,
    reference_parse_graph6,
    reference_sides,
)


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
    faulty copies of them, against its reference. Misra–Gries runs on every
    graph: in full, and within the max degree, which stops (``None``)
    exactly when the full run needs color max degree + 1."""
    g = build_graph(n, raw)
    assert g == reference_build_graph(n, raw)
    assert g.degrees == tuple(map(len, incidence_of(g)))
    assert g.sides == reference_sides(g)
    coloring = assert_misra_gries_matches(g)
    assert_stops_exactly_when_over(g, coloring)
    if g.sides is not None:
        coloring = konig_color_bipartite(g)
        assert coloring == reference_konig_color_bipartite(g)
    for case in mask_cases(rng, g, coloring):
        assert coloring_masks(g, case) == reference_coloring_masks(g, case)
    for _ in range(3):
        bad = with_faults(rng, n, raw)
        assert outcome(build_graph, n, bad) == outcome(reference_build_graph, n, bad)


class TestKernelsAgainstReference:
    def test_census_up_to_12_edges(self):
        rng = random.Random(23)
        classes = 0
        for g in census_graphs(12):
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

    @pytest.mark.parametrize("n", range(8, 34))
    def test_complete_graphs(self, n):
        assert_kernels_match(random.Random(n), n, list(complete_graph(n).edges))

    @pytest.mark.parametrize("n", [7, 8, 25, 64, 101])
    def test_circulants(self, n):
        # C_n(1, 2) in its natural edge order, then relabeled and shuffled.
        edges = [(i, (i + s) % n) for i in range(n) for s in (1, 2)]
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(relabeled)
        assert_kernels_match(rng, n, edges)
        assert_kernels_match(rng, n, relabeled)

    @given(graphs(max_n=16), st.integers(0, 2**32 - 1))
    def test_property(self, g, seed):
        rng = random.Random(seed)
        assert_kernels_match(rng, g.vertex_count, scrambled(rng, g.edges))


class TestFamilies:
    """Each shared family of tests/conftest.py yields what its docstring
    says."""

    def test_scrambled_keeps_the_edges(self):
        rng = random.Random(5)
        edges = matching_union(rng, 20, 3)
        out = scrambled(rng, edges)
        assert sorted((min(e), max(e)) for e in out) == sorted(edges)

    @pytest.mark.parametrize("n, r, removed", [(8, 3, 0), (120, 6, 0), (200, 4, 50)])
    def test_matching_union_is_regular_less_removed_edges(self, n, r, removed):
        g = build_graph(n, matching_union(random.Random(n), n, r, removed))
        assert g.edge_count == n * r // 2 - removed
        assert Counter(g.degrees) == Counter({r: n - 2 * removed, r - 1: 2 * removed})

    @pytest.mark.parametrize("half, r, removed", [(5, 3, 1), (150, 5, 149)])
    def test_bipartite_minus_matching(self, half, r, removed):
        edges = bipartite_minus_matching(random.Random(half), half, r, removed)
        g = build_graph(2 * half, edges)
        assert g.sides is not None
        assert Counter(g.degrees) == Counter({r: 2 * (half - removed), r - 1: 2 * removed})

    @pytest.mark.parametrize("odd", [False, True])
    def test_several_components_is_bipartite_unless_odd(self, odd):
        rng = random.Random(31 + odd)
        for _ in range(50):
            assert (build_graph(*several_components(rng, odd)).sides is None) == odd


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
        for g in census_graphs(12):
            self.assert_decodes_as_built(g)

    @pytest.mark.parametrize("n", range(63))
    def test_random_graphs(self, n):
        rng = random.Random(n)
        for _ in range(3):
            p = rng.random()
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            self.assert_decodes_as_built(build_graph(n, scrambled(rng, pairs)))
