import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    ClassTwoError,
    EdgeColoring,
    GraphError,
    PreconditionError,
    UnknownClassError,
    build_graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    emit_coloring,
    exact_chromatic_index,
    exact_edge_chromatic_sum,
    exact_max_sequential_set,
    generate_complete_bipartite,
    konig_color_bipartite,
    misra_gries,
    obtain_r_coloring,
    palette,
    parse_coloring,
    swap_colors,
    verify_certificate,
    verify_proper,
    verify_sequential,
)

from seqcolor import coloring as coloring_module

from .conftest import bipartite_graphs, graphs, petersen_graph
from .reference import assignment_of, color_of, coloring_of

K4_MATCHING_COLORING = coloring_of(
    {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}, 3
)


class TestVerifyProper:
    def test_k4_matchings(self, k4):
        assert verify_proper(k4, K4_MATCHING_COLORING)

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert verify_proper(g, coloring_of({(0, 1): 1}, 1))

    def test_clash_at_middle_vertex(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        verdict = verify_proper(g, coloring_of({(0, 1): 1, (1, 2): 1}, 1))
        assert not verdict
        assert verdict.violations == ((1, 1),)

    def test_incomplete_coloring_rejected(self, k4):
        with pytest.raises(PreconditionError, match="cover"):
            verify_proper(k4, coloring_of({(0, 1): 1}, 1))

    def test_edge_not_in_graph_rejected(self):
        path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        coloring = coloring_of({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 2): 1}, 2)
        with pytest.raises(PreconditionError, match=r"names 1 edge\(s\) not in the graph"):
            verify_proper(path, coloring)

    def test_colors_far_outside_mask_width(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert verify_proper(g, coloring_of({(0, 1): 10**9, (1, 2): -3, (2, 3): 10**9, (2, 4): 0}, 2))
        verdict = verify_proper(g, coloring_of({(0, 1): -3, (1, 2): 10**9, (2, 3): 10**9, (2, 4): 0}, 2))
        assert verdict.violations == ((2, 10**9),)

    @given(graphs(), st.integers(0, 2**32 - 1))
    def test_matches_per_vertex_counting(self, g, seed):
        # Reference: count each color among a vertex's edges.
        rng = random.Random(seed)
        coloring = coloring_of({e: rng.randint(1, 4) for e in g.edges}, 4)
        expected = []
        for v in g.vertices:
            counts = Counter(color_of(coloring, a, b) for a, b in g.edges if v in (a, b))
            expected.extend((v, c) for c in sorted(counts) if counts[c] > 1)
        verdict = verify_proper(g, coloring)
        assert verdict.violations == tuple(expected)
        assert verdict.ok == (not expected)


class TestPalette:
    def test_k4_full(self, k4):
        for v in k4.vertices:
            assert palette(k4, K4_MATCHING_COLORING, v) == frozenset({1, 2, 3})

    def test_degree_two_vertex(self, k23):
        c = konig_color_bipartite(k23)
        for v in (2, 3, 4):
            colors = palette(k23, c, v)
            assert len(colors) == 2 and colors <= frozenset({1, 2, 3})

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        c = coloring_of({(0, 1): 1}, 1)
        assert palette(g, c, 0) == palette(g, c, 1) == frozenset({1})

    def test_unknown_vertex(self, k4):
        with pytest.raises(GraphError, match="unknown"):
            palette(k4, K4_MATCHING_COLORING, 9)


class TestMisraGries:
    def test_c5(self):
        g = cycle_graph(5)
        c = misra_gries(g)
        assert verify_proper(g, c)
        assert c.color_count <= 3

    def test_k4(self, k4):
        c = misra_gries(k4)
        assert verify_proper(k4, c)
        assert c.color_count <= 4

    def test_petersen_exactly_four(self, petersen):
        # Class 2, so three colors are impossible and the heuristic's cap bites.
        c = misra_gries(petersen)
        assert verify_proper(petersen, c)
        assert c.color_count == 4

    def test_empty_graph(self):
        assert misra_gries(build_graph(3, [])).color_count == 0

    @given(graphs())
    def test_proper_within_bound(self, g):
        c = misra_gries(g)
        if not g.edges:
            assert c.color_count == 0
            return
        assert verify_proper(g, c)
        assert c.color_count <= degree_profile(g).max_degree + 1

    @given(graphs())
    def test_palette_size_is_degree(self, g):
        c = misra_gries(g)
        for v in g.vertices:
            assert len(palette(g, c, v)) == g.degree(v)


class TestKonig:
    @pytest.mark.parametrize("a,b", [(2, 3), (3, 3), (1, 1)])
    def test_exact_max_degree(self, a, b):
        g = generate_complete_bipartite(a, b)
        c = konig_color_bipartite(g)
        assert verify_proper(g, c)
        assert c.color_count == max(a, b)

    def test_rejects_odd_cycle(self):
        with pytest.raises(PreconditionError, match="bipartite"):
            konig_color_bipartite(cycle_graph(5))

    @given(bipartite_graphs())
    def test_fuzz_exact_max_degree(self, g):
        c = konig_color_bipartite(g)
        if not g.edges:
            assert c.color_count == 0
            return
        assert verify_proper(g, c)
        assert c.color_count == degree_profile(g).max_degree

    def test_full_palette_at_max_degree_vertices(self):
        # With exactly r colors, a degree-r vertex must see all of 1..r.
        g = generate_complete_bipartite(4, 4)
        c = konig_color_bipartite(g)
        for v in g.vertices:
            assert palette(g, c, v) == frozenset({1, 2, 3, 4})


class TestExactChromaticIndex:
    def test_k4(self, k4):
        chi, witness = exact_chromatic_index(k4)
        assert chi == 3
        assert verify_proper(k4, witness)
        assert witness.color_count == 3

    def test_c5_class_two(self):
        chi, witness = exact_chromatic_index(cycle_graph(5))
        assert chi == 3
        assert verify_proper(cycle_graph(5), witness)

    def test_petersen(self, petersen):
        chi, witness = exact_chromatic_index(petersen)
        assert chi == 4
        assert verify_proper(petersen, witness)

    def test_deterministic(self, k4):
        assert exact_chromatic_index(k4) == exact_chromatic_index(k4)

    def test_empty(self):
        chi, witness = exact_chromatic_index(build_graph(2, []))
        assert chi == 0 and assignment_of(witness) == {}

    @given(bipartite_graphs(max_part=4))
    def test_bipartite_is_class_one(self, g):
        chi, _ = exact_chromatic_index(g)
        assert chi == degree_profile(g).max_degree

    @given(graphs(max_n=7))
    def test_at_least_max_degree(self, g):
        if g.edge_count > 20:
            return
        chi, witness = exact_chromatic_index(g)
        assert chi >= degree_profile(g).max_degree
        if g.edges:
            assert verify_proper(g, witness)


class TestObtainRColoring:
    def test_bipartite_branch(self, k23):
        c = obtain_r_coloring(k23)
        assert c.color_count == 3
        assert verify_proper(k23, c)

    def test_k4_branch(self, k4):
        c = obtain_r_coloring(k4)
        assert c.color_count == 3
        assert verify_proper(k4, c)

    def test_petersen_class_two(self, petersen):
        with pytest.raises(ClassTwoError) as info:
            obtain_r_coloring(petersen)
        assert info.value.chi_prime == 4

    def test_large_undecidable(self):
        # K_10 is Class 1 and not overfull, but the heuristic needs a tenth
        # color on it and 45 edges are beyond the exact solver.
        with pytest.raises(UnknownClassError):
            obtain_r_coloring(complete_graph(10))

    @pytest.mark.parametrize("copies", [1, 3])
    def test_overfull_is_class_two_without_heuristic(self, copies, monkeypatch):
        # Disjoint copies of K_5 have more edges than 4 matchings can hold.
        edges = []
        for base in range(0, 5 * copies, 5):
            edges.extend((base + i, base + j) for i in range(5) for j in range(i + 1, 5))
        monkeypatch.setattr(coloring_module, "misra_gries", None)
        with pytest.raises(ClassTwoError) as info:
            obtain_r_coloring(build_graph(5 * copies, edges))
        assert (info.value.chi_prime, info.value.max_degree) == (5, 4)

    def test_edgeless(self):
        c = obtain_r_coloring(build_graph(4, []))
        assert c.color_count == 0


class TestColoringText:
    def test_roundtrip(self, k23):
        c = konig_color_bipartite(k23)
        assert parse_coloring(emit_coloring(c)) == c

    def test_header_required(self):
        with pytest.raises(GraphError, match="header"):
            parse_coloring("0 1 1\n")

    def test_color_out_of_range(self):
        with pytest.raises(GraphError, match="outside"):
            parse_coloring("t=2\n0 1 3\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match="twice"):
            parse_coloring("t=2\n0 1 1\n1 0 2\n")

    def test_bad_line(self):
        with pytest.raises(GraphError, match="u v c"):
            parse_coloring("t=2\n0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("", 'coloring text must start with a "t=<count>" header'),
        ("0 1 1\n", 'coloring text must start with a "t=<count>" header'),
        ("t=x\n0 1 1\n", "bad color count header 't=x'"),
        ("t=-1\n", "negative color count -1"),
        ("t=2\n0 1\n", "expected 'u v c', got '0 1'"),
        ("t=2\n0 1 1 2\n", "expected 'u v c', got '0 1 1 2'"),
        ("t=2\n0 a 1\n", "non-integer field in '0 a 1'"),
        ("t=2\n3 3 1\n", "loop edge in coloring line '3 3 1'"),
        ("t=2\n0 1 0\n", "color 0 outside 1..2 in line '0 1 0'"),
        ("t=2\n0 1 3\n", "color 3 outside 1..2 in line '0 1 3'"),
        ("t=2\n0 1 1\n1 0 2\n", "edge (0, 1) colored twice"),
        ("t=2\n0 1 1\n0 1 1\n", "edge (0, 1) colored twice"),
        # The first bad line decides, even when a later line is bad in an
        # earlier-checked way.
        ("t=2\n0 1 1 1\n2 2 1\n", "expected 'u v c', got '0 1 1 1'"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphError) as info:
            parse_coloring(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", [
        "\n  \nt=2\n\n0 1 1\n \t \n1 2 2\n",
        "t=2\r\n0 1 1\r\n1 2 2\r\n",
        "t=2\n2 1 2\n1 0 1",
    ])
    def test_blank_lines_and_line_ends(self, text):
        assert parse_coloring(text).lines() == coloring_of({(0, 1): 1, (1, 2): 2}, 2).lines()


class TestColoringMasks:
    def test_star_with_repeated_color(self, star3):
        # The center's mask 0b110 is a run from bit 1, but of two colors at a
        # degree-3 vertex: a clash, so neither proper nor sequential there.
        coloring = coloring_of({(0, 1): 1, (0, 2): 2, (0, 3): 2}, 2)
        colors, masks, clashes = coloring_module.coloring_masks(star3, coloring)
        assert colors == [1, 2, 2]
        assert masks == [0b110, 0b10, 0b100, 0b100]
        assert clashes == {0}
        proper, sequential = verify_certificate(star3, coloring, star3.vertices)
        assert proper.violations == ((0, 2),)
        assert sequential.violations == (0, 2, 3)
        assert verify_sequential(star3, coloring, [0]).violations == (0,)

    def test_colors_outside_one_to_m_keep_their_bits_apart(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        coloring = coloring_of({(0, 1): 1, (1, 2): 10**12, (2, 3): -3, (2, 4): 2}, 10**12)
        colors, masks, clashes = coloring_module.coloring_masks(g, coloring)
        # m = 4: colors 1..4 keep bits 1..4; -3 and 10**12 get bits 5 and 6.
        assert colors == [1, 10**12, -3, 2]
        assert masks == [0b10, 0b1000010, 0b1100100, 0b100000, 0b100]
        assert not clashes


def _prism():
    # Two triangles joined by a perfect matching: not bipartite, and the
    # max_degree+1 heuristic stays within 3 colors on it.
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


class TestOneRepresentation:
    @pytest.mark.parametrize("make", [
        lambda: (generate_complete_bipartite(2, 3), konig_color_bipartite),
        lambda: (petersen_graph(), misra_gries),
        lambda: (generate_complete_bipartite(2, 3), obtain_r_coloring),
        lambda: (_prism(), obtain_r_coloring),
        lambda: (generate_complete_bipartite(2, 3),
                 lambda g: swap_colors(konig_color_bipartite(g), 1, 3)),
        lambda: (complete_graph(4), lambda g: exact_edge_chromatic_sum(g).witness),
        lambda: (complete_graph(4), lambda g: exact_max_sequential_set(g, 3).witness),
    ], ids=["konig", "misra", "obtain-bipartite", "obtain-misra", "swap", "oracle-sum",
            "oracle-sequential"])
    def test_built_colorings_share_the_graph_edges(self, make):
        g, build = make()
        c = build(g)
        assert c.edges is g.edges
        assert coloring_module.edge_colors(g, c) is c.colors

    def test_misra_path_is_taken_on_the_prism(self):
        g = _prism()
        assert g.sides is None and misra_gries(g).color_count == 3

    def test_lengths_must_match(self):
        with pytest.raises(PreconditionError, match="1 edges but 2 colors"):
            EdgeColoring(((0, 1),), (1, 2), 2)

    def test_edge_named_twice_is_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        twice = EdgeColoring(((0, 1), (1, 2), (0, 1)), (1, 2, 1), 2)
        with pytest.raises(PreconditionError, match="names an edge more than once"):
            coloring_module.edge_colors(g, twice)
        with pytest.raises(PreconditionError):
            verify_proper(g, twice)

    @given(graphs(max_n=9))
    def test_text_roundtrip_in_any_edge_order(self, g):
        c = misra_gries(g)
        assert parse_coloring(emit_coloring(c)).lines() == c.lines()

    def test_equality_is_edge_order_sensitive(self):
        forward = coloring_of({(0, 1): 1, (1, 2): 2}, 2)
        backward = coloring_of({(1, 2): 2, (0, 1): 1}, 2)
        assert forward != backward
        assert forward.lines() == backward.lines()
