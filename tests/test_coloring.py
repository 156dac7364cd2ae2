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
    degree_profile,
    emit_coloring,
    exact_chromatic_index,
    exact_edge_chromatic_sum,
    exact_max_sequential_set,
    generate_complete_bipartite,
    generate_random_biregular,
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

from .conftest import (
    assert_misra_gries_matches,
    assert_stops_exactly_when_over,
    bipartite_graphs,
    census_graphs,
    graphs,
    matching_union,
    petersen_graph,
    prism_graph,
    prism_minus_rungs,
    random_simple_graph,
    scrambled,
)
from .reference import (
    color_of,
    coloring_of,
    cycle_graph,
    reference_exact_chromatic_index,
    reference_misra_gries,
)

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

    def test_coloring_missing_an_edge(self, k4):
        with pytest.raises(PreconditionError, match="^coloring misses an edge at vertex 0: "):
            palette(k4, coloring_of({(0, 1): 1, (2, 3): 1}, 1), 0)


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
        for n in (0, 3):
            g = build_graph(n, [])
            empty = EdgeColoring((), (), 0)
            assert misra_gries(g) == misra_gries(g, within_max_degree=True) == empty

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


class TestMisraGriesKernel:
    """The table-driven fan step and the inlined rotation against the
    fan-rescan Misra–Gries they replaced: the same coloring, bit for bit.
    ``assert_kernels_match`` (tests/test_kernels.py) runs both Misra–Gries
    checks on its families too."""

    def test_census_up_to_12_edges(self):
        for g in census_graphs(12):
            assert_misra_gries_matches(g)
        assert len(census_graphs(12)) == 396

    def test_seeded_random_graphs_in_any_edge_order(self):
        rng = random.Random(14)
        for _ in range(1_000):
            n = rng.randint(2, 40)
            p = rng.random()
            pairs = [(i, j) if rng.random() < 0.5 else (j, i)
                     for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            rng.shuffle(pairs)
            assert_misra_gries_matches(build_graph(n, pairs))

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matching_unions(self, r, seed):
        rng = random.Random(100 * seed + r)
        assert_misra_gries_matches(build_graph(120, scrambled(rng, matching_union(rng, 120, r))))

    @given(graphs(max_n=16))
    def test_property(self, g):
        assert_misra_gries_matches(g)


class TestMisraGriesWithinMaxDegree:
    """The early stop of ``within_max_degree`` against the full run: ``None``
    exactly when the full run needs color max_degree + 1, else its coloring."""

    def test_census_up_to_12_edges(self):
        over = 0
        for g in census_graphs(12):
            full = reference_misra_gries(g)
            assert_stops_exactly_when_over(g, full)
            over += full.color_count > max(g.degrees)
        assert 0 < over < len(census_graphs(12)) == 396

    @given(graphs())
    def test_any_graph(self, g):
        assert_stops_exactly_when_over(g, reference_misra_gries(g))

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matching_unions(self, r, seed):
        rng = random.Random(100 * seed + r)
        g = build_graph(120, scrambled(rng, matching_union(rng, 120, r)))
        assert_stops_exactly_when_over(g, reference_misra_gries(g))


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

    def test_edgeless(self):
        for n in (0, 3):
            assert konig_color_bipartite(build_graph(n, [])) == EdgeColoring((), (), 0)

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
        for n in (0, 2):
            assert exact_chromatic_index(build_graph(n, [])) == (0, EdgeColoring((), (), 0))

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

    def test_same_answer_and_witness_as_the_separate_search(self):
        # The block search with one block per vertex walks the tree of the
        # separate "c+1 opens once c is used" search it replaced, so t and
        # the witness, its first leaf, are the same.
        rng = random.Random(27)
        seeded = []
        while len(seeded) < 300:
            g = random_simple_graph(rng, max_n=9, p=rng.choice([0.2, 0.4, 0.6]))
            if g.edge_count <= 18:
                seeded.append(g)
        cases = [*census_graphs(13), *seeded,
                 petersen_graph(), complete_graph(5), complete_graph(6)]
        for g in cases:
            chi, witness = exact_chromatic_index(g)
            expected_chi, expected = reference_exact_chromatic_index(g)
            assert (chi, witness.colors) == (expected_chi, expected.colors), g.edges


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
        for n in (0, 4):
            assert obtain_r_coloring(build_graph(n, [])) == EdgeColoring((), (), 0)


def _assert_masks_are_the_palettes(g, acquired, masks):
    """``masks`` is what a coloring_masks read of ``acquired`` finds."""
    colors, read, clashes = coloring_module.coloring_masks(g, acquired)
    assert masks == read and not clashes


class TestAcquiredMasks:
    """The palette bitmasks Kőnig, Misra-Gries and the exact path hand over
    with ``with_masks`` equal what a read of their coloring finds."""

    @given(r=st.integers(3, 6), k=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
    def test_near_regular_bipartite(self, r, k, seed):
        g = generate_random_biregular(r, k, seed)
        acquired, masks = obtain_r_coloring(g, with_masks=True)
        assert acquired == obtain_r_coloring(g) == konig_color_bipartite(g)
        _assert_masks_are_the_palettes(g, acquired, masks)

    @given(k=st.integers(3, 40), data=st.data())
    def test_prism_minus_one_rung(self, k, data):
        # Odd k: not bipartite, and Misra-Gries stays within 3 colors.
        missing = data.draw(st.integers(0, k - 1))
        g = prism_minus_rungs(k, [i for i in range(k) if i != missing])
        acquired, masks = obtain_r_coloring(g, with_masks=True)
        assert acquired == obtain_r_coloring(g)
        assert masks is not None
        _assert_masks_are_the_palettes(g, acquired, masks)

    @given(graphs())
    def test_misra_gries_beyond_max_degree(self, g):
        acquired, masks = misra_gries(g, with_masks=True)
        assert acquired == misra_gries(g)
        _assert_masks_are_the_palettes(g, acquired, masks)

    def test_exact_path_masks_are_the_palettes(self):
        # K_4 minus an edge, then the first census class of the exact path:
        # Misra-Gries needs a spare color on both, so the masks come from a
        # read of the exact solver's witness.
        k4_minus_edge = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        for g in (k4_minus_edge, _first_exact_path_class()):
            assert misra_gries(g, within_max_degree=True, with_masks=True) is None
            acquired, masks = obtain_r_coloring(g, with_masks=True)
            assert acquired == obtain_r_coloring(g) == exact_chromatic_index(g)[1]
            _assert_masks_are_the_palettes(g, acquired, masks)


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

    def test_repeated_color_that_sums_to_another_palette_is_a_clash(self):
        # Colors 1 and 1 at the middle of a path add up to 0b100, the mask of
        # the palette {2}: the middle vertex is still a clash, its mask the OR.
        g = build_graph(3, [(0, 1), (1, 2)])
        coloring = coloring_of({(0, 1): 1, (1, 2): 1}, 2)
        assert coloring_module.coloring_masks(g, coloring) == ([1, 1], [0b10, 0b10, 0b10], {1})
        proper, sequential = verify_certificate(g, coloring, g.vertices)
        assert proper.violations == ((1, 1),)
        assert sequential.violations == (1,)

    def test_repeated_color_that_sums_to_a_run_from_bit_one_is_a_clash(self):
        # 1 + 1 + 1 at the center of a 3-star is 0b110, the run 1..2; the
        # center is a clash, and not sequential.
        star = generate_complete_bipartite(1, 3)
        coloring = coloring_of({(0, 1): 1, (0, 2): 1, (0, 3): 1}, 1)
        assert coloring_module.coloring_masks(star, coloring) == ([1, 1, 1], [0b10] * 4, {0})
        assert verify_sequential(star, coloring, [0]).violations == (0,)

    def test_clash_among_colors_outside_one_to_m(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        coloring = coloring_of({(0, 1): 1, (1, 2): 10**12, (2, 3): -3, (2, 4): -3}, 10**12)
        colors, masks, clashes = coloring_module.coloring_masks(g, coloring)
        # m = 4: -3 and 10**12 get bits 5 and 6; -3 repeats at vertex 2.
        assert masks == [0b10, 0b1000010, 0b1100000, 0b100000, 0b100000]
        assert clashes == {2}
        assert verify_proper(g, coloring).violations == ((2, -3),)
        with pytest.raises(PreconditionError, match="outside 1..4"):
            coloring_module.proper_masks(g, coloring, 4)

    @pytest.mark.parametrize("colors, t, error", [
        # m = 4 edges: colors at most 0, in (t, m] and above m, for t below,
        # at and above m. The range is checked before the clashes.
        ((1, 2, 3, 1), 3, None),
        ((1, 2, 3, 1), 6, None),
        ((1, 2, 3, 1), 2, "coloring uses colors outside 1..2"),
        ((1, 2, 3, 1), 0, "coloring uses colors outside 1..0"),
        ((1, 2, 3, 1), -2, "coloring uses colors outside 1..-2"),
        ((1, 2, 3, 0), 3, "coloring uses colors outside 1..3"),
        ((1, 2, 3, -1), 6, "coloring uses colors outside 1..6"),
        ((1, 2, 3, 5), 4, "coloring uses colors outside 1..4"),
        ((1, 2, 3, 5), 5, None),
        ((1, 2, 3, 10**12), 6, "coloring uses colors outside 1..6"),
        ((2, 2, 3, 0), 3, "coloring uses colors outside 1..3"),
        ((2, 2, 3, 1), 3, "coloring is not proper: clashes ((1, 2),)"),
        ((2, 2, 3, 6), 6, "coloring is not proper: clashes ((1, 2),)"),
    ])
    def test_proper_masks_checks_the_range_then_the_clashes(self, colors, t, error):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        coloring = EdgeColoring(g.edges, colors, t)
        if error is None:
            masks = coloring_module.coloring_masks(g, coloring)[1]
            assert coloring_module.proper_masks(g, coloring, t) == masks
        else:
            with pytest.raises(PreconditionError) as info:
                coloring_module.proper_masks(g, coloring, t)
            assert str(info.value) == error

    @pytest.mark.parametrize("t", [-2, 0, 3])
    def test_proper_masks_of_an_edgeless_graph(self, t):
        g = build_graph(3, [])
        assert coloring_module.proper_masks(g, EdgeColoring((), (), t), t) == [0, 0, 0]


def _first_exact_path_class():
    # The first census class that obtain_r_coloring hands to the exact
    # solver: not bipartite, Class 1, and the heuristic needs a spare color.
    for g in census_graphs(12):
        r = degree_profile(g).max_degree
        if g.sides is None and misra_gries(g).color_count > r and exact_chromatic_index(g)[0] == r:
            return g


class TestOneRepresentation:
    @pytest.mark.parametrize("make", [
        lambda: (generate_complete_bipartite(2, 3), konig_color_bipartite),
        lambda: (petersen_graph(), misra_gries),
        lambda: (generate_complete_bipartite(2, 3), obtain_r_coloring),
        lambda: (prism_graph(), obtain_r_coloring),
        lambda: (generate_complete_bipartite(2, 3),
                 lambda g: swap_colors(konig_color_bipartite(g), 1, 3)),
        lambda: (complete_graph(4), lambda g: exact_edge_chromatic_sum(g).witness),
        lambda: (complete_graph(4), lambda g: exact_max_sequential_set(g, 3).witness),
        lambda: (petersen_graph(), lambda g: exact_chromatic_index(g)[1]),
        lambda: (complete_graph(4), lambda g: exact_chromatic_index(g)[1]),
        lambda: (_first_exact_path_class(), obtain_r_coloring),
    ], ids=["konig", "misra", "obtain-bipartite", "obtain-misra", "swap", "oracle-sum",
            "oracle-sequential", "exact-petersen", "exact-k4", "obtain-exact"])
    def test_built_colorings_share_the_graph_edges(self, make):
        g, build = make()
        c = build(g)
        assert c.edges is g.edges
        assert coloring_module.edge_colors(g, c) is c.colors

    def test_misra_path_is_taken_on_the_prism(self):
        g = prism_graph()
        assert g.sides is None and misra_gries(g).color_count == 3

    def test_exact_path_is_taken_on_the_first_such_census_class(self, monkeypatch):
        g = _first_exact_path_class()
        assert g.edge_count <= coloring_module.EXHAUSTIVE_EDGE_LIMIT
        answers = []

        def spy(graph):
            answers.append(exact_chromatic_index(graph))
            return answers[-1]

        monkeypatch.setattr(coloring_module, "exact_chromatic_index", spy)
        assert obtain_r_coloring(g) is answers[0][1] and len(answers) == 1

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
