import random
import sys

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from seqcolor import (
    ClassTwoError,
    EdgeColoring,
    OversizeError,
    PreconditionError,
    build_graph,
    coloring_sum,
    complete_graph,
    connected_near_regular_graphs,
    cycle_graph,
    degree_profile,
    exact_chromatic_index,
    exact_edge_chromatic_sum,
    exact_max_sequential_set,
    generate_complete_bipartite,
    palette,
    sequentialize,
    verify_proper,
    verify_sequential,
)
from seqcolor import oracle as oracle_module
from seqcolor.coloring import check_exhaustive_size

from .conftest import path_graph
from .reference import coloring_of, enumerate_proper_colorings, reference_max_sequential_search


def count_colorings(g, cap):
    return enumerate_proper_colorings(g, cap, lambda _: None)


class TestEnumerate:
    def test_single_edge(self):
        assert count_colorings(build_graph(2, [(0, 1)]), 2) == 2

    def test_two_edge_path(self):
        assert count_colorings(path_graph(2), 2) == 2

    def test_triangle(self):
        assert count_colorings(cycle_graph(3), 3) == 6

    def test_cap_too_small(self):
        assert count_colorings(path_graph(2), 1) == 0

    def test_edgeless_has_one_empty_coloring(self):
        seen = []
        assert enumerate_proper_colorings(build_graph(3, []), 2, seen.append) == 1
        assert seen == [{}]

    def test_visitor_sees_proper_colorings(self, k4):
        collected = []
        total = enumerate_proper_colorings(k4, 3, collected.append)
        assert total == len(collected) > 0
        for assignment in collected:
            assert verify_proper(k4, coloring_of(assignment, 3))

    def test_disjoint_union_multiplies(self):
        triangle = cycle_graph(3)
        union = build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert count_colorings(union, 3) == count_colorings(triangle, 3) * 3

    def test_petersen_has_no_three_coloring(self, petersen):
        assert count_colorings(petersen, 3) == 0


class TestExactSum:
    def test_k4(self, k4):
        result = exact_edge_chromatic_sum(k4)
        assert result.value == 12
        assert result.to_record("sum")["cap_stable"] is True
        assert verify_proper(k4, result.witness)
        assert coloring_sum(k4, result.witness) == 12

    def test_k23(self, k23):
        assert exact_edge_chromatic_sum(k23).value == 12

    def test_k33(self, k33):
        assert exact_edge_chromatic_sum(k33).value == 18

    def test_star(self, star3):
        # Three mutually adjacent edges must take colors 1, 2, 3.
        assert exact_edge_chromatic_sum(star3).value == 6

    def test_edgeless(self):
        result = exact_edge_chromatic_sum(build_graph(2, []))
        assert result.value == 0 and result.to_record("sum")["cap_stable"] is True

    def test_long_path_with_override(self):
        # 21 edges: consecutive pairs force sum >= 3 each, so 31 is optimal.
        g = path_graph(21)
        with pytest.raises(OversizeError):
            exact_edge_chromatic_sum(g)
        result = exact_edge_chromatic_sum(g, override_size=True)
        assert result.value == 31

    def test_deterministic_exploration(self, k23):
        a = exact_edge_chromatic_sum(k23)
        b = exact_edge_chromatic_sum(k23)
        assert (a.value, a.explored, a.witness) == (b.value, b.explored, b.witness)

    def test_matches_full_enumeration(self):
        # Independent check of the branch-and-bound plus cap escalation: any
        # minimum-sum coloring can be rewritten to use colors below
        # deg(u)+deg(v) per edge, so a cap of 2*max_degree-1 is exhaustive.
        rng = random.Random(5)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 6)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            if not pairs or len(pairs) > 7:
                continue
            g = build_graph(n, pairs)
            checked += 1
            cap = 2 * degree_profile(g).max_degree - 1
            best = [None]

            def tally(assignment, best=best):
                total = sum(assignment.values())
                if best[0] is None or total < best[0]:
                    best[0] = total

            enumerate_proper_colorings(g, cap, tally)
            assert exact_edge_chromatic_sum(g).value == best[0]


class TestMaxSequentialSet:
    def test_k4(self, k4):
        result = exact_max_sequential_set(k4, 3)
        assert result.value == 4
        assert result.sequential_vertices == frozenset(range(4))

    def test_k23(self, k23):
        # Both degree-3 vertices are always sequential; exactly one of the
        # three degree-2 vertices avoids color 3.
        result = exact_max_sequential_set(k23, 3)
        assert result.value == 3
        assert verify_sequential(k23, result.witness, result.sequential_vertices)

    def test_k23_matches_full_enumeration(self, k23):
        from seqcolor import palette

        best = [0]

        def tally(assignment, best=best):
            coloring = coloring_of(assignment, 3)
            good = sum(
                1
                for v in k23.vertices
                if palette(k23, coloring, v) == frozenset(range(1, k23.degree(v) + 1))
            )
            best[0] = max(best[0], good)

        enumerate_proper_colorings(k23, 3, tally)
        assert best[0] == 3 == exact_max_sequential_set(k23, 3).value

    def test_k33(self, k33):
        assert exact_max_sequential_set(k33, 3).value == 6

    def test_witness_sound(self, k23):
        result = exact_max_sequential_set(k23, 3)
        assert verify_proper(k23, result.witness)
        assert len(result.sequential_vertices) == result.value
        assert result.sequential_vertices == {
            v for v in k23.vertices
            if palette(k23, result.witness, v) == frozenset(range(1, k23.degree(v) + 1))
        }

    def test_r_below_max_degree(self, k4):
        with pytest.raises(PreconditionError, match="max degree"):
            exact_max_sequential_set(k4, 2)

    def test_class_two_at_r(self):
        with pytest.raises(ClassTwoError):
            exact_max_sequential_set(cycle_graph(5), 2)

    def test_extra_colors_allowed(self, k4):
        # With one spare color the full-palette optimum is still achievable.
        assert exact_max_sequential_set(k4, 4).value == 4

    def test_oversize_guard(self):
        g = path_graph(30)
        with pytest.raises(OversizeError):
            exact_max_sequential_set(g, 2)

    def test_dominates_constructed_certificate(self, k4, k23, k33):
        for g in (k4, k23, k33):
            cert = sequentialize(g)
            oracle = exact_max_sequential_set(g, cert.r)
            assert oracle.value >= cert.size
            assert exact_edge_chromatic_sum(g).value <= coloring_sum(g, cert.coloring)


class TestMaxSequentialKernel:
    """The bitmask kernel against the list-based search it replaced: same
    optimum, same node count, same witness."""

    @staticmethod
    def assert_matches_reference(g, r):
        result = exact_max_sequential_set(g, r)
        value, explored, colors = reference_max_sequential_search(g, r)
        witness = EdgeColoring(g.edges, tuple(colors), r)
        sequential = {
            v for v in g.vertices
            if palette(g, witness, v) == frozenset(range(1, g.degree(v) + 1))
        }
        assert (result.value, result.explored, list(result.witness.colors)) == (
            value, explored, colors
        ), g.edges
        assert result.sequential_vertices == sequential, g.edges

    def test_census_up_to_12_edges_at_r_and_r_plus_1(self):
        compared = refused = 0
        for g in connected_near_regular_graphs(12):
            r = degree_profile(g).max_degree
            for cap in (r, r + 1):
                try:
                    self.assert_matches_reference(g, cap)
                    compared += 1
                except ClassTwoError:
                    # No proper r-coloring: the reference search finds none either.
                    assert cap == r and reference_max_sequential_search(g, cap)[0] == -1
                    refused += 1
        assert (compared, refused) == (781, 11)

    def test_edgeless(self):
        for r in (0, 2):
            self.assert_matches_reference(build_graph(3, []), r)
        result = exact_max_sequential_set(build_graph(3, []), 0)
        assert (result.value, result.explored) == (3, 1)

    def test_k34(self):
        g = generate_complete_bipartite(3, 4)
        for r in (4, 5):
            self.assert_matches_reference(g, r)

    def test_petersen_is_class_two(self, petersen):
        with pytest.raises(ClassTwoError) as info:
            exact_max_sequential_set(petersen, 3)
        assert str(info.value) == "graph is Class 2: chromatic index 4 > max degree 3"

    def test_no_chromatic_index_above_max_degree(self, monkeypatch, petersen, k4, k33):
        # With one color more than the max degree a coloring exists (Vizing),
        # so the Class-2 precheck does not run.
        def refuse(*args, **kwargs):
            raise AssertionError("exact_chromatic_index called above the max degree")

        monkeypatch.setattr(oracle_module, "exact_chromatic_index", refuse)
        for g, value, explored in ((petersen, 6, 45_128), (k4, 4, 16), (k33, 6, 30)):
            result = exact_max_sequential_set(g, degree_profile(g).max_degree + 1)
            assert (result.value, result.explored) == (value, explored)

    def test_k45_node_count(self):
        result = exact_max_sequential_set(generate_complete_bipartite(4, 5), 5)
        assert (result.value, result.explored) == (5, 999_452)

    def test_wide_cap_on_a_matching(self):
        # Root, 20000 first-edge colors, 20000 second-edge colors under color 1.
        result = exact_max_sequential_set(build_graph(4, [(0, 1), (2, 3)]), 20_000)
        assert (result.value, result.explored) == (4, 40_001)
        assert result.witness.colors == (1, 1)


def matching(edge_count):
    return build_graph(2 * edge_count, [(2 * i, 2 * i + 1) for i in range(edge_count)])


class TestRecursionGuard:
    def test_refused_even_with_override(self):
        g = matching(1500)
        for search in (exact_edge_chromatic_sum, exact_chromatic_index):
            with pytest.raises(OversizeError, match="recursion depth"):
                search(g, override_size=True)
        with pytest.raises(OversizeError, match="recursion depth"):
            exact_max_sequential_set(g, 1, override_size=True)

    def test_depth_follows_the_recursion_limit(self):
        # One edge below the refused depth, the searches still fit under a
        # test runner's frames.
        depth = sys.getrecursionlimit() - 100
        g = matching(depth - 1)
        assert exact_max_sequential_set(g, 1, override_size=True).value == 2 * (depth - 1)
        assert exact_edge_chromatic_sum(g, override_size=True).value == depth - 1
        with pytest.raises(OversizeError, match=f"[(]{depth} levels[)]"):
            check_exhaustive_size(matching(depth), override_size=True)

    def test_300_edge_matching_still_answers(self):
        g = matching(300)
        result = exact_max_sequential_set(g, 1, override_size=True)
        assert (result.value, result.explored) == (600, 301)
        result = exact_edge_chromatic_sum(g, override_size=True)
        assert (result.value, result.explored) == (300, 2)


class TestNearRegularEnumeration:
    def test_matches_graph_atlas(self):
        # The atlas lists every graph on at most seven vertices, which covers
        # all connected graphs with <= 8 edges and min degree >= 2.
        mine = list(connected_near_regular_graphs(8))
        atlas = []
        for G in graph_atlas_g():
            if G.number_of_nodes() == 0 or not G.number_of_edges():
                continue
            if G.number_of_edges() > 8 or not nx.is_connected(G):
                continue
            degrees = [d for _, d in G.degree()]
            if max(degrees) < 3 or max(degrees) - min(degrees) > 1:
                continue
            atlas.append(G)
        assert len(mine) == len(atlas) == 20
        matched = set()
        for g in mine:
            H = nx.Graph()
            H.add_nodes_from(g.vertices)
            H.add_edges_from(g.edges)
            partners = [
                i
                for i, G in enumerate(atlas)
                if i not in matched and nx.is_isomorphic(G, H)
            ]
            assert partners, f"enumerated graph missing from atlas: {g.edges}"
            matched.add(partners[0])

    def test_yields_valid_graphs(self):
        seen = set()
        for g in connected_near_regular_graphs(8):
            profile = degree_profile(g)
            assert profile.near_regular and profile.max_degree >= 3
            assert g.edge_count <= 8
            assert g.edge_set not in seen
            seen.add(g.edge_set)

    def test_contains_k4(self):
        assert any(
            g.edge_set == complete_graph(4).edge_set
            for g in connected_near_regular_graphs(8)
        )
