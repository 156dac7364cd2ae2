import random
import sys

import pytest

from seqcolor import (
    ClassTwoError,
    EdgeColoring,
    OversizeError,
    PreconditionError,
    Verdict,
    build_graph,
    coloring_sum,
    complete_graph,
    connected_near_regular_graphs,
    degree_profile,
    exact_chromatic_index,
    exact_edge_chromatic_sum,
    exact_max_sequential_set,
    generate_complete_bipartite,
    generate_random_biregular,
    palette,
    sequentialize,
    verify_proper,
    verify_sequential,
)
from seqcolor import oracle as oracle_module
from seqcolor.coloring import check_exhaustive_size

from .conftest import census_graphs, path_graph
from .reference import (
    coloring_of,
    cycle_graph,
    enumerate_proper_colorings,
    reference_max_sequential_search,
    reference_min_sum_search,
)


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
        assert result.to_record()["cap_stable"] is True
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
        assert result.value == 0 and result.to_record()["cap_stable"] is True

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
    """The bitmask kernel against the list-based search it replaced, which
    walks every relabeling of the colors: same optimum, same witness, same
    sequential set, and no more nodes."""

    @staticmethod
    def assert_matches_reference(g, r):
        """Compare at cap ``r``; returns the kernel's node count."""
        result = exact_max_sequential_set(g, r)
        value, explored, colors = reference_max_sequential_search(g, r)
        witness = EdgeColoring(g.edges, tuple(colors), r)
        sequential = {
            v for v in g.vertices
            if palette(g, witness, v) == frozenset(range(1, g.degree(v) + 1))
        }
        assert (result.value, list(result.witness.colors)) == (value, colors), g.edges
        assert result.sequential_vertices == sequential, g.edges
        assert result.explored <= explored, g.edges
        return result.explored

    def compare_or_refuse(self, g, extra_colors):
        """Compare at the max degree plus each of ``extra_colors``; returns
        (compared, refused, nodes)."""
        compared = refused = nodes = 0
        max_degree = degree_profile(g).max_degree
        for cap in (max_degree + k for k in extra_colors):
            try:
                nodes += self.assert_matches_reference(g, cap)
                compared += 1
            except ClassTwoError as error:
                # No proper coloring at the max degree: the reference search
                # finds none either.
                assert cap == max_degree and reference_max_sequential_search(g, cap)[0] == -1
                assert str(error) == (
                    f"graph is Class 2: chromatic index {cap + 1} > max degree {cap}"
                )
                refused += 1
        return compared, refused, nodes

    def census_totals(self, extra_colors):
        runs = [self.compare_or_refuse(g, extra_colors) for g in census_graphs(12)]
        return [sum(column) for column in zip(*runs)]

    def test_census_up_to_12_edges_at_r_and_r_plus_1(self):
        # 182,730 nodes when every relabeling of the colors was searched, and
        # 90,852 with the block rule before the search stopped at the ceiling.
        assert self.census_totals((0, 1)) == [781, 11, 88_850]

    def test_census_up_to_12_edges_at_r_plus_2(self):
        # Two colors above the max degree form one block of their own.
        assert self.census_totals((2,)) == [396, 0, 82_159]

    def test_wide_degree_spread(self):
        # Seeded graphs whose degrees span at least three blocks, which the
        # near-regular census never reaches; Class-2 ones are refused at r.
        rng = random.Random(13)
        compared = refused = 0
        graphs = 0
        while graphs < 40:
            n = rng.randint(5, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            g = build_graph(n, rng.sample(pairs, rng.randint(4, min(12, len(pairs)))))
            if not 1 <= min(g.degree(v) for v in g.vertices) <= degree_profile(g).max_degree - 2:
                continue
            done, refuse, _ = self.compare_or_refuse(g, (0, 1, 2))
            compared += done
            refused += refuse
            graphs += 1
        assert (compared, refused) == (120, 0)

    def test_stars_and_paths(self):
        stars = [build_graph(k + 1, [(0, i) for i in range(1, k + 1)]) for k in range(1, 7)]
        for g in stars + [path_graph(k) for k in range(1, 10)]:
            assert self.compare_or_refuse(g, (0, 1, 2))[:2] == (3, 0)

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

    def test_class_two_proof_is_the_search(self, monkeypatch, petersen):
        # Finding no coloring at the max degree is the proof; no separate
        # chromatic-index search runs, and Petersen minus a vertex (degrees 2
        # and 3, two blocks, not overfull) is refused the same way.
        def refuse(*args, **kwargs):
            raise AssertionError("exact_chromatic_index called")

        monkeypatch.setattr(oracle_module, "exact_chromatic_index", refuse)
        minus_vertex = build_graph(
            9, [(u - 1, v - 1) for u, v in petersen.edges if u and v]
        )
        for g in (petersen, minus_vertex):
            with pytest.raises(ClassTwoError, match="chromatic index 4 > max degree 3"):
                exact_max_sequential_set(g, 3)

    def test_no_chromatic_index_above_max_degree(self, monkeypatch, petersen, k4, k33):
        # With one color more than the max degree a coloring exists (Vizing),
        # and the search finds one without a chromatic-index search.
        def refuse(*args, **kwargs):
            raise AssertionError("exact_chromatic_index called above the max degree")

        monkeypatch.setattr(oracle_module, "exact_chromatic_index", refuse)
        # Without the block rule: 45,128, 16 and 30 nodes.
        for g, value, explored in ((petersen, 6, 7_531), (k4, 4, 13), (k33, 6, 27)):
            result = exact_max_sequential_set(g, degree_profile(g).max_degree + 1)
            assert (result.value, result.explored) == (value, explored)

    def test_k45_node_count(self):
        # 999,452 nodes when every relabeling of colors 1..4 was searched, and
        # 41,656 with the block rule before the search stopped at the ceiling.
        result = exact_max_sequential_set(generate_complete_bipartite(4, 5), 5)
        assert (result.value, result.explored) == (5, 49)

    def test_wide_cap_on_a_matching(self):
        # Colors 2..20000 form one block, so each edge may take color 1 or 2:
        # root, color 1 on the first edge, colors 1 (the leaf) and 2 (counted
        # as cut) on the second, and color 2 on the first edge, cut.
        # 40,001 nodes when every color of the block was tried.
        result = exact_max_sequential_set(build_graph(4, [(0, 1), (2, 3)]), 20_000)
        assert (result.value, result.explored) == (4, 5)
        assert result.witness.colors == (1, 1)

    def test_huge_cap_searches_as_max_degree_plus_m(self):
        # Colors above the max degree open one at a time, so at most m of
        # them are ever used: a cap of 10**11 searches as cap 2 + 3 does,
        # and only the witness's color count keeps the cap.
        g = path_graph(3)
        at_bound = exact_max_sequential_set(g, 5)
        huge = exact_max_sequential_set(g, 10**11)
        assert (huge.value, huge.explored, huge.sequential_vertices) == (
            at_bound.value, at_bound.explored, at_bound.sequential_vertices
        )
        assert huge.witness.colors == at_bound.witness.colors
        assert huge.witness.color_count == 10**11


class TestMaxSequentialCeiling:
    """The search stops once the optimum reaches n - n_r + 2 min(floor(n_r/2),
    e_top), which no proper r-coloring can beat."""

    @pytest.mark.parametrize("g, r, ceiling, value", [
        (build_graph(3, []), 0, 3, 3),
        (complete_graph(4), 3, 4, 4),
        (complete_graph(4), 4, 4, 4),
        (generate_complete_bipartite(4, 5), 5, 5, 5),
        # K_4 minus an edge: its two degree-3 vertices are joined, and color
        # 3 on that edge loses no one.
        (build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 3, 4, 4),
        # Two joined degree-3 vertices, five vertices: the ceiling is 5 but
        # the optimum 3, since with color 3 on 0-1 the edge 3-4 needs it too.
        (build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]), 3, 5, 3),
        # Degree-3 vertices 0..3 span 0-1, 0-2, 0-3 and 1-2: a greedy matching
        # in edge order stops at 0-1, but 0-3 and 1-2 pair all four.
        (build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5)]),
         3, 6, 6),
    ], ids=["edgeless", "k4", "k4-above", "k45", "k4-minus-edge", "below", "greedy-trap"])
    def test_ceiling(self, g, r, ceiling, value):
        degree = [g.degree(v) for v in g.vertices]
        if g.edges:
            assert oracle_module._sequential_ceiling(degree, g.edges, r) == ceiling
        assert exact_max_sequential_set(g, r).value == value

    def test_census_up_to_12_edges(self):
        # The optimum reaches the ceiling on 164 of the 385 Class-1 classes.
        reached = classes = 0
        for g in census_graphs(12):
            r = degree_profile(g).max_degree
            degree = [g.degree(v) for v in g.vertices]
            try:
                value = exact_max_sequential_set(g, r).value
            except ClassTwoError:
                continue
            ceiling = oracle_module._sequential_ceiling(degree, g.edges, r)
            assert value <= ceiling, g.edges
            reached += value == ceiling
            classes += 1
        assert (reached, classes) == (164, 385)

    @pytest.mark.usefixtures("wall_clock_limit")
    @pytest.mark.parametrize("a, explored", [(3, 22), (4, 49), (5, 88), (6, 180)])
    def test_reached_on_complete_bipartite(self, a, explored):
        # K_{a,a+1}: the a vertices of degree a + 1 pair with distinct
        # vertices of degree a in color a + 1, so a + 1 stay sequential.
        # Before the ceiling: 395, 41,656 and 48,921,009 nodes for a = 3..5.
        g = generate_complete_bipartite(a, a + 1)
        result = exact_max_sequential_set(g, a + 1, override_size=True)
        assert (result.value, result.explored) == (a + 1, explored)
        assert verify_sequential(g, result.witness, result.sequential_vertices)

    @pytest.mark.usefixtures("wall_clock_limit")
    @pytest.mark.parametrize("r, k, explored", [
        (3, 1, 10), (3, 2, 24), (3, 3, 31), (4, 1, 21), (4, 2, 45), (5, 1, 46),
    ])
    def test_reached_on_random_biregular(self, r, k, explored):
        # The degree-r part is matched into the other part, so the optimum is
        # rk, the ceiling and the paper's bound. Before the ceiling (seed 1):
        # 23, 311, 3,755, 393 and 41,654 nodes for the cases other than (4, 2).
        g = generate_random_biregular(r, k, 1)
        result = exact_max_sequential_set(g, r, override_size=True)
        assert (result.value, result.explored) == (r * k, explored)
        assert sequentialize(g).size == r * k
        if g.edge_count <= 12:
            TestMaxSequentialKernel.assert_matches_reference(g, r)

    def test_search_above_the_ceiling_is_an_internal_error(self, monkeypatch, k4):
        monkeypatch.setattr(oracle_module, "_sequential_ceiling", lambda *args: 0)
        with pytest.raises(RuntimeError, match="^internal error: 4 sequential vertices exceed"):
            exact_max_sequential_set(k4, 3)


class TestMinSumKernel:
    """The incremental min-sum kernel against the rescanning search it
    replaced: same optimum, same node count, same witness."""

    @staticmethod
    def assert_matches_reference(g):
        # The caps and incumbents the oracle passes: chi' from the
        # chromatic-index seed, then chi' + 1 from the first optimum.
        chi_prime, seed = exact_chromatic_index(g, override_size=True)
        value, colors = sum(seed.colors), seed.colors
        later = oracle_module._later_edges(g)
        for cap in (chi_prime, chi_prime + 1):
            got = oracle_module._min_sum_search(g, later, cap, value, colors)
            want = reference_min_sum_search(g, cap, value, colors)
            assert (got[0], got[2], list(got[1])) == (want[0], want[2], list(want[1])), (
                g.edges, cap)
            value, colors = want[0], want[1]

    def test_census_up_to_13_edges_and_named_graphs(self, petersen):
        named = [
            petersen,
            generate_complete_bipartite(4, 5),
            generate_complete_bipartite(4, 4),
            complete_graph(6),
        ]
        compared = 0
        for g in [*census_graphs(13), *named]:
            self.assert_matches_reference(g)
            compared += 1
        assert compared == 875 + 4

    def test_later_edges_built_once(self, monkeypatch, k4):
        # Every cap the oracle tries (at least chi' and chi' + 1) shares them.
        real = oracle_module._later_edges
        built = []
        monkeypatch.setattr(oracle_module, "_later_edges", lambda g: built.append(g) or real(g))
        searches = []
        search = oracle_module._min_sum_search
        monkeypatch.setattr(
            oracle_module, "_min_sum_search", lambda *args: searches.append(args) or search(*args)
        )
        assert exact_edge_chromatic_sum(k4).value == 12
        assert len(built) == 1 and len(searches) >= 2


class TestWitnessCheck:
    # The oracles read their witness back once; a search that broke
    # properness or lost track of its optimum is an internal error.
    @pytest.mark.parametrize("value, assign", [(2, [1, 1]), (4, [1, 2])], ids=["clash", "sum"])
    def test_sum_oracle_rejects_a_bad_search_result(self, monkeypatch, value, assign):
        monkeypatch.setattr(oracle_module, "_min_sum_search", lambda *args: (value, assign, 1))
        with pytest.raises(RuntimeError, match="^internal error: witness clashes or misses"):
            exact_edge_chromatic_sum(path_graph(2))

    def test_an_improvement_above_chi_prime_raises_the_cap_again(self, monkeypatch, k4):
        # No small graph is known whose minimum sum needs chi' + 1 colors, so
        # the search at chi' + 1 reports a false one-less sum with the same
        # colors: the oracle must go on to chi' + 2, where nothing beats it,
        # and then refuse the witness that misses it.
        chi_prime = exact_chromatic_index(k4)[0]
        search = oracle_module._min_sum_search
        caps = []

        def improving_once(g, later, cap, value, assign):
            caps.append(cap)
            if cap == chi_prime + 1:
                return value - 1, assign, 1
            return search(g, later, cap, value, assign)

        monkeypatch.setattr(oracle_module, "_min_sum_search", improving_once)
        with pytest.raises(RuntimeError, match="^internal error: witness clashes or misses"):
            exact_edge_chromatic_sum(k4)
        assert caps == [chi_prime, chi_prime + 1, chi_prime + 2]

    @pytest.mark.parametrize("oracle", [
        exact_edge_chromatic_sum,
        lambda g: exact_max_sequential_set(g, 2),
    ], ids=["sum", "max-sequential"])
    def test_reported_clash_is_an_internal_error(self, monkeypatch, oracle):
        real = oracle_module.verify_certificate

        def clashing(g, coloring, vertices):
            _, sequential = real(g, coloring, vertices)
            return Verdict(False, ((0, 1),)), sequential

        monkeypatch.setattr(oracle_module, "verify_certificate", clashing)
        with pytest.raises(RuntimeError, match="^internal error: witness clashes or misses"):
            oracle(path_graph(2))


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
