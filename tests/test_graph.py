import pytest
from hypothesis import given

from seqcolor import (
    GraphError,
    PreconditionError,
    bipartition_of,
    build_graph,
    complete_graph,
    degree_profile,
    generate_complete_bipartite,
    generate_random_biregular,
    generate_regular_class1,
)

from .conftest import graphs
from .reference import cycle_graph


class TestBuildGraph:
    def test_k4(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert g.edge_count == 6
        assert all(g.degree(v) == 3 for v in g.vertices)

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert [g.degree(0), g.degree(1)] == [1, 1]

    def test_edges_normalized_in_input_order(self):
        g = build_graph(3, [(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(5, [(0, 1), (0, 1)])
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(5, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            build_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2)])

    # The first failing edge decides the message, whichever check it fails.
    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (1, 0), (0, 5)], "duplicate edge (0, 1)"),
        ([(0, 1), (0, 2), (1, 0), (2, 2)], "duplicate edge (0, 1)"),
        ([(0, 1), (0, 7), (0, 1)], "vertex id out of range in edge (0, 7)"),
        ([(0, 1), (2, 2), (1, 0)], "loop edge at vertex 2"),
        # Two repeats: the edge that repeats first, not the first edge repeated.
        ([(0, 1), (1, 2), (2, 1), (1, 0)], "duplicate edge (1, 2)"),
        ([(0, 1), (1, 2), (2, 1), (1, 0), (3, 0)], "duplicate edge (1, 2)"),
    ])
    def test_first_failing_edge_names_the_error(self, edges, message):
        with pytest.raises(GraphError) as info:
            build_graph(3, edges)
        assert str(info.value) == message

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError, match="^vertex count must be non-negative, got -1$"):
            build_graph(-1, [])


class TestIncidence:
    @given(graphs())
    def test_sides_split_every_edge(self, g):
        sides = g.sides
        parts = bipartition_of(g)
        assert (sides is None) == (parts is None)
        if sides is not None:
            assert all(sides[u] != sides[v] for u, v in g.edges)
            assert parts[1] == {v for v in g.vertices if sides[v]}


class TestSidesWorstCase:
    """A path listed from its far end links each vertex under the one before
    it, so the last vertex sits at depth n - 1; chords (i, i + 3) from that
    end then walk the whole path again and again unless each walk shortens
    it. Path halving keeps this well under a second at n = 200,000; linking
    with one-level compression alone takes quadratic time here."""

    N = 200_000

    @staticmethod
    def adversarial_edges(n):
        path = [(i, i + 1) for i in range(n - 2, -1, -1)]
        chords = [(i, i + 3) for i in range(n - 4, -1, -1)]
        return path + chords

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_bipartite(self):
        g = build_graph(self.N, self.adversarial_edges(self.N))
        assert g.sides == bytes(v % 2 for v in range(self.N))

    @pytest.mark.usefixtures("wall_clock_limit")
    def test_odd_cycle_closed_last(self):
        # (0, 2) closes the triangle 0, 1, 2 after every other edge is linked.
        g = build_graph(self.N, self.adversarial_edges(self.N) + [(0, 2)])
        assert g.sides is None


class TestDegreeProfile:
    def test_k4(self, k4):
        p = degree_profile(k4)
        assert (p.n, p.max_degree, p.min_degree, p.n_r) == (4, 3, 3, 4)
        assert p.near_regular

    def test_k23(self, k23):
        p = degree_profile(k23)
        assert (p.n, p.max_degree, p.min_degree, p.n_r) == (5, 3, 2, 2)
        assert p.max_degree_vertices == frozenset({0, 1})
        assert p.near_regular

    def test_star_not_near_regular(self, star3):
        p = degree_profile(star3)
        assert (p.max_degree, p.min_degree) == (3, 1)
        assert not p.near_regular

    @given(graphs())
    def test_handshake(self, g):
        p = degree_profile(g)
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count
        assert 0 <= p.min_degree <= p.max_degree <= max(p.n - 1, 0)
        assert all(g.degree(v) == p.max_degree for v in p.max_degree_vertices)


class TestBipartitionOf:
    def test_stored_wins(self, k23):
        assert bipartition_of(k23) == (frozenset({0, 1}), frozenset({2, 3, 4}))

    def test_computed_for_even_cycle(self):
        parts = bipartition_of(cycle_graph(6))
        assert parts is not None
        left, right = parts
        assert left == frozenset({0, 2, 4}) and right == frozenset({1, 3, 5})

    def test_odd_cycle_none(self):
        assert bipartition_of(cycle_graph(5)) is None

    @pytest.mark.parametrize(
        "family,params",
        [("complete-bipartite", ab) for ab in ((1, 1), (1, 5), (3, 4), (8, 2), (8, 8))]
        + [("biregular", rk) for rk in ((3, 1), (3, 3), (5, 2), (8, 3))],
    )
    def test_generator_parts_are_construction_parts(self, family, params):
        # Every component holds a vertex of X, and X's ids come first, so the
        # parts read from ``sides`` are X and Y exactly as constructed.
        if family == "complete-bipartite":
            x, y = params
            outputs = [generate_complete_bipartite(x, y)]
        else:
            r, k = params
            x, y = (r - 1) * k, r * k
            outputs = [generate_random_biregular(r, k, seed) for seed in range(10)]
        for g in outputs:
            assert bipartition_of(g) == (frozenset(range(x)), frozenset(range(x, x + y)))


class TestGenerators:
    def test_complete_bipartite_degrees(self):
        g = generate_complete_bipartite(2, 3)
        assert [g.degree(v) for v in g.vertices] == [3, 3, 2, 2, 2]
        assert g.edge_count == 6

    def test_complete_bipartite_rejects_zero(self):
        with pytest.raises(PreconditionError):
            generate_complete_bipartite(0, 3)

    def test_single_edge_case(self):
        assert generate_complete_bipartite(1, 1).edges == ((0, 1),)

    @pytest.mark.parametrize("r,k", [(3, 1), (3, 2), (4, 1), (4, 3), (5, 2)])
    def test_biregular_degree_multiset(self, r, k):
        g = generate_random_biregular(r, k, seed=11)
        degrees = sorted(g.degree(v) for v in g.vertices)
        assert degrees == [r - 1] * (r * k) + [r] * ((r - 1) * k)
        left, right = bipartition_of(g)
        # Handshake across the parts.
        assert len(left) * r == len(right) * (r - 1) == g.edge_count

    def test_biregular_deterministic(self):
        a = generate_random_biregular(4, 2, seed=7)
        b = generate_random_biregular(4, 2, seed=7)
        assert a.edges == b.edges

    def test_biregular_k1_is_complete_bipartite(self):
        # With r=3, k=1 the only simple realization of the degree sequence is
        # the complete bipartite graph on parts of size 2 and 3.
        for seed in range(5):
            g = generate_random_biregular(3, 1, seed=seed)
            assert g.edge_set == generate_complete_bipartite(2, 3).edge_set

    @pytest.mark.parametrize(
        "r,k,seeds",
        [(5, 1, range(700))] + [(r, k, range(40)) for r in (6, 7, 8) for k in (1, 2, 3)],
    )
    def test_biregular_switching_always_simple(self, r, k, seeds):
        # Full resampling failed seeds 436, 489 and 620 at (5, 1) and every
        # seed from r = 6; the switching repair must succeed on all of them.
        for seed in seeds:
            g = generate_random_biregular(r, k, seed=seed)
            assert len(g.edge_set) == g.edge_count == r * (r - 1) * k
            left, right = bipartition_of(g)
            assert all(g.degree(x) == r for x in left)
            assert all(g.degree(y) == r - 1 for y in right)

    def test_biregular_rejects_small_r(self):
        with pytest.raises(PreconditionError):
            generate_random_biregular(2, 1, seed=0)

    def test_regular_class1_families(self):
        assert generate_regular_class1(3).edge_set == generate_complete_bipartite(3, 3).edge_set
        assert generate_regular_class1(3, kind="complete").edge_set == complete_graph(4).edge_set
        with pytest.raises(PreconditionError):
            generate_regular_class1(4, kind="complete")
        with pytest.raises(PreconditionError):
            generate_regular_class1(3, kind="prism")

    @pytest.mark.parametrize("make, message", [
        (lambda: complete_graph(0), "complete graph needs at least one vertex"),
        (lambda: cycle_graph(2), "cycle needs at least three vertices"),
        (lambda: generate_random_biregular(3, 0, 1), "scale must be at least 1, got 0"),
        (lambda: generate_regular_class1(2), "degree parameter must be at least 3, got 2"),
    ], ids=["complete-0", "cycle-2", "biregular-scale-0", "regular-class1-2"])
    def test_family_parameters_rejected(self, make, message):
        with pytest.raises(PreconditionError) as info:
            make()
        assert str(info.value) == message

    def test_regular_class1_is_class_one(self):
        from seqcolor import exact_chromatic_index, konig_color_bipartite

        assert exact_chromatic_index(generate_regular_class1(3))[0] == 3
        assert exact_chromatic_index(generate_regular_class1(3, kind="complete"))[0] == 3
        assert konig_color_bipartite(generate_regular_class1(4)).color_count == 4
