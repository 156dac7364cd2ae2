import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    ClassTwoError,
    GraphError,
    MissingColorPartition,
    PreconditionError,
    build_graph,
    chromatic_sum_bound,
    degree_profile,
    generate_complete_bipartite,
    misra_gries,
    missing_color_partition,
    obtain_r_coloring,
    palette,
    select_swap_color,
    sequential_set_bound,
    sequentialize,
    swap_colors,
    verify_proper,
    verify_sequential,
)

from .conftest import class_one_near_regular, graphs, prism_minus_rungs
from .reference import (
    assignment_of,
    biregular_set_bound,
    color_of,
    coloring_of,
    cycle_graph,
    deficient_total,
)
from .test_coloring import K4_MATCHING_COLORING

# Hand-checked proper 3-coloring of the complete bipartite graph on parts
# {0,1} and {2,3,4}: vertex 2 misses color 3, vertex 3 misses 1, vertex 4
# misses 2.
K23_COLORING = coloring_of(
    {(0, 2): 1, (0, 3): 2, (0, 4): 3, (1, 2): 2, (1, 3): 3, (1, 4): 1}, 3
)


class TestMissingColorPartition:
    def test_k4_all_empty(self, k4):
        part = missing_color_partition(k4, K4_MATCHING_COLORING)
        assert part.r == 3
        assert all(cls == frozenset() for cls in part.classes.values())
        assert deficient_total(part) == 0

    def test_k23_hand_example(self, k23):
        part = missing_color_partition(k23, K23_COLORING)
        assert part.classes == {1: frozenset({3}), 2: frozenset({4}), 3: frozenset({2})}

    def test_rejects_not_near_regular(self, star3):
        c = obtain_r_coloring(star3)
        with pytest.raises(PreconditionError, match="spread"):
            missing_color_partition(star3, c)

    def test_rejects_wrong_color_count(self, k4):
        widened = coloring_of(assignment_of(K4_MATCHING_COLORING), 4)
        with pytest.raises(PreconditionError, match="colors"):
            missing_color_partition(k4, widened)

    def test_rejects_improper(self, k23):
        bad = assignment_of(K23_COLORING)
        bad[(0, 2)] = 2  # clashes with (1, 2) at vertex 2 and (0, 3) at vertex 0
        with pytest.raises(PreconditionError, match="not proper"):
            missing_color_partition(k23, coloring_of(bad, 3))

    def test_rejects_small_degree(self):
        g = cycle_graph(6)
        c = obtain_r_coloring(g)
        with pytest.raises(PreconditionError, match="at least 3"):
            missing_color_partition(g, c)

    @given(class_one_near_regular())
    def test_partition_identity(self, g):
        profile = degree_profile(g)
        part = missing_color_partition(g, obtain_r_coloring(g))
        classes = list(part.classes.values())
        union = frozenset().union(*classes)
        assert sum(len(cls) for cls in classes) == len(union)  # pairwise disjoint
        assert union == frozenset(g.vertices) - profile.max_degree_vertices
        assert deficient_total(part) == profile.n - profile.n_r


class TestSelectSwapColor:
    def test_all_empty_prefers_top(self):
        part = MissingColorPartition({1: frozenset(), 2: frozenset(), 3: frozenset()}, 3)
        assert select_swap_color(part) == 3

    def test_tie_prefers_top(self, k23):
        part = missing_color_partition(k23, K23_COLORING)
        assert select_swap_color(part) == 3

    def test_unique_maximum(self):
        part = MissingColorPartition(
            {1: frozenset({0}), 2: frozenset({1, 2}), 3: frozenset({3})}, 3
        )
        assert select_swap_color(part) == 2

    def test_tie_below_top_prefers_smallest(self):
        part = MissingColorPartition(
            {1: frozenset({0, 1}), 2: frozenset({2, 3}), 3: frozenset()}, 3
        )
        assert select_swap_color(part) == 1

    @given(class_one_near_regular())
    def test_pigeonhole(self, g):
        profile = degree_profile(g)
        part = missing_color_partition(g, obtain_r_coloring(g))
        chosen = select_swap_color(part)
        deficient = profile.n - profile.n_r
        assert len(part.classes[chosen]) >= -(-deficient // profile.max_degree)


class TestSwapColors:
    def test_identity_when_top(self, k23):
        assert swap_colors(K23_COLORING, 3, 3) is K23_COLORING

    def test_k23_hand_example(self, k23):
        swapped = swap_colors(K23_COLORING, 1, 3)
        assert color_of(swapped, 0, 4) == 1 and color_of(swapped, 1, 3) == 1
        assert color_of(swapped, 0, 2) == 3 and color_of(swapped, 1, 4) == 3
        assert color_of(swapped, 0, 3) == 2 and color_of(swapped, 1, 2) == 2
        assert verify_proper(k23, swapped)

    def test_color_out_of_range(self):
        with pytest.raises(PreconditionError, match="range"):
            swap_colors(K23_COLORING, 0, 3)
        with pytest.raises(PreconditionError, match="top color"):
            swap_colors(K23_COLORING, 1, 2)

    @given(graphs(), st.data())
    def test_involution_and_properness(self, g, data):
        coloring = misra_gries(g)
        if coloring.color_count == 0:
            return
        low = data.draw(st.integers(1, coloring.color_count))
        swapped = swap_colors(coloring, low, coloring.color_count)
        assert verify_proper(g, swapped)
        assert swap_colors(swapped, low, coloring.color_count) == coloring


class TestVerifySequential:
    def test_k4_full_vertex_set(self, k4):
        assert verify_sequential(k4, K4_MATCHING_COLORING, range(4))

    def test_empty_set_vacuous(self, k4):
        assert verify_sequential(k4, K4_MATCHING_COLORING, ())

    def test_gap_in_palette_reported(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        c = coloring_of({(0, 1): 1, (1, 2): 3}, 3)
        verdict = verify_sequential(g, c, [0, 1, 2])
        assert not verdict
        assert verdict.violations == (1, 2)  # vertex 1 sees {1,3}; vertex 2 sees {3}

    def test_unknown_vertex(self, k4):
        with pytest.raises(GraphError, match="unknown"):
            verify_sequential(k4, K4_MATCHING_COLORING, [7])


class TestBounds:
    @pytest.mark.parametrize(
        "n,n_r,r,expected", [(4, 4, 3, 4), (5, 2, 3, 3), (14, 6, 4, 8)]
    )
    def test_sequential_set_bound(self, n, n_r, r, expected):
        assert sequential_set_bound(n, n_r, r) == expected

    def test_ceiling_identity_small_range(self):
        for r in range(3, 11):
            for n in range(0, 31):
                for n_r in range(0, n + 1):
                    expected = n_r + -(-(n - n_r) // r)
                    assert sequential_set_bound(n, n_r, r) == expected

    def test_biregular_agreement(self):
        for r in range(3, 7):
            for k in range(1, 6):
                n = (2 * r - 1) * k
                assert sequential_set_bound(n, (r - 1) * k, r) == r * k
                assert biregular_set_bound(n, r) == r * k

    def test_argument_validation(self):
        with pytest.raises(PreconditionError):
            sequential_set_bound(4, 5, 3)
        with pytest.raises(PreconditionError):
            sequential_set_bound(4, 4, 2)

    @pytest.mark.parametrize(
        "call,text",
        [
            (lambda: sequential_set_bound(4, 5, 3), "need 0 <= n_r <= n, got n_r=5, n=4"),
            (lambda: sequential_set_bound(-1, 0, 2), "degree parameter must be at least 3, got 2"),
            (lambda: chromatic_sum_bound(4, -1, 3), "need 0 <= n_r <= n, got n_r=-1, n=4"),
            (lambda: chromatic_sum_bound(4, 4, 2), "degree parameter must be at least 3, got 2"),
            (lambda: sequentialize(generate_complete_bipartite(1, 3)), "degree spread 2 exceeds 1"),
            (lambda: sequentialize(cycle_graph(5)), "max degree must be at least 3, got 2"),
            (lambda: missing_color_partition(generate_complete_bipartite(1, 3), coloring_of({}, 3)),
             "degree spread 2 exceeds 1"),
            (lambda: missing_color_partition(cycle_graph(6), coloring_of({}, 2)),
             "max degree must be at least 3, got 2"),
        ],
    )
    def test_precondition_texts(self, call, text):
        # The bound and pipeline checks are shared helpers; their texts are fixed.
        with pytest.raises(PreconditionError) as raised:
            call()
        assert str(raised.value) == text


class TestSequentialize:
    def test_k4(self, k4):
        cert = sequentialize(k4)
        assert cert.sequential_vertices == frozenset(range(4))
        assert cert.size == cert.bound == 4
        assert cert.verified
        assert not cert.swapped

    def test_k23_with_injected_coloring(self, k23):
        cert = sequentialize(k23, coloring=K23_COLORING)
        assert cert.swap_color == 3
        assert cert.coloring == K23_COLORING  # no swap needed
        assert cert.sequential_vertices == frozenset({0, 1, 2})
        assert cert.size >= cert.bound == 3
        assert cert.verified

    def test_k23_default_acquisition(self, k23):
        cert = sequentialize(k23)
        assert cert.verified and cert.size >= 3
        assert {0, 1} <= cert.sequential_vertices

    def test_petersen_class_two(self, petersen):
        with pytest.raises(ClassTwoError):
            sequentialize(petersen)

    def test_star_not_near_regular(self, star3):
        with pytest.raises(PreconditionError, match="spread"):
            sequentialize(star3)

    def test_c5_degree_too_small(self):
        with pytest.raises(PreconditionError, match="at least 3"):
            sequentialize(cycle_graph(5))

    def test_record_fields(self, k23):
        record = sequentialize(k23, coloring=K23_COLORING).to_record()
        assert record["record"] == "certificate"
        assert record["swap_color"] is None
        assert record["sequential_vertices"] == [0, 1, 2]
        assert record["size"] == 3 and record["bound"] == 3
        assert record["verified"] is True
        assert record["coloring"][0] == "0 2 1"

    @given(class_one_near_regular())
    def test_certificate_properties(self, g):
        profile = degree_profile(g)
        cert = sequentialize(g)
        assert cert.verified
        assert profile.max_degree_vertices <= cert.sequential_vertices
        assert cert.size >= cert.bound
        assert cert.bound == sequential_set_bound(profile.n, profile.n_r, profile.max_degree)
        assert verify_sequential(g, cert.coloring, cert.sequential_vertices)
        assert verify_proper(g, cert.coloring)


def test_pipeline_profiles_once_and_reads_no_palette(monkeypatch):
    from seqcolor import coloring, graph, sequential

    calls = []
    real_profile = graph.degree_profile

    def counted(g):
        calls.append("degree_profile")
        return real_profile(g)

    monkeypatch.setattr(sequential, "degree_profile", counted)
    monkeypatch.setattr(coloring, "palette", None)
    cert = sequentialize(generate_complete_bipartite(4, 5))
    assert cert.verified and calls == ["degree_profile"]


def test_forced_swap_path():
    # K4 minus the edge (2,3), colored so both degree-2 vertices miss color 1:
    # the swap with color 3 must fire and make them sequential.
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    alpha = coloring_of({(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 3, (1, 3): 2}, 3)
    cert = sequentialize(g, coloring=alpha)
    assert cert.swapped and cert.swap_color == 1
    assert cert.sequential_vertices == frozenset(range(4))
    assert cert.verified
    assert color_of(cert.coloring, 0, 1) == 3
    assert color_of(cert.coloring, 1, 2) == 1
    assert cert.size == 4 >= cert.bound == 3


class TestInternalChecks:
    """Guarantees that must hold under ``python -O`` as well."""

    def test_bound_shortfall_raises(self, k23, monkeypatch):
        from seqcolor import sequential

        monkeypatch.setattr(sequential, "sequential_set_bound", lambda n, n_r, r: n + 1)
        with pytest.raises(RuntimeError, match="internal error"):
            sequentialize(k23)


# Non-bipartite and decided by Misra-Gries within 3 colors; the 9-prism
# keeping rungs 4..8 also has an edge between two deficient vertices that
# its certificate leaves out.
NINE_PRISM_MINUS_RUNG = prism_minus_rungs(9, range(1, 9))
NINE_PRISM_MINUS_FOUR_RUNGS = prism_minus_rungs(9, range(4, 9))


class TestOneReadOfTheFinalColoring:
    """An acquired Kőnig or Misra-Gries coloring is partitioned by the masks
    its construction kept, and the final coloring is read once in full."""

    @pytest.mark.parametrize("g, supplied, reads", [
        # Kőnig and Misra-Gries: the final read only; the partition takes
        # the colorer's masks.
        (generate_complete_bipartite(4, 5), None, 1),
        (NINE_PRISM_MINUS_RUNG, None, 1),
        # The exact solver's witness and a supplied coloring are validated first.
        (build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), None, 2),
        (generate_complete_bipartite(2, 3), K23_COLORING, 2),
    ])
    def test_coloring_reads(self, monkeypatch, g, supplied, reads):
        from seqcolor import coloring, sequential

        calls = []
        real = coloring.coloring_masks

        def spy(graph, c):
            calls.append(c)
            return real(graph, c)

        monkeypatch.setattr(coloring, "coloring_masks", spy)
        monkeypatch.setattr(sequential, "coloring_masks", spy)
        cert = sequentialize(g, supplied)
        assert cert.verified
        assert len(calls) == reads and calls[-1] is cert.coloring

    @pytest.mark.parametrize("kind", ["clash", "outside 1..r", "missing edge"])
    def test_tampered_final_coloring_raises(self, monkeypatch, kind):
        # The tampered edge joins two vertices outside the certified set, so
        # a sequential check of that set alone would pass ("verified: yes"),
        # and a missing edge would surface as the user's coverage error.
        from seqcolor import sequential

        g = NINE_PRISM_MINUS_FOUR_RUNGS
        honest = sequentialize(g)
        u, v = next(e for e in g.edges if not set(e) & honest.sequential_vertices)
        real = sequential.swap_colors

        def tampered(coloring, low, high):
            colors = assignment_of(real(coloring, low, high))
            if kind == "clash":
                colors[u, v] = next(c for e, c in colors.items() if u in e and e != (u, v))
            elif kind == "outside 1..r":
                colors[u, v] = high + 1
            else:
                del colors[u, v]
            return coloring_of(colors, high)

        monkeypatch.setattr(sequential, "swap_colors", tampered)
        with pytest.raises(RuntimeError, match="internal error: the final coloring fails its check"):
            sequentialize(g)


class TestBitmaskEdgeCases:
    def test_partition_rejects_colors_outside_range(self, k23):
        bad = assignment_of(K23_COLORING)
        bad[(0, 2)] = 7
        with pytest.raises(PreconditionError, match="outside 1..3"):
            missing_color_partition(k23, coloring_of(bad, 3))

    def test_verify_sequential_with_huge_and_zero_colors(self, k23):
        colors = assignment_of(K23_COLORING)
        colors[(0, 2)] = 10**9
        colors[(1, 3)] = 0
        coloring = coloring_of(colors, 3)
        verdict = verify_sequential(k23, coloring, k23.vertices)
        # The set-based palette is the reference the masks must agree with.
        expected = tuple(v for v in k23.vertices
                         if palette(k23, coloring, v) != frozenset(range(1, k23.degree(v) + 1)))
        assert verdict.violations == expected == (0, 1, 2, 3, 4)

    def test_verify_sequential_requires_total_coloring(self, k23):
        partial = assignment_of(K23_COLORING)
        del partial[(0, 2)]
        with pytest.raises(PreconditionError, match="does not cover"):
            verify_sequential(k23, coloring_of(partial, 3), [4])

