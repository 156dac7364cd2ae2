import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from seqcolor import (
    EdgeColoring,
    PreconditionError,
    build_graph,
    chromatic_sum_bound,
    coloring_sum,
    degree_profile,
    exact_edge_chromatic_sum,
    konig_color_bipartite,
    misra_gries,
    missing_color_partition,
    palette,
    sequentialize,
    sum_report,
    verify_certificate,
)
from seqcolor.coloring import EXHAUSTIVE_EDGE_LIMIT

from .conftest import class_one_near_regular, graphs
from .reference import assignment_of, coloring_of, vertex_sum_decomposition
from .test_coloring import K4_MATCHING_COLORING
from .test_sequential import K23_COLORING


class TestColoringSum:
    def test_k4_matchings(self, k4):
        assert coloring_sum(k4, K4_MATCHING_COLORING) == 12

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert coloring_sum(g, coloring_of({(0, 1): 1}, 1)) == 1

    def test_k33(self, k33):
        # Every proper 3-coloring of K_{3,3} has three edges per color.
        assert coloring_sum(k33, konig_color_bipartite(k33)) == 18

    def test_incomplete_rejected(self, k4):
        with pytest.raises(PreconditionError, match="does not cover 5 edge"):
            coloring_sum(k4, coloring_of({(0, 1): 1}, 1))

    def test_extra_edge_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="names 1 edge"):
            coloring_sum(g, coloring_of({(0, 1): 1, (1, 2): 2, (0, 2): 3}, 3))


class TestChromaticSumBound:
    @pytest.mark.parametrize(
        "n,n_r,r,expected", [(4, 4, 3, 12), (6, 6, 3, 18), (5, 2, 3, 12)]
    )
    def test_values(self, n, n_r, r, expected):
        assert chromatic_sum_bound(n, n_r, r) == expected

    def test_validation(self):
        with pytest.raises(PreconditionError):
            chromatic_sum_bound(4, 4, 2)
        with pytest.raises(PreconditionError):
            chromatic_sum_bound(4, 5, 3)

    def test_monotone_in_n_and_n_r(self):
        for r in (3, 4, 5):
            for n in range(0, 16):
                for n_r in range(0, n + 1):
                    here = chromatic_sum_bound(n, n_r, r)
                    assert chromatic_sum_bound(n + 1, n_r, r) >= here
                    if n_r < n:
                        assert chromatic_sum_bound(n, n_r + 1, r) >= here


class TestVertexSumDecomposition:
    def test_k4(self, k4):
        dec = vertex_sum_decomposition(k4, K4_MATCHING_COLORING)
        assert dec.per_vertex == (6, 6, 6, 6)
        assert dec.doubled_total == 24 == 2 * coloring_sum(k4, K4_MATCHING_COLORING)
        assert dec.full_palette == frozenset(range(4))
        assert dec.missing_top == dec.other_deficient == frozenset()

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        dec = vertex_sum_decomposition(g, coloring_of({(0, 1): 1}, 1))
        assert dec.doubled_total == 2
        assert dec.full_palette == frozenset({0, 1})

    def test_k23_pipeline_terms(self, k23):
        cert = sequentialize(k23, coloring=K23_COLORING)
        dec = vertex_sum_decomposition(k23, cert.coloring)
        assert dec.full_palette == frozenset({0, 1})
        assert all(dec.per_vertex[v] == 6 for v in dec.full_palette)
        # Exactly the vertex missing the top color contributes 1+2.
        assert dec.missing_top == frozenset({2})
        assert dec.per_vertex[2] == 3
        assert dec.other_deficient == frozenset({3, 4})
        assert all(dec.per_vertex[v] <= 5 for v in dec.other_deficient)

    def test_cost_does_not_grow_with_color_count(self, k4):
        # Palettes are summed bit by bit, so a huge color_count costs nothing.
        started = time.perf_counter()
        coloring = coloring_of(assignment_of(K4_MATCHING_COLORING), 10**9)
        dec = vertex_sum_decomposition(k4, coloring)
        assert time.perf_counter() - started < 1.0
        assert dec.per_vertex == (6, 6, 6, 6)
        assert dec.other_deficient == frozenset(range(4))
        assert dec.full_palette == dec.missing_top == frozenset()

    def test_huge_color_builds_no_huge_mask(self):
        # Color 10**8 on the one edge of K_2 takes bit 2 (m = 1), not bit 10**8.
        g = build_graph(2, [(0, 1)])
        coloring = coloring_of({(0, 1): 10**8}, 10**8)
        tracemalloc.start()
        try:
            dec = vertex_sum_decomposition(g, coloring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert dec.per_vertex == (10**8, 10**8)
        assert dec.other_deficient == frozenset({0, 1})
        assert dec.full_palette == dec.missing_top == frozenset()

    def test_empty_palettes(self):
        # The empty palette is 1..0: full with no colors, missing the top with one.
        edgeless = build_graph(2, [])
        dec = vertex_sum_decomposition(edgeless, coloring_of({}, 0))
        assert dec.full_palette == frozenset({0, 1})
        g = build_graph(3, [(0, 1)])
        dec = vertex_sum_decomposition(g, coloring_of({(0, 1): 1}, 1))
        assert dec.full_palette == frozenset({0, 1})
        assert dec.missing_top == frozenset({2})
        dec = vertex_sum_decomposition(g, coloring_of({(0, 1): 1}, 2))
        assert dec.missing_top == frozenset({0, 1})
        assert dec.other_deficient == frozenset({2})

    def test_improper_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="not proper"):
            vertex_sum_decomposition(g, coloring_of({(0, 1): 1, (1, 2): 1}, 1))

    def test_color_outside_range_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError, match="outside 1..2"):
            vertex_sum_decomposition(g, coloring_of({(0, 1): 1, (1, 2): 3}, 2))

    @given(graphs())
    def test_double_counting(self, g):
        coloring = misra_gries(g)
        dec = vertex_sum_decomposition(g, coloring)
        assert dec.doubled_total == 2 * coloring_sum(g, coloring)
        assert sum(dec.per_vertex) == dec.doubled_total
        assert dec.per_vertex == tuple(sum(palette(g, coloring, v)) for v in g.vertices)

    @given(class_one_near_regular())
    def test_per_term_bounds_on_pipeline_output(self, g):
        cert = sequentialize(g)
        r = cert.r
        dec = vertex_sum_decomposition(g, cert.coloring)
        for v in dec.full_palette:
            assert dec.per_vertex[v] == r * (r + 1) // 2
        for v in dec.missing_top:
            assert dec.per_vertex[v] == r * (r - 1) // 2
        for v in dec.other_deficient:
            assert g.degree(v) == r - 1
            assert dec.per_vertex[v] <= (r + 2) * (r - 1) // 2


def exact_report(g):
    # The one way an exact minimum reaches a SumReport, as the CLI does it.
    return sum_report(g).replace(exact_sum=exact_edge_chromatic_sum(g).value)


class TestSumReport:
    def test_k4(self, k4):
        report = exact_report(k4)
        assert (report.actual_sum, report.bound, report.exact_sum) == (12, 12, 12)
        assert (report.certificate.n, report.certificate.n_r, report.certificate.r) == (4, 4, 3)

    def test_k23(self, k23):
        report = exact_report(k23)
        assert report.bound == 12 and report.exact_sum == 12
        assert report.exact_sum <= report.actual_sum <= report.bound

    def test_k33(self, k33):
        report = exact_report(k33)
        assert (report.actual_sum, report.bound, report.exact_sum) == (18, 18, 18)

    def test_replace_checks_invariants(self, k23):
        report = exact_report(k23)
        with pytest.raises(RuntimeError, match="oracle minimum exceeded"):
            report.replace(exact_sum=report.actual_sum + 1)
        with pytest.raises(RuntimeError, match="exceeded the closed-form bound"):
            report.replace(actual_sum=report.bound + 1)

    def test_record(self, k23):
        record = exact_report(k23).to_record()
        assert record == {
            "record": "sum_report",
            "n": 5,
            "r": 3,
            "n_r": 2,
            "actual_sum": 12,
            "bound": 12,
            "exact_sum": 12,
        }

    @given(class_one_near_regular())
    def test_chain_invariant(self, g):
        report = exact_report(g) if g.edge_count <= EXHAUSTIVE_EDGE_LIMIT else sum_report(g)
        assert report.actual_sum <= report.bound
        if report.exact_sum is not None:
            assert report.exact_sum <= report.actual_sum
        profile = degree_profile(g)
        assert report.bound == chromatic_sum_bound(profile.n, profile.n_r, profile.max_degree)


@given(class_one_near_regular(), st.integers(0, 2**32 - 1))
def test_readers_ignore_the_edge_order(g, seed):
    # A coloring in another edge order than the graph's is re-indexed by its
    # edges: every reader gives the same answer as on the edge-id order.
    coloring = sequentialize(g).coloring
    pairs = list(zip(coloring.edges, coloring.colors))
    random.Random(seed).shuffle(pairs)
    edges, colors = zip(*pairs)
    shuffled = EdgeColoring(edges, colors, coloring.color_count)
    vertices = list(g.vertices)
    assert verify_certificate(g, shuffled, vertices) == verify_certificate(g, coloring, vertices)
    assert coloring_sum(g, shuffled) == coloring_sum(g, coloring)
    assert missing_color_partition(g, shuffled) == missing_color_partition(g, coloring)
    assert vertex_sum_decomposition(g, shuffled) == vertex_sum_decomposition(g, coloring)
