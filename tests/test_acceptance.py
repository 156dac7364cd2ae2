"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and enforces its runtime budget.
"""

import random
import time
from contextlib import contextmanager

import pytest

from seqcolor import (
    ClassTwoError,
    chromatic_sum_bound,
    coloring_sum,
    complete_graph,
    connected_near_regular_graphs,
    degree_profile,
    emit_edge_list,
    exact_chromatic_index,
    exact_edge_chromatic_sum,
    exact_max_sequential_set,
    generate_complete_bipartite,
    generate_random_biregular,
    konig_color_bipartite,
    misra_gries,
    missing_color_partition,
    obtain_r_coloring,
    select_swap_color,
    sequential_set_bound,
    sequentialize,
    sum_report,
    swap_colors,
    verify_proper,
)
from seqcolor.cli import run as cli_run

from .conftest import petersen_graph, random_bipartite_graph, random_simple_graph
from .reference import biregular_set_bound, vertex_sum_decomposition


@contextmanager
def criterion(num, summary):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {summary}")
        raise
    print(f"[criterion {num}] PASS ({time.perf_counter() - started:.2f}s): {summary}")


_SWEEP_CACHE: dict = {}


def small_class_one_instances(max_edges):
    if max_edges not in _SWEEP_CACHE:
        _SWEEP_CACHE[max_edges] = [
            g
            for g in connected_near_regular_graphs(max_edges)
            if exact_chromatic_index(g)[0] == degree_profile(g).max_degree
        ]
    return _SWEEP_CACHE[max_edges]


def test_criterion_1_k4():
    with criterion(1, "K4 certificate and sums, all exactly 12/4"):
        started = time.perf_counter()
        g = complete_graph(4)
        cert = sequentialize(g)
        assert cert.verified
        assert cert.size == 4 == sequential_set_bound(4, 4, 3)
        report = sum_report(g).replace(exact_sum=exact_edge_chromatic_sum(g).value)
        assert report.actual_sum == report.bound == 12
        assert report.exact_sum == 12
        assert time.perf_counter() - started < 1.0


def test_criterion_2_k23():
    with criterion(2, "K_{2,3} meets the tight biregular bound; sums equal 12"):
        started = time.perf_counter()
        g = generate_complete_bipartite(2, 3)
        cert = sequentialize(g)
        assert cert.verified
        assert cert.size >= 3 == biregular_set_bound(5, 3)
        oracle = exact_max_sequential_set(g, 3)
        assert oracle.value == 3  # the guarantee is tight on this instance
        assert chromatic_sum_bound(5, 2, 3) == 12
        assert exact_edge_chromatic_sum(g).value == 12
        assert time.perf_counter() - started < 1.0


def test_criterion_3_k33():
    with criterion(3, "K_{3,3} fully sequential; sums equal 18"):
        started = time.perf_counter()
        g = generate_complete_bipartite(3, 3)
        cert = sequentialize(g)
        assert cert.verified and cert.size == 6
        report = sum_report(g).replace(exact_sum=exact_edge_chromatic_sum(g).value)
        assert report.exact_sum == report.actual_sum == report.bound == 18
        assert time.perf_counter() - started < 1.0


def test_criterion_4_exhaustive_small_graphs():
    with criterion(4, "all Class-1 near-regular graphs with <= 15 edges satisfy the bound"):
        started = time.perf_counter()
        instances = small_class_one_instances(15)
        checked = 0
        for g in instances:
            profile = degree_profile(g)
            bound = sequential_set_bound(profile.n, profile.n_r, profile.max_degree)
            cert = sequentialize(g)
            assert cert.verified, g.edges
            assert cert.size >= bound, g.edges
            oracle = exact_max_sequential_set(g, profile.max_degree)
            assert oracle.value >= bound, g.edges
            assert oracle.value >= cert.size, g.edges
            checked += 1
        # 4,698 connected near-regular graphs fit in 15 edges, 4,614 of them Class 1.
        assert checked == 4614
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
        print(f"    swept {checked} instances")


def test_criterion_5_property_fuzz():
    with criterion(5, "1000 fuzz cases: swap, partition, pigeonhole, double counting"):
        rng = random.Random(20260811)
        families = ("biregular", "biregular", "biregular", "almost", "regular", "complete")
        cases = 0
        while cases < 1000:
            r = rng.choice((3, 4, 5))
            family = rng.choice(families)
            if family == "biregular":
                g = generate_random_biregular(r, rng.randint(1, 3), seed=rng.getrandbits(32))
            elif family == "almost":
                g = generate_complete_bipartite(r - 1, r)
            elif family == "regular":
                g = generate_complete_bipartite(r, r)
            else:
                g = complete_graph(4 if r == 3 else 6)
            profile = degree_profile(g)
            alpha = obtain_r_coloring(g)
            assert verify_proper(g, alpha)

            low = rng.randint(1, profile.max_degree)
            swapped = swap_colors(alpha, low, profile.max_degree)
            assert verify_proper(g, swapped)
            assert swap_colors(swapped, low, profile.max_degree) == alpha

            partition = missing_color_partition(g, alpha)
            classes = list(partition.classes.values())
            union = frozenset().union(*classes)
            assert sum(len(cls) for cls in classes) == len(union)
            assert len(union) == profile.n - profile.n_r

            chosen = select_swap_color(partition)
            deficient = profile.n - profile.n_r
            assert len(partition.classes[chosen]) >= -(-deficient // profile.max_degree)

            decomposition = vertex_sum_decomposition(g, alpha)
            assert decomposition.doubled_total == 2 * coloring_sum(g, alpha)
            cases += 1
        assert cases == 1000


def test_criterion_6_biregular_bound_agreement():
    with criterion(6, "closed forms agree at r*k on biregular profiles"):
        for r in (3, 4, 5, 6):
            for k in range(1, 6):
                n = (2 * r - 1) * k
                n_r = (r - 1) * k
                assert sequential_set_bound(n, n_r, r) == r * k
                assert biregular_set_bound(n, r) == r * k


def test_criterion_7_sum_chain():
    with criterion(7, "oracle <= constructed <= bound, with per-term palette sums"):
        named = [complete_graph(4), generate_complete_bipartite(2, 3),
                 generate_complete_bipartite(3, 3)]
        for g in named + small_class_one_instances(8):
            profile = degree_profile(g)
            r = profile.max_degree
            cert = sequentialize(g)
            actual = coloring_sum(g, cert.coloring)
            bound = chromatic_sum_bound(profile.n, profile.n_r, r)
            exact = exact_edge_chromatic_sum(g).value
            assert exact <= actual <= bound, g.edges
            decomposition = vertex_sum_decomposition(g, cert.coloring)
            for v in decomposition.full_palette:
                assert decomposition.per_vertex[v] == r * (r + 1) // 2
            for v in decomposition.missing_top:
                assert decomposition.per_vertex[v] == r * (r - 1) // 2
            for v in decomposition.other_deficient:
                assert decomposition.per_vertex[v] <= (r + 2) * (r - 1) // 2


def test_criterion_8_class_two_rejection_and_heuristic_contracts(tmp_path):
    with criterion(8, "Class-2 inputs rejected; coloring heuristics hold on 200+200 graphs"):
        petersen = petersen_graph()
        with pytest.raises(ClassTwoError):
            sequentialize(petersen)
        # The square of the 5-cycle (all chords added) is the odd complete
        # graph on 5 vertices, which no 4-coloring can handle.
        c5_squared = complete_graph(5)
        with pytest.raises(ClassTwoError):
            sequentialize(c5_squared)

        petersen_file = tmp_path / "petersen.txt"
        petersen_file.write_text(emit_edge_list(petersen))
        assert cli_run(["sequentialize", str(petersen_file)]) == 3

        rng = random.Random(77)
        for _ in range(200):
            g = random_bipartite_graph(rng, max_part=8, p=rng.choice((0.3, 0.6, 0.9)))
            coloring = konig_color_bipartite(g)
            if g.edges:
                assert verify_proper(g, coloring)
                assert coloring.color_count == degree_profile(g).max_degree
        for _ in range(200):
            g = random_simple_graph(rng, max_n=12, p=rng.choice((0.2, 0.5, 0.8)))
            coloring = misra_gries(g)
            if g.edges:
                assert verify_proper(g, coloring)
                assert coloring.color_count <= degree_profile(g).max_degree + 1
