import functools
import random
import signal

import pytest
from hypothesis import settings, strategies as st

from seqcolor import (
    GraphError,
    build_graph,
    complete_graph,
    connected_near_regular_graphs,
    generate_complete_bipartite,
    generate_random_biregular,
    misra_gries,
)

from .reference import reference_misra_gries

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def prism_graph():
    # Two triangles joined by a perfect matching: not bipartite, and the
    # max_degree+1 heuristic stays within 3 colors on it.
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def prism_minus_rungs(k, kept):
    """The k-prism (two k-cycles, vertex i joined to k + i) keeping only the
    rungs at the ``kept`` indices. For odd k it is not bipartite."""
    cycles = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return build_graph(2 * k, cycles + [(i, k + i) for i in kept])


def path_graph(edge_count):
    return build_graph(edge_count + 1, [(i, i + 1) for i in range(edge_count)])


def random_simple_graph(rng, max_n=12, p=0.4):
    n = rng.randint(2, max_n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, pairs)


def random_bipartite_graph(rng, max_part=7, p=0.5):
    a, b = rng.randint(1, max_part), rng.randint(1, max_part)
    pairs = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < p]
    return build_graph(a + b, pairs)


@functools.cache
def census_graphs(max_edges):
    """The census of connected near-regular graphs up to ``max_edges`` (at
    most 13) edges, in the generator's order: one run of
    ``connected_near_regular_graphs(13)`` per session, filtered. Sweeps that
    take census graphs as inputs read it; tests/test_census.py, which tests
    the generator, calls the generator."""
    if max_edges == 13:
        return tuple(connected_near_regular_graphs(13))
    if max_edges > 13:
        raise ValueError(f"the shared census stops at 13 edges, not {max_edges}")
    return tuple(g for g in census_graphs(13) if g.edge_count <= max_edges)


def scrambled(rng, edges):
    """``edges`` in shuffled order, each in a random orientation."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def matching_union(rng, n, r, removed=0):
    """r disjoint random perfect matchings on n vertices (n even), ``removed``
    edges of the last one deleted: r-regular less ``removed`` edges."""
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


def bipartite_minus_matching(rng, half, r, removed):
    """r disjoint perfect matchings between two parts of ``half`` vertices
    (cyclic shifts, then relabeled), ``removed`` edges of the last one
    deleted: bipartite, with degrees r and r - 1."""
    shifts = rng.sample(range(half), r)
    matchings = [[(x, half + (x + s) % half) for x in range(half)] for s in shifts]
    rng.shuffle(matchings[-1])
    edges = [e for mt in matchings[:-1] for e in mt] + matchings[-1][removed:]
    perm = list(range(2 * half))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def several_components(rng, odd):
    """Two to five components on disjoint vertex sets and up to five isolated
    vertices, relabeled at random, with the edges listed component by
    component: random bipartite ones and then, when ``odd``, one holding an
    odd cycle, so the graph is bipartite exactly when ``odd`` is false.
    Returns the vertex count and the edges."""
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


def outcome(call, *args):
    """What ``call(*args)`` returns, or its GraphError's class and text; any
    other exception propagates."""
    try:
        return call(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def assert_misra_gries_matches(g):
    """``misra_gries`` against the fan-rescan version it replaced: the same
    coloring, bit for bit, which it returns."""
    coloring = misra_gries(g)
    assert coloring == reference_misra_gries(g), g.edges
    return coloring


def assert_stops_exactly_when_over(g, full):
    """``misra_gries`` within the max degree against ``full``, the full
    run's coloring: ``None`` exactly when ``full`` needs color max degree
    + 1, else ``full``."""
    within = misra_gries(g, within_max_degree=True)
    assert within == (None if full.color_count > max(g.degrees, default=0) else full), g.edges


@st.composite
def graphs(draw, max_n=12):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_simple_graph(rng, max_n=max_n, p=draw(st.sampled_from([0.2, 0.4, 0.6])))


@st.composite
def bipartite_graphs(draw, max_part=7):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_bipartite_graph(rng, max_part=max_part, p=draw(st.sampled_from([0.3, 0.5, 0.8])))


@st.composite
def class_one_near_regular(draw):
    """Near-regular graphs with max degree r in 3..8 and chromatic index r."""
    family = draw(st.sampled_from(["biregular", "almost", "regular", "complete"]))
    if family == "complete":
        # Complete graphs on an even vertex count are Class 1.
        return complete_graph(draw(st.sampled_from([4, 6])))
    r = draw(st.integers(3, 8))
    if family == "biregular":
        k = draw(st.integers(1, 3))
        return generate_random_biregular(r, k, seed=draw(st.integers(0, 2**31 - 1)))
    if family == "almost":
        return generate_complete_bipartite(r - 1, r)
    return generate_complete_bipartite(r, r)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def k23():
    return generate_complete_bipartite(2, 3)


@pytest.fixture
def k33():
    return generate_complete_bipartite(3, 3)


@pytest.fixture
def star3():
    return generate_complete_bipartite(1, 3)


@pytest.fixture
def petersen():
    return petersen_graph()


@pytest.fixture
def wall_clock_limit():
    """Fail the test after 60 s of wall-clock time: a search without a node
    budget (exact_max_sequential_set under override_size) or a kernel whose
    worst case the test pins (Graph.sides on an adversarial edge order) would
    otherwise run until the CI job times out. A no-op where
    signal.setitimer is missing."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
