import random
import signal

import pytest
from hypothesis import settings, strategies as st

from seqcolor import (
    build_graph,
    complete_graph,
    generate_complete_bipartite,
    generate_random_biregular,
)

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
