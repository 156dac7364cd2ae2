"""Simple undirected graphs, degree statistics, and instance generators."""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import compress

from .errors import GraphError, PreconditionError

Edge = tuple[int, int]

BIREGULAR_SWITCHES_PER_EDGE = 1_000


class Value:
    """Base of the immutable value types: the fields are the ``__init__``
    parameters, which ``==`` (same class only), hash, repr, ``__match_args__``
    and :meth:`replace` read in order, as a frozen dataclass's methods do."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes) -> Value:
        """A copy with ``changes`` applied, built (so checked) by ``__init__``."""
        return type(self)(**dict(zip(self.__match_args__, self._fields()), **changes))


class Graph(Value):
    """Simple undirected graph on dense 0-based vertex ids.

    ``edges`` holds normalized (min, max) pairs in construction order, which
    downstream algorithms use as their deterministic processing order; an
    edge's index in it is its id. It caches only what several layers read:
    :attr:`degrees`, :attr:`sides` and :attr:`edge_set`. An index with one
    reader is built by that reader. Instances are immutable; use
    :func:`build_graph` to validate raw input.
    """

    def __init__(self, vertex_count: int, edges: tuple[Edge, ...]) -> None:
        self.__dict__.update(vertex_count=vertex_count, edges=edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Per vertex, the number of its edges."""
        degree = [0] * self.vertex_count
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        return tuple(degree)

    @cached_property
    def sides(self) -> bytes | None:
        """Per vertex 0 or 1, such that every edge joins the two sides, or None
        if the graph has an odd cycle. The smallest vertex of each component
        gets side 0, which fixes the rest of the component.

        A union-find over ``edges`` in order keeps each vertex's parity to its
        parent and returns None at the first edge whose ends have the same
        root and parity. The larger root is linked under the smaller, so each
        root is its component's smallest vertex; with path halving this takes
        O(m log_(1+m/n) n) steps (Tarjan and van Leeuwen 1984).
        """
        parent = list(range(self.vertex_count))
        parity = bytearray(self.vertex_count)
        for u, v in self.edges:
            # Each end walks to its root, summing its parity to it and
            # pointing each vertex it passes at its grandparent.
            pu = 0
            while (p := parent[u]) != u:
                g = parent[p]
                q = parity[u] ^ parity[p]
                if g != p:
                    parent[u] = g
                    parity[u] = q
                pu ^= q
                u = g
            pv = 0
            while (p := parent[v]) != v:
                g = parent[p]
                q = parity[v] ^ parity[p]
                if g != p:
                    parent[v] = g
                    parity[v] = q
                pv ^= q
                v = g
            if u == v:
                if pu == pv:
                    return None
            elif u < v:
                parent[v] = u
                parity[v] = pu ^ pv ^ 1
            else:
                parent[u] = v
                parity[u] = pu ^ pv ^ 1
        # parent[v] <= v, so one pass in vertex order writes every side.
        side = bytearray(self.vertex_count)
        for v, p in enumerate(parent):
            side[v] = parity[v] ^ side[p]
        return bytes(side)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    def degree(self, v: int) -> int:
        return self.degrees[v]


class DegreeProfile(Value):
    """Degree statistics of a graph.

    ``max_degree_vertices`` is the set of vertices of degree exactly
    ``max_degree`` and ``n_r`` its cardinality; ``near_regular`` means the
    degree spread is at most one.
    """

    def __init__(self, n: int, max_degree: int, min_degree: int, n_r: int,
                 max_degree_vertices: frozenset[int], near_regular: bool) -> None:
        self.__dict__.update(n=n, max_degree=max_degree, min_degree=min_degree, n_r=n_r,
                             max_degree_vertices=max_degree_vertices, near_regular=near_regular)


def build_graph(vertex_count: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate raw edge data and return an immutable :class:`Graph`.

    Rejects loops, duplicate edges and out-of-range vertex ids; the error
    names the first edge that fails any of these checks.
    """
    if vertex_count < 0:
        raise GraphError(f"vertex count must be non-negative, got {vertex_count}")
    normalized: list[Edge] = []
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            _check_no_repeat(normalized)
            raise GraphError(f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            _check_no_repeat(normalized)
            raise GraphError(f"loop edge at vertex {u}")
        if u > v:
            u, v = v, u
        normalized.append((u, v))
    _check_no_repeat(normalized)
    return Graph(vertex_count, tuple(normalized))


def _check_no_repeat(normalized: list[Edge]) -> None:
    """Raise on the first edge of ``normalized`` that repeats an earlier one;
    one set over the whole list tells whether there is one."""
    if len(set(normalized)) != len(normalized):
        seen: set[Edge] = set()
        for edge in normalized:
            if edge in seen:
                raise GraphError(f"duplicate edge {edge}")
            seen.add(edge)


def degree_profile(g: Graph) -> DegreeProfile:
    """Compute the degree statistics of ``g`` from :attr:`Graph.degrees`."""
    degrees = g.degrees
    max_degree = max(degrees, default=0)
    min_degree = min(degrees, default=0)
    top = frozenset(v for v, d in enumerate(degrees) if d == max_degree)
    return DegreeProfile(
        n=g.vertex_count,
        max_degree=max_degree,
        min_degree=min_degree,
        n_r=len(top),
        max_degree_vertices=top,
        near_regular=max_degree - min_degree <= 1,
    )


def bipartition_of(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The parts (side 0, side 1) of :attr:`Graph.sides`, or None if ``g``
    contains an odd cycle. Isolated vertices land in the first part.
    """
    sides = g.sides
    if sides is None:
        return None
    right = frozenset(compress(g.vertices, sides))
    return (frozenset(g.vertices) - right, right)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def generate_complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}.

    Part X is vertices 0..a-1 (degree b each), part Y is a..a+b-1 (degree a);
    these are the parts :func:`bipartition_of` returns.
    """
    if a < 1 or b < 1:
        raise PreconditionError("both part sizes must be at least 1")
    return build_graph(a + b, [(x, y) for x in range(a) for y in range(a, a + b)])


def generate_random_biregular(r: int, k: int, seed: int) -> Graph:
    """Random bipartite graph with (r-1)k vertices of degree r and rk of degree r-1.

    Vertices 0..(r-1)k-1 are the degree-r part. One seeded stub pairing
    (configuration model), then degree-preserving switchings that repair its
    repeated pairs: a repeated pair (x1, y1) and a random pair (x2, y2) become
    (x1, y2) and (x2, y1) whenever x1 and y2 are not joined yet. No switching
    adds a repeat without removing one; a repeat it moves to (x2, y1) is
    repaired in turn. Output is fully determined by ``seed``.
    """
    if r < 3:
        raise PreconditionError(f"degree parameter must be at least 3, got {r}")
    if k < 1:
        raise PreconditionError(f"scale must be at least 1, got {k}")
    nx, ny = (r - 1) * k, r * k
    xs = range(nx)
    ys = range(nx, nx + ny)
    right_stubs = [y for y in ys for _ in range(r - 1)]
    rng = random.Random(seed)
    rng.shuffle(right_stubs)
    pairs = list(zip((x for x in xs for _ in range(r)), right_stubs))
    count = Counter(pairs)
    repeated = [i for i, pair in enumerate(pairs) if count[pair] > 1]
    for _ in range(BIREGULAR_SWITCHES_PER_EDGE * len(pairs)):
        while repeated and count[pairs[repeated[-1]]] == 1:
            repeated.pop()
        if not repeated:
            return build_graph(nx + ny, pairs)
        i = repeated[-1]
        j = rng.randrange(len(pairs))
        (x1, y1), (x2, y2) = pairs[i], pairs[j]
        if count[x1, y2]:
            continue
        pairs[i], pairs[j] = (x1, y2), (x2, y1)
        count[x1, y1] -= 1
        count[x2, y2] -= 1
        count[x1, y2] += 1
        count[x2, y1] += 1
        if count[x2, y1] > 1:
            repeated.append(j)
    raise RuntimeError(
        f"internal error: switchings left repeated pairs (r={r}, k={k}, seed={seed})"
    )


def generate_regular_class1(r: int, kind: str = "bipartite") -> Graph:
    """An r-regular Class-1 graph: K_{r,r} by default, K_{r+1} for even r+1."""
    if r < 3:
        raise PreconditionError(f"degree parameter must be at least 3, got {r}")
    if kind == "bipartite":
        return generate_complete_bipartite(r, r)
    if kind == "complete":
        if (r + 1) % 2:
            raise PreconditionError(
                f"complete graph on {r + 1} vertices is not Class 1; need r odd"
            )
        return complete_graph(r + 1)
    raise PreconditionError(f"unsupported family kind {kind!r}")
