"""Reference helpers that only the tests use, kept apart from the library."""

from typing import Callable

from seqcolor import EdgeColoring, Graph, MissingColorPartition, PreconditionError, edge_key


def enumerate_proper_colorings(
    g: Graph, color_cap: int, visitor: Callable[[dict], None]
) -> int:
    """Visit every proper coloring of ``g`` with colors from {1..color_cap}.

    The visitor receives a fresh edge->color dict per coloring. Returns the
    number of colorings visited (one for the edgeless graph: the empty
    assignment). Cost is bounded only by the caller's choice of graph and cap.
    """
    if color_cap < 0:
        raise PreconditionError(f"color cap must be non-negative, got {color_cap}")
    edges = g.edges
    m = len(edges)
    used = [0] * g.vertex_count
    assign = [0] * m
    count = 0

    def walk(index: int) -> None:
        nonlocal count
        if index == m:
            visitor(dict(zip(edges, assign)))
            count += 1
            return
        u, v = edges[index]
        taken = used[u] | used[v]
        for c in range(1, color_cap + 1):
            bit = 1 << c
            if taken & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            assign[index] = c
            walk(index + 1)
            used[u] &= ~bit
            used[v] &= ~bit

    walk(0)
    return count


def coloring_of(assignment: dict, t: int) -> EdgeColoring:
    """The coloring with ``assignment``'s edges and colors, in its key order."""
    return EdgeColoring(tuple(assignment), tuple(assignment.values()), t)


def assignment_of(coloring: EdgeColoring) -> dict:
    """The coloring as an edge->color dict."""
    return dict(zip(coloring.edges, coloring.colors))


def color_of(coloring: EdgeColoring, u: int, v: int) -> int:
    """The color of edge {u, v}, in either orientation."""
    return assignment_of(coloring)[edge_key(u, v)]


def deficient_total(partition: MissingColorPartition) -> int:
    """How many vertices the missing-color classes hold together."""
    return sum(len(vs) for vs in partition.classes.values())


def reference_max_sequential_search(g: Graph, r: int) -> tuple[int, int, list[int]]:
    """The list-based max-sequential search the library's bitmask kernel replaced.

    Same visit order and node definition as ``exact_max_sequential_set``:
    edges in input order, colors ascending, one node per call, a vertex lost
    once an incident edge takes a color above its degree, and a node cut when
    its surviving count cannot beat the incumbent. Returns (best, nodes,
    best colors by edge id); best is -1 and the colors empty when no proper
    r-coloring exists. No size guard and no Class-2 precheck.
    """
    degree = [g.degree(v) for v in g.vertices]
    edges = g.edges
    m = len(edges)
    n = g.vertex_count
    used = [0] * n
    assign = [0] * m
    lost = [False] * n
    lost_count = 0
    best = -1
    best_assign: list[int] = []
    nodes = 0

    def descend(index: int) -> None:
        nonlocal best, best_assign, nodes, lost_count
        nodes += 1
        alive = n - lost_count
        if alive <= best:
            return
        if index == m:
            best = alive
            best_assign = assign.copy()
            return
        u, v = edges[index]
        taken = used[u] | used[v]
        for c in range(1, r + 1):
            bit = 1 << c
            if taken & bit:
                continue
            newly_lost = []
            for w in (u, v):
                if c > degree[w] and not lost[w]:
                    lost[w] = True
                    newly_lost.append(w)
            lost_count += len(newly_lost)
            used[u] |= bit
            used[v] |= bit
            assign[index] = c
            descend(index + 1)
            used[u] &= ~bit
            used[v] &= ~bit
            for w in newly_lost:
                lost[w] = False
            lost_count -= len(newly_lost)

    descend(0)
    return best, nodes, best_assign
