"""Exhaustive ground-truth engines for small instances.

Everything here walks the full space of proper colorings, so callers are
guarded by :func:`~seqcolor.coloring.check_exhaustive_size` (soft limit,
overridable). Edge order is always the graph's input order, keeping node
counts reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Sequence

from .coloring import (
    EdgeColoring,
    check_exhaustive_size,
    coloring_masks,
    edge_colors,
    exact_chromatic_index,
)
from .errors import ClassTwoError, PreconditionError
from .graph import Graph, build_graph


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum plus a witness coloring and search statistics.

    ``sequential_vertices`` carries the witness's sequential set when the
    oracle maximized that quantity.
    """

    value: int
    witness: EdgeColoring
    explored: int
    sequential_vertices: frozenset[int] | None = None

    def to_record(self, kind: str) -> dict:
        record = {
            "record": f"oracle_{kind}",
            "value": self.value,
            "explored": self.explored,
            # Always true (the sum search stops only when one more color changes
            # nothing); the record schema keeps the key.
            "cap_stable": True,
        }
        if self.sequential_vertices is not None:
            record["sequential_vertices"] = sorted(self.sequential_vertices)
        record["t"] = self.witness.color_count
        record["witness"] = self.witness.lines()
        return record


def _min_sum_search(
    g: Graph, color_cap: int, best_value: int, best_assign: Sequence[int]
) -> tuple[int, Sequence[int], int]:
    # Branch and bound over edges in input order, colors ascending. Three
    # admissible lower bounds on the uncolored remainder, combined by max:
    # per edge, the smallest color legal at both endpoints right now; per
    # vertex, its k uncolored incident edges need k distinct colors outside
    # its palette (summed over vertices this counts every edge twice); per
    # color class, every class is a matching, so color c can absorb at most
    # floor(active/2) more edges and floor(n/2) in total, and the remainder is
    # priced by filling the cheapest colors within those capacities.
    edges = g.edges
    m = len(edges)
    n = g.vertex_count
    used = [0] * n
    pending = [0] * n
    for u, v in edges:
        pending[u] += 1
        pending[v] += 1
    matching_cap = sum(1 for v in range(n) if pending[v]) // 2
    class_count = [0] * (color_cap + 1)
    assign = [0] * m
    nodes = 0

    def remaining_bound(start: int) -> int | None:
        by_edge = 0
        for idx in range(start, m):
            u, v = edges[idx]
            taken = used[u] | used[v]
            c = 1
            while c <= color_cap and (taken >> c) & 1:
                c += 1
            if c > color_cap:
                return None
            by_edge += c
        doubled = 0
        active = 0
        for v in range(n):
            need = pending[v]
            if not need:
                continue
            active += 1
            mask = used[v]
            c = 1
            while need:
                if c > color_cap:
                    return None
                if not (mask >> c) & 1:
                    doubled += c
                    need -= 1
                c += 1
        by_class = 0
        left = m - start
        if left:
            slack = active // 2
            for c in range(1, color_cap + 1):
                room = matching_cap - class_count[c]
                if room > slack:
                    room = slack
                if room <= 0:
                    continue
                take = room if room < left else left
                by_class += c * take
                left -= take
                if not left:
                    break
            if left:
                return None
        return max(by_edge, (doubled + 1) // 2, by_class)

    def descend(index: int, partial: int) -> None:
        nonlocal best_value, best_assign, nodes
        nodes += 1
        if index == m:
            if partial < best_value:
                best_value = partial
                best_assign = assign.copy()
            return
        u, v = edges[index]
        taken = used[u] | used[v]
        pending[u] -= 1
        pending[v] -= 1
        for c in range(1, color_cap + 1):
            bit = 1 << c
            if taken & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            assign[index] = c
            class_count[c] += 1
            rest = remaining_bound(index + 1)
            if rest is not None and partial + c + rest < best_value:
                descend(index + 1, partial + c)
            class_count[c] -= 1
            used[u] &= ~bit
            used[v] &= ~bit
        pending[u] += 1
        pending[v] += 1

    descend(0, 0)
    return best_value, best_assign, nodes


def exact_edge_chromatic_sum(g: Graph, *, override_size: bool = False) -> OracleResult:
    """Minimum total edge color over all proper colorings of ``g``.

    The color cap starts at the chromatic index and is raised one color at a
    time until the optimum stops improving, so the final +1 re-run changed
    nothing: every result is cap-stable. (Any coloring can be improved until every
    edge color is below deg(u)+deg(v), so the escalation always terminates.)
    """
    check_exhaustive_size(g, override_size)
    if not g.edges:
        return OracleResult(0, EdgeColoring(g.edges, (), 0), explored=0)
    chi_prime, seed = exact_chromatic_index(g, override_size=True)
    seed_colors = edge_colors(g, seed)
    value, best_assign, explored = _min_sum_search(g, chi_prime, sum(seed_colors), seed_colors)
    cap = chi_prime
    while True:
        next_value, next_assign, nodes = _min_sum_search(g, cap + 1, value, best_assign)
        explored += nodes
        if next_value == value:
            break
        value, best_assign = next_value, next_assign
        cap += 1
    witness = EdgeColoring(g.edges, tuple(best_assign), max(best_assign))
    return OracleResult(value, witness, explored=explored)


def exact_max_sequential_set(g: Graph, r: int, *, override_size: bool = False) -> OracleResult:
    """Maximum number of sequential vertices over all proper r-colorings.

    A vertex is sequential when its incident colors are exactly 1..deg(v),
    i.e. no incident edge ever receives a color above deg(v). The search
    marks a vertex lost the moment that happens, and prunes branches whose
    surviving count cannot beat the incumbent.
    """
    check_exhaustive_size(g, override_size)
    degree = [g.degree(v) for v in g.vertices]
    max_degree = max(degree, default=0)
    if r < max_degree:
        raise PreconditionError(
            f"no proper {r}-coloring exists: max degree is {max_degree}"
        )
    # With r > max_degree colors a proper coloring exists (Vizing).
    if g.edges and r == max_degree and exact_chromatic_index(g, override_size=True)[0] > r:
        raise ClassTwoError(chi_prime=r + 1, max_degree=max_degree)

    edges = g.edges
    m = len(edges)
    n = g.vertex_count
    # Colors are bits 1..r of a palette mask. Per edge: its endpoints, their
    # vertex bits and the lowest color bit that loses each (1 << (deg + 1));
    # a color at or above that bit puts the endpoint in the lost mask.
    full = (1 << (r + 1)) - 2
    plan = [
        (u, v, 1 << u, 1 << v, 2 << degree[u], 2 << degree[v]) for u, v in edges
    ]
    used = [0] * n
    assign = [0] * m
    # The root is the first node; without edges it is also the only leaf.
    best = n if not m else -1
    best_assign: list[int] = []
    nodes = 1

    def descend(index: int, lost: int, alive: int) -> None:
        # Children are counted, cut or recorded here rather than on entry.
        # Losses only grow with the color and the incumbent only rises, so
        # once one child is cut every higher color would be cut too: those
        # are counted in one step.
        nonlocal best, best_assign, nodes
        u, v, u_bit, v_bit, u_loses, v_loses = plan[index]
        used_u = used[u]
        used_v = used[v]
        free = full & ~(used_u | used_v)
        leaf = index + 1 == m
        while free:
            bit = free & -free
            free ^= bit
            nodes += 1
            child_alive = alive
            child_lost = lost
            if bit >= u_loses and not lost & u_bit:
                child_lost |= u_bit
                child_alive -= 1
            if bit >= v_loses and not lost & v_bit:
                child_lost |= v_bit
                child_alive -= 1
            if child_alive <= best:
                nodes += free.bit_count()
                break
            assign[index] = bit.bit_length() - 1
            if leaf:
                best = child_alive
                best_assign = assign.copy()
                nodes += free.bit_count()
                break
            used[u] = used_u | bit
            used[v] = used_v | bit
            descend(index + 1, child_lost, child_alive)
        used[u] = used_u
        used[v] = used_v

    if m:
        descend(0, 0, n)
    witness = EdgeColoring(edges, tuple(best_assign), r)
    _, masks, _ = coloring_masks(g, witness)
    sequential = frozenset(v for v in g.vertices if masks[v] == (1 << (degree[v] + 1)) - 2)
    if len(sequential) != best:
        raise RuntimeError("internal error: witness disagrees with the searched optimum")
    return OracleResult(best, witness, explored=nodes, sequential_vertices=sequential)


def _graphs_with_degrees(degrees: list[int], n_top: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # The connected canonical labeled graphs realizing the exact degree
    # sequence, by excluding/including vertex pairs in row-major order. When
    # row i - 1 is complete, every edge at vertices 0..i-1 is decided, and so
    # are the leading rows of any relabeling that draws its first labels from
    # those vertices: if one of them already outranks the identity, no
    # completion is canonical and the subtree is cut.
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    remaining = list(degrees)
    adj = [0] * n

    def extend(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if k == len(pairs):
            if not any(remaining) and _is_connected(adj) and _is_canonical(adj, n_top, n):
                yield tuple((i, j) for i, j in pairs if adj[i] >> j & 1)
            return
        i, j = pairs[k]
        if remaining[i] > n - j:
            return
        if j == i + 1 and not _is_canonical(adj, n_top, i):
            return
        row_done = j == n - 1
        if not (row_done and remaining[i] > 0):
            yield from extend(k + 1)
        if remaining[i] > 0 and remaining[j] > 0:
            remaining[i] -= 1
            remaining[j] -= 1
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if not (row_done and remaining[i] > 0):
                yield from extend(k + 1)
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
            remaining[i] += 1
            remaining[j] += 1

    yield from extend(0)


def _is_connected(adj: list[int]) -> bool:
    # Grow vertex 0's component over the neighbour bitmasks.
    reached = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~reached
        reached |= new
        frontier |= new
    return reached == (1 << len(adj)) - 1


def _is_canonical(adj: list[int], n_top: int, known: int) -> bool:
    # The representative of a class is the relabeling with the greatest
    # row-major upper-triangle adjacency string (equivalently the smallest
    # sorted edge tuple) among those that permute the top-degree block
    # 0..n_top-1 and the rest separately. ``adj`` holds neighbour bitmasks
    # whose rows 0..known-1 are complete; the identity passes when no
    # relabeling drawing its first labels from vertices below ``known``
    # beats it on the rows those labels fix, so known == n is the full test.
    #
    # Labels go out in order 0, 1, ...: label a goes to a vertex w of the
    # first cell of an ordered partition of the unlabeled vertices, and every
    # cell then splits by adjacency to w, neighbours first. The best row a
    # below that choice is one run of ones per cell, as long as the cell's
    # neighbour count, so it is compared with the identity's row a: greater
    # refutes the identity, smaller drops the choice, equal goes one deeper.
    n = len(adj)
    rows = []
    for a in range(known):
        row = 0
        for b in range(a + 1, n):
            row = row << 1 | (adj[a] >> b & 1)
        rows.append(row)
    allowed = (1 << known) - 1

    def beaten(a: int, cells: list[int]) -> bool:
        first = cells[0]
        picks = first & allowed
        while picks:
            low = picks & -picks
            picks ^= low
            near_w = adj[low.bit_length() - 1]
            row = 0
            split = []
            for cell in ([first ^ low] + cells[1:] if first ^ low else cells[1:]):
                near = cell & near_w
                size = cell.bit_count()
                ones = near.bit_count()
                row = row << size | ((1 << ones) - 1) << (size - ones)
                if near:
                    split.append(near)
                if near != cell:
                    split.append(cell ^ near)
            if row > rows[a] or (row == rows[a] and split and beaten(a + 1, split)):
                return True
        return False

    top = (1 << n_top) - 1
    return not beaten(0, [cell for cell in (top, ((1 << n) - 1) ^ top) if cell])


def connected_near_regular_graphs(max_edges: int) -> Iterator[Graph]:
    """All connected graphs with at most ``max_edges`` edges and degree spread <= 1,
    one representative per isomorphism class, max degree at least 3.

    Vertices of maximum degree come first in each representative. Among the
    relabelings that permute the max-degree block and the rest separately,
    the representative has the lexicographically smallest sorted edge tuple.
    Degree sequences come in order of r, then of the number of max-degree
    vertices, then of the rest; within one, classes come in the order of
    their representatives' sorted edge tuples, reversed. Chromatic class is
    not filtered; run :func:`exact_chromatic_index` on the results.
    """
    if max_edges < 1:
        return
    # Degrees at least r-1 on at least r+1 vertices force r*r - 1 <= 2*max_edges.
    for r in range(3, isqrt(2 * max_edges + 1) + 1):
        for n_top in range(1, 2 * max_edges // r + 1):
            for n_low in range(0, (2 * max_edges - r * n_top) // (r - 1) + 1):
                degree_total = r * n_top + (r - 1) * n_low
                if degree_total % 2:
                    continue
                m = degree_total // 2
                if m > max_edges:
                    break
                n = n_top + n_low
                if n < r + 1 or m < n - 1:
                    continue
                for edges in _graphs_with_degrees([r] * n_top + [r - 1] * n_low, n_top):
                    yield build_graph(n, edges)
