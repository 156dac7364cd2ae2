"""Exhaustive ground-truth engines for small instances.

The two oracles walk the proper colorings in the graph's input edge order,
colors ascending, so node counts are reproducible. The max-sequential
search skips colorings that only relabel interchangeable colors (its block
rule) and stops at a proven ceiling; the min-sum search walks them all.
They are guarded by :func:`~seqcolor.coloring.check_exhaustive_size` (its
edge limit can be overridden, its recursion-depth refusal cannot), and a
witness that clashes or misses the searched optimum is an internal error.
The census walks adjacency rows, not colorings, and has no size guard.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import isqrt

from .coloring import (
    EdgeColoring,
    check_exhaustive_size,
    exact_chromatic_index,
)
from .errors import ClassTwoError, PreconditionError
from .graph import Graph, Value, build_graph
from .sequential import verify_certificate


class OracleResult(Value):
    """Exact optimum plus a witness coloring and search statistics.

    ``sequential_vertices`` carries the witness's sequential set when the
    oracle maximized that quantity.
    """

    def __init__(self, value: int, witness: EdgeColoring, explored: int,
                 sequential_vertices: frozenset[int] | None = None) -> None:
        self.__dict__.update(value=value, witness=witness, explored=explored,
                             sequential_vertices=sequential_vertices)

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


def _later_edges(g: Graph) -> list[tuple[int, ...]]:
    """Per edge id, the ids of the later edges at either endpoint."""
    later: list[tuple[int, ...]] = [()] * len(g.edges)
    for ids in g.incidence:
        for t, j in enumerate(ids, 1):
            later[j] += ids[t:]
    return later


def _min_sum_search(
    g: Graph,
    later: Sequence[tuple[int, ...]],
    color_cap: int,
    best_value: int,
    best_assign: Sequence[int],
) -> tuple[int, Sequence[int], int]:
    """Branch and bound over edges in input order, colors ascending; returns
    (best value, best colors by edge id, nodes), or the incumbent passed in
    if nothing beats it. ``later`` is :func:`_later_edges` of ``g``.

    Three admissible lower bounds on the uncolored remainder, combined by
    max: per edge, the smallest color legal at both endpoints right now; per
    vertex, its k uncolored incident edges need k distinct colors outside its
    palette (summed over vertices this counts every edge twice), and the
    palette holds deg(v) - k colors with cap >= chi' >= deg(v), so k of them
    are free at or below the cap; per color class, every class is a matching,
    so color c can absorb at most floor(active/2) more edges and floor(n/2)
    in total, and the remainder is priced by filling the cheapest colors
    within those capacities.

    The bounds are kept up to date as edges are colored, not recomputed, and
    take the same values as a rescan would, so the search visits the same
    nodes. Edge: each remaining edge's lowest common free color bit is kept
    in ``low``, and coloring uv with c moves only the later edges at u or v
    whose lowest color was c. Vertex: the doubled sum travels down the
    recursion; with top = the (k+1)-th smallest free color at u, where k
    counts u's pending edges besides uv, coloring uv with c lowers u's share
    by min(c, top). Class: the fill over the cheapest colors' rooms is
    recomputed per child, in O(cap).
    """
    edges = g.edges
    incidence = g.incidence
    m = len(edges)
    n = g.vertex_count
    full = (1 << (color_cap + 1)) - 2
    used = [0] * n
    pending = [len(ids) for ids in incidence]
    active = sum(1 for k in pending if k)
    matching_cap = active // 2
    class_count = [0] * (color_cap + 1)
    # Color 1 is free everywhere at the root (cap >= chi' >= 1 when m > 0).
    low = [2] * m
    assign = [0] * m
    nodes = 1

    def descend(index: int, partial: int, by_edge: int, doubled: int, active: int) -> None:
        # Children are counted in their parent, not on entry. ``by_edge`` and
        # ``doubled`` cover edges index.., ``active`` counts the vertices with
        # a pending edge.
        nonlocal best_value, best_assign, nodes
        if index == m:
            # Every bound is 0 here, so the leaf was entered because it beats
            # the incumbent.
            best_value = partial
            best_assign = assign.copy()
            return
        u, v = edges[index]
        used_u = used[u]
        used_v = used[v]
        free = full & ~(used_u | used_v)
        # The pending[w]-th smallest free color at w, for w = u and v.
        x = ~(used_u | 1)
        for _ in range(pending[u] - 1):
            x &= x - 1
        top_u = (x & -x).bit_length() - 1
        x = ~(used_v | 1)
        for _ in range(pending[v] - 1):
            x &= x - 1
        top_v = (x & -x).bit_length() - 1
        pending[u] -= 1
        pending[v] -= 1
        active -= (not pending[u]) + (not pending[v])
        slack = active // 2
        base = by_edge - (low[index].bit_length() - 1)
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            limit = best_value - partial - c
            if base >= limit:
                continue
            child_doubled = (
                doubled - (c if c < top_u else top_u) - (c if c < top_v else top_v)
            )
            if child_doubled >= 2 * limit - 1:
                continue
            class_count[c] += 1
            by_class = 0
            left = m - index - 1
            for k in range(1, color_cap + 1):
                room = matching_cap - class_count[k]
                if room > slack:
                    room = slack
                if room <= 0:
                    continue
                take = room if room < left else left
                by_class += k * take
                left -= take
                if not left:
                    break
            class_count[c] -= 1
            if left or by_class >= limit:
                continue
            used[u] = used_u | bit
            used[v] = used_v | bit
            # Later edges whose lowest color was c move up in place, and
            # go back to c when the child is done or cut.
            edge_bound = base
            moved = []
            for j in later[index]:
                if low[j] == bit:
                    a, b = edges[j]
                    lowest = full & ~(used[a] | used[b])
                    lowest &= -lowest
                    low[j] = lowest
                    moved.append(j)
                    if not lowest:
                        edge_bound = limit
                        break
                    edge_bound += lowest.bit_length() - 1 - c
            if edge_bound < limit:
                assign[index] = c
                class_count[c] += 1
                nodes += 1
                descend(index + 1, partial + c, edge_bound, child_doubled, active)
                class_count[c] -= 1
            for j in moved:
                low[j] = bit
        used[u] = used_u
        used[v] = used_v
        pending[u] += 1
        pending[v] += 1

    descend(0, 0, m, sum(k * (k + 1) // 2 for k in pending), active)
    return best_value, best_assign, nodes


def exact_edge_chromatic_sum(g: Graph, *, override_size: bool = False) -> OracleResult:
    """Minimum total edge color over all proper colorings of ``g``.

    The color cap starts at the chromatic index and is raised one color at a
    time until the optimum stops improving, so the final +1 re-run changed
    nothing: every result is cap-stable. (Any coloring can be improved until every
    edge color is below deg(u)+deg(v), so the escalation always terminates.)
    """
    chi_prime, seed = exact_chromatic_index(g, override_size=override_size)
    if not g.edges:
        return OracleResult(0, seed, explored=0)
    later = _later_edges(g)
    value, best_assign, explored = _min_sum_search(
        g, later, chi_prime, sum(seed.colors), seed.colors
    )
    cap = chi_prime
    while True:
        next_value, next_assign, nodes = _min_sum_search(g, later, cap + 1, value, best_assign)
        explored += nodes
        if next_value == value:
            break
        value, best_assign = next_value, next_assign
        cap += 1
    witness = EdgeColoring(g.edges, tuple(best_assign), max(best_assign))
    proper, _ = verify_certificate(g, witness, ())
    if not proper or sum(best_assign) != value:
        raise RuntimeError("internal error: witness clashes or misses the searched optimum")
    return OracleResult(value, witness, explored=explored)


def exact_max_sequential_set(g: Graph, r: int, *, override_size: bool = False) -> OracleResult:
    """Maximum number of sequential vertices over all proper r-colorings.

    A vertex is sequential when its incident colors are exactly 1..deg(v),
    i.e. no incident edge ever receives a color above deg(v). The search
    marks a vertex lost the moment that happens, and prunes branches whose
    surviving count cannot beat the incumbent.

    Colors split into blocks at each vertex degree d < r (a block starts at
    1 and at each d + 1). A vertex of degree d loses on exactly the colors
    above d, so the colors of one block are interchangeable, and a color may
    open only once the color below it in its block is in use. Renumbering a
    coloring's blocks by first use keeps its lost set and makes it no larger
    in lex order (edges in input order), so the lex-first optimum, which is
    the witness, is among the colorings searched. Finding no coloring at
    r = max degree proves the graph Class 2; above it one always exists
    (Vizing).

    The search stops once the incumbent reaches the ceiling
    n - n_r + 2 min(floor(n_r / 2), e_top) (n_r: the degree-r vertices, e_top:
    the edges joining two of them), since the color-r matching covers them
    and loses each partner below degree r (proof in CHANGES.md); the first
    leaf there is the lex-first optimum, so only ``explored`` falls.
    """
    check_exhaustive_size(g, override_size)
    degree = [g.degree(v) for v in g.vertices]
    max_degree = max(degree, default=0)
    if r < max_degree:
        raise PreconditionError(
            f"no proper {r}-coloring exists: max degree is {max_degree}"
        )
    edges = g.edges
    m = len(edges)
    n = g.vertex_count
    # Colors are bits 1..r of a palette mask. Per edge: its endpoints, their
    # vertex bits and the lowest color bit that loses each (1 << (deg + 1));
    # a color at or above that bit puts the endpoint in the lost mask. The
    # colors above the max degree are one block, so no search uses one
    # above max degree + m, and the masks stop there even at a huge r.
    full = (1 << (min(r, max_degree + m) + 1)) - 2
    plan = [
        (u, v, 1 << u, 1 << v, 2 << degree[u], 2 << degree[v]) for u, v in edges
    ]
    # The first color of each block; the others open one by one as the color
    # below them is used.
    starts = 2
    for d in degree:
        starts |= 2 << d
    used = [0] * n
    assign = [0] * m
    # With edges r >= 1, so every degree-r vertex carries color r.
    ceiling = _sequential_ceiling(degree, edges, r) if m else n
    # The root is the first node; without edges it is also the only leaf.
    best = n if not m else -1
    # A child is cut at or below ``bar``: the incumbent, or n once the
    # incumbent is at the ceiling, so every later child is cut.
    bar = best
    best_assign: list[int] = []
    nodes = 1

    def descend(index: int, lost: int, alive: int, allowed: int) -> None:
        # Children are counted, cut or recorded here rather than on entry.
        # Losses only grow with the color and the incumbent only rises, so
        # once one child is cut every higher color would be cut too: those
        # are counted in one step.
        nonlocal best, bar, best_assign, nodes
        u, v, u_bit, v_bit, u_loses, v_loses = plan[index]
        used_u = used[u]
        used_v = used[v]
        free = allowed & ~(used_u | used_v)
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
            if child_alive <= bar:
                nodes += free.bit_count()
                break
            assign[index] = bit.bit_length() - 1
            if leaf:
                best = child_alive
                bar = n if best == ceiling else best
                best_assign = assign.copy()
                nodes += free.bit_count()
                break
            used[u] = used_u | bit
            used[v] = used_v | bit
            descend(index + 1, child_lost, child_alive, (allowed | bit << 1) & full)
        used[u] = used_u
        used[v] = used_v

    if m:
        descend(0, 0, n, starts & full)
    if best < 0:
        raise ClassTwoError(chi_prime=r + 1, max_degree=max_degree)
    witness = EdgeColoring(edges, tuple(best_assign), r)
    proper, lost = verify_certificate(g, witness, g.vertices)
    sequential = frozenset(g.vertices).difference(lost.violations)
    if not proper or len(sequential) != best:
        raise RuntimeError("internal error: witness clashes or misses the searched optimum")
    if best > ceiling:
        raise RuntimeError(
            f"internal error: {best} sequential vertices exceed the proven ceiling {ceiling}"
        )
    return OracleResult(best, witness, explored=nodes, sequential_vertices=sequential)


def _sequential_ceiling(degree: list[int], edges: Sequence[tuple[int, int]], r: int) -> int:
    """n - n_r + 2 min(floor(n_r / 2), e_top): no proper r-coloring (r >= 1)
    has more sequential vertices; see :func:`exact_max_sequential_set`."""
    n_top = degree.count(r)
    # Top edges are counted only until min(floor(n_r / 2), e_top) is known.
    short = pairs = n_top // 2
    for u, v in edges:
        if not short:
            break
        if degree[u] == r == degree[v]:
            short -= 1
    return len(degree) - n_top + 2 * (pairs - short)


def _graphs_with_degrees(degrees: list[int], n_top: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # The connected canonical labeled graphs realizing the exact degree
    # sequence, by excluding/including vertex pairs in row-major order. When
    # row i - 1 is complete, every edge at vertices 0..i-1 is decided, and so
    # are the leading rows of any relabeling that draws its first labels from
    # those vertices: if one of them already outranks the identity, no
    # completion is canonical and the subtree is cut.
    #
    # The representative of a class is the relabeling with the greatest
    # row-major upper-triangle adjacency string (equivalently the smallest
    # sorted edge tuple) among those that permute the top-degree block
    # 0..n_top-1 and the rest separately. The relabelings are searched label
    # by label: label a goes to a vertex w of the first cell of an ordered
    # partition of the unlabeled vertices, and every cell then splits by
    # adjacency to w, neighbours first. The best row a below that choice is
    # one run of ones per cell, as long as the cell's neighbour count, so it
    # is compared with the identity's row a: greater refutes the identity,
    # smaller drops the choice, equal goes one deeper.
    #
    # The check at row i allows labels only on vertices below i and goes on
    # from the previous check on the same branch, whose tree row i - 1 leaves
    # unchanged: only picks of newly allowed vertices at its ties are new.
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    remaining = list(degrees)
    adj = [0] * n
    # The identity's row a (columns a+1.., the first one highest), set by
    # the first check after the row completes.
    rows = [0] * n
    # tied[k]: the nodes (label level, ordered cells) that the check allowing
    # the vertices below k reached by a tie, kept only while their first cell
    # holds a vertex some later check allows.
    tied: list[list[tuple[int, list[int]]]] = [[] for _ in range(n + 1)]
    top = (1 << n_top) - 1
    tied[0].append((0, [cell for cell in (top, ((1 << n) - 1) ^ top) if cell]))

    def refuted(a: int, cells: list[int], picks: int, known: int) -> bool:
        # Label a goes to each vertex of ``picks`` (part of the first cell) in
        # turn; each tie is kept in ``tied[known]`` and searched below in full.
        first = cells[0]
        target = rows[a]
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
            if row > target:
                return True
            if row == target and split:
                if split[0] >> known:
                    tied[known].append((a + 1, split))
                if refuted(a + 1, split, split[0] & ((1 << known) - 1), known):
                    return True
        return False

    def canonical(known: int, before: int) -> bool:
        # Rows 0..known-1 are complete, and the previous check on this branch
        # allowed the vertices below ``before``.
        for a in range(before, known):
            row = 0
            for b in range(a + 1, n):
                row = row << 1 | (adj[a] >> b & 1)
            rows[a] = row
        fresh = (1 << known) - (1 << before)
        tied[known] = []
        for nodes in tied[:known]:
            for a, cells in nodes:
                picks = cells[0] & fresh
                if picks and refuted(a, cells, picks, known):
                    return False
        return True

    def extend(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if k == len(pairs):
            if not any(remaining) and _is_connected(adj) and canonical(n, n - 2):
                yield tuple((i, j) for i, j in pairs if adj[i] >> j & 1)
            return
        i, j = pairs[k]
        if remaining[i] > n - j:
            return
        if j == i + 1 and i and not canonical(i, i - 1):
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
                # The n_low range keeps degree_total <= 2 * max_edges.
                m = degree_total // 2
                n = n_top + n_low
                if n < r + 1 or m < n - 1:
                    continue
                for edges in _graphs_with_degrees([r] * n_top + [r - 1] * n_low, n_top):
                    yield build_graph(n, edges)
