"""Reference helpers that only the tests use, kept apart from the library."""

import argparse
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Sequence

from seqcolor import (
    EdgeColoring,
    Graph,
    GraphError,
    MissingColorPartition,
    PreconditionError,
    build_graph,
)
from seqcolor import cli
from seqcolor.coloring import _EdgeIndexedColoring, edge_colors, proper_masks
from seqcolor.graph import Edge
from seqcolor.graph_io import GRAPH6_HEADER, GRAPH6_MAX_VERTICES
from seqcolor.oracle import _is_connected


def incidence_of(g: Graph) -> list[list[int]]:
    """Per vertex, the ids (indices into ``g.edges``) of its edges, in edge order."""
    incidence: list[list[int]] = [[] for _ in g.vertices]
    for e, (u, v) in enumerate(g.edges):
        incidence[u].append(e)
        incidence[v].append(e)
    return incidence


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


def cycle_graph(n: int) -> Graph:
    """The cycle C_n, edges (i, i + 1 mod n) in order of i."""
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def biregular_set_bound(n: int, r: int) -> int:
    """The sequential-set bound on (r-1, r)-biregular graphs, ceil(r*n / (2r-1))."""
    return -(-(r * n) // (2 * r - 1))


def coloring_of(assignment: dict, t: int) -> EdgeColoring:
    """The coloring with ``assignment``'s edges and colors, in its key order."""
    return EdgeColoring(tuple(assignment), tuple(assignment.values()), t)


def assignment_of(coloring: EdgeColoring) -> dict:
    """The coloring as an edge->color dict."""
    return dict(zip(coloring.edges, coloring.colors))


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered edge to (min, max) form."""
    return (u, v) if u < v else (v, u)


def color_of(coloring: EdgeColoring, u: int, v: int) -> int:
    """The color of edge {u, v}, in either orientation."""
    return assignment_of(coloring)[edge_key(u, v)]


def deficient_total(partition: MissingColorPartition) -> int:
    """How many vertices the missing-color classes hold together."""
    return sum(len(vs) for vs in partition.classes.values())


def reference_exact_chromatic_index(g: Graph) -> tuple[int, EdgeColoring]:
    """The separate search ``exact_chromatic_index`` ran before it moved onto
    the block search it shares with the max-sequential oracle.

    Backtracking over edges sorted by descending endpoint degree sum. Color
    symmetry is broken by allowing color c+1 only once colors 1..c appear,
    which in particular pins the first edge to color 1. By Vizing's theorem t
    is max_degree or max_degree + 1, so only those two are tried. The witness
    shares ``g.edges``: its colors are indexed by edge id. No size guard.
    """
    degree = g.degrees
    max_degree = max(degree, default=0)
    plan = [(e, u, v) for e, (u, v) in enumerate(g.edges)]
    plan.sort(key=lambda p: -(degree[p[1]] + degree[p[2]]))
    m = len(plan)
    used = [0] * g.vertex_count
    assign = [0] * m

    def feasible(t: int, index: int, introduced: int) -> bool:
        if index == m:
            return True
        e, u, v = plan[index]
        taken = used[u] | used[v]
        for c in range(1, min(t, introduced + 1) + 1):
            bit = 1 << c
            if taken & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            assign[e] = c
            if feasible(t, index + 1, max(introduced, c)):
                return True
            used[u] &= ~bit
            used[v] &= ~bit
        return False

    for t in (max_degree, max_degree + 1):
        if feasible(t, 0, 0):
            return t, EdgeColoring(g.edges, tuple(assign), t)
    raise RuntimeError("no proper coloring with max degree + 1 colors")


def reference_max_sequential_search(g: Graph, r: int) -> tuple[int, int, list[int]]:
    """The list-based max-sequential search the library's bitmask kernel replaced.

    Same visit order and node definition as ``exact_max_sequential_set``:
    edges in input order, colors ascending, one node per call, a vertex lost
    once an incident edge takes a color above its degree, and a node cut when
    its surviving count cannot beat the incumbent. Unlike the library, it
    tries every color at every edge, with no block rule and no stop at the
    matching ceiling, so it visits every relabeling of interchangeable colors
    and at least as many nodes. Returns
    (best, nodes, best colors by edge id); best is -1 and the colors empty
    when no proper r-coloring exists. No size guard.
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


def reference_min_sum_search(
    g: Graph, color_cap: int, best_value: int, best_assign: Sequence[int]
) -> tuple[int, Sequence[int], int]:
    """The rescanning min-sum search the library's incremental kernel replaced.

    Same visit order, node definition and bounds as ``oracle._min_sum_search``:
    edges in input order, colors ascending, one node per call, and a child
    entered only when its partial sum plus the largest of the three lower
    bounds, recomputed from scratch for each child, beats the incumbent.
    Returns (best value, best colors by edge id, nodes). No size guard.
    """
    # Branch and bound over edges in input order, colors ascending. Three
    # admissible lower bounds on the uncolored remainder, combined by max:
    # per edge, the smallest color legal at both endpoints right now; per
    # vertex, its k uncolored incident edges need k distinct colors outside
    # its palette (summed over vertices this counts every edge twice), and the
    # palette holds deg(v) - k colors with cap >= chi' >= deg(v), so k of them
    # are free at or below the cap; per color class, every class is a matching,
    # so color c can absorb at most floor(active/2) more edges and floor(n/2)
    # in total, and the remainder is priced by filling the cheapest colors
    # within those capacities.
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
            # Entered only when partial + remaining_bound(m) = partial beats the incumbent.
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


def reference_misra_gries(g: Graph) -> EdgeColoring:
    """The Misra–Gries colorer the library's table-driven fan step replaced.

    Each fan extension rescans ``incidence_of(g)[u]`` from its start for the
    first colored edge to a vertex outside the fan whose color is free at the
    fan's last vertex, and every rotated edge is moved one end at a time by
    a helper call; only the Kempe walker ``flip_path`` is the library's. The
    library must return the same coloring, bit for bit.
    """
    if not g.edges:
        return EdgeColoring(g.edges, (), 0)
    edges, incidence = g.edges, incidence_of(g)
    cap = max(map(len, incidence)) + 1
    state = _EdgeIndexedColoring(g, cap)
    color, used, at, stride = state.color, state.used, state.at, state.stride

    def smallest_free_color(v: int) -> int:
        taken = used[v] | 1
        return (~taken & (taken + 1)).bit_length() - 1

    def recolor_one_end(e: int, x: int, c: int) -> None:
        """Move edge ``e`` to color ``c`` at its end ``x`` only; the caller
        updates the other end and ``color[e]``."""
        old = color[e]
        base = x * stride
        if old and at[base + old] == e:
            at[base + old] = -1
            used[x] &= ~(1 << old)
        at[base + c] = e
        used[x] |= 1 << c

    for e0, (u, v0) in enumerate(edges):
        # The fan: neighbors w of u, each with its edge to u, such that the
        # color of each fan edge is free at the previous fan vertex.
        fan = [(v0, e0)]
        in_fan = {v0}
        grown = True
        while grown:
            grown = False
            for e in incidence[u]:
                cw = color[e]
                if not cw:
                    continue
                a, b = edges[e]
                w = a + b - u
                if w in in_fan:
                    continue
                if not used[fan[-1][0]] >> cw & 1:
                    fan.append((w, e))
                    in_fan.add(w)
                    grown = True
                    break
        c = smallest_free_color(u)
        d = smallest_free_color(fan[-1][0])
        if c != d:
            # After the swap d is free at u (c was, and the path leaves u on d).
            state.flip_path(u, d, c)
        # Misra & Gries' lemma: after the flip the fan up to its first vertex missing d is a fan.
        for i, (w, _) in enumerate(fan):
            if used[w] >> d & 1:
                continue
            for j in range(i + 1):
                x, ex = fan[j]
                shifted = color[fan[j + 1][1]] if j < i else d
                recolor_one_end(ex, x, shifted)
                recolor_one_end(ex, u, shifted)
                color[ex] = shifted
            break
        else:
            raise RuntimeError("internal error: no rotatable fan prefix")
    return EdgeColoring(edges, tuple(color), max(color))


@dataclass(frozen=True)
class PaletteSumDecomposition:
    """Per-vertex palette sums and the vertex classes behind the sum bound.

    ``doubled_total`` equals twice the coloring sum (every edge is counted at
    both endpoints). With t colors, ``full_palette`` holds vertices seeing all
    of 1..t (each contributes t(t+1)/2), ``missing_top`` those seeing exactly
    1..t-1 (each contributes t(t-1)/2), and ``other_deficient`` the rest.
    """

    per_vertex: tuple[int, ...]
    doubled_total: int
    full_palette: frozenset[int]
    missing_top: frozenset[int]
    other_deficient: frozenset[int]


def vertex_sum_decomposition(g: Graph, coloring: EdgeColoring) -> PaletteSumDecomposition:
    """Sum each vertex's palette and classify vertices for the bound's terms.

    The coloring must be proper with colors in 1..color_count. Sums add the
    edge colors at each vertex; classes are read from palette bitmasks.
    """
    t = coloring.color_count
    masks = proper_masks(g, coloring, t)
    colors = edge_colors(g, coloring)
    sums = [sum([colors[e] for e in incident]) for incident in incidence_of(g)]
    full, missing_top, other = set(), set(), set()
    for v, mask in enumerate(masks):
        # The palette 1..k (k = 0 when empty) is a run of set bits from bit 1:
        # adding 2 clears such a run, and only such a run, out of the mask. A
        # color renamed to a bit above m never ends such a run: deg(v) <= m.
        top = (mask | 1).bit_length() - 1 if mask & (mask + 2) == 0 else None
        if top == t:
            full.add(v)
        elif top == t - 1:
            missing_top.add(v)
        else:
            other.add(v)
    doubled = sum(sums)
    if doubled != 2 * sum(colors):
        raise RuntimeError("internal error: palette sums do not double-count the edges")
    return PaletteSumDecomposition(
        per_vertex=tuple(sums),
        doubled_total=doubled,
        full_palette=frozenset(full),
        missing_top=frozenset(missing_top),
        other_deficient=frozenset(other),
    )


def _upper_triangle_pairs(n: int):
    # Column-major order of the strict upper triangle: the graph6 bit layout.
    for j in range(1, n):
        for i in range(j):
            yield (i, j)


def reference_parse_graph6(text: str) -> Graph:
    """The per-bit graph6 decoder the library's table-driven one replaced:
    the same edges in the same order, and the same errors in the same order."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphError("empty graph6 string")
    head = ord(s[0])
    if head == 126:
        raise GraphError("multi-byte graph6 sizes (n > 62) are not supported")
    if not 63 <= head <= 63 + GRAPH6_MAX_VERTICES:
        raise GraphError(f"malformed graph6 length byte {s[0]!r}")
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    payload = s[1:]
    if len(payload) < nbytes:
        raise GraphError(f"truncated graph6 payload: need {nbytes} bytes, got {len(payload)}")
    if len(payload) > nbytes:
        raise GraphError("trailing data after graph6 payload")
    bits: list[int] = []
    for ch in payload:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphError(f"invalid graph6 payload byte {ch!r}")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphError("non-canonical graph6 padding bits")
    edges = [pair for pair, bit in zip(_upper_triangle_pairs(n), bits) if bit]
    return build_graph(n, edges)


def reference_emit_graph6(g: Graph) -> str:
    """The per-bit graph6 encoder the library's table-driven one replaced."""
    n = g.vertex_count
    if n > GRAPH6_MAX_VERTICES:
        raise PreconditionError(f"graph6 output supports at most {GRAPH6_MAX_VERTICES} vertices, got {n}")
    present = g.edge_set
    bits = [1 if pair in present else 0 for pair in _upper_triangle_pairs(n)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for pos in range(0, len(bits), 6):
        val = 0
        for bit in bits[pos:pos + 6]:
            val = (val << 1) | bit
        out.append(chr(63 + val))
    return "".join(out)


def reference_graphs_with_degrees(degrees: list[int], n_top: int):
    """The census generator that ran :func:`reference_is_canonical` from
    scratch at every row check; the library's continues the previous row's
    search instead and must yield the same tuples in the same order."""
    n = len(degrees)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    remaining = list(degrees)
    adj = [0] * n

    def extend(k):
        if k == len(pairs):
            if not any(remaining) and _is_connected(adj) and reference_is_canonical(adj, n_top, n):
                yield tuple((i, j) for i, j in pairs if adj[i] >> j & 1)
            return
        i, j = pairs[k]
        if remaining[i] > n - j:
            return
        if j == i + 1 and not reference_is_canonical(adj, n_top, i):
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


def reference_is_canonical(adj: list[int], n_top: int, known: int) -> bool:
    """The census canonicity test, searched from scratch.

    The representative of a class is the relabeling with the greatest
    row-major upper-triangle adjacency string (equivalently the smallest
    sorted edge tuple) among those that permute the top-degree block
    0..n_top-1 and the rest separately. ``adj`` holds neighbour bitmasks
    whose rows 0..known-1 are complete; the identity passes when no
    relabeling drawing its first labels from vertices below ``known`` beats
    it on the rows those labels fix, so known == n is the full test.

    Labels go out in order 0, 1, ...: label a goes to a vertex w of the
    first cell of an ordered partition of the unlabeled vertices, and every
    cell then splits by adjacency to w, neighbours first. The best row a
    below that choice is one run of ones per cell, as long as the cell's
    neighbour count, so it is compared with the identity's row a: greater
    refutes the identity, smaller drops the choice, equal goes one deeper.
    """
    n = len(adj)
    rows = []
    for a in range(known):
        row = 0
        for b in range(a + 1, n):
            row = row << 1 | (adj[a] >> b & 1)
        rows.append(row)
    allowed = (1 << known) - 1

    def beaten(a, cells):
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


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser written out call by call, as it was before
    ``seqcolor.cli.COMMANDS`` became the one spec; the table-built parser must
    format the same help, usage and errors."""
    parser = argparse.ArgumentParser(
        prog="seqcolor",
        description="Sequential edge colorings of near-regular Class-1 graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("edges", "graph6"), default="edges",
            help="graph text format (default: edges)",
        )

    p = sub.add_parser("generate", help="write a graph from a named family")
    p.add_argument("family", choices=("complete-bipartite", "biregular", "regular-class1"))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--seed", type=int, help="required for the biregular family")
    p.add_argument("--complete", action="store_true",
                   help="regular-class1: use the complete graph instead of the bipartite one")
    p.add_argument("-o", "--output")
    add_format(p)
    p.set_defaults(func=cli.cmd_generate)

    p = sub.add_parser("color", help="produce a proper edge coloring")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--vizing", action="store_true",
                   help="use the max_degree+1 heuristic instead of exact acquisition")
    p.add_argument("-o", "--output")
    add_format(p)
    p.set_defaults(func=cli.cmd_color)

    p = sub.add_parser("sequentialize", help="run the sequential-coloring pipeline")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--report", action="store_true", help="line-delimited JSON output")
    p.add_argument("--oracle", action="store_true", help="attach exhaustive ground truth")
    p.add_argument("--override-size", action="store_true",
                   help="run the oracle past its 20-edge guard")
    add_format(p)
    p.set_defaults(func=cli.cmd_sequentialize)

    p = sub.add_parser("bound", help="print the closed-form bounds for (n, n_r, r)")
    p.add_argument("n", type=int)
    p.add_argument("n_r", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cli.cmd_bound)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("vertices", nargs="?",
                   help="optional file of vertex ids to check for sequentiality")
    add_format(p)
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive exact optima for small graphs")
    p.add_argument("input", help="graph file, or - for stdin")
    p.add_argument("--sum", action="store_true", help="only the minimum color sum")
    p.add_argument("--max-sequential", action="store_true",
                   help="only the maximum sequential set")
    p.add_argument("--cap", type=int,
                   help="color count for the sequential maximization (default: max degree)")
    p.add_argument("--override-size", action="store_true")
    p.add_argument("--report", action="store_true", help="line-delimited JSON output")
    add_format(p)
    p.set_defaults(func=cli.cmd_oracle)

    return parser


# The per-edge kernels as they were before ``Graph.ends``, the popcount clash
# check and the one-set duplicate check: the library must give the same
# graphs, sides, colorings, masks and errors.


def reference_build_graph(vertex_count: int, edges: Iterable[Sequence[int]]) -> Graph:
    """``build_graph`` with its per-edge ``u*n+v`` key set."""
    if vertex_count < 0:
        raise GraphError(f"vertex count must be non-negative, got {vertex_count}")
    normalized: list[Edge] = []
    seen: set[int] = set()
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"loop edge at vertex {u}")
        if u > v:
            u, v = v, u
        key = u * vertex_count + v
        if key in seen:
            raise GraphError(f"duplicate edge {(u, v)}")
        seen.add(key)
        normalized.append((u, v))
    return Graph(vertex_count, tuple(normalized))


def reference_sides(g: Graph) -> bytes | None:
    """``Graph.sides`` reading each far end as ``a + b - v`` of ``g.edges``."""
    edges = g.edges
    incidence = incidence_of(g)
    side = bytearray(g.vertex_count)
    seen = bytearray(g.vertex_count)
    for start in g.vertices:
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            other = 1 - side[v]
            for e in incidence[v]:
                a, b = edges[e]
                w = a + b - v
                if not seen[w]:
                    seen[w] = 1
                    side[w] = other
                    stack.append(w)
                elif side[w] != other:
                    return None
    return bytes(side)


def reference_coloring_masks(g: Graph, coloring: EdgeColoring) -> tuple[Sequence[int], list[int], set[int]]:
    """``coloring_masks`` testing every edge's bit against the OR so far."""
    colors = edge_colors(g, coloring)
    m = len(colors)
    bits = colors
    if colors and (min(colors) < 1 or max(colors) > m):
        outside = sorted({c for c in colors if not 1 <= c <= m})
        bit_of = {c: m + 1 + i for i, c in enumerate(outside)}
        bits = [bit_of.get(c, c) for c in colors]
    masks = [0] * g.vertex_count
    clashes: set[int] = set()
    for (u, v), c in zip(g.edges, bits):
        bit = 1 << c
        mask = masks[u]
        if mask & bit:
            clashes.add(u)
        masks[u] = mask | bit
        mask = masks[v]
        if mask & bit:
            clashes.add(v)
        masks[v] = mask | bit
    return colors, masks, clashes


class ReferenceEdgeIndexedColoring:
    """The Kőnig colorer's state with its Kempe walker reading ``g.edges``."""

    def __init__(self, g: Graph, max_color: int):
        self.edges = g.edges
        self.color = [0] * len(g.edges)
        self.used = [0] * g.vertex_count
        self.stride = max_color + 1
        self.at = [-1] * (g.vertex_count * self.stride)

    def flip_path(self, start: int, first: int, second: int) -> int:
        at, color, edges, stride = self.at, self.color, self.edges, self.stride
        swapped = first + second
        x, want = start, first
        while True:
            base = x * stride
            e = at[base + want]
            at[base + first], at[base + second] = at[base + second], at[base + first]
            if e < 0:
                break
            color[e] = swapped - want
            a, b = edges[e]
            x, want = a + b - x, swapped - want
        toggle = (1 << first) | (1 << second)
        self.used[start] ^= toggle
        self.used[x] ^= toggle
        return x


def reference_konig_color_bipartite(g: Graph) -> EdgeColoring:
    """``konig_color_bipartite`` computing both ends' smallest free colors on
    every edge."""
    if g.sides is None:
        raise PreconditionError("graph is not bipartite")
    max_degree = max(map(len, incidence_of(g)), default=0)
    state = ReferenceEdgeIndexedColoring(g, max_degree)
    color, used, at, stride = state.color, state.used, state.at, state.stride
    for e, (u, v) in enumerate(g.edges):
        # Lowest zero bit above bit 0: the smallest free color at each end.
        taken = used[u] | 1
        a = (~taken & (taken + 1)).bit_length() - 1
        taken = used[v] | 1
        b = (~taken & (taken + 1)).bit_length() - 1
        if a != b and taken >> a & 1:
            if state.flip_path(v, a, b) == u:
                raise RuntimeError("internal error: alternating path reached the far endpoint")
        color[e] = a
        bit = 1 << a
        used[u] |= bit
        used[v] |= bit
        at[u * stride + a] = e
        at[v * stride + a] = e
    return EdgeColoring(g.edges, tuple(color), max_degree)


# The two text readers as they were before their one-scan fast path: the
# library must give the same graphs, colorings and error texts.


def reference_parse_edge_list(text: str) -> Graph:
    """``parse_edge_list`` reading every text with ``str.split`` and ``int``."""
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphError("edge list needs an 'n m' header")
    try:
        values = list(map(int, tokens))
    except ValueError as exc:
        raise GraphError(f"non-integer token in edge list: {exc}") from None
    del tokens
    n, m = values[0], values[1]
    if m < 0:
        raise GraphError(f"negative edge count {m}")
    if len(values) != 2 + 2 * m:
        raise GraphError(
            f"header promises {m} edges but body has {(len(values) - 2) / 2:g} pairs"
        )
    body = iter(values)
    next(body)
    next(body)
    return build_graph(n, zip(body, body))


def reference_parse_coloring(text: str) -> EdgeColoring:
    """``parse_coloring`` reading every text line by line."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    if start == len(lines) or not lines[start].startswith("t="):
        raise GraphError('coloring text must start with a "t=<count>" header')
    try:
        t = int(lines[start][2:])
    except ValueError:
        raise GraphError(f"bad color count header {lines[start]!r}") from None
    if t < 0:
        raise GraphError(f"negative color count {t}")
    by_edge: dict[Edge, int] = {}
    for line in lines[start + 1:]:
        try:
            u, v, c = map(int, line.split())
        except ValueError:
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise GraphError(f"expected 'u v c', got {line!r}") from None
            raise GraphError(f"non-integer field in {line!r}") from None
        if u > v:
            u, v = v, u
        elif u == v:
            raise GraphError(f"loop edge in coloring line {line!r}")
        if not 1 <= c <= t:
            raise GraphError(f"color {c} outside 1..{t} in line {line!r}")
        if (u, v) in by_edge:
            raise GraphError(f"edge {(u, v)} colored twice")
        by_edge[u, v] = c
    return EdgeColoring(tuple(by_edge), tuple(by_edge.values()), t)


def reference_lines(coloring: EdgeColoring) -> list[str]:
    """``EdgeColoring.lines`` as it was before the in-place sort: (u, v, c)
    triples sorted, then formatted, so a repeated edge's lines go by color."""
    triples = sorted([(u, v, c) for (u, v), c in zip(coloring.edges, coloring.colors)])
    return [f"{u} {v} {c}" for u, v, c in triples]
