"""Proper edge colorings: verification, constructors, exact chromatic index."""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Sequence

from .errors import (
    ClassTwoError,
    GraphError,
    OversizeError,
    PreconditionError,
    UnknownClassError,
)
from .graph import Edge, Graph, Value

EXHAUSTIVE_EDGE_LIMIT = 20


class EdgeColoring(Value):
    """Colors from {1..color_count} on edges: ``colors[i]`` is the color of
    ``edges[i]``, a normalized (min, max) pair. A coloring built from a graph
    ``g`` shares the tuple ``g.edges``, so its ``colors`` are indexed by edge
    id. Equality compares edges in order; :meth:`lines` ignores the order.
    """

    def __init__(self, edges: tuple[Edge, ...], colors: tuple[int, ...], color_count: int) -> None:
        if len(edges) != len(colors):
            raise PreconditionError(f"coloring has {len(edges)} edges but {len(colors)} colors")
        self.__dict__.update(edges=edges, colors=colors, color_count=color_count)

    def lines(self) -> list[str]:
        """One "u v c" line per edge, in ascending edge order."""
        # Flat triples keep CPython's fast int-tuple comparison; edges are unique.
        triples = sorted([(u, v, c) for (u, v), c in zip(self.edges, self.colors)])
        return [f"{u} {v} {c}" for u, v, c in triples]


class Verdict(Value):
    """Boolean check outcome plus the witnesses of every violation found."""

    def __init__(self, ok: bool, violations: tuple) -> None:
        self.__dict__.update(ok=ok, violations=violations)

    def __bool__(self) -> bool:
        return self.ok


def edge_colors(g: Graph, coloring: EdgeColoring) -> Sequence[int]:
    """The colors of ``g.edges``, indexed by edge id: ``coloring.colors`` when
    the coloring shares ``g.edges``, else re-indexed through its edges.

    Raises :class:`PreconditionError` when the coloring names an edge twice,
    misses an edge or names an edge the graph does not have.
    """
    if coloring.edges is g.edges:
        return coloring.colors
    by_edge = dict(zip(coloring.edges, coloring.colors))
    if len(by_edge) != len(coloring.edges):
        raise PreconditionError("coloring names an edge more than once")
    try:
        colors = [by_edge[e] for e in g.edges]
    except KeyError:
        missing = [e for e in g.edges if e not in by_edge]
        raise PreconditionError(
            f"coloring does not cover {len(missing)} edge(s), e.g. {missing[:3]}"
        ) from None
    if len(by_edge) != len(colors):
        extra = [e for e in coloring.edges if e not in g.edge_set]
        raise PreconditionError(
            f"coloring names {len(extra)} edge(s) not in the graph, e.g. {extra[:3]}"
        )
    return colors


def coloring_masks(g: Graph, coloring: EdgeColoring) -> tuple[Sequence[int], list[int], set[int]]:
    """One read of ``coloring`` on ``g``: its edge colors (see
    :func:`edge_colors`), each vertex's palette bitmask (bit c set for each
    color c at it) and the vertices at which two edges share a color.

    Colors 1..m (m edges) keep their bits; any other color c gets bit
    m + 1 + (rank of c among them), so a huge or non-positive color cannot
    build a huge mask. The renaming is injective, so clashes are unchanged.
    """
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


def clash_verdict(g: Graph, colors: Sequence[int], clashes: set[int]) -> Verdict:
    """The :func:`verify_proper` verdict for the edge ``colors`` and the clash
    vertices of one :func:`coloring_masks` read."""
    violations: list[tuple[int, int]] = []
    for v in sorted(clashes):
        counts = Counter(colors[e] for e in g.incidence[v])
        violations.extend((v, c) for c in sorted(counts) if counts[c] > 1)
    return Verdict(not violations, tuple(violations))


def verify_proper(g: Graph, coloring: EdgeColoring) -> Verdict:
    """Check that no two edges sharing a vertex carry the same color.

    Each violation is reported once as a (vertex, color) clash at the shared
    vertex, in ascending vertex then color order.
    """
    colors, _, clashes = coloring_masks(g, coloring)
    return clash_verdict(g, colors, clashes)


def proper_masks(g: Graph, coloring: EdgeColoring, t: int) -> tuple[Sequence[int], list[int]]:
    """The edge colors and palette bitmasks of one :func:`coloring_masks`
    read of ``coloring``, which must be a proper coloring of exactly
    ``g.edges`` with colors in 1..t.

    Raises :class:`PreconditionError` otherwise, naming the clashes as
    :func:`verify_proper` does.
    """
    colors, masks, clashes = coloring_masks(g, coloring)
    if colors and not 1 <= min(colors) <= max(colors) <= t:
        raise PreconditionError(f"coloring uses colors outside 1..{t}")
    if clashes:
        verdict = clash_verdict(g, colors, clashes)
        raise PreconditionError(f"coloring is not proper: clashes {verdict.violations[:3]}")
    return colors, masks


def palette(g: Graph, coloring: EdgeColoring, v: int) -> frozenset[int]:
    """The set of colors appearing on edges incident to ``v``."""
    if not 0 <= v < g.vertex_count:
        raise GraphError(f"unknown vertex {v}")
    by_edge = dict(zip(coloring.edges, coloring.colors))
    try:
        return frozenset(by_edge[g.edges[e]] for e in g.incidence[v])
    except KeyError as exc:
        raise PreconditionError(f"coloring misses an edge at vertex {v}: {exc}") from None


class _EdgeIndexedColoring:
    """Partial proper coloring under construction, indexed by edge id.

    ``color[e]`` is edge e's color (0 while uncolored), ``used[v]`` has bit c
    set when color c is on an edge at v, and ``at[v * stride + c]`` is the id
    of that edge (-1 if none), so every step of an alternating path costs
    O(1). One flat list keeps ``at`` at one pointer per (vertex, color).
    """

    def __init__(self, g: Graph, max_color: int):
        self.edges = g.edges
        self.color = [0] * len(g.edges)
        self.used = [0] * g.vertex_count
        self.stride = max_color + 1
        self.at = [-1] * (g.vertex_count * self.stride)

    def flip_path(self, start: int, first: int, second: int) -> int:
        """Swap ``first``/``second`` along the maximal alternating path that
        leaves ``start`` on its ``first`` edge; return the path's far end.

        ``second`` must be free at ``start``. Properness makes the walk a
        simple path, so only its two ends change their sets of colors.
        """
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


def misra_gries(g: Graph, *, within_max_degree: bool = False) -> EdgeColoring | None:
    """Proper edge coloring with at most max_degree + 1 colors.

    Classic fan-rotation construction: for each uncolored edge (u, v) grow a
    maximal fan at u, invert one two-colored path through u, then rotate the
    fan up to its first vertex missing the freed color, which then closes the
    edge. Edges are processed in input order, so the result is deterministic.

    Each fan step reads its candidates from the color table: the colors at u
    that are free at the fan's last vertex and not yet on a fan edge (a
    neighbor of u is in the fan exactly when its edge's color is, since the
    only uncolored edge at u leads to v). Among their edges ``at[u, c]`` the
    lowest id wins, which is the first match a scan of ``g.incidence[u]``
    (in edge-id order) would find. In the common case v already misses the
    freed color and the edge takes it at both ends without a rotation.

    With ``within_max_degree`` set (Δ = max_degree), return ``None`` at the
    first edge whose d, the smallest color free at the fan's last vertex, is
    Δ+1, before its flip; the colored edges then form a proper partial
    Δ-coloring. The full run would have ended with exactly Δ+1 colors, since
    the number of (Δ+1)-edges never falls:

    - c, the smallest color free at u, is ≤ Δ: u has at most Δ−1 colored edges;
    - a step with d ≤ Δ flips two colors ≤ Δ, and its rotation only permutes
      the fan's colors before one edge takes d;
    - a step with d = Δ+1 lowers the count by at most one in its d/c flip from
      u, then one edge takes d.

    When no edge needs Δ+1 the result is the full run's coloring.
    """
    edges = g.edges
    cap = max(map(len, g.incidence), default=0) + 1
    state = _EdgeIndexedColoring(g, cap)
    color, used, at, stride = state.color, state.used, state.at, state.stride
    beyond = len(edges)

    for e0, (u, v0) in enumerate(edges):
        base = u * stride
        colors_at_u = used[u]
        # The fan: v0, then neighbors w of u, each with its edge to u, such
        # that the color of each fan edge is free at the previous fan vertex.
        fan_vertices, fan_edges = [v0], [e0]
        fan_colors = 0
        last = v0
        candidates = colors_at_u & ~used[v0]
        while candidates:
            e = beyond
            while candidates:
                low = candidates & -candidates
                candidate = at[base + low.bit_length() - 1]
                if candidate < e:
                    e = candidate
                candidates ^= low
            a, b = edges[e]
            last = a + b - u
            fan_vertices.append(last)
            fan_edges.append(e)
            fan_colors |= 1 << color[e]
            candidates = colors_at_u & ~used[last] & ~fan_colors
        # Lowest zero bit above bit 0: the smallest free color at each end.
        taken = colors_at_u | 1
        c = (~taken & (taken + 1)).bit_length() - 1
        taken = used[last] | 1
        d = (~taken & (taken + 1)).bit_length() - 1
        if d == cap and within_max_degree:
            return None
        if c != d:
            # After the swap d is free at u (c was, and the path leaves u on d).
            state.flip_path(u, d, c)
        bit = 1 << d
        if not used[v0] & bit:
            color[e0] = d
            used[u] |= bit
            used[v0] |= bit
            at[base + d] = e0
            at[v0 * stride + d] = e0
            continue
        # Misra & Gries' lemma: after the flip the fan up to its first vertex missing d is a fan.
        for i in range(1, len(fan_vertices)):
            if not used[fan_vertices[i]] & bit:
                break
        else:
            raise RuntimeError("internal error: no rotatable fan prefix")
        # Each fan edge up to i takes the next one's color, edge i takes d.
        # At u every color stays taken but d, which is added; at each fan
        # vertex the old color leaves and the new one arrives.
        for j in range(i + 1):
            ex, x = fan_edges[j], fan_vertices[j]
            old = color[ex]
            new = color[fan_edges[j + 1]] if j < i else d
            xbase = x * stride
            if old:
                at[xbase + old] = -1
                used[x] ^= 1 << old
            at[xbase + new] = ex
            used[x] |= 1 << new
            at[base + new] = ex
            color[ex] = new
        used[u] |= bit
    return EdgeColoring(edges, tuple(color), max(color, default=0))


def konig_color_bipartite(g: Graph) -> EdgeColoring:
    """Proper edge coloring of a bipartite graph with exactly max_degree colors.

    For each edge (u, v): take the smallest color a free at u and b free at v;
    if a clashes at v, swap a and b along the alternating path leaving v. In a
    bipartite graph that path cannot reach u, so a becomes free at both ends.
    """
    if g.sides is None:
        raise PreconditionError("graph is not bipartite")
    max_degree = max(map(len, g.incidence), default=0)
    state = _EdgeIndexedColoring(g, max_degree)
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


def check_exhaustive_size(g: Graph, override_size: bool) -> None:
    """Refuse an exhaustive search on more than :data:`EXHAUSTIVE_EDGE_LIMIT`
    edges unless ``override_size`` is set, and always refuse one that would
    recurse (one frame per edge) into the last 100 frames of the recursion
    limit, which are left to the callers: the CLI, a test runner, a tracer."""
    if g.edge_count > EXHAUSTIVE_EDGE_LIMIT and not override_size:
        raise OversizeError(
            f"{g.edge_count} edges exceeds the exhaustive-search guard of "
            f"{EXHAUSTIVE_EDGE_LIMIT}; pass override_size=True to force"
        )
    depth = sys.getrecursionlimit() - 100
    if g.edge_count >= depth:
        raise OversizeError(f"{g.edge_count} edges reach the recursion depth of the exhaustive "
                            f"searches ({depth} levels); override_size cannot lift this limit")


def exact_chromatic_index(g: Graph, *, override_size: bool = False) -> tuple[int, EdgeColoring]:
    """Smallest t admitting a proper t-coloring, with a witness coloring.

    Backtracking over edges sorted by descending endpoint degree sum. Color
    symmetry is broken by allowing color c+1 only once colors 1..c appear,
    which in particular pins the first edge to color 1. By Vizing's theorem t
    is max_degree or max_degree + 1, so only those two are tried. The witness
    shares ``g.edges``: its colors are indexed by edge id.
    """
    check_exhaustive_size(g, override_size)
    degree = [g.degree(v) for v in g.vertices]
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
    raise RuntimeError("internal error: no proper coloring with max degree + 1 colors")


def obtain_r_coloring(g: Graph) -> EdgeColoring:
    """A proper coloring with exactly max_degree colors, or a classified failure.

    Strategy, in order: an overfull graph (more than max_degree * floor(n/2)
    edges, so max_degree matchings cannot cover it) is Class 2 at once;
    bipartite graphs get the exact-max-degree constructor; otherwise the
    max_degree+1 heuristic is accepted whenever it happens to stay within
    max_degree; it stops at the first edge that needs color max_degree + 1,
    since the full run would then end with exactly that many colors; small
    leftovers go to the exact solver. Raises
    :class:`ClassTwoError` when the graph provably needs an extra color and
    :class:`UnknownClassError` when nothing could certify the instance either
    way.
    """
    r = max(map(len, g.incidence), default=0)
    if g.edge_count > r * (g.vertex_count // 2):
        raise ClassTwoError(chi_prime=r + 1, max_degree=r)
    if g.sides is not None:
        return konig_color_bipartite(g)
    heuristic = misra_gries(g, within_max_degree=True)
    if heuristic is not None:
        return heuristic
    if g.edge_count <= EXHAUSTIVE_EDGE_LIMIT:
        chi_prime, witness = exact_chromatic_index(g)
        if chi_prime == r:
            return witness
        raise ClassTwoError(chi_prime=chi_prime, max_degree=r)
    raise UnknownClassError(
        f"heuristic used {r + 1} colors and the graph is too large "
        f"({g.edge_count} edges) for the exact solver"
    )


def emit_coloring(coloring: EdgeColoring) -> str:
    """Exchange format: header "t=<color_count>" then one "u v c" line per edge."""
    return "\n".join([f"t={coloring.color_count}", *coloring.lines()]) + "\n"


def parse_coloring(text: str) -> EdgeColoring:
    """Parse the "u v c" exchange format produced by :func:`emit_coloring`.

    Blank lines are skipped. Errors name the first bad line; a line that does
    not unpack into three integers is checked again field by field to say why.
    """
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
