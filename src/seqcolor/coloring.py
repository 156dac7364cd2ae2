"""Proper edge colorings: verification, constructors, exact chromatic index."""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Sequence
from functools import cached_property, partial
from itertools import starmap
from operator import lt, xor

from .errors import (
    ClassTwoError,
    GraphError,
    OversizeError,
    PreconditionError,
    UnknownClassError,
)
from .graph import Edge, Graph, Value
from .graph_io import scan_ints

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
        """One "u v c" line per edge, in ascending edge order; a repeated
        edge's lines keep their order in ``edges`` (the sort is stable)."""
        lines = [f"{u} {v} {c}" for (u, v), c in zip(self.edges, self.colors)]
        # CPython's list.sort computes each key once, in list order (an
        # implementation detail, not a language promise): line i's key is
        # edges[i], read by next(edge_iter, line) without allocating one.
        # tests/test_output.py::TestLines::test_unique_edges_same_as_triple_sort
        # would fail if the order changed.
        lines.sort(key=partial(next, iter(self.edges)))
        return lines

    @cached_property
    def _by_edge(self) -> dict[Edge, int]:
        """Each edge's color; fewer entries than edges when an edge repeats.
        The coloring parsers seed it with the dict they check repeats with."""
        return dict(zip(self.edges, self.colors))


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
    by_edge = coloring._by_edge
    if len(by_edge) != len(coloring.edges):
        raise PreconditionError("coloring names an edge more than once")
    try:
        colors = list(map(by_edge.__getitem__, g.edges))
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

    Colors outside 1..m (m edges) get the bits above m, injectively, so no
    mask grows huge. One pass ORs each edge's bit into both ends, so a mask
    has one set bit per distinct color: a vertex has a clash exactly when
    its mask has fewer set bits than its degree, and the masks hold 2m set
    bits in all exactly when no vertex has one.
    """
    colors = edge_colors(g, coloring)
    m = len(colors)
    bits = colors
    # The range is read off the few distinct colors: faster than a min and
    # a max over every edge.
    used = set(colors)
    if used and (min(used) < 1 or max(used) > m):
        outside = sorted(c for c in used if not 1 <= c <= m)
        bit_of = {c: m + 1 + i for i, c in enumerate(outside)}
        bits = [bit_of.get(c, c) for c in colors]
    masks = [0] * g.vertex_count
    for (u, v), c in zip(g.edges, bits):
        bit = 1 << c
        masks[u] |= bit
        masks[v] |= bit
    if sum(map(int.bit_count, masks)) == 2 * m:
        return colors, masks, set()
    degree = g.degrees
    return colors, masks, {v for v, mask in enumerate(masks) if mask.bit_count() < degree[v]}


def clash_verdict(g: Graph, colors: Sequence[int], clashes: set[int]) -> Verdict:
    """The :func:`verify_proper` verdict for the edge ``colors`` and the clash
    vertices of one :func:`coloring_masks` read, named from one scan of the
    edges at those vertices."""
    if not clashes:
        return Verdict(True, ())
    counts = Counter((x, c) for (u, v), c in zip(g.edges, colors) for x in (u, v) if x in clashes)
    violations = tuple(sorted(key for key, count in counts.items() if count > 1))
    return Verdict(not violations, violations)


def verify_proper(g: Graph, coloring: EdgeColoring) -> Verdict:
    """Check that no two edges sharing a vertex carry the same color.

    Each violation is reported once as a (vertex, color) clash at the shared
    vertex, in ascending vertex then color order.
    """
    colors, _, clashes = coloring_masks(g, coloring)
    return clash_verdict(g, colors, clashes)


def proper_masks(g: Graph, coloring: EdgeColoring, t: int) -> list[int]:
    """The palette bitmasks of one :func:`coloring_masks` read of
    ``coloring``, which must be a proper coloring of exactly ``g.edges``
    with colors in 1..t.

    Raises :class:`PreconditionError` otherwise, naming the clashes as
    :func:`verify_proper` does.
    """
    colors, masks, clashes = coloring_masks(g, coloring)
    m = len(colors)
    # A color outside 1..m has a bit above m, so the top palette bit passes
    # min(t, m) exactly when a color lies outside 1..min(t, m); only for
    # t > m can such a color, one in (m, t], still lie in 1..t.
    top = max(masks, default=0).bit_length() - 1
    if m and top > min(t, m) and (t <= m or not all(1 <= c <= t for c in colors)):
        raise PreconditionError(f"coloring uses colors outside 1..{t}")
    if clashes:
        verdict = clash_verdict(g, colors, clashes)
        raise PreconditionError(f"coloring is not proper: clashes {verdict.violations[:3]}")
    return masks


def palette(g: Graph, coloring: EdgeColoring, v: int) -> frozenset[int]:
    """The set of colors on the edges at ``v``, from one scan of ``g.edges``."""
    if not 0 <= v < g.vertex_count:
        raise GraphError(f"unknown vertex {v}")
    try:
        return frozenset(coloring._by_edge[e] for e in g.edges if v in e)
    except KeyError as exc:
        raise PreconditionError(f"coloring misses an edge at vertex {v}: {exc}") from None


class _EdgeIndexedColoring:
    """Partial proper coloring under construction, indexed by edge id.

    ``color[e]`` is edge e's color (0 while uncolored), ``used[v]`` has bit c
    set when color c is on an edge at v, and ``at[v * stride + c]`` is the id
    of that edge (-1 if none), and ``ends[e]`` is ``u ^ v`` of edge e, so a
    walk reaching e at x goes on at ``ends[e] ^ x``: every step of an
    alternating path costs O(1). One flat list keeps ``at`` at one pointer
    per (vertex, color).
    """

    def __init__(self, g: Graph, max_color: int):
        self.ends = tuple(starmap(xor, g.edges))
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
        at, color, ends, stride = self.at, self.color, self.ends, self.stride
        swapped = first + second
        x, want = start, first
        while True:
            base = x * stride
            e = at[base + want]
            at[base + first], at[base + second] = at[base + second], at[base + first]
            if e < 0:
                break
            color[e] = swapped - want
            x, want = ends[e] ^ x, swapped - want
        toggle = (1 << first) | (1 << second)
        self.used[start] ^= toggle
        self.used[x] ^= toggle
        return x


def misra_gries(g: Graph, *, within_max_degree: bool = False,
                with_masks: bool = False) -> EdgeColoring | tuple[EdgeColoring, list[int]] | None:
    """Proper edge coloring with at most max_degree + 1 colors.

    Classic fan-rotation construction: for each uncolored edge (u, v) grow a
    maximal fan at u, invert one two-colored path through u, then rotate the
    fan up to its first vertex missing the freed color, which then closes the
    edge. Edges are processed in input order, so the result is deterministic.
    Each fan step takes the lowest-id edge ``at[u, c]`` over the colors c at
    u free at the fan's last vertex and on no fan edge: the first match a
    scan of u's edges in edge-id order would find (CHANGES.md).

    With ``within_max_degree`` set (Δ = max_degree), return ``None`` at the
    first edge whose d, the smallest color free at the fan's last vertex, is
    Δ+1, before its flip; the colored edges then form a proper partial
    Δ-coloring, and the full run would end with exactly Δ+1 colors (proof in
    CHANGES.md). When no edge needs Δ+1 the result is the full run's coloring.

    With ``with_masks`` set a coloring comes back as ``(coloring, masks)``,
    ``masks[v]`` having bit c set for each color c at v: the palettes the
    construction keeps, handed over without a read of the coloring.
    """
    edges = g.edges
    cap = max(g.degrees, default=0) + 1
    state = _EdgeIndexedColoring(g, cap)
    color, used, at, ends, stride = state.color, state.used, state.at, state.ends, state.stride
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
            last = ends[e] ^ u
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
    coloring = EdgeColoring(edges, tuple(color), max(color, default=0))
    return (coloring, used) if with_masks else coloring


def konig_color_bipartite(g: Graph, *,
                          with_masks: bool = False) -> EdgeColoring | tuple[EdgeColoring, list[int]]:
    """Proper edge coloring of a bipartite graph with exactly max_degree colors.

    For each edge (u, v): take the smallest color a free at u; if a is taken
    at v, swap a and the smallest color b free at v along the alternating
    path leaving v. In a bipartite graph that path cannot reach u, so a
    becomes free at both ends. ``with_masks`` is as for :func:`misra_gries`.
    """
    if g.sides is None:
        raise PreconditionError("graph is not bipartite")
    max_degree = max(g.degrees, default=0)
    state = _EdgeIndexedColoring(g, max_degree)
    color, used, at, stride = state.color, state.used, state.at, state.stride
    for e, (u, v) in enumerate(g.edges):
        # Lowest zero bit above bit 0: the smallest free color.
        taken = used[u] | 1
        a = (~taken & (taken + 1)).bit_length() - 1
        bit = 1 << a
        if used[v] & bit:
            taken = used[v] | 1
            b = (~taken & (taken + 1)).bit_length() - 1
            if state.flip_path(v, a, b) == u:
                raise RuntimeError("internal error: alternating path reached the far endpoint")
        color[e] = a
        used[u] |= bit
        used[v] |= bit
        at[u * stride + a] = e
        at[v * stride + a] = e
    coloring = EdgeColoring(g.edges, tuple(color), max_degree)
    return (coloring, used) if with_masks else coloring


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


def _block_search(g: Graph, r: int, order: Sequence[int], degree: Sequence[int],
                  ceiling: int) -> tuple[int, list[int], int]:
    """Depth-first over the proper r-colorings of ``g``, edges in ``order``,
    colors ascending: (most vertices never lost, its colors by edge id,
    nodes), or (-1, [], nodes) when there is no proper r-coloring.

    A vertex v is lost once an edge at it takes a color above ``degree[v]``.
    Colors split into blocks at each loss degree d < r (a block starts at 1
    and at each d + 1), within which every color loses the same vertices,
    so a color opens only once the color below it in its block is in use.
    Branches that cannot beat the incumbent are cut, and the search stops
    once it reaches ``ceiling``: the first leaf there is the lex-first one.
    """
    edges = g.edges
    m = len(edges)
    n = g.vertex_count
    # Colors are bits 1..r of a palette mask. Per edge: its id, endpoints,
    # their vertex bits and the lowest color bit that loses each
    # (1 << (degree + 1)); a color at or above that bit puts the endpoint in
    # the lost mask. The colors above the max degree are one block, so no
    # search uses one above max degree + m, and the masks stop there even at
    # a huge r.
    full = (1 << (min(r, max(g.degrees, default=0) + m) + 1)) - 2
    plan = [(e, u, v, 1 << u, 1 << v, 2 << degree[u], 2 << degree[v])
            for e in order for u, v in (edges[e],)]
    # The first color of each block; the others open one by one as the color
    # below them is used.
    starts = 2
    for d in degree:
        starts |= 2 << d
    used = [0] * n
    assign = [0] * m
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
        e, u, v, u_bit, v_bit, u_loses, v_loses = plan[index]
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
            assign[e] = bit.bit_length() - 1
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
    return best, best_assign, nodes


def exact_chromatic_index(g: Graph, *, override_size: bool = False) -> tuple[int, EdgeColoring]:
    """Smallest t admitting a proper t-coloring, with a witness coloring.

    It runs :func:`_block_search` with edges by descending endpoint degree
    sum and every loss degree t: none is lost, so color c+1 opens once c
    appears and the first leaf, at the ceiling n, ends the search. By
    Vizing's theorem only t = max_degree and max_degree + 1 are tried. The
    witness shares ``g.edges``.
    """
    check_exhaustive_size(g, override_size)
    degree, n = g.degrees, g.vertex_count
    sums = [degree[u] + degree[v] for u, v in g.edges]
    order = sorted(range(len(sums)), key=sums.__getitem__, reverse=True)
    max_degree = max(degree, default=0)
    for t in (max_degree, max_degree + 1):
        found, colors, _ = _block_search(g, t, order, [t] * n, n)
        if found >= 0:
            return t, EdgeColoring(g.edges, tuple(colors), t)
    raise RuntimeError("internal error: no proper coloring with max degree + 1 colors")


def obtain_r_coloring(g: Graph, *, with_masks: bool = False
                      ) -> EdgeColoring | tuple[EdgeColoring, list[int]]:
    """A proper coloring with exactly max_degree colors, or a classified failure.

    Strategy, in order: an overfull graph (more than max_degree * floor(n/2)
    edges) is Class 2 at once; a bipartite graph gets Kőnig's coloring; else
    Misra-Gries is accepted if it stays within max_degree colors, and small
    leftovers go to the exact solver. Raises :class:`ClassTwoError` when the
    graph provably needs an extra color and :class:`UnknownClassError` when
    nothing could certify the instance either way.

    With ``with_masks`` set it returns ``(coloring, masks)``: the palette
    bitmasks Kőnig or Misra-Gries built (see :func:`misra_gries`), or the
    :func:`proper_masks` read of the exact solver's witness.
    """
    r = max(g.degrees, default=0)
    if g.edge_count > r * (g.vertex_count // 2):
        raise ClassTwoError(chi_prime=r + 1, max_degree=r)
    if g.sides is not None:
        return konig_color_bipartite(g, with_masks=with_masks)
    heuristic = misra_gries(g, within_max_degree=True, with_masks=with_masks)
    if heuristic is not None:
        return heuristic
    if g.edge_count <= EXHAUSTIVE_EDGE_LIMIT:
        chi_prime, witness = exact_chromatic_index(g)
        if chi_prime == r:
            return (witness, proper_masks(g, witness, r)) if with_masks else witness
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
    Text that :func:`_scan_coloring` does not read goes to the line loop.
    """
    coloring = _scan_coloring(text)
    return _parse_coloring_lines(text) if coloring is None else coloring


def _scan_coloring(text: str) -> EdgeColoring | None:
    r"""The coloring from one :func:`scan_ints` with each line end read as
    null (the text holds no "n", so each None is one), or None unless every
    line is three ints u < v and c in 1..t, and no edge repeats. A "\r" ends
    a line for ``str.splitlines`` but not for JSON."""
    if not text.startswith("t=") or "\r" in text:
        return None
    body = text[2:-1] if text.endswith("\n") else text[2:]
    values, line_ends = scan_ints(body, ",null,"), body.count("\n")
    if values is None or len(values) != 1 + 4 * line_ends:
        return None
    # t, then per line: the None of the line end before it, u, v, c.
    markers, u, v, c = values[1::4], values[2::4], values[3::4], values[4::4]
    if (markers.count(None) != line_ends or not all(map(lt, u, v))
            or min(c, default=1) < 1 or max(c, default=0) > values[0]):
        return None
    by_edge = dict(zip(zip(u, v), c))
    return _keyed(by_edge, values[0]) if len(by_edge) == len(c) else None


def _keyed(by_edge: dict[Edge, int], t: int) -> EdgeColoring:
    """The coloring of ``by_edge`` in its order, with that dict as its ``_by_edge``."""
    coloring = EdgeColoring(tuple(by_edge), tuple(by_edge.values()), t)
    coloring.__dict__["_by_edge"] = by_edge
    return coloring


def _parse_coloring_lines(text: str) -> EdgeColoring:
    """:func:`parse_coloring`'s reading of any text, line by line."""
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
    return _keyed(by_edge, t)
