"""Sequential edge colorings of near-regular Class-1 graphs.

A coloring is sequential at a vertex v when the incident colors are exactly
1..deg(v). For a graph with max degree r, degree spread at most one, and
chromatic index r (r >= 3), a proper r-coloring can always be transformed into
one that is sequential on a certified vertex set of size at least
ceil(((r-1)*n_r + n) / r): group the sub-maximum-degree vertices by their one
missing color, pick the color whose group is largest, and transpose it with
color r.
"""

from __future__ import annotations

from .coloring import (
    EdgeColoring,
    Verdict,
    clash_verdict,
    coloring_masks,
    obtain_r_coloring,
    proper_masks,
)
from .errors import GraphError, PreconditionError
from .graph import DegreeProfile, Graph, Value, degree_profile


class MissingColorPartition(Value):
    """For each color i in 1..r, the vertices whose palette omits i.

    Under the module preconditions every sub-maximum-degree vertex misses
    exactly one color, so the classes are pairwise disjoint and together cover
    precisely the vertices of degree r-1.
    """

    def __init__(self, classes: dict[int, frozenset[int]], r: int) -> None:
        self.__dict__.update(classes=classes, r=r)


class SequentialCertificate(Value):
    """Output of :func:`sequentialize`: the final coloring plus its audit trail.

    ``sequential_vertices`` is the certified set (max-degree vertices united
    with the largest missing-color class, fixed before any swap), ``bound`` the
    guaranteed minimum ceil(((r-1)*n_r + n) / r), and ``verified`` the result
    of re-checking the sequential property against the final coloring. The
    same read checks that the final coloring is a proper r-coloring of the
    graph; :func:`sequentialize` raises rather than certify one that is not.
    """

    def __init__(self, coloring: EdgeColoring, sequential_vertices: frozenset[int], swap_color: int,
                 bound: int, r: int, n: int, n_r: int, verified: bool) -> None:
        self.__dict__.update(coloring=coloring, sequential_vertices=sequential_vertices,
                             swap_color=swap_color, bound=bound, r=r, n=n, n_r=n_r, verified=verified)

    @property
    def size(self) -> int:
        return len(self.sequential_vertices)

    @property
    def swapped(self) -> bool:
        return self.swap_color != self.r

    def to_record(self) -> dict:
        return {
            "record": "certificate",
            "n": self.n,
            "r": self.r,
            "n_r": self.n_r,
            "swap_color": self.swap_color if self.swapped else None,
            "sequential_vertices": sorted(self.sequential_vertices),
            "size": self.size,
            "bound": self.bound,
            "verified": self.verified,
            "t": self.coloring.color_count,
            "coloring": self.coloring.lines(),
        }


def sequential_set_bound(n: int, n_r: int, r: int) -> int:
    """Guaranteed count of sequential vertices: ceil(((r-1)*n_r + n) / r).

    Equivalently n_r + ceil((n - n_r) / r); exact integer arithmetic.
    """
    _check_bound_args(n, n_r, r)
    return -(-((r - 1) * n_r + n) // r)


def _check_bound_args(n: int, n_r: int, r: int) -> None:
    """The arguments of a closed-form bound."""
    if r < 3:
        raise PreconditionError(f"degree parameter must be at least 3, got {r}")
    if not 0 <= n_r <= n:
        raise PreconditionError(f"need 0 <= n_r <= n, got n_r={n_r}, n={n}")


def _check_near_regular(profile: DegreeProfile) -> int:
    """The max degree r of ``profile``, which must be near-regular with r >= 3."""
    if not profile.near_regular:
        raise PreconditionError(
            f"degree spread {profile.max_degree - profile.min_degree} exceeds 1"
        )
    if profile.max_degree < 3:
        raise PreconditionError(f"max degree must be at least 3, got {profile.max_degree}")
    return profile.max_degree


def missing_color_partition(g: Graph, coloring: EdgeColoring) -> MissingColorPartition:
    """Group the sub-maximum-degree vertices of ``g`` by their missing color.

    Preconditions checked one by one: the graph is near-regular with max
    degree r >= 3, and ``coloring`` is a proper r-coloring. The properness
    check and the missing-color read share one
    :func:`~seqcolor.coloring.proper_masks` read, which ORs each vertex's
    colors into a bitmask.
    """
    return _acquire(g, coloring, _check_near_regular(degree_profile(g)))[1]


def _partition(g: Graph, masks: list[int], r: int) -> MissingColorPartition:
    """The partition read off ``masks``, each vertex's palette bitmask under
    a proper r-coloring of ``g``."""
    # Degree r-1 and a proper r-coloring leave exactly one absent color.
    full = (1 << (r + 1)) - 2
    classes: dict[int, list[int]] = {i: [] for i in range(1, r + 1)}
    for v, d in enumerate(g.degrees):
        if d != r:
            classes[(full ^ masks[v]).bit_length() - 1].append(v)
    return MissingColorPartition({i: frozenset(vs) for i, vs in classes.items()}, r)


def select_swap_color(partition: MissingColorPartition) -> int:
    """Pick the color with the largest missing-color class.

    Ties prefer the top color r (which makes the swap a no-op), then the
    smallest index, so results are deterministic.
    """
    sizes = {i: len(vs) for i, vs in partition.classes.items()}
    best = max(sizes.values())
    if sizes[partition.r] == best:
        return partition.r
    return min(i for i, s in sizes.items() if s == best)


def swap_colors(coloring: EdgeColoring, low: int, high: int) -> EdgeColoring:
    """Transpose colors ``low`` and ``high`` on every edge; identity if equal.

    ``high`` must be the coloring's top color. The transposition preserves
    properness and is an involution.
    """
    if high != coloring.color_count:
        raise PreconditionError(
            f"expected the top color {coloring.color_count}, got {high}"
        )
    if not 1 <= low <= high:
        raise PreconditionError(f"color {low} out of range 1..{high}")
    if low == high:
        return coloring
    swapped = tuple([high if c == low else low if c == high else c for c in coloring.colors])
    return EdgeColoring(coloring.edges, swapped, high)


def verify_sequential(g: Graph, coloring: EdgeColoring, vertices) -> Verdict:
    """Check palette(v) == {1..deg(v)} for every v in ``vertices``.

    The palettes are recomputed from ``coloring`` as bitmasks by
    :func:`~seqcolor.coloring.coloring_masks`. A vertex is sequential exactly
    when it has no clash and its mask is a run of ones from bit 1: without a
    clash the mask has one bit per edge, so the run is 1..deg(v). Violating
    vertices are reported in ascending order; an empty set passes vacuously.
    The coloring must cover every edge.
    """
    return verify_certificate(g, coloring, vertices)[1]


def verify_certificate(g: Graph, coloring: EdgeColoring, vertices) -> tuple[Verdict, Verdict]:
    """The :func:`~seqcolor.coloring.verify_proper` and :func:`verify_sequential`
    verdicts from one read of ``coloring``.

    ``vertices`` is checked against the graph before the coloring is read.
    """
    # frozenset returns a frozenset as it is: the certified set is not copied.
    wanted = sorted(frozenset(vertices))
    if wanted and not 0 <= wanted[0] <= wanted[-1] < g.vertex_count:
        raise GraphError(f"unknown vertices {[v for v in wanted if not 0 <= v < g.vertex_count]}")
    colors, masks, clashes = coloring_masks(g, coloring)
    return clash_verdict(g, colors, clashes), _sequential_verdict(wanted, masks, clashes)


def _sequential_verdict(wanted: list[int], masks: list[int], clashes) -> Verdict:
    """The :func:`verify_sequential` verdict on the ascending ``wanted`` from
    the palette bitmasks and clash vertices of one coloring read."""
    # Adding 2 to a run of ones from bit 1 carries out of the whole run.
    failures = tuple(v for v in wanted if v in clashes or masks[v] & (masks[v] + 2))
    return Verdict(not failures, failures)


def _acquire(g: Graph, coloring: EdgeColoring | None,
             r: int) -> tuple[EdgeColoring, MissingColorPartition]:
    """The r-coloring (``coloring``, or one acquired when it is None) and its
    partition, read off the palette masks that acquisition returned or that
    the check of ``coloring`` as a proper r-coloring read. The masks die
    here, before the final coloring is read."""
    if coloring is None:
        coloring, masks = obtain_r_coloring(g, with_masks=True)
    elif coloring.color_count != r:
        raise PreconditionError(f"coloring uses {coloring.color_count} colors, expected exactly {r}")
    else:
        masks = proper_masks(g, coloring, r)
    return coloring, _partition(g, masks, r)


def sequentialize(g: Graph, coloring: EdgeColoring | None = None) -> SequentialCertificate:
    """Construct a certified sequential coloring of a near-regular Class-1 graph.

    Acquires a proper r-coloring (or validates the one supplied), partitions
    the deficient vertices by missing color, transposes the best color with r,
    and certifies the union of the max-degree vertices with that class. The
    certificate's size always meets :func:`sequential_set_bound`.

    A Kőnig or Misra-Gries coloring is partitioned by the palette bitmasks
    its construction kept; the exact solver's witness, or a supplied
    coloring, by those of the :func:`~seqcolor.coloring.proper_masks` read
    that validates it. Either way the final coloring is read once in full:
    a missing edge, a color outside 1..r or a clash anywhere raises
    ``RuntimeError`` (an internal error, since the swap keeps a proper
    r-coloring proper), and the sequential check of the certified set gives
    ``verified``.
    """
    profile = degree_profile(g)
    # Checked before acquisition, so a precondition failure wins over a class one.
    r = _check_near_regular(profile)
    alpha, partition = _acquire(g, coloring, r)
    swap = select_swap_color(partition)
    beta = swap_colors(alpha, swap, partition.r)
    certified = profile.max_degree_vertices | partition.classes[swap]
    bound = sequential_set_bound(profile.n, profile.n_r, r)
    try:
        masks = proper_masks(g, beta, r)
    except PreconditionError as exc:
        raise RuntimeError(f"internal error: the final coloring fails its check: {exc}") from None
    verdict = _sequential_verdict(sorted(certified), masks, ())
    if len(certified) < bound:
        raise RuntimeError("internal error: certified set fell below the guaranteed bound")
    return SequentialCertificate(
        coloring=beta,
        sequential_vertices=frozenset(certified),
        swap_color=swap,
        bound=bound,
        r=r,
        n=profile.n,
        n_r=profile.n_r,
        verified=verdict.ok,
    )
