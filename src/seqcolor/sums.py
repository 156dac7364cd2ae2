"""Edge-color sums and the closed-form upper bound for near-regular graphs.

For a graph with max degree r, spread at most one, and chromatic index r
(r >= 3), the minimum total edge color over proper colorings is at most
floor((2*n_r*(2r-1) + n*(r-1)*(r^2+2r-2)) / (4r)). The bound follows from the
sequential construction by summing palettes vertex by vertex, so this module
also exposes that per-vertex decomposition for term-level checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import EXHAUSTIVE_EDGE_LIMIT, EdgeColoring, edge_colors, proper_masks
from .graph import Graph
from .oracle import exact_edge_chromatic_sum
from .sequential import SequentialCertificate, _check_bound_args, sequentialize


def coloring_sum(g: Graph, coloring: EdgeColoring) -> int:
    """Total color over all edges of ``g``, which the coloring must cover exactly."""
    return sum(edge_colors(g, coloring))


def chromatic_sum_bound(n: int, n_r: int, r: int) -> int:
    """floor((2*n_r*(2r-1) + n*(r-1)*(r^2+2r-2)) / (4r)), exact integers."""
    _check_bound_args(n, n_r, r)
    return (2 * n_r * (2 * r - 1) + n * (r - 1) * (r * r + 2 * r - 2)) // (4 * r)


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
    colors, masks = proper_masks(g, coloring, t)
    sums = [sum([colors[e] for e in incident]) for incident in g.incidence]
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


@dataclass(frozen=True)
class SumReport:
    """Achieved sum of the constructed coloring against the closed-form bound.

    The bound's n, n_r and r are the certificate's. ``exact_sum`` is the
    brute-force minimum when the oracle ran, else None. Whenever all fields
    are present, exact_sum <= actual_sum <= bound; every construction,
    :func:`dataclasses.replace` included, checks this.
    """

    actual_sum: int
    bound: int
    exact_sum: int | None
    certificate: SequentialCertificate

    def __post_init__(self) -> None:
        if self.actual_sum > self.bound:
            raise RuntimeError("internal error: constructed coloring exceeded the closed-form bound")
        if self.exact_sum is not None and self.exact_sum > self.actual_sum:
            raise RuntimeError("internal error: oracle minimum exceeded the constructed sum")

    def to_record(self) -> dict:
        cert = self.certificate
        return {
            "record": "sum_report",
            "n": cert.n,
            "r": cert.r,
            "n_r": cert.n_r,
            "actual_sum": self.actual_sum,
            "bound": self.bound,
            "exact_sum": self.exact_sum,
        }


def sum_report(g: Graph, run_oracle: bool = False) -> SumReport:
    """Run the sequential pipeline and compare its sum against the bound.

    The exact minimum is attached when ``run_oracle`` is set and the instance
    has at most :data:`~seqcolor.coloring.EXHAUSTIVE_EDGE_LIMIT` edges.
    Precondition and class failures propagate from :func:`sequentialize`.
    """
    certificate = sequentialize(g)
    actual = coloring_sum(g, certificate.coloring)
    bound = chromatic_sum_bound(certificate.n, certificate.n_r, certificate.r)
    exact = None
    if run_oracle and g.edge_count <= EXHAUSTIVE_EDGE_LIMIT:
        exact = exact_edge_chromatic_sum(g).value
    return SumReport(actual_sum=actual, bound=bound, exact_sum=exact, certificate=certificate)
