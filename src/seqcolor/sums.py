"""Edge-color sums and the closed-form upper bound for near-regular graphs.

For a graph with max degree r, spread at most one, and chromatic index r
(r >= 3), the minimum total edge color over proper colorings is at most
floor((2*n_r*(2r-1) + n*(r-1)*(r^2+2r-2)) / (4r)). The bound follows from the
sequential construction by summing palettes vertex by vertex.
"""

from __future__ import annotations

from .coloring import EdgeColoring, edge_colors
from .graph import Graph, Value
from .sequential import SequentialCertificate, _check_bound_args, sequentialize


def coloring_sum(g: Graph, coloring: EdgeColoring) -> int:
    """Total color over all edges of ``g``, which the coloring must cover exactly."""
    return sum(edge_colors(g, coloring))


def chromatic_sum_bound(n: int, n_r: int, r: int) -> int:
    """floor((2*n_r*(2r-1) + n*(r-1)*(r^2+2r-2)) / (4r)), exact integers."""
    _check_bound_args(n, n_r, r)
    return (2 * n_r * (2 * r - 1) + n * (r - 1) * (r * r + 2 * r - 2)) // (4 * r)


class SumReport(Value):
    """Achieved sum of the constructed coloring against the closed-form bound.

    The bound's n, n_r and r are the certificate's. ``exact_sum`` is the
    brute-force minimum when one was attached, else None. Whenever all fields
    are present, exact_sum <= actual_sum <= bound; every construction,
    :meth:`replace` included, checks this.
    """

    def __init__(self, actual_sum: int, bound: int, exact_sum: int | None,
                 certificate: SequentialCertificate) -> None:
        if actual_sum > bound:
            raise RuntimeError("internal error: constructed coloring exceeded the closed-form bound")
        if exact_sum is not None and exact_sum > actual_sum:
            raise RuntimeError("internal error: oracle minimum exceeded the constructed sum")
        self.__dict__.update(actual_sum=actual_sum, bound=bound, exact_sum=exact_sum,
                             certificate=certificate)

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


def sum_report(g: Graph) -> SumReport:
    """Run the sequential pipeline and compare its sum against the bound.

    ``exact_sum`` is None; attach the exact minimum with
    ``report.replace(exact_sum=exact_edge_chromatic_sum(g).value)``.
    Precondition and class failures propagate from :func:`sequentialize`.
    """
    certificate = sequentialize(g)
    actual = coloring_sum(g, certificate.coloring)
    bound = chromatic_sum_bound(certificate.n, certificate.n_r, certificate.r)
    return SumReport(actual_sum=actual, bound=bound, exact_sum=None, certificate=certificate)
