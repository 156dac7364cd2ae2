"""Exception types shared across the package."""

from __future__ import annotations


class SeqcolorError(Exception):
    """Base class for every error raised by this package."""


class GraphError(SeqcolorError, ValueError):
    """Invalid graph construction or unparseable graph/coloring data."""


class PreconditionError(SeqcolorError, ValueError):
    """An operation's precondition does not hold for the given input."""


class ClassTwoError(SeqcolorError):
    """Exact search proved the chromatic index exceeds the maximum degree."""

    def __init__(self, chi_prime: int, max_degree: int):
        self.chi_prime = chi_prime
        self.max_degree = max_degree
        super().__init__(
            f"graph is Class 2: chromatic index {chi_prime} > max degree {max_degree}"
        )


class UnknownClassError(SeqcolorError):
    """Heuristics needed an extra color and the instance is too large to decide exactly."""


class OversizeError(SeqcolorError):
    """Refusal to run an exhaustive search on an oversized instance."""
