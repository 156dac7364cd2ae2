"""Sequential proper edge colorings of near-regular Class-1 graphs.

Provides generators and serialization for small graphs, proper-edge-coloring
constructors (exact-max-degree on bipartite inputs, max_degree+1 in general,
exhaustive for small graphs), the missing-color-swap construction that
certifies a large set of sequential vertices, closed-form bounds on that set
and on the edge-chromatic sum, and brute-force oracles to check everything
against on small instances.

Importing the package loads none of its modules: each public name is read
from its defining module on access (PEP 562), which loads that module the
first time, so a program that never uses the exhaustive oracles never
compiles them.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "coloring": (
        "EdgeColoring", "Verdict", "emit_coloring", "exact_chromatic_index",
        "konig_color_bipartite", "misra_gries", "obtain_r_coloring", "palette",
        "parse_coloring", "verify_proper",
    ),
    "errors": (
        "ClassTwoError", "GraphError", "OversizeError", "PreconditionError",
        "SeqcolorError", "UnknownClassError",
    ),
    "graph": (
        "DegreeProfile", "Graph", "bipartition_of", "build_graph", "complete_graph",
        "degree_profile", "generate_complete_bipartite", "generate_random_biregular",
        "generate_regular_class1",
    ),
    "graph_io": ("emit_edge_list", "emit_graph6", "parse_edge_list", "parse_graph6"),
    "oracle": (
        "OracleResult", "connected_near_regular_graphs", "exact_edge_chromatic_sum",
        "exact_max_sequential_set",
    ),
    "sequential": (
        "MissingColorPartition", "SequentialCertificate", "missing_color_partition",
        "select_swap_color", "sequential_set_bound", "sequentialize", "swap_colors",
        "verify_certificate", "verify_sequential",
    ),
    "sums": ("SumReport", "chromatic_sum_bound", "coloring_sum", "sum_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    """A submodule, or a public name read from its module on every access
    (nothing is cached here, so a patched module attribute is what this
    returns)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
