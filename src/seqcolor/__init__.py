"""Sequential proper edge colorings of near-regular Class-1 graphs.

Provides generators and serialization for small graphs, proper-edge-coloring
constructors (exact-max-degree on bipartite inputs, max_degree+1 in general,
exhaustive for small graphs), the missing-color-swap construction that
certifies a large set of sequential vertices, closed-form bounds on that set
and on the edge-chromatic sum, and brute-force oracles to check everything
against on small instances.
"""

from .coloring import (
    EdgeColoring,
    Verdict,
    emit_coloring,
    exact_chromatic_index,
    konig_color_bipartite,
    misra_gries,
    obtain_r_coloring,
    palette,
    parse_coloring,
    verify_proper,
)
from .errors import (
    ClassTwoError,
    GraphError,
    OversizeError,
    PreconditionError,
    SeqcolorError,
    UnknownClassError,
)
from .graph import (
    DegreeProfile,
    Graph,
    bipartition_of,
    build_graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    edge_key,
    generate_complete_bipartite,
    generate_random_biregular,
    generate_regular_class1,
)
from .graph_io import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .oracle import (
    OracleResult,
    connected_near_regular_graphs,
    exact_edge_chromatic_sum,
    exact_max_sequential_set,
)
from .sequential import (
    MissingColorPartition,
    SequentialCertificate,
    biregular_set_bound,
    missing_color_partition,
    select_swap_color,
    sequential_set_bound,
    sequentialize,
    swap_colors,
    verify_certificate,
    verify_sequential,
)
from .sums import (
    PaletteSumDecomposition,
    SumReport,
    chromatic_sum_bound,
    coloring_sum,
    sum_report,
    vertex_sum_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "ClassTwoError",
    "DegreeProfile",
    "EdgeColoring",
    "Graph",
    "GraphError",
    "MissingColorPartition",
    "OracleResult",
    "OversizeError",
    "PaletteSumDecomposition",
    "PreconditionError",
    "SeqcolorError",
    "SequentialCertificate",
    "SumReport",
    "UnknownClassError",
    "Verdict",
    "bipartition_of",
    "biregular_set_bound",
    "build_graph",
    "chromatic_sum_bound",
    "coloring_sum",
    "complete_graph",
    "connected_near_regular_graphs",
    "cycle_graph",
    "degree_profile",
    "edge_key",
    "emit_coloring",
    "emit_edge_list",
    "emit_graph6",
    "exact_chromatic_index",
    "exact_edge_chromatic_sum",
    "exact_max_sequential_set",
    "generate_complete_bipartite",
    "generate_random_biregular",
    "generate_regular_class1",
    "konig_color_bipartite",
    "misra_gries",
    "missing_color_partition",
    "obtain_r_coloring",
    "palette",
    "parse_coloring",
    "parse_edge_list",
    "parse_graph6",
    "select_swap_color",
    "sequential_set_bound",
    "sequentialize",
    "sum_report",
    "swap_colors",
    "verify_certificate",
    "verify_proper",
    "verify_sequential",
    "vertex_sum_decomposition",
]
