"""kegraph: exact structural parameters and theorem checks for König-Egerváry graphs."""

from .analysis import (
    KeDecomposition,
    ParameterReport,
    forest_condition,
    g_zero,
    is_koenig_egervary,
    ke_decompose,
    parameter_report,
    th2_evaluate,
)
from .criticality import (
    CriticalityReport,
    alpha_critical_edges,
    alpha_critical_vertices,
    criticality_report,
)
from .errors import (
    CapacityError,
    InputError,
    InternalInvariantError,
    KegraphError,
    PreconditionError,
)
from .graph import (
    Edge,
    Graph,
    Matching,
    components,
    delete_edge,
    delete_vertices,
    format_edge_list,
    from_edge_list,
    is_bipartite,
    is_connected,
    is_maximal_matching,
    is_tree,
    neighborhood,
    parse_edge_list,
    spans_forest,
)
from .solvers import (
    DEFAULT_CAPS,
    SolverCaps,
    StableSetReport,
    enumerate_maximum_matchings,
    enumerate_maximum_stable_sets,
    forced_matching_edges,
    lex_min_maximum_stable_set,
    maximum_matching,
    perfect_matching_status,
    stability_number,
)

__version__ = "0.1.0"
