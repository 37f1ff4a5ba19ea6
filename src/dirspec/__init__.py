"""Spectral analysis of network graphs under boundary conditions.

Computes traditional and Dirichlet (boundary-restricted) spectral gaps,
Cheeger ratios and brute-force constants, closed-form regular-tree spectra,
and two-eigenvector sweep-cut clustering comparisons.
"""

from .cheeger import (
    CheegerReport,
    brute_force_cheeger_constant,
    brute_force_local_cheeger_constant,
    cheeger_ratio,
    local_cheeger_ratio,
)
from .clustering import (
    CutRecord,
    Embedding,
    SweepReport,
    SweepRow,
    embed,
    evaluate_cut,
    rank_nodes,
    reattach_boundary,
    sweep,
    two_means,
)
from .errors import DataError, DirspecError, NumericalError
from .graph import (
    CleaningReport,
    Graph,
    build_graph,
    components,
    edge_boundary,
    induced_subgraph,
    interior,
    is_connected,
    largest_component,
    one_median,
    radius_cut,
    resolve_boundary,
    volume,
)
from .ingest import (
    gen_grid,
    gen_random_connected,
    gen_tree,
    gen_whisker,
    parse_edge_list,
    tree_node_count,
    write_csv,
    write_graph,
)
from .spectral import (
    EigenResult,
    SymmetricMatrix,
    build_dirichlet_laplacian,
    build_normalized_laplacian,
    gaps,
    paired_solves,
    smallest_eigenpairs,
)
from .tree_spectrum import (
    dirichlet_gap_analytic,
    infinite_tree_gap,
    sector_family_eigenvalues,
    symmetric_family_roots,
)

__version__ = "0.1.0"
