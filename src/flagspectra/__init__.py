"""Spectra of clique complexes, LP-based domination parameters, and
disjoint-representative certificates for hypergraph families."""

from .errors import CapExceeded, InputFormatError
from .graphs import (
    Graph,
    SplitMix64,
    blow_up,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    lambda_max,
    laplacian_matrix,
    laplacian_spectrum,
    random_gnp,
    spectral_gap,
    turan_graph,
)
from .complexes import (
    Cochain,
    build_flag_complex,
    coboundary_matrix,
    independence_complex,
    link,
    simplex_degree,
)
from .linalg import integer_rank, symmetric_eigenvalues
from .spectral import (
    CochainIdentityChecker,
    Connectivity,
    betti_profile,
    facet_degree_excess,
    flag_connectivity,
    hodge_laplacian,
    independence_connectivity,
    min_hodge_eigenvalue,
    verify_cochain_identities,
    verify_eigenvalue_recursion,
    verify_facet_degree_bound,
    verify_vanishing_threshold,
)
from .lp import LinearProgram, solve_covering_lp
from .domination import (
    VectorRepresentation,
    best_representation_value,
    cycle_representation,
    domination_number,
    edge_incidence_representation,
    fractional_strong_domination,
    independent_domination_number,
    representation_value,
    total_domination_number,
    validate_representation,
    verify_gram_row_bound,
    verify_representation_connectivity_bound,
    verify_spectral_connectivity_bound,
)
from .hypergraphs import (
    Hypergraph,
    HypergraphFamily,
    PartitionedComplex,
    compare_width_conditions,
    find_colorful_simplex,
    find_sdr,
    fractional_width,
    incidence_representation,
    line_graph,
    sdr_search,
    sweep_family,
    verify_colorful_condition,
    verify_fractional_width_condition,
    verify_integral_width_condition,
    width,
)
from .reports import CheckRecord, records_to_csv, records_to_json_lines

__version__ = "0.1.0"
