"""Spectra of loose Laplacians of uniform hypergraphs.

For an r-uniform hypergraph and a stop size s <= r/2, the auxiliary graph
on s-sets joins disjoint stops with weight equal to the codegree of their
union.  This package builds that graph's normalized Laplacian, evaluates
closed-form spectra for complete hypergraphs, samples the Bernoulli random
model, enumerates good closed walks exactly, and packages the spectral
applications (mixing, diameter, expansion, intersecting-family bounds).
"""

from .combin import (
    EigenPair,
    as_sset,
    binom,
    catalan,
    kneser_adjacency,
    kneser_spectrum,
    sset_rank,
    sset_unrank,
)
from .errors import (
    BadParams,
    BadRank,
    BadVertex,
    DegenerateKneser,
    DimMismatch,
    Disconnected,
    EigenFail,
    EmptyFamily,
    EmptySample,
    HyperlapError,
    NotGood,
    NotLoose,
    StopTooLarge,
    TooLarge,
    ZeroDegree,
)
from .hypergraph import (
    Hypergraph,
    RandomModel,
    complete,
    degree_stats,
    expected_stop_degree,
    hypergraph,
    read_hypergraph,
    sample,
    write_hypergraph,
)
from .laplacian import (
    AuxGraph,
    build_aux,
    centered_weight,
    complete_spectrum,
    dump_matrix,
    load_matrix,
    normalized_laplacian,
)
from .spectra import (
    Ecdf,
    Spectrum,
    deviation,
    eigenvalues_sym,
    ks_distance,
    semicircle_cdf,
    spectral_norm,
    spectral_radius,
)
from .walks import (
    ClosedWalk,
    WalkCensus,
    StopDegreeReport,
    census,
    census_upper_bound,
    code_from_walk,
    edge_moment,
    enumerate_closed_walks,
    expected_trace,
    stop_degree_check,
    tree_walk_count,
)
from .apps import (
    EkrBound,
    ExpansionReport,
    MixingReport,
    MonotonicityReport,
    MonotonicityRow,
    PerturbationReport,
    TransitionSystem,
    diameter_bound,
    edge_expansion,
    ekr_bound,
    is_connected,
    mixing_contraction,
    monotonicity_check,
    perturbation_diagnostics,
    s_diameter,
    transition_system,
)

__version__ = "0.1.0"
