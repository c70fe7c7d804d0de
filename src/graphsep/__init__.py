"""Exact separability analysis for graph density matrices.

Graphs live on a p-by-q vertex grid; their Laplacians, scaled to unit
trace, are bipartite quantum states.  The package classifies those states
as separable or entangled with exact-arithmetic certificates and
witnesses, and ships randomized suites that re-verify the guarantees on
fresh instances.
"""

from .errors import (
    BadDimsError,
    BadParamsError,
    BadTrialCountError,
    DimMismatchError,
    EmptyEdgeSetError,
    GraphFileError,
    GraphSepError,
    NoConvergenceError,
    NotDensityError,
    NotEntangledEdgeError,
    NotSymmetricError,
    OnlyLoopsError,
    OutOfRangeError,
    WrongDimsError,
)
from .graphfile import (
    format_graph,
    parse_graph_file,
    parse_graph_text,
    write_graph_file,
)
from .graphs import (
    Dims,
    EdgeClass,
    Graph,
    adjacency_matrix,
    build_graph,
    canonical_edge,
    classify_edge,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    laplacian,
    linear_index,
    pe_matching_graph,
    random_graph,
    separable_edge_pool,
    single_edge_graph,
    star_graph,
    tensor_product,
)
from .harness import (
    SUITE_DESCRIPTIONS,
    SUITE_IDS,
    SuiteReport,
    TrialFailure,
    run_suite,
    suite_instance,
    trial_seed,
)
from .matrix import (
    SymMatrix,
    eigenvalues_sym,
    exact_str,
    is_psd_exact,
    kron,
    line_sum_symmetric,
    partial_transpose,
    purity,
    quadratic_form,
)
from .report import (
    AnalysisReport,
    PPTResult,
    analyze,
    render_text,
    report_json_dict,
)
from .separability import (
    BlockLineSumSymmetric,
    DegreeCriterionResult,
    DegreeCriterionWitness,
    LOW_PPT_DIMS,
    LowDimPPT,
    PerfectEntangledMatching,
    ProductDecomposition,
    QuadraticWitness,
    Status,
    Verdict,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
    entangled_edge_witness,
    pe_matching_certificate,
    ppt_test,
    quadratic_witness,
    reconstruct,
    revalidate,
    verdict,
    verdict_to_json_dict,
    witness_value,
)

__version__ = "0.1.0"
