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
    build_graph,
    classify_edge,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    laplacian,
    laplacian_entries,
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
    SparseSymMatrix,
    SymMatrix,
    eigenvalues_sym,
    exact_str,
    is_psd_exact,
    kron,
    partial_transpose,
    partial_transpose_entries,
)
from .report import (
    AnalysisReport,
    analyze,
    render_text,
    report_json_dict,
)
from .separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    ProductDecomposition,
    Status,
    Verdict,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
    entangled_edge_witness,
    pe_matching_certificate,
    ppt_test,
    pt_laplacian_entries,
    reconstruct,
    revalidate,
    verdict,
    verdict_to_json_dict,
    witness_value,
)

__version__ = "0.1.0"
