"""Exact solver, generators, and census engine for k-edge-magic graph labelings."""

from .graphs import (
    P_MAX,
    Graph,
    Graph6Error,
    are_isomorphic,
    canonical_form,
    canonical_graph,
    degree_sequence,
    emit_graph6,
    graph_from_edges,
    parse_graph6,
    relabel,
)
from .solver import (
    Q_BRUTE,
    KSpectrum,
    Labeling,
    VerifyResult,
    Witness,
    brute_force_is_k_em,
    classify,
    classify_detailed,
    counting_filter,
    enumerate_labelings,
    is_k_em,
    label_residues,
    verify_labeling,
    witness_from_json,
    witness_to_json,
)
from .generators import (
    P_SPARSE,
    SparseSpec,
    TriangulationCode,
    generate_by_edge_count,
    generate_mops,
    generate_sparse_graphs,
    named_family,
    triangulation_count,
    triangulation_to_graph,
    triangulations,
)
from .census import (
    CensusRow,
    CensusStore,
    ConjectureVerdict,
    check_mop_conjecture,
    report_emit,
    rows_from_jsonl,
    run_census,
)

__version__ = "0.1.0"
