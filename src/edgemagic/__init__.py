"""Exact solver, generators, and census engine for k-edge-magic graph labelings."""

from .graphs import (
    P_MAX,
    Graph,
    Graph6Error,
    canonical_form,
    canonical_graph,
    emit_graph6,
    parse_graph6,
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
    is_k_em,
    label_residues,
    verify_labeling,
    witness_to_json,
)
from .generators import (
    SparseSpec,
    generate_by_edge_count,
    generate_mops,
    generate_sparse_graphs,
    named_family,
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
