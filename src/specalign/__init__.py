"""Spectral graph alignment toolkit.

Generalized match/mismatch alignment scoring, two spectral solvers with
bipartite-matching rounding, seedable synthetic graph generators, exact
small-instance oracles, and closed-form mean-field references.
"""

from .align import (
    AlignmentResult,
    RelaxationSolution,
    brute_force_qap,
    eigen_align,
    expected_objective_gap,
    low_rank_align,
    orthogonal_relaxation,
    rounding_gap_bound,
)
from .graph import (
    Graph,
    ParseError,
    Permutation,
    apply_permutation,
    load_edge_list,
    pad_to,
    write_edge_list,
)
from .matching import Assignment, InfeasibleMatchingError, greedy_matching, hungarian_max_weight
from .metrics import (
    ExpectedAlignmentMatrix,
    MeanFieldModel,
    count_alignment,
    count_alignment_ordered,
    expected_alignment_matrix,
    generalized_objective,
    mean_field_ratio,
    node_accuracy,
)
from .randgen import (
    erdos_renyi,
    noise_model_I,
    noise_model_II,
    power_law,
    random_permutation,
    random_regular,
    sample_mapping_set,
    stochastic_block_model,
)
from .score import (
    MappingSet,
    MemoryGuardError,
    ScoreScheme,
    alignment_entry,
    alignment_matvec,
    build_alignment_matrix,
    directed_alignment_entry,
    from_alpha,
)
from .spectral import (
    ConvergenceError,
    SpectralDecomposition,
    leading_eigenvector,
    psd_shift,
    top_k_eigs,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "Assignment",
    "ConvergenceError",
    "ExpectedAlignmentMatrix",
    "Graph",
    "InfeasibleMatchingError",
    "MappingSet",
    "MeanFieldModel",
    "MemoryGuardError",
    "ParseError",
    "Permutation",
    "RelaxationSolution",
    "ScoreScheme",
    "SpectralDecomposition",
    "alignment_entry",
    "alignment_matvec",
    "apply_permutation",
    "brute_force_qap",
    "build_alignment_matrix",
    "count_alignment",
    "count_alignment_ordered",
    "directed_alignment_entry",
    "eigen_align",
    "erdos_renyi",
    "expected_alignment_matrix",
    "expected_objective_gap",
    "from_alpha",
    "generalized_objective",
    "greedy_matching",
    "hungarian_max_weight",
    "leading_eigenvector",
    "load_edge_list",
    "low_rank_align",
    "mean_field_ratio",
    "node_accuracy",
    "noise_model_I",
    "noise_model_II",
    "orthogonal_relaxation",
    "pad_to",
    "power_law",
    "psd_shift",
    "random_permutation",
    "random_regular",
    "rounding_gap_bound",
    "sample_mapping_set",
    "stochastic_block_model",
    "top_k_eigs",
    "write_edge_list",
]
