"""End-to-end alignment solvers and exact small-instance oracles.

Two solvers are provided. ``eigen_align`` weights candidate mappings by the
leading eigenvector of the pairwise alignment matrix and rounds with a
maximum-weight bipartite matching. ``low_rank_align`` solves the orthogonal
relaxation of the trace objective on transformed adjacency matrices and
rounds through eigenvalue-scaled rank-k affinities, enumerating eigenvector
sign choices exhaustively. ``brute_force_qap`` is the factorial-time exact
oracle used to validate both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Graph, pad_to
from .matching import Assignment, greedy_matching, hungarian_max_weight
from .metrics import count_alignment, generalized_objective
from .score import MappingSet, ScoreScheme, alignment_matvec, build_alignment_matrix
from .spectral import SpectralDecomposition, leading_eigenvector, psd_shift, top_k_eigs

__all__ = [
    "AlignmentResult",
    "RelaxationSolution",
    "eigen_align",
    "orthogonal_relaxation",
    "low_rank_align",
    "rounding_gap_bound",
    "brute_force_qap",
    "expected_objective_gap",
    "MATCHING_MODES",
]

# How both solvers round: the lexicographically smallest optimum, or greedy.
MATCHING_MODES = ("exact", "greedy")
BRUTE_FORCE_MAX_N = 10
SIGN_ENUM_MAX_RANK = 12


@dataclass(frozen=True)
class AlignmentResult:
    """A bijective (partial) mapping plus its recomputed quality numbers.

    ``seed`` is the power-iteration start seed; only ``eigen_align`` has one.
    """

    mapping: Assignment
    matches: int
    mismatches: int
    neutrals: int
    objective: float
    method: str
    gamma: float
    seed: int | None = None


@dataclass(frozen=True)
class RelaxationSolution:
    """Orthogonal-relaxation optimizer V U^T with its two spectra.

    ``x0`` is orthogonal; negating eigenvector pairs spans the family of
    alternative optima.
    """

    x0: np.ndarray
    spectra: tuple[SpectralDecomposition, SpectralDecomposition]


def _finish(
    g1: Graph,
    g2: Graph,
    assignment: Assignment,
    gamma: float,
    method: str,
    seed: int | None,
) -> AlignmentResult:
    matches, mismatches, neutrals = count_alignment(g1, g2, assignment)
    objective = generalized_objective(g1, g2, assignment, gamma)
    return AlignmentResult(
        mapping=assignment,
        matches=matches,
        mismatches=mismatches,
        neutrals=neutrals,
        objective=objective,
        method=method,
        gamma=gamma,
        seed=seed,
    )


def eigen_align(
    g1: Graph,
    g2: Graph,
    s: ScoreScheme,
    mapping_set: MappingSet | None = None,
    *,
    matching: str = "exact",
    seed: int = 0,
) -> AlignmentResult:
    """Leading-eigenvector alignment rounded by bipartite matching.

    ``mapping_set=None`` allows all n1*n2 pairs: on undirected graphs the
    eigenvector is then computed matrix-free, on directed graphs over the
    dense matrix of ``MappingSet.full``. A given mapping set is always
    solved densely (subject to the size cap). Eigenvector entries become
    matching weights on the allowed cells, and the matching step is exact
    (``"exact"``) or greedy (``"greedy"``).
    """
    _check_matching(matching)
    if g1.directed != g2.directed:
        raise ValueError("graphs must be both directed or both undirected")
    n1, n2 = g1.n, g2.n

    if mapping_set is None and g1.directed:
        mapping_set = MappingSet.full(n1, n2)
    if mapping_set is None:
        op = lambda y: alignment_matvec(g1, g2, s, y)  # noqa: E731
        _, vec = leading_eigenvector(op, n1 * n2, seed=seed)
        weights = vec.reshape((n1, n2), order="F")
        allowed = None
    else:
        if not len(mapping_set):
            raise ValueError("mapping set is empty: no pair to align")
        a_dense = build_alignment_matrix(g1, g2, s, mapping_set)
        _, vec = leading_eigenvector(a_dense, len(mapping_set), seed=seed)
        del a_dense  # |R|^2 floats that the matching step must not hold
        weights = np.zeros((n1, n2))
        weights[mapping_set.rows, mapping_set.cols] = vec
        allowed = mapping_set.mask()

    if matching == "exact":
        assignment = hungarian_max_weight(weights, allowed)
    else:
        assignment = greedy_matching(weights, allowed)
    return _finish(g1, g2, assignment, s.gamma, "ea", seed)


def orthogonal_relaxation(g1m: np.ndarray, g2m: np.ndarray) -> RelaxationSolution:
    """Optimal orthogonal matrix for max Tr(M1 X M2 X^T): X0 = V U^T.

    ``V`` and ``U`` hold full eigenbases of the two symmetric inputs with
    eigenvalues paired in descending order. The attained value is
    ``sum_i lambda_i(M1) lambda_i(M2)``, an upper bound on the permutation
    optimum.
    """
    g1m = np.asarray(g1m, dtype=np.float64)
    g2m = np.asarray(g2m, dtype=np.float64)
    if g1m.shape != g2m.shape or g1m.ndim != 2 or g1m.shape[0] != g1m.shape[1]:
        raise ValueError(f"inputs must be square matrices of equal size, got {g1m.shape} and {g2m.shape}")
    n = g1m.shape[0]
    dec1 = top_k_eigs(g1m, n)
    dec2 = top_k_eigs(g2m, n)
    x0 = dec1.eigenvectors @ dec2.eigenvectors.T
    return RelaxationSolution(x0=x0, spectra=(dec1, dec2))


def low_rank_align(
    g1: Graph,
    g2: Graph,
    gamma: float,
    rank_k: int = 3,
    *,
    matching: str = "exact",
) -> AlignmentResult:
    """Rank-k spectral alignment of the transformed adjacency matrices.

    Forms ``M = adjacency - gamma * J`` for both graphs (padding the smaller
    graph with isolated nodes first), shifts each to positive definite,
    and takes the top ``rank_k`` eigenpairs of the shifted matrices. Every
    sign vector in {-1, +1}^rank_k yields an affinity
    ``sum_i sign_i * lambda_i(M1) * lambda_i(M2) * v_i u_i^T`` whose
    maximum-weight matching is a candidate mapping; candidates are scored
    by the trace objective on the padded pair and the best one is returned
    with padded rows dropped.

    Exact rounding of an unequal-size pair matches only the real rows (or
    columns). The padded nodes are isolated, so their affinity rows (G1
    padded) or columns (G2 padded) all equal one line r, and a full
    matching weighs the sum of r plus its real pairs' weights minus r. It
    is optimal exactly when its real pairs are optimal on ``affinity - r``
    without the padded lines, so that reduced problem is solved and the
    padded rows (or the rows it leaves unmatched) take the leftover
    columns in ascending order. This is the same lexicographically
    smallest optimum as matching the padded matrix, where the padded rows
    tie on every column and keep the tie-break from pinning them. The
    shortcut is guarded: it is taken only when every padded line equals r
    to within ``1e-12 * |affinity|.max()``. The padded nodes' difference
    vectors are eigenvectors of the shifted matrices with eigenvalue
    delta; when delta reaches the top ``rank_k``, ``eigh`` returns an
    arbitrary basis of its eigenspace, the padded lines really differ,
    and the padded matrix is matched as it is.
    """
    _check_matching(matching)
    if g1.directed or g2.directed:
        raise ValueError("low-rank alignment supports undirected graphs only")
    if not 0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 1/2), got {gamma}")
    n = max(g1.n, g2.n)
    if rank_k < 1 or rank_k > n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank_k}")
    if rank_k > SIGN_ENUM_MAX_RANK:
        raise ValueError(f"rank {rank_k} exceeds the exhaustive sign-enumeration limit of {SIGN_ENUM_MAX_RANK}")

    p1 = pad_to(g1, n)
    p2 = pad_to(g2, n)
    m1, _ = psd_shift(p1.as_float() - gamma)
    m2, _ = psd_shift(p2.as_float() - gamma)
    dec1 = top_k_eigs(m1, rank_k)
    dec2 = top_k_eigs(m2, rank_k)
    scale = dec1.eigenvalues * dec2.eigenvalues

    best: tuple[float, Assignment, np.ndarray] | None = None
    for signs in itertools.product((1.0, -1.0), repeat=rank_k):
        affinity = (dec1.eigenvectors * (np.asarray(signs) * scale)) @ dec2.eigenvectors.T
        if matching == "exact":
            candidate = _exact_rounding(affinity, g1.n, g2.n)
        else:
            candidate = greedy_matching(affinity)
        value = generalized_objective(p1, p2, candidate, gamma)
        if best is None or value > best[0]:
            best = (value, candidate, affinity)

    _, winner, affinity = best
    real = (winner.rows < g1.n) & (winner.cols < g2.n)
    rows, cols = winner.rows[real], winner.cols[real]
    trimmed = Assignment(rows, cols, total_weight=float(sum(affinity[rows, cols].tolist())))
    return _finish(g1, g2, trimmed, gamma, "lra", None)


def _check_matching(matching: str) -> None:
    if matching not in MATCHING_MODES:
        raise ValueError(f"matching must be {' or '.join(map(repr, MATCHING_MODES))}, got {matching!r}")


def _exact_rounding(affinity: np.ndarray, n1: int, n2: int) -> Assignment:
    """Exact full matching of the padded affinity of an n1-by-n2 pair (see :func:`low_rank_align`)."""
    if n1 == n2:
        return hungarian_max_weight(affinity)
    padded, line = (affinity[n1:], affinity[n1]) if n1 < n2 else (affinity[:, n2:], affinity[:, n2, None])
    if np.abs(padded - line).max() > 1e-12 * np.abs(affinity).max():
        return hungarian_max_weight(affinity)
    real = hungarian_max_weight(affinity[:n1, :n2] - line)
    rows, col_of = np.arange(len(affinity)), np.full(len(affinity), -1)
    col_of[real.rows] = real.cols
    col_of[col_of < 0] = np.delete(rows, real.cols)
    return Assignment(rows, col_of, total_weight=float(affinity[rows, col_of].sum()))


def rounding_gap_bound(g1m: np.ndarray, g2m: np.ndarray, eps: float) -> float:
    """Worst-case linearization error ``eps^2 * sum_i sigma_i(M1) sigma_i(M2)``."""
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    g1m = np.asarray(g1m, dtype=np.float64)
    g2m = np.asarray(g2m, dtype=np.float64)
    if np.abs(g1m - g1m.T).max() > 1e-10 or np.abs(g2m - g2m.T).max() > 1e-10:
        raise ValueError("inputs must be symmetric")
    s1 = np.linalg.svd(g1m, compute_uv=False)
    s2 = np.linalg.svd(g2m, compute_uv=False)
    return float(eps * eps * (s1 * s2).sum())


def brute_force_qap(g1: Graph, g2: Graph, gamma: float) -> AlignmentResult:
    """Exact maximizer of the trace objective by permutation enumeration.

    Guarded to n <= 10. Ties resolve to the lexicographically smallest
    permutation (enumeration order).
    """
    if g1.n != g2.n:
        raise ValueError(f"graphs must have equal size, got {g1.n} and {g2.n}")
    n = g1.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if not 0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 1/2), got {gamma}")
    m1 = g1.as_float() - gamma
    m2 = g2.as_float() - gamma
    best_value = -np.inf
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        idx = np.asarray(perm)
        value = float((m1 * m2[:, idx][idx]).sum())
        if value > best_value:
            best_value = value
            best_perm = perm
    assignment = Assignment(np.arange(n), np.asarray(best_perm), total_weight=best_value)
    return _finish(g1, g2, assignment, gamma, "brute", None)


def expected_objective_gap(p: float, p_e: float, s: ScoreScheme, model: str) -> float:
    """Expected per-pair objective gap between the true mapping and a false one.

    G1 is Erdos-Renyi with density p and G2 is G1 under edge noise p_e. The
    gap is the expected score of a node pair under the true mapping minus
    that of a pair whose images are independent of it (a derangement).

    Model "I" (``randgen.noise_model_I``, flips with probability q = p_e):
    ``p(1-p)(1-2q)(s1+s2-2s3)``.
    Model "II" (``randgen.noise_model_II``, density-preserving deletions and
    insertions): ``p(1-p-pe)(s1+s2-2s3)``. The noisy graph keeps density p,
    so a false pair scores as in the noiseless case.

    Note: the published model-I form reads
    ``p(1-p)(1-2q)(s1+s2-2s3) + q(1-2p)s3``. Its extra term comes from a
    false-pair mismatch probability of ``2p(1-p)(1-q) + 2p^2 q``, with which
    the outcome probabilities do not sum to one; consistency forces
    ``2p(1-p)(1-q) + (p^2 + (1-p)^2) q`` and the term vanishes. At p=0.1,
    q=0.05 and scores (2, 1, 0.5) the published form gives 0.182 and the
    expectation 0.162.
    """
    if not 0 < p < 0.5:
        raise ValueError(f"p must lie in (0, 1/2), got {p}")
    if not 0 <= p_e < 0.5:
        raise ValueError(f"p_e must lie in [0, 1/2), got {p_e}")
    if model == "I":
        return p * (1 - p) * (1 - 2 * p_e) * (s.s1 + s.s2 - 2 * s.s3)
    if model == "II":
        return p * (1 - p - p_e) * (s.s1 + s.s2 - 2 * s.s3)
    raise ValueError(f"model must be 'I' or 'II', got {model!r}")
