"""Alignment quality metrics and closed-form mean-field oracles.

Counting conventions: for undirected graphs, matches/mismatches/neutrals
are unordered-pair counts (trace values halved, diagonal excluded); the
ordered-trace values are also available for callers reproducing the raw
trace identities. Directed graphs count each direction separately. The
counts and the objective read the edge code of :func:`score.edge_codes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Permutation
from .matching import Assignment
from .score import edge_codes

__all__ = [
    "MeanFieldModel",
    "ExpectedAlignmentMatrix",
    "count_alignment",
    "count_alignment_ordered",
    "generalized_objective",
    "node_accuracy",
    "expected_alignment_matrix",
    "mean_field_ratio",
]

def _mapped_codes(g1: Graph, g2: Graph, mapping: Assignment) -> np.ndarray:
    """Edge codes of the mapped node pairs (:func:`score.edge_codes`), in row order."""
    rows, cols = mapping.rows, mapping.cols
    if len(rows) and (rows[-1] >= g1.n or cols.max() >= g2.n):
        raise ValueError("mapping references nodes outside the graphs")
    return edge_codes(g1, g2, rows, cols)


def count_alignment_ordered(g1: Graph, g2: Graph, mapping: Assignment) -> tuple[int, int, int]:
    """Ordered-pair (match, mismatch, neutral) counts over mapped nodes, diagonal excluded."""
    code = _mapped_codes(g1, g2, mapping)
    match, neutral = (int(np.count_nonzero(code == c)) for c in (3, 0))
    # the m diagonal cells are neutral
    return match, code.size - match - neutral, neutral - len(code)


def count_alignment(g1: Graph, g2: Graph, mapping: Assignment) -> tuple[int, int, int]:
    """(matches, mismatches, neutrals) of a one-to-one mapping.

    Undirected counts are over unordered mapped node pairs and sum to
    C(m, 2) for m mapped nodes. Directed counts keep both directions, so an
    inconsistent pair contributes once to matches and once to mismatches.
    """
    if g1.directed != g2.directed:
        raise ValueError("graphs must be both directed or both undirected")
    matches, mismatches, neutrals = count_alignment_ordered(g1, g2, mapping)
    if g1.directed:
        return matches, mismatches, neutrals
    return matches // 2, mismatches // 2, neutrals // 2


def generalized_objective(g1: Graph, g2: Graph, mapping: Assignment, gamma: float) -> float:
    """Trace objective Tr((G1 - gamma*J) X (G2 - gamma*J) X^T) of a mapping."""
    if not 0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 1/2), got {gamma}")
    # each entry (e1 - gamma) * (e2 - gamma) is one of four products, looked
    # up by its edge code instead of computed on float copies
    table = np.array([(e1 - gamma) * (e2 - gamma) for e1 in (0.0, 1.0) for e2 in (0.0, 1.0)])
    return float(table[_mapped_codes(g1, g2, mapping)].sum())


def node_accuracy(mapping: Assignment, truth: Permutation) -> float:
    """Fraction of mapped nodes sent to their true image."""
    if not len(mapping):
        return 0.0
    known = mapping.rows < truth.n
    hits = int(np.count_nonzero(truth.mapping[mapping.rows[known]] == mapping.cols[known]))
    return hits / len(mapping)


@dataclass(frozen=True)
class ExpectedAlignmentMatrix:
    """Two-level structure of the expected alignment matrix.

    Off-diagonal entries take ``true_pair_value`` on true-mapping rows and
    columns (the leading n indices) and ``false_pair_value`` everywhere
    else; the diagonal is ``diagonal_value``. ``to_dense`` materializes the
    kn x kn matrix with true mappings first.
    """

    true_pair_value: float
    false_pair_value: float
    diagonal_value: float
    n: int
    k: int

    def to_dense(self) -> np.ndarray:
        dim = self.k * self.n
        m = np.full((dim, dim), self.false_pair_value)
        m[: self.n, : self.n] = self.true_pair_value
        np.fill_diagonal(m, self.diagonal_value)
        return m


def expected_alignment_matrix(
    alpha: float,
    eps: float,
    p: float,
    p_e: float,
    n: int,
    k: int,
    model: str = "none",
) -> ExpectedAlignmentMatrix:
    """Closed-form expected alignment matrix under the (alpha, eps) scheme.

    ``model`` selects the perturbation applied to the second graph:
    "none" (isomorphic copy), "I" (uniform pair flips with probability
    p_e), or "II" (density-preserving deletions and insertions). A false
    pair's two entries are independent: under model "I" the second is an
    edge with probability p + p_e - 2 p p_e, under model "II" with
    probability p, so model-II false pairs score as in the noiseless case.
    The model-II entries use the small-eps closed forms; the diagonal is
    1 + eps in all models. Under models "I" and "II", ``true_pair_value -
    false_pair_value`` equals ``align.expected_objective_gap``.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if not 0 < p < 0.5:
        raise ValueError(f"p must lie in (0, 1/2), got {p}")
    if not 0 <= p_e < 0.5:
        raise ValueError(f"p_e must lie in [0, 1/2), got {p_e}")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")

    if model == "none":
        a = (alpha - 1) * p + 1 + eps
        b = (alpha + 1) * p * p - 2 * p + 1 + eps
    elif model == "I":
        s1, s2, s3 = alpha + eps, 1 + eps, eps
        a = p * (1 - p_e) * s1 + (1 - p) * (1 - p_e) * s2 + (p * p_e + (1 - p) * p_e) * s3
        b = (
            (p * p * (1 - p_e) + p * p_e * (1 - p)) * s1
            + ((1 - p) ** 2 * (1 - p_e) + p * p_e * (1 - p)) * s2
            + (2 * p * (1 - p) * (1 - p_e) + (p * p + (1 - p) ** 2) * p_e) * s3
        )
    elif model == "II":
        a = 1 - p * (1 + alpha * (p_e - 1) + p_e)
        b = (alpha + 1) * p * p - 2 * p + 1
    else:
        raise ValueError(f"model must be 'none', 'I', or 'II', got {model!r}")
    return ExpectedAlignmentMatrix(
        true_pair_value=a,
        false_pair_value=b,
        diagonal_value=1 + eps,
        n=n,
        k=k,
    )


@dataclass(frozen=True)
class MeanFieldModel:
    """Spectral quantities of the two-level expected alignment matrix.

    ``ratio`` is the exact finite-n ratio of true-block to false-block
    eigenvector entries, (lambda_top - lambda_b) / (b * n); ``ratio_asymptotic``
    is its large-n limit depending only on a/b and k.
    """

    a: float
    b: float
    n: int
    k: int
    eps: float
    lambda_a: float
    lambda_b: float
    lambda_top: float
    ratio: float
    ratio_asymptotic: float


def mean_field_ratio(a: float, b: float, n: int, k: int, eps: float = 0.0) -> MeanFieldModel:
    """Top-eigenpair closed forms for the two-level matrix with blocks (a, b).

    ``lambda_top`` is the largest root of
    ``(lambda - lambda_a)(lambda - lambda_b) = b^2 (k-1) n^2`` with
    ``lambda_a = (n-1)a + 1 + eps`` and ``lambda_b = ((k-1)n - 1)b + 1 + eps``.
    """
    if not a > b > 0:
        raise ValueError(f"require a > b > 0, got a={a}, b={b}")
    if k < 2:
        raise ValueError(f"expansion factor k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    lambda_a = (n - 1) * a + 1 + eps
    lambda_b = ((k - 1) * n - 1) * b + 1 + eps
    disc = (lambda_a - lambda_b) ** 2 + 4 * (k - 1) * b * b * n * n
    lambda_top = 0.5 * (lambda_a + lambda_b + np.sqrt(disc))
    ratio = (lambda_top - lambda_b) / (b * n)
    q = a / b - k + 1
    ratio_asymptotic = 0.5 * (q + np.sqrt(q * q + 4 * k - 4))
    return MeanFieldModel(
        a=a,
        b=b,
        n=n,
        k=k,
        eps=eps,
        lambda_a=lambda_a,
        lambda_b=lambda_b,
        lambda_top=float(lambda_top),
        ratio=float(ratio),
        ratio_asymptotic=float(ratio_asymptotic),
    )
