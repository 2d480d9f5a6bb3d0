"""Traced memory budgets of the large solve path.

tracemalloc sees every numpy buffer, so a peak counted in blocks of
8 * n1 * n2 bytes (one float n1 x n2 array) is deterministic: it depends
on which arrays are alive at once, not on the allocator or the host.
"""

import tracemalloc

import numpy as np
import pytest

from specalign.align import eigen_align
from specalign.graph import Graph
from specalign.matching import Assignment, greedy_matching, hungarian_max_weight
from specalign.metrics import count_alignment, generalized_objective
from specalign.randgen import erdos_renyi, random_permutation, sample_mapping_set
from specalign.score import alignment_matvec, build_alignment_matrix, from_alpha


def traced_peak(fn, *args, **kwargs):
    """Bytes allocated at the peak of ``fn(*args, **kwargs)`` beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n1, n2, budget", [(300, 300, 4.5), (200, 260, 5.0)])
def test_matrix_free_eigen_align_holds_four_blocks(n1, n2, budget):
    # a power-iteration step holds the iterate, A1 Y, the float G2 and the
    # product (four blocks at n1 == n2); greedy and scoring stay below that
    g1, g2 = erdos_renyi(n1, 0.05, 0), erdos_renyi(n2, 0.05, 1)
    peak = traced_peak(eigen_align, g1, g2, from_alpha(4, 0.001), matching="greedy")
    assert peak / (8 * n1 * n2) <= budget


@pytest.mark.parametrize("directed, budget", [(False, 3.1), (True, 7.1)])
def test_one_matrix_free_product(directed, budget):
    # undirected: A1 Y, the float G2 and the product; directed: the three
    # products K1 Y, G2's float A and A∘A^T, the sum and one term
    n = 300
    g1, g2 = erdos_renyi(n, 0.05, 0), erdos_renyi(n, 0.05, 1)
    if directed:  # each graph keeps one direction of its edges
        g1, g2 = (Graph(np.triu(g.adjacency), directed=True) for g in (g1, g2))
    y = np.random.default_rng(0).random(n * n)
    assert traced_peak(alignment_matvec, g1, g2, from_alpha(4, 0.001), y) / (8 * n * n) <= budget


def test_restricted_eigen_align_drops_its_matrix_before_matching():
    # the dense matrix and its edge code set the peak; the matching step
    # runs on n1 x n2 blocks after the matrix is gone
    n = 300
    g1, g2 = erdos_renyi(n, 0.05, 0), erdos_renyi(n, 0.05, 1)
    mapping_set = sample_mapping_set(n, random_permutation(n, 2), 4, 3)
    peak = traced_peak(eigen_align, g1, g2, from_alpha(4, 0.001), mapping_set)
    assert peak / (8 * len(mapping_set) ** 2) <= 1.2


@pytest.mark.parametrize("weights, masked, budget", [("random", True, 4.12), ("random", False, 4.24), ("tied", False, 4.46)])
def test_exact_matching_blocks(weights, masked, budget):
    # the cost matrix and the exchange graph, with a work buffer for its
    # potentials or, where a tie keeps every node, Floyd-Warshall's blocks
    # and the candidate cells' cycle losses; later only the flexible rows'
    # costs and candidate mask, with the completion solves' blocks
    n = 300
    w = np.random.default_rng(0).random((n, n))
    if weights == "tied":
        w = np.round(w * 4) / 4
    allowed = sample_mapping_set(n, random_permutation(n, 2), 4, 3).mask() if masked else None
    assert traced_peak(hungarian_max_weight, w, allowed) / (8 * n * n) <= budget


def test_dense_alignment_matrix_holds_one_block():
    # the matrix itself, plus its int8 edge code
    n = 300
    g1, g2 = erdos_renyi(n, 0.05, 0), erdos_renyi(n, 0.05, 1)
    mapping_set = sample_mapping_set(n, random_permutation(n, 2), 4, 3)
    peak = traced_peak(build_alignment_matrix, g1, g2, from_alpha(4, 0.001), mapping_set)
    assert peak / (8 * len(mapping_set) ** 2) <= 1.2


def test_greedy_matching_holds_its_keys_and_order():
    # the weights are the caller's; the sorted keys and the row order are one block each
    w = np.random.default_rng(0).random((300, 300))
    assert traced_peak(greedy_matching, w) / w.nbytes <= 2.5


def test_generalized_objective_holds_one_block():
    # the looked-up products; the int8 blocks and their code are an eighth each
    n = 300
    g1, g2 = erdos_renyi(n, 0.05, 0), erdos_renyi(n, 0.05, 1)
    mapping = Assignment(np.arange(n), np.arange(n), 0.0)
    assert traced_peak(generalized_objective, g1, g2, mapping, 0.2) / (8 * n * n) <= 1.5


def test_count_alignment_holds_half_a_block():
    # the int8 code, a second int8 gather and one bool comparison: 3 bytes a cell pair
    n = 300
    g1, g2 = erdos_renyi(n, 0.05, 0), erdos_renyi(n, 0.05, 1)
    mapping = Assignment(np.arange(n), np.arange(n), 0.0)
    assert traced_peak(count_alignment, g1, g2, mapping) / (8 * n * n) <= 0.5
