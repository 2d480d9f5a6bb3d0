"""Test-only oracle: the O(n²)-LAP lexicographic tie-break, kept verbatim.

``hungarian_max_weight`` below is the exact matcher as it was before the
one-LAP exchange-graph reduction. It normalises every row by one more LAP
solve per candidate (i, j'), so it is slow but simple, and the property
tests in ``test_matching.py`` require the fast matcher to return the same
``pairs`` and ``total_weight`` bit for bit. It calls scipy's
``linear_sum_assignment`` directly, so tests that count the LAP calls of
``specalign.matching`` never see it.

``_cycle_losses`` below is the exchange-graph cycle search as it was
before the reduced-cost pruning: a dense Floyd-Warshall over every pair.
``test_matching.py`` requires the pruned search to pin the same pairs.

``greedy_matching`` below is the greedy matcher as it was before the SIMD
row sort: one stable sort per row, and ``np.flatnonzero`` to advance a
row whose column was taken. ``test_matching.py`` requires the fast
greedy to return the same ``pairs`` and ``total_weight``.
Do not edit the copied functions.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.optimize import linear_sum_assignment

from specalign.matching import (
    Assignment,
    InfeasibleMatchingError,
    _as_weight_mask,
    _hall_violation,
)

_TIE_TOL = 1e-9


def _solve_lap(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Min-cost full assignment of the smaller side, or None if infeasible."""
    try:
        return linear_sum_assignment(cost)
    except ValueError:
        return None


def hungarian_max_weight(w: np.ndarray, allowed: np.ndarray | None = None) -> Assignment:
    """Maximum-weight one-to-one assignment covering the smaller side.

    Disallowed cells are excluded outright (no -inf sentinels in weights).
    Among maximum-weight assignments, returns the lexicographically
    smallest one: pairs are decided row by row, preferring the smallest
    feasible column that still permits an optimal completion.

    Raises :class:`InfeasibleMatchingError` with a Hall-violation witness
    when the mask admits no full matching of the smaller side.
    """
    w, allowed = _as_weight_mask(w, allowed)
    n1, n2 = w.shape
    cost = np.where(allowed, -w, np.inf)

    solved = _solve_lap(cost)
    if solved is None:
        transposed = n1 > n2
        rows, cols = _hall_violation(allowed.T if transposed else allowed)
        raise InfeasibleMatchingError(rows, cols, transposed)
    optimum = float(w[solved].sum())
    tol = _TIE_TOL * max(1.0, abs(optimum))

    # Lexicographic normalization: fix (i, j') greedily in ascending order,
    # keeping only choices that preserve the optimal total. Rows before i
    # are matched or dropped, so each completion runs on rows i+1.. and the
    # free columns.
    pairs: list[tuple[int, int]] = []
    fixed_weight = 0.0
    free_cols = np.ones(n2, dtype=bool)
    target_size = min(n1, n2)
    for i in range(n1):
        if len(pairs) == target_size:
            break
        for j in np.flatnonzero(allowed[i] & free_cols).tolist():
            free_cols[j] = False
            rest = _best_completion(cost[i + 1 :, free_cols], target_size - len(pairs) - 1)
            if rest is not None and fixed_weight + w[i, j] + rest >= optimum - tol:
                pairs.append((i, j))
                fixed_weight += float(w[i, j])
                break
            free_cols[j] = True
        else:
            # Row i is unmatched in every optimal solution (only possible when n1 > n2).
            rest = _best_completion(cost[i + 1 :, free_cols], target_size - len(pairs))
            if rest is None or fixed_weight + rest < optimum - tol:
                raise AssertionError("lexicographic normalization lost the optimum")
    return Assignment(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T, total_weight=float(w[tuple(zip(*pairs))].sum()) if pairs else 0.0)


def _best_completion(cost: np.ndarray, need: int) -> float | None:
    """Best total weight of a matching of size ``need`` on a cost submatrix, or None."""
    if need == 0:
        return 0.0
    if need > min(cost.shape):
        return None
    solved = _solve_lap(cost)
    if solved is None:
        return None
    return -float(cost[solved].sum())


def _cycle_losses(cost: np.ndarray, owners: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Weight lost by the cheapest exchange cycle through each pair of an optimum.

    ``cost`` has no more rows than columns and (``owners[p]``, ``taken[p]``)
    is a min-cost full assignment of its rows. Node p of the exchange graph
    is that pair; edge p -> q is row ``owners[p]`` taking column
    ``taken[q]`` instead of its own, and a pool node stands for the columns
    no row takes: p -> pool takes row p's best such column, and pool -> q
    releases ``taken[q]`` at no cost. Any other assignment differs from
    the optimum by exchange cycles, each passing the pool at most once and
    none gaining weight, so an assignment within a tolerance of the optimum
    keeps every pair whose cheapest cycle loses more than that tolerance.
    Floyd-Warshall makes a fixed number of passes, so float-noise cycles of
    slightly negative weight cannot keep it from terminating.
    """
    held = cost[owners, taken]
    graph = cost[np.ix_(owners, taken)] - held[:, None]
    free = np.ones(cost.shape[1], dtype=bool)
    free[taken] = False
    if free.any():
        pool = cost[np.ix_(owners, np.flatnonzero(free))].min(axis=1) - held
        graph = np.vstack([np.column_stack([graph, pool]), np.zeros(len(held) + 1)])
    np.fill_diagonal(graph, np.inf)
    via = np.empty_like(graph)
    for k in range(len(graph)):
        np.add(graph[:, k, None], graph[k], out=via)
        np.minimum(graph, via, out=graph)
    return graph.diagonal()[: len(held)]


def greedy_matching(w: np.ndarray, allowed: np.ndarray | None = None) -> Assignment:
    """Greedy heaviest-cell matching; ties go to the lowest (i, then j').

    For non-negative weights the result is at least half the optimum. Under
    restrictive masks the matching may cover fewer than min(n1, n2) rows.

    Each row's allowed cells are sorted once, and a heap holds one
    ``(-w, i, j')`` entry per unmatched row: its best column not yet seen
    taken. Columns are only ever taken, so a popped entry whose column is
    free is the heaviest free cell, in the (-w, i, j') order of one stable
    sort of all the cells; one whose column was taken advances to its row's
    next free column and goes back on the heap.
    """
    w, allowed = _as_weight_mask(w, allowed)
    n1, n2 = w.shape
    key = np.where(allowed, -w, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    ends = allowed.sum(axis=1).tolist()
    at = [0] * n1
    heap = [(float(key[i, order[i, 0]]), i, int(order[i, 0])) for i in range(n1) if ends[i]]
    heapq.heapify(heap)
    col_free = np.ones(n2, dtype=bool)
    pairs: list[tuple[int, int]] = []
    total = 0.0
    while heap and len(pairs) < min(n1, n2):
        _, i, j = heapq.heappop(heap)
        if col_free[j]:
            col_free[j] = False
            pairs.append((i, j))
            total += float(w[i, j])
            continue
        ahead = np.flatnonzero(col_free[order[i, at[i] + 1 : ends[i]]])
        if ahead.size:
            at[i] += 1 + int(ahead[0])
            j = int(order[i, at[i]])
            heapq.heappush(heap, (float(key[i, j]), i, j))
    return Assignment(*np.array(pairs, dtype=np.int64).reshape(-1, 2).T, total_weight=total)
