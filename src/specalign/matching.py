"""Maximum-weight bipartite matching, exact and greedy.

The exact solver makes one ``scipy.optimize.linear_sum_assignment`` solve
on a cost matrix with disallowed cells at +inf, and then normalizes the
returned assignment to the lexicographically smallest optimum, so
equal-weight ties resolve deterministically to the lowest (i, then j').
The normalization carries a *held* assignment within the tolerance, at
first the solved one: row i keeps its held column without a solve, unless
a candidate column below it passes one more solve on the rows after i and
the columns still free, whose solution is then held.
Every near-optimal assignment differs from the solved one by exchange
cycles (the alternating-cycle optimality condition; Burkard, Dell'Amico
and Martello, *Assignment Problems*, 2009), so one rule prunes the
normalization: a cell is a *candidate* when the cheapest exchange cycle
through it loses at most the tie tolerance, plus a 0.1% margin where
summation order could decide. Only candidates are tested. A solved pair
whose own cell is no candidate is *pinned*: it is in every optimum within
the tolerance, and only the other, *flexible* pairs' rows are normalized,
against the columns no pinned pair takes; a unique optimum costs one
solve. The cycles are searched on the exchange graph of the smaller
side, with a pool node for the columns nobody takes, pruned by reduced
costs (Johnson's reweighting): Bellman-Ford potentials make every edge
cost non-negative up to a sliver, nodes without tight edges in and out
are trimmed, and Floyd-Warshall runs on the few nodes that remain.
Potentials that do not settle prune nothing: every row is then
normalized, testing every allowed column. The first solve also detects
a mask with no full matching; only then is a Hall-violation witness
built, from a Hopcroft-Karp maximum matching
(``scipy.sparse.csgraph.maximum_bipartite_matching``). The greedy variant
implements the classic heaviest-cell sweep with a 1/2-approximation
guarantee for non-negative weights; a heap of each row's best free
column, over a SIMD sort of each row plus a stable re-sort of the rows
whose allowed cells' keys tie, visits the cells in the same order as one
stable sort of all the allowed cells.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

__all__ = [
    "Assignment",
    "InfeasibleMatchingError",
    "hungarian_max_weight",
    "greedy_matching",
]

_TIE_TOL = 1e-9
_INT64_MAX = np.iinfo(np.int64).max
# A cycle that loses at most this much more than the tolerance, relative to
# it, could be a tie under another summation order: its cells stay
# candidates, and the completion solves judge them at the tolerance.
_LOSS_MARGIN = 1e-3


class InfeasibleMatchingError(ValueError):
    """No full matching of the smaller side exists under the mask.

    ``deficient_rows`` is a set S of smaller-side vertices whose allowed
    neighborhood N(S) is smaller than S (a Hall violation witness).
    """

    def __init__(self, deficient_rows: list[int], neighborhood: list[int], transposed: bool):
        side = "column" if transposed else "row"
        other = "row" if transposed else "column"
        self.deficient_rows = deficient_rows
        self.neighborhood = neighborhood
        super().__init__(
            f"no full matching: {side}s {deficient_rows} only reach {other}s {neighborhood}"
        )


@dataclass(frozen=True, eq=False)
class Assignment:
    """A one-to-one mapping, pairs (``rows[p]``, ``cols[p]``) in read-only int64 arrays sorted by row."""

    rows: np.ndarray
    cols: np.ndarray
    total_weight: float

    def __post_init__(self):
        # a list becomes an object array: numpy makes floats of a mix of ids within and past int64
        rows, cols = (a if isinstance(a, np.ndarray) else np.array(a, dtype=object) for a in (self.rows, self.cols))
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError(f"rows and cols must be 1-D of equal length, got shapes {rows.shape} and {cols.shape}")
        if rows.size and not 0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max()) <= _INT64_MAX:
            raise ValueError("mapping node ids must be non-negative and fit in int64")
        order = np.argsort(rows)
        rows, cols = rows.astype(np.int64)[order], cols.astype(np.int64)[order]
        if (rows[1:] == rows[:-1]).any() or (np.diff(np.sort(cols)) == 0).any():
            raise ValueError("mapping must be one-to-one, using each row and column at most once")
        rows.flags.writeable = cols.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def __len__(self) -> int:
        return len(self.rows)


def _as_weight_mask(w: np.ndarray, allowed: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be 2-D, got shape {w.shape}")
    if allowed is None:
        allowed = np.ones(w.shape, dtype=bool)
    else:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != w.shape:
            raise ValueError(f"mask shape {allowed.shape} does not match weights {w.shape}")
    # bool blocks only: w[allowed] would copy the weights
    if not (np.isfinite(w) | ~allowed).all():
        raise ValueError("weights on allowed cells must be finite")
    return w, allowed


def _hall_violation(allowed: np.ndarray) -> tuple[list[int], list[int]]:
    """Deficient row set and its neighborhood, assuming no full row matching exists.

    S is every row reachable from an unmatched row of a maximum matching by
    alternating paths. It is the same set for every maximum matching, N(S)
    is fully matched into S, and |S| - |N(S)| is the rows' deficiency.
    """
    match_row = maximum_bipartite_matching(csr_matrix(allowed), perm_type="column")
    col_owner = {int(c): r for r, c in enumerate(match_row) if c >= 0}
    frontier = [r for r in range(allowed.shape[0]) if match_row[r] == -1]
    rows = set(frontier)
    cols: set[int] = set()
    while frontier:
        row = frontier.pop()
        for col in np.nonzero(allowed[row])[0]:
            col = int(col)
            if col in cols:
                continue
            cols.add(col)
            owner = col_owner.get(col)
            if owner is not None and owner not in rows:
                rows.add(owner)
                frontier.append(owner)
    return sorted(rows), sorted(cols)


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
    transposed = n1 > n2
    if solved is None:
        rows, cols = _hall_violation(allowed.T if transposed else allowed)
        raise InfeasibleMatchingError(rows, cols, transposed)
    optimum = float(w[solved].sum())
    tol = _TIE_TOL * max(1.0, abs(optimum))

    # The exchange graph lives on the smaller side; a tall matrix is
    # handled as its transpose, with the columns as the pairs' owners.
    owners, taken = solved[::-1] if transposed else solved
    candidates = _cycle_losses(cost.T if transposed else cost, owners, taken, tol)
    if transposed:
        candidates = candidates.T
    pinned = ~candidates[solved]
    if pinned.all():
        # the only assignment within the tolerance; its rows come sorted
        return Assignment(*solved, total_weight=optimum)
    pinned_rows, pinned_cols = solved[0][pinned], solved[1][pinned]
    pinned_weight = float(w[pinned_rows, pinned_cols].sum())
    rows, cols = np.delete(np.arange(n1), pinned_rows), np.delete(np.arange(n2), pinned_cols)
    # each flexible row's solved column as a position in cols, -1 if unmatched
    held = np.full(n1, -1)
    held[solved[0]] = np.searchsorted(cols, solved[1])
    held = held[rows]
    # the full blocks are dropped: the normalisation holds only its own
    cost, candidates = cost[:, cols][rows], candidates[:, cols][rows]
    _normalise(cost, candidates, held, optimum - pinned_weight, tol)
    col_of = np.full(n1, -1)
    col_of[pinned_rows] = pinned_cols
    flexible = held >= 0
    col_of[rows[flexible]] = cols[held[flexible]]
    matched = np.flatnonzero(col_of >= 0)
    return Assignment(matched, col_of[matched], total_weight=float(w[matched, col_of[matched]].sum()))


def _cycle_losses(cost: np.ndarray, owners: np.ndarray, taken: np.ndarray, tol: float) -> np.ndarray:
    """The cells of ``cost`` on an exchange cycle that loses at most ``tol``.

    ``cost`` has no more rows than columns and (``owners[p]``, ``taken[p]``)
    is a min-cost full assignment of its rows. Node p of the exchange graph
    is that pair; edge p -> q is row ``owners[p]`` taking column
    ``taken[q]`` instead of its own, and a pool node stands for the columns
    no row takes: p -> pool takes row p's best such column, and pool -> q
    releases ``taken[q]`` at no cost. Any other assignment differs from
    the optimum by exchange cycles, each passing the pool at most once and
    none gaining weight, so every cell of an assignment within ``tol`` of
    the optimum lies on a cycle that loses at most ``tol``.

    The returned boolean mask marks the *candidates*: the cell of row
    ``owners[p]`` and column ``taken[q]`` is one when ``graph[p, q] +
    dist(q -> p)``, the cheapest cycle through it, is at most ``tol * (1 +
    _LOSS_MARGIN)``; a free column's node is the pool. A held cell's value
    is the cheapest cycle through its pair, so a solved cell that is no
    candidate is in every assignment within ``tol``.

    Only cycles near ``tol`` decide anything, so the search is pruned by
    reduced costs (Johnson's reweighting). Dense Bellman-Ford passes from
    zero give potentials ``d`` under which every reduced cost
    ``graph[p, q] + d[p] - d[q]`` is at least ``-eta``, with
    ``eta = tol / (4 * nodes)``. A cycle weighs the sum of its reduced
    costs, so one through an edge of reduced cost above ``2 * tol`` loses
    more than ``1.75 * tol`` and holds no candidate. Nodes without a
    tight in-edge or out-edge among the live nodes lie on no cheap cycle
    and are trimmed; Floyd-Warshall runs on the survivors' tight edges,
    and no cell whose cycle passes another node is a candidate. The
    Bellman-Ford passes stop once no potential drops by more than ``eta``,
    and Floyd-Warshall makes a fixed number of passes, so float-noise
    cycles of slightly negative weight cannot keep either from
    terminating. Passes that have not settled after ``nodes + 1`` mean a
    cycle well below zero, which leaves no safe pruning: every allowed
    (finite) cell is then a candidate.
    """
    held = cost[owners, taken]
    # the diagonal is exactly 0: a pair keeping its own column
    graph = cost[:, taken][owners] - held[:, None]
    free = np.ones(cost.shape[1], dtype=bool)
    free[taken] = False
    if free.any():
        pool = cost[:, free][owners].min(axis=1) - held
        graph = np.vstack([np.column_stack([graph, pool]), np.zeros(len(held) + 1)])
    nodes = len(graph)
    eta = tol / (4 * max(nodes, 1))
    # with the zero diagonal, a column's minimum includes its own potential
    buf = np.empty_like(graph)
    d = np.zeros(nodes)
    for _ in range(nodes + 1):
        relaxed = np.add(d[:, None], graph, out=buf).min(axis=0, initial=np.inf)
        if not (d - relaxed > eta).any():
            break
        d = relaxed
    else:
        return np.isfinite(cost)
    np.add(graph, d[:, None], out=buf)
    tight = np.subtract(buf, d[None, :], out=buf) <= 2 * tol
    del buf
    np.fill_diagonal(tight, False)
    live = np.ones(nodes, dtype=bool)
    while True:
        survivors = live & (live @ tight) & (tight @ live)
        if np.count_nonzero(survivors) == np.count_nonzero(live):
            break
        live = survivors
    keep = np.flatnonzero(live)
    if not len(keep):
        return np.zeros(cost.shape, dtype=bool)
    dist = graph[np.ix_(keep, keep)]
    del graph  # Floyd-Warshall needs only the survivors' block
    dist[~tight[:, keep][keep]] = np.inf
    del tight
    via = np.empty_like(dist)
    for k in range(len(dist)):
        np.add(dist[:, k, None], dist[k], out=via)
        np.minimum(dist, via, out=dist)
    del via
    candidates = np.zeros(cost.shape, dtype=bool)
    # keep is sorted, so the pool node, if it survived, comes last
    pairs = keep[keep < len(held)]
    kept = len(pairs)
    # each column block with its nodes' cheapest paths back to the pairs
    blocks = [(taken[pairs], dist[:kept, :kept].T)]
    if kept < len(keep):
        blocks.append((np.flatnonzero(free), dist[-1, :kept, None]))
    for cols, back in blocks:
        # a cell's cheapest cycle: its edge graph[p, q], then back from q to p
        cells = np.ix_(owners[pairs], cols)
        lost = cost[cells]
        lost -= held[pairs, None]
        lost += back
        candidates[cells] = lost <= tol * (1 + _LOSS_MARGIN)
    return candidates


def _normalise(cost: np.ndarray, candidates: np.ndarray, held: np.ndarray, optimum: float, tol: float) -> None:
    """Lexicographically smallest assignment of the rows of ``cost`` within ``tol`` of ``optimum``.

    ``held`` (updated in place) is an assignment within ``tol``: each row's
    column, -1 if unmatched; on return it is the smallest one. Row i tests
    only the free candidate columns below its held one, each by one solve
    on rows i+1.. and the free columns; the first that keeps the optimal
    total is taken and its solve becomes ``held``. Otherwise row i keeps
    its held column, or stays unmatched, without a solve.

    ``candidates`` covers every cell of every assignment within ``tol`` on
    these rows; it may be the allowed mask itself. It only skips tests:
    the solves still see every allowed cell.
    """
    fixed_weight = 0.0
    free_cols = np.ones(cost.shape[1], dtype=bool)
    unplaced = min(cost.shape)
    for i in range(len(cost)):
        h = int(held[i])
        below = len(free_cols) if h < 0 else h
        for j in np.flatnonzero(candidates[i, :below] & free_cols[:below]).tolist():
            free_cols[j] = False
            sub = cost[i + 1 :, free_cols]
            need = unplaced - 1
            solved = _solve_lap(sub) if 0 < need <= min(sub.shape) else None
            if need == 0 or solved is not None:
                rest = -float(sub[solved].sum()) if need else 0.0
                if fixed_weight - cost[i, j] + rest >= optimum - tol:
                    held[i + 1 :] = -1
                    if need:
                        held[i + 1 + solved[0]] = np.flatnonzero(free_cols)[solved[1]]
                    h = j
                    break
            free_cols[j] = True
        held[i] = h
        if h >= 0:
            free_cols[h] = False
            unplaced -= 1
            fixed_weight -= float(cost[i, h])


def greedy_matching(w: np.ndarray, allowed: np.ndarray | None = None) -> Assignment:
    """Greedy heaviest-cell matching; ties go to the lowest (i, then j').

    For non-negative weights the result is at least half the optimum. Under
    restrictive masks the matching may cover fewer than min(n1, n2) rows.

    Each row's cells are sorted once: the SIMD sort, plus a stable re-sort
    of the rows whose allowed cells' sorted keys hold an exact tie, gives
    the order of one stable sort per row, since keys without ties have only
    one sorted order. Disallowed cells sort last, at +inf, and are never
    read, so their order does not matter. The keys are sorted in place
    after the row order is taken. A heap holds one ``(-w, i, j')`` entry
    per unmatched row: its best column not yet seen taken. Columns are
    only ever taken, so a popped entry whose column is free is the
    heaviest free cell, in the (-w, i, j') order of one stable sort of all
    the cells; one whose column was taken advances to its row's next free
    column and goes back on the heap.
    """
    w, allowed = _as_weight_mask(w, allowed)
    n1, n2 = w.shape
    key = np.negative(w, where=allowed, out=np.full(w.shape, np.inf))
    order = np.argsort(key, axis=1)
    # from here on key[i, k] is the key of cell (i, order[i, k])
    key.sort(axis=1)
    # +inf keys are the disallowed cells, past the end of every row's walk
    equal = key[:, 1:] == key[:, :-1]
    equal &= key[:, 1:] < np.inf
    tied = np.flatnonzero(equal.any(axis=1))
    order[tied] = np.argsort(np.where(allowed[tied], -w[tied], np.inf), axis=1, kind="stable")
    ends = allowed.sum(axis=1).tolist()
    at = [0] * n1
    heap = [(float(key[i, 0]), i, int(order[i, 0])) for i in range(n1) if ends[i]]
    heapq.heapify(heap)
    col_free = np.ones(n2, dtype=bool)
    col_of = np.full(n1, -1)
    matched = 0
    total = 0.0
    while heap and matched < min(n1, n2):
        _, i, j = heapq.heappop(heap)
        if col_free[j]:
            col_free[j] = False
            col_of[i] = j
            matched += 1
            total += float(w[i, j])
            continue
        ahead = col_free[order[i, at[i] + 1 : ends[i]]]
        if ahead.size:
            k = int(ahead.argmax())  # the first free column, if any is
            if ahead[k]:
                at[i] += 1 + k
                heapq.heappush(heap, (float(key[i, at[i]]), i, int(order[i, at[i]])))
    rows = np.flatnonzero(col_of >= 0)
    return Assignment(rows, col_of[rows], total_weight=total)
