import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import specalign.matching
from conftest import pairs_of
from matching_oracle import _cycle_losses as dense_cycle_losses
from matching_oracle import greedy_matching as oracle_greedy
from matching_oracle import hungarian_max_weight as oracle_max_weight
from scipy.optimize import linear_sum_assignment
from specalign.matching import (
    _LOSS_MARGIN,
    _TIE_TOL,
    Assignment,
    InfeasibleMatchingError,
    _cycle_losses,
    greedy_matching,
    hungarian_max_weight,
)


def brute_force_best(w, allowed=None):
    """Max weight over all full assignments of the smaller side, by enumeration."""
    w = np.asarray(w, dtype=float)
    n1, n2 = w.shape
    if allowed is None:
        allowed = np.ones_like(w, dtype=bool)
    best = -np.inf
    if n1 <= n2:
        for cols in itertools.permutations(range(n2), n1):
            if all(allowed[i, c] for i, c in enumerate(cols)):
                best = max(best, sum(w[i, c] for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(n1), n2):
            if all(allowed[r, j] for j, r in enumerate(rows)):
                best = max(best, sum(w[r, j] for j, r in enumerate(rows)))
    return best


def lexicographic_optimum(w, allowed):
    """Max-weight full assignment of the smaller side with the smallest row-order key, by enumeration.

    The key lists each row's column in row order, an unmatched row counting
    as +inf. Returns None when the mask admits no full assignment.
    """
    n1, n2 = w.shape
    if n1 <= n2:
        candidates = [list(enumerate(cols)) for cols in itertools.permutations(range(n2), n1)]
    else:
        candidates = [[(r, j) for j, r in enumerate(rows)] for rows in itertools.permutations(range(n1), n2)]
    best = None
    for pairs in candidates:
        if not all(allowed[i, j] for i, j in pairs):
            continue
        col_of = dict(pairs)
        rank = (-sum(w[i, j] for i, j in pairs), [col_of.get(i, np.inf) for i in range(n1)])
        if best is None or rank < best[0]:
            best = (rank, tuple(sorted(pairs)))
    return None if best is None else best[1]


def max_matching_size(allowed):
    """Size of a maximum matching of a mask with no more rows than columns, by enumeration."""
    n1, n2 = allowed.shape
    return max(sum(bool(allowed[i, c]) for i, c in enumerate(cols)) for cols in itertools.permutations(range(n2), n1))


def reference_greedy(w, allowed):
    """Greedy matching over all allowed cells key-sorted by (-w, i, j')."""
    n1, n2 = w.shape
    cells = [(i, j) for i in range(n1) for j in range(n2) if allowed is None or allowed[i, j]]
    cells.sort(key=lambda c: (-w[c], c[0], c[1]))
    used_rows, used_cols, pairs, total = set(), set(), [], 0.0
    for i, j in cells:
        if i in used_rows or j in used_cols:
            continue
        used_rows.add(i)
        used_cols.add(j)
        pairs.append((i, j))
        total += float(w[i, j])
    return tuple(sorted(pairs)), total


def shapes(max_side):
    sides = st.integers(1, max_side)
    return st.tuples(sides, sides) | sides.map(lambda n: (n, n))


@st.composite
def tied_instances(draw, orientation):
    """Weights with many exact and ulp-level ties, and a feasible mask or none.

    Integer weights 0-3 tie exactly; one-decimal weights tie up to an ulp,
    since sums such as 0.1 + 0.2 and 0.3 differ in the last bit. One row
    and one column may be exact copies of another, and a mask always
    keeps one full matching of the smaller side.
    """
    small = draw(st.integers(1, 6))
    big = small if orientation == "square" else small + draw(st.integers(1, 3))
    shape = (big, small) if orientation == "tall" else (small, big)
    integers, decimals = st.integers(0, 3).map(float), st.integers(0, 10).map(lambda k: k / 10)
    w = draw(arrays(np.float64, shape, elements=draw(st.sampled_from([integers, decimals])), fill=st.nothing()))
    for axis in (0, 1):
        if shape[axis] > 1 and draw(st.booleans()):
            src, dst = draw(st.lists(st.integers(0, shape[axis] - 1), min_size=2, max_size=2, unique=True))
            np.moveaxis(w, axis, 0)[dst] = np.moveaxis(w, axis, 0)[src]
    allowed = draw(st.none() | arrays(np.bool_, shape, elements=st.sampled_from([False, True, True])))
    if allowed is not None:
        cols = draw(st.permutations(range(big)))[:small]
        rows, cols = (cols, range(small)) if orientation == "tall" else (range(small), cols)
        allowed[list(rows), list(cols)] = True
    return w, allowed


@st.composite
def exchange_graphs(draw, orientation):
    """A min-cost assignment of a tied, sparsely masked cost matrix, as ``_cycle_losses`` takes it.

    Returns ``(cost, owners, taken, tol)`` on the smaller side, the way
    ``hungarian_max_weight`` calls it. Weights are integers 0-3 or one
    decimal; some rows and columns copy others; the mask keeps one planted
    full matching of the smaller side (up to 30 pairs) and a sparse,
    drawn share of the other cells. The matrix comes from a drawn seed,
    since Hypothesis-drawn 30x33 arrays would be slow to generate.
    """
    small = draw(st.integers(1, 30))
    big = small + draw(st.integers(0, 3))
    shape = (big, small) if orientation == "tall" else (small, big)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        w = rng.integers(0, 4, shape).astype(float)
    else:
        w = rng.integers(0, 11, shape) / 10
    for axis in (0, 1):
        for _ in range(draw(st.integers(0, 3))):
            src, dst = rng.integers(0, shape[axis], size=2)
            np.moveaxis(w, axis, 0)[dst] = np.moveaxis(w, axis, 0)[src]
    allowed = rng.random(shape) < draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
    planted = rng.permutation(big)[:small]
    rows, cols = (planted, np.arange(small)) if orientation == "tall" else (np.arange(small), planted)
    allowed[rows, cols] = True
    cost = np.where(allowed, -w, np.inf)
    solved = linear_sum_assignment(cost)
    tol = _TIE_TOL * max(1.0, abs(float(w[solved].sum())))
    if orientation == "tall":
        return cost.T, solved[1], solved[0], tol
    return cost, solved[0], solved[1], tol


NEAR_TIE_DELTAS = [0.0, 1e-10, -1e-10, 3e-10, -3e-10, 1e-9, -1e-9, 2e-9, -2e-9]


@st.composite
def near_ties(draw, orientation, scale):
    """Weights ``k/10 * scale`` moved by up to two tie tolerances, and a feasible mask or none.

    At scale 1e-3 the optimum is below 1, so the tolerance is an absolute
    1e-9, as in exact ``ea`` on eigenvector entries; at scale 1 it grows
    with the optimum. Shapes reach 5x7.
    """
    small = draw(st.integers(1, 5))
    big = small if orientation == "square" else small + draw(st.integers(1, 2))
    shape = (big, small) if orientation == "tall" else (small, big)
    k = draw(arrays(np.int64, shape, elements=st.integers(0, 10), fill=st.nothing()))
    delta = draw(arrays(np.float64, shape, elements=st.sampled_from(NEAR_TIE_DELTAS), fill=st.nothing()))
    w = k / 10 * scale + delta
    allowed = draw(st.none() | arrays(np.bool_, shape, elements=st.sampled_from([False, True, True])))
    if allowed is not None:
        cols = draw(st.permutations(range(big)))[:small]
        rows, cols = (cols, range(small)) if orientation == "tall" else (range(small), cols)
        allowed[list(rows), list(cols)] = True
    return w, allowed


def full_assignments(w, allowed):
    """Every allowed full assignment of the smaller side as (weight, row-order key), by enumeration.

    The key lists each row's column in row order, an unmatched row counting as +inf.
    """
    n1, n2 = w.shape
    if n1 <= n2:
        candidates = [list(enumerate(cols)) for cols in itertools.permutations(range(n2), n1)]
    else:
        candidates = [[(r, j) for j, r in enumerate(rows)] for rows in itertools.permutations(range(n1), n2)]
    out = []
    for pairs in candidates:
        if all(allowed[i, j] for i, j in pairs):
            col_of = dict(pairs)
            out.append((sum(w[i, j] for i, j in pairs), [col_of.get(i, np.inf) for i in range(n1)]))
    return out


class TestCycleLosses:
    """The pruned cycle search against the verbatim dense Floyd-Warshall."""

    @pytest.mark.parametrize("orientation", ["wide", "tall"])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_pins_what_dense_floyd_warshall_pins(self, orientation, data):
        # a solved pair is pinned when its own cell is no candidate
        cost, owners, taken, tol = data.draw(exchange_graphs(orientation))
        candidates = _cycle_losses(cost, owners, taken, tol)
        assert candidates is not None  # an optimum has no cycle below float noise
        want = dense_cycle_losses(cost, owners, taken) > tol * (1 + _LOSS_MARGIN)
        assert (~candidates[owners, taken]).tolist() == want.tolist()
        assert not (candidates & np.isinf(cost)).any()

    def test_negative_cycle_does_not_settle(self):
        # both rows would gain by swapping columns: not an optimum
        cost = -np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # nothing is pruned: every allowed (finite) cell is a candidate
        candidates = _cycle_losses(cost, np.array([0, 1]), np.array([1, 0]), _TIE_TOL)
        assert np.array_equal(candidates, np.isfinite(cost))

    def test_non_optimal_first_solve_normalises_every_row(self, monkeypatch):
        w = np.eye(3)
        solve = specalign.matching._solve_lap
        calls = []

        def swapped_first(cost):
            calls.append(cost.shape)
            return (np.arange(3), np.array([1, 0, 2])) if len(calls) == 1 else solve(cost)

        monkeypatch.setattr(specalign.matching, "_solve_lap", swapped_first)
        seen = normalised_blocks(monkeypatch)
        a = hungarian_max_weight(w)
        assert seen == [w.tolist()]
        assert pairs_of(a) == ((0, 0), (1, 1), (2, 2))


class TestCandidates:
    """The one pruning rule against enumeration of every near-optimal assignment."""

    @pytest.mark.parametrize("orientation", ["wide", "square", "tall"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_near_optima_use_only_candidates(self, orientation, data):
        # Every cell of every assignment within the tolerance is a candidate
        # or a solved cell, a solved cell that is no candidate is in all of
        # them, and every candidate lies on an assignment within the margin.
        w, allowed = data.draw(
            st.one_of(tied_instances(orientation), near_ties(orientation, 1.0), near_ties(orientation, 1e-3))
        )
        mask = np.ones(w.shape, dtype=bool) if allowed is None else allowed
        cost = np.where(mask, -w, np.inf)
        solved = linear_sum_assignment(cost)
        tol = _TIE_TOL * max(1.0, abs(float(w[solved].sum())))
        if orientation == "tall":  # the matcher's frame: no more rows than columns
            w, mask, cost, solved = w.T, mask.T, cost.T, solved[::-1]
        candidates = _cycle_losses(cost, *solved, tol)
        rows = np.arange(len(w))
        every = np.array(list(itertools.permutations(range(w.shape[1]), len(w))))
        every = every[mask[rows, every].all(axis=1)]
        loss = w[rows, every].sum(axis=1)
        loss = loss.max() - loss
        near = every[loss <= tol]
        is_solved = np.zeros(w.shape, dtype=bool)
        is_solved[solved] = True
        used = np.zeros(w.shape, dtype=bool)
        used[rows, near] = True
        assert not (used & ~candidates & ~is_solved).any()
        for i, j in zip(*np.nonzero(is_solved & ~candidates)):
            assert (near[:, i] == j).all()
        reached = np.zeros(w.shape, dtype=bool)
        reached[rows, every[loss <= tol * (1 + _LOSS_MARGIN)]] = True
        assert not (candidates & ~reached).any()


class TestHungarian:
    def test_diagonal_dominance(self):
        a = hungarian_max_weight(np.array([[3.0, 1.0], [1.0, 3.0]]))
        assert pairs_of(a) == ((0, 0), (1, 1))
        assert a.total_weight == 6.0

    def test_single_cell(self):
        a = hungarian_max_weight(np.array([[1.0]]))
        assert pairs_of(a) == ((0, 0),)
        assert a.total_weight == 1.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n1, n2 = rng.integers(1, 7, size=2)
            w = rng.standard_normal((n1, n2)) * 10
            a = hungarian_max_weight(w)
            assert len(a) == min(n1, n2)
            assert a.total_weight == pytest.approx(brute_force_best(w), abs=1e-9)

    def test_lexicographic_tie_break(self):
        # every assignment has the same total: expect ((0,0), (1,1))
        a = hungarian_max_weight(np.ones((2, 2)))
        assert pairs_of(a) == ((0, 0), (1, 1))
        # all-equal 3x4: lowest columns win in row order
        a = hungarian_max_weight(np.full((3, 4), 2.0))
        assert pairs_of(a) == ((0, 0), (1, 1), (2, 2))

    def test_tie_break_prefers_low_row_inclusion(self):
        # 3x2: one row stays unmatched; equal weights leave rows 0,1 matched
        a = hungarian_max_weight(np.ones((3, 2)))
        assert pairs_of(a) == ((0, 0), (1, 1))

    def test_mask_restricts_cells(self):
        w = np.array([[9.0, 1.0], [9.0, 9.0]])
        allowed = np.array([[False, True], [True, True]])
        a = hungarian_max_weight(w, allowed)
        assert pairs_of(a) == ((0, 1), (1, 0))

    def test_infeasible_mask_reports_deficient_set(self):
        w = np.ones((3, 3))
        allowed = np.array(
            [
                [True, False, False],
                [True, False, False],
                [False, True, True],
            ]
        )
        with pytest.raises(InfeasibleMatchingError) as err:
            hungarian_max_weight(w, allowed)
        assert err.value.deficient_rows == [0, 1]
        assert err.value.neighborhood == [0]

    def test_long_alternating_chain_fails_cleanly(self):
        # Row i allows columns i and i-1, rows reversed, column 0 removed: the
        # augmenting paths run along a chain of 1300 rows.
        n = 1300
        idx = np.arange(n)
        allowed = np.zeros((n, n), dtype=bool)
        allowed[idx, idx] = True
        allowed[idx[1:], idx[1:] - 1] = True
        allowed = allowed[::-1].copy()
        allowed[:, 0] = False
        with pytest.raises(InfeasibleMatchingError) as err:
            hungarian_max_weight(np.ones((n, n)), allowed)
        rows, cols = err.value.deficient_rows, err.value.neighborhood
        assert cols == np.nonzero(allowed[rows].any(axis=0))[0].tolist()
        assert len(cols) < len(rows)

    @given(st.data())
    def test_witness_size_is_the_deficiency(self, data):
        n1, n2 = data.draw(shapes(6))
        allowed = data.draw(arrays(np.bool_, (n1, n2), elements=st.sampled_from([False, False, True])))
        side = allowed.T if n1 > n2 else allowed
        deficiency = side.shape[0] - max_matching_size(side)
        assume(deficiency > 0)
        with pytest.raises(InfeasibleMatchingError) as err:
            hungarian_max_weight(np.ones((n1, n2)), allowed)
        rows, cols = err.value.deficient_rows, err.value.neighborhood
        assert cols == np.nonzero(side[rows].any(axis=0))[0].tolist()
        assert len(rows) - len(cols) == deficiency

    @given(st.data())
    def test_matches_lexicographic_oracle(self, data):
        # integer weights 0-3 tie often, so the pair order is what is tested
        shape = data.draw(shapes(5))
        w = data.draw(arrays(np.int64, shape, elements=st.integers(0, 3))).astype(float)
        allowed = data.draw(st.none() | arrays(np.bool_, shape, elements=st.sampled_from([False, True, True])))
        want = lexicographic_optimum(w, np.ones(shape, dtype=bool) if allowed is None else allowed)
        assume(want is not None)
        a = hungarian_max_weight(w, allowed)
        assert pairs_of(a) == want
        assert a.total_weight == sum(w[i, j] for i, j in want)

    def test_rejects_nonfinite_allowed_weights(self):
        w = np.array([[np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            hungarian_max_weight(w)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_optimality_property(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(1, 6, size=2)
        w = np.round(rng.standard_normal((n1, n2)) * 5, 2)
        a = hungarian_max_weight(w)
        assert a.total_weight == pytest.approx(brute_force_best(w), abs=1e-9)


def normalised_blocks(monkeypatch):
    """Record the weights of every normalisation the matcher runs: its rows by its free columns."""
    seen = []
    normalise = specalign.matching._normalise

    def spy(cost, candidates, held, optimum, tol):
        seen.append((-cost).tolist())
        return normalise(cost, candidates, held, optimum, tol)

    monkeypatch.setattr(specalign.matching, "_normalise", spy)
    return seen


def solve_counting_laps(w, allowed=None, filtered=True):
    """The matcher's assignment and its LAP solves, with the cycle-loss pruning on or off.

    Off, ``_cycle_losses`` marks every allowed cell, as when its potentials
    do not settle: nothing is pinned, and every allowed cell is tested.
    """
    calls = []
    lap = specalign.matching.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return lap(cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specalign.matching, "linear_sum_assignment", counting)
        if not filtered:
            mp.setattr(specalign.matching, "_cycle_losses", lambda cost, owners, taken, tol: np.isfinite(cost))
        return hungarian_max_weight(w, allowed), len(calls)


class TestReducedCostFilter:
    """Pruning by cycle losses, which are sums of reduced costs, never changes the assignment."""

    @pytest.mark.parametrize("orientation", ["wide", "square", "tall"])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_same_assignment_with_fewer_solves(self, orientation, data):
        w, allowed = data.draw(tied_instances(orientation))
        got, filtered_laps = solve_counting_laps(w, allowed)
        want, laps = solve_counting_laps(w, allowed, filtered=False)
        assert pairs_of(got) == pairs_of(want)
        assert got.total_weight == want.total_weight
        assert filtered_laps <= laps

    def test_tall_problem_prunes_the_unmatched_row(self):
        # Row 0 is left unmatched, so unpruned it tests every column; any
        # assignment through it loses 0.5, so the transposed mask gives it
        # no candidate. Rows 1 and 2 tie; row 3 is pinned.
        w = np.array([[0.5, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        got, filtered_laps = solve_counting_laps(w)
        want, laps = solve_counting_laps(w, filtered=False)
        assert pairs_of(got) == pairs_of(want) == ((1, 0), (2, 1), (3, 2))
        assert got.total_weight == want.total_weight == oracle_max_weight(w).total_weight
        assert (filtered_laps, laps) == (1, 4)


class TestTieBreakAgainstOracle:
    """The exchange-graph matcher against the verbatim O(n²)-LAP normalisation."""

    @pytest.mark.parametrize("orientation", ["wide", "square", "tall"])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_matches_oracle(self, orientation, data):
        w, allowed = data.draw(tied_instances(orientation))
        want = oracle_max_weight(w, allowed)
        got = hungarian_max_weight(w, allowed)
        assert pairs_of(got) == pairs_of(want)
        assert got.total_weight == want.total_weight

    @pytest.mark.parametrize(
        "w",
        [
            # the second-best assignment loses 1e-9, exactly the tolerance
            [[1.0, 1.0 - 1e-9], [0.0, 0.0]],
            # the same near-tie beside a row no exchange can move (tol = 6e-9)
            [[1.0, 1.0 - 6e-9, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]],
            # the solve takes the anti-diagonal, so row 0 tests the near-tie
            # below it, and takes it: the result weighs less than the optimum
            [[1.0 - 1e-9, 1.0], [0.0, 0.0]],
        ],
    )
    def test_loss_at_the_tolerance_is_flexible(self, monkeypatch, w):
        # the pairs whose cycle loses exactly the tolerance are normalised;
        # the row no exchange can move stays pinned
        w = np.array(w)
        seen = normalised_blocks(monkeypatch)
        got = hungarian_max_weight(w)
        assert seen == [w[:2, :2].tolist()]
        want = oracle_max_weight(w)
        assert (pairs_of(got), got.total_weight) == (pairs_of(want), want.total_weight)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3)])
    def test_equal_rows_are_all_flexible(self, monkeypatch, shape):
        w = np.tile(np.array([3.0, 1.0, 2.0, 0.5, 2.5])[: shape[1]], (shape[0], 1))
        seen = normalised_blocks(monkeypatch)
        got = hungarian_max_weight(w)
        assert seen == [w.tolist()]
        want = oracle_max_weight(w)
        assert (pairs_of(got), got.total_weight) == (pairs_of(want), want.total_weight)

    def test_ulp_near_tie_is_flexible(self, monkeypatch):
        # 0.1 + 0.2 beats 0.3 + 0.0 by one ulp, so the LAP takes the
        # anti-diagonal, but the diagonal is within the tolerance and first
        w = np.array([[0.3, 0.1], [0.2, 0.0]])
        seen = normalised_blocks(monkeypatch)
        got = hungarian_max_weight(w)
        assert seen == [w.tolist()]
        assert pairs_of(got) == ((0, 0), (1, 1))
        want = oracle_max_weight(w)
        assert (pairs_of(got), got.total_weight) == (pairs_of(want), want.total_weight)

    @pytest.mark.parametrize("seed, shape", [(0, (40, 40)), (0, (50, 55)), (1, (60, 45))])
    def test_sparse_chain_matches_oracle(self, seed, shape):
        # A planted chain of near-equal cells (i, i) and (i, i+1) over a
        # sparse mask: the exchange graph has long shortest paths, so the
        # reduced-cost potentials take 29-46 Bellman-Ford passes here.
        rng = np.random.default_rng(seed)
        small = min(shape)
        i = np.arange(small)
        allowed = rng.random(shape) < 0.04
        allowed[i, i] = True
        allowed[i[:-1], i[1:]] = True
        w = np.where(allowed, rng.integers(0, 6, shape) / 10, 0.0)
        w[i, i] = 1.0
        w[i[:-1], i[1:]] = 1.0 + rng.integers(-1, 2, small - 1) / 10
        want = oracle_max_weight(w, allowed)
        got = hungarian_max_weight(w, allowed)
        assert pairs_of(got) == pairs_of(want)
        assert got.total_weight == want.total_weight

    @pytest.mark.parametrize("orientation", ["wide", "square", "tall"])
    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    @given(data=st.data())
    def test_near_ties_within_tolerance_of_brute_force(self, orientation, scale, data):
        # Near-ties a few ulps either side of the tolerance: the result must be
        # near-optimal, and no clearly near-optimal assignment may precede it.
        w, allowed = data.draw(near_ties(orientation, scale))
        mask = np.ones(w.shape, dtype=bool) if allowed is None else allowed
        a = hungarian_max_weight(w, allowed)
        everything = full_assignments(w, mask)
        best = max(weight for weight, _ in everything)
        tol = _TIE_TOL * max(1.0, abs(best))
        col_of = dict(pairs_of(a))
        key = [col_of.get(i, np.inf) for i in range(w.shape[0])]
        assert len(a) == min(w.shape)
        assert a.total_weight >= best - 1.001 * tol
        assert not [k for weight, k in everything if weight >= best - 0.999 * tol and k < key]

    @pytest.mark.parametrize(
        "w, pairs",
        [
            (
                [[1.0, 2e-09, 0.999999999], [2.000000001, 0.999999999, 0.0], [1e-09, 1.0, 1.999999998]],
                ((0, 0), (1, 1), (2, 2)),
            ),
            (
                [[0.0002, 0.000600001, 0.0002], [0.0002999999, 0.0009999997, 0.0006999997], [0.0005, 0.0009, 0.0005999999]],
                ((0, 0), (1, 2), (2, 1)),
            ),
        ],
    )
    def test_completion_summed_twice_keeps_the_optimum(self, w, pairs):
        # A completion accepted at one row sums to one ulp below the threshold
        # when re-solved at the next; the held assignment is not re-solved.
        assert pairs_of(hungarian_max_weight(np.array(w))) == pairs

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (5, 3)])
    def test_all_equal_needs_one_lap(self, monkeypatch, shape):
        # every row is flexible, and every row's held column is its lowest free one
        calls = []
        lap = specalign.matching.linear_sum_assignment

        def counting(cost):
            calls.append(cost.shape)
            return lap(cost)

        monkeypatch.setattr(specalign.matching, "linear_sum_assignment", counting)
        a = hungarian_max_weight(np.ones(shape))
        assert pairs_of(a) == tuple((i, i) for i in range(min(shape)))
        assert calls == [shape]

    def test_unique_optimum_needs_one_lap(self, monkeypatch):
        rng = np.random.default_rng(0)
        w = rng.random((30, 30)) + 30.0 * np.eye(30)
        calls = []
        lap = specalign.matching.linear_sum_assignment

        def counting(cost):
            calls.append(cost.shape)
            return lap(cost)

        monkeypatch.setattr(specalign.matching, "linear_sum_assignment", counting)
        a = hungarian_max_weight(w)
        assert pairs_of(a) == tuple((i, i) for i in range(30))
        assert calls == [(30, 30)]


class TestGreedy:
    def test_hand_example(self):
        a = greedy_matching(np.array([[3.0, 2.0], [2.0, 0.0]]))
        assert pairs_of(a) == ((0, 0), (1, 1))
        assert a.total_weight == 3.0

    def test_diagonal_matrix_is_optimal(self):
        w = np.diag([5.0, 4.0, 3.0])
        assert greedy_matching(w).total_weight == hungarian_max_weight(w).total_weight

    def test_half_approximation_on_random_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n1, n2 = rng.integers(1, 9, size=2)
            w = rng.random((n1, n2)) * 10
            g = greedy_matching(w)
            h = hungarian_max_weight(w)
            assert g.total_weight >= 0.5 * h.total_weight - 1e-12

    def test_partial_under_restrictive_mask(self):
        w = np.ones((2, 2))
        allowed = np.array([[True, False], [True, False]])
        a = greedy_matching(w, allowed)
        assert pairs_of(a) == ((0, 0),)

    def test_deterministic_tie_break(self):
        a = greedy_matching(np.full((2, 3), 1.0))
        assert pairs_of(a) == ((0, 0), (1, 1))

    @given(st.data())
    @settings(max_examples=150)
    def test_matches_key_sort_reference(self, data):
        # integer 0-3, one-decimal and negative one-decimal weights tie
        # often; masks may leave whole rows and columns empty
        shape = data.draw(shapes(12))
        elements = data.draw(
            st.sampled_from(
                [
                    st.integers(0, 3).map(float),
                    st.integers(0, 10).map(lambda k: k / 10),
                    st.integers(-30, 30).map(lambda k: k / 10),
                ]
            )
        )
        w = data.draw(arrays(np.float64, shape, elements=elements, fill=st.nothing()))
        allowed = data.draw(st.none() | arrays(np.bool_, shape))
        if allowed is not None:
            allowed[data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=2))] = False
            allowed[:, data.draw(st.lists(st.integers(0, shape[1] - 1), max_size=2))] = False
        a = greedy_matching(w, allowed)
        pairs, total = reference_greedy(w, allowed)
        assert pairs_of(a) == pairs
        assert a.total_weight == total

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_stable_sort_oracle_on_ties(self, data):
        # five weight values make most rows tie, -0.0 with 0.0 too, and such
        # rows take the stable re-sort; some rows are wholly disallowed
        a, b = sorted(data.draw(st.tuples(st.integers(1, 9), st.integers(1, 12))))
        shape = data.draw(st.sampled_from([(a, b), (b, a), (a, a)]))
        elements = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
        w = data.draw(arrays(np.float64, shape, elements=elements, fill=st.nothing()))
        allowed = data.draw(st.none() | arrays(np.bool_, shape))
        if allowed is not None:
            allowed[data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=3))] = False
        got, want = greedy_matching(w, allowed), oracle_greedy(w, allowed)
        assert pairs_of(got) == pairs_of(want)
        assert got.total_weight == want.total_weight

    @given(
        seed=st.integers(0, 2**32),
        shape=st.sampled_from([(64, 64), (200, 150)]),
        mask=st.sampled_from([None, "few", 0.5, 0.9]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_stable_sort_oracle_untied(self, seed, shape, mask):
        # normal weights do not tie, so rows keep the SIMD sort's order. A
        # mask ties the +inf keys of disallowed cells: "few" in five rows,
        # a density in nearly every row. Those rows are not re-sorted, and
        # their disallowed cells, out of the stable sort's order, are never read.
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(shape)
        allowed = None
        if mask == "few":
            allowed = np.ones(shape, dtype=bool)
            allowed[rng.integers(0, shape[0], size=(5, 1)), rng.integers(0, shape[1], size=(5, 2))] = False
        elif mask is not None:
            allowed = rng.random(shape) < mask
        got, want = greedy_matching(w, allowed), oracle_greedy(w, allowed)
        assert pairs_of(got) == pairs_of(want)
        assert got.total_weight == want.total_weight

    def test_disallowed_ties_skip_the_stable_resort(self, monkeypatch):
        # untied weights under a mask: only the +inf keys tie, and only
        # row 0, given a real tie, is re-sorted
        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argsort(self, a, *args, **kwargs):
                if kwargs.get("kind") == "stable":
                    resorted.append(len(a))
                return np.argsort(a, *args, **kwargs)

        resorted = []
        monkeypatch.setattr(specalign.matching, "np", Spy())
        rng = np.random.default_rng(3)
        w = rng.standard_normal((40, 50))
        allowed = rng.random(w.shape) < 0.5
        w[0, :2] = 1.5
        allowed[0, :2] = True
        got = greedy_matching(w, allowed)
        assert resorted == [1]
        monkeypatch.undo()
        want = oracle_greedy(w, allowed)
        assert pairs_of(got) == pairs_of(want)
        assert got.total_weight == want.total_weight

    @pytest.mark.parametrize("shape, density", [((150, 150), None), ((200, 120), 0.1), ((120, 200), 0.1)])
    def test_matches_reference_at_size(self, shape, density):
        rng = np.random.default_rng(7)
        w = np.round(rng.standard_normal(shape), 1)
        allowed = None if density is None else rng.random(shape) < density
        a = greedy_matching(w, allowed)
        pairs, total = reference_greedy(w, allowed)
        assert pairs_of(a) == pairs
        assert a.total_weight == total


class TestAssignment:
    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="at most once"):
            Assignment([0, 0], [0, 1], total_weight=0.0)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="at most once"):
            Assignment([2, 0, 1], [1, 0, 1], total_weight=0.0)

    def test_pairs_sorted(self):
        a = Assignment([1, 0], [0, 1], total_weight=0.0)
        assert pairs_of(a) == ((0, 1), (1, 0))

    @pytest.mark.parametrize("rows, cols", [([0, 1], [0]), ([[0, 1]], [[0, 1]]), (0, 0)])
    def test_rejects_unequal_or_not_1d(self, rows, cols):
        with pytest.raises(ValueError, match="1-D of equal length"):
            Assignment(rows, cols, total_weight=0.0)

    @pytest.mark.parametrize("rows, cols", [([0, -1], [0, 1]), ([0, 1], [-3, 1])])
    def test_rejects_negative_ids(self, rows, cols):
        # numpy would wrap -1 to the last node
        with pytest.raises(ValueError, match="non-negative"):
            Assignment(rows, cols, total_weight=0.0)

    @pytest.mark.parametrize("big", [2**63, 12345678901234567890, 10**19 * 9, 99999999999999999999])
    def test_rejects_ids_past_int64(self, big):
        # a uint64 array below 2**64, an object array above: a ValueError either way, not an OverflowError
        for rows, cols in (([0, big], [0, 1]), ([0, 1], [big, 1]), (np.array([0, big], dtype=object), [0, 1])):
            with pytest.raises(ValueError, match="fit in int64"):
                Assignment(rows, cols, total_weight=0.0)

    def test_largest_int64_id_accepted(self):
        big = np.iinfo(np.int64).max
        a = Assignment(np.array([big, 0], dtype=object), [0, big], total_weight=0.0)
        assert pairs_of(a) == ((0, big), (big, 0))

    def test_read_only_int64_copies(self):
        rows, cols = np.array([2, 0], dtype=np.int32), np.array([0, 1], dtype=np.int32)
        a = Assignment(rows, cols, total_weight=1.5)
        assert a.rows.dtype == a.cols.dtype == np.int64
        assert not a.rows.flags.writeable and not a.cols.flags.writeable
        rows[0] = 7
        assert pairs_of(a) == ((0, 1), (2, 0)) and a.total_weight == 1.5
        with pytest.raises(ValueError):
            a.rows[0] = 5

    @pytest.mark.parametrize("empty", [[], (), np.empty(0, dtype=np.int64), np.empty(0, dtype=object)])
    def test_empty_mapping(self, empty):
        a = Assignment(empty, empty, total_weight=0.0)
        assert len(a) == 0 and pairs_of(a) == ()
        assert a.rows.dtype == a.cols.dtype == np.int64
