import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specalign.matching import (
    Assignment,
    InfeasibleMatchingError,
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


class TestHungarian:
    def test_diagonal_dominance(self):
        a = hungarian_max_weight(np.array([[3.0, 1.0], [1.0, 3.0]]))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.total_weight == 6.0

    def test_single_cell(self):
        a = hungarian_max_weight(np.array([[1.0]]))
        assert a.pairs == ((0, 0),)
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
        assert a.pairs == ((0, 0), (1, 1))
        # all-equal 3x4: lowest columns win in row order
        a = hungarian_max_weight(np.full((3, 4), 2.0))
        assert a.pairs == ((0, 0), (1, 1), (2, 2))

    def test_tie_break_prefers_low_row_inclusion(self):
        # 3x2: one row stays unmatched; equal weights leave rows 0,1 matched
        a = hungarian_max_weight(np.ones((3, 2)))
        assert a.pairs == ((0, 0), (1, 1))

    def test_mask_restricts_cells(self):
        w = np.array([[9.0, 1.0], [9.0, 9.0]])
        allowed = np.array([[False, True], [True, True]])
        a = hungarian_max_weight(w, allowed)
        assert a.pairs == ((0, 1), (1, 0))

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
        assert a.pairs == want
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


class TestGreedy:
    def test_hand_example(self):
        a = greedy_matching(np.array([[3.0, 2.0], [2.0, 0.0]]))
        assert a.pairs == ((0, 0), (1, 1))
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
        assert a.pairs == ((0, 0),)

    def test_deterministic_tie_break(self):
        a = greedy_matching(np.full((2, 3), 1.0))
        assert a.pairs == ((0, 0), (1, 1))

    @given(st.data())
    def test_matches_key_sort_reference(self, data):
        shape = data.draw(shapes(8))
        w = data.draw(arrays(np.int64, shape, elements=st.integers(0, 3))).astype(float)
        allowed = data.draw(st.none() | arrays(np.bool_, shape))
        a = greedy_matching(w, allowed)
        pairs, total = reference_greedy(w, allowed)
        assert a.pairs == pairs
        assert a.total_weight == total


class TestAssignment:
    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="at most once"):
            Assignment(pairs=((0, 0), (0, 1)), total_weight=0.0)

    def test_pairs_sorted(self):
        a = Assignment(pairs=((1, 0), (0, 1)), total_weight=0.0)
        assert a.pairs == ((0, 1), (1, 0))
