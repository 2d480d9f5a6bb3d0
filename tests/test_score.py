import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specalign.graph import Graph
from specalign.randgen import erdos_renyi
from specalign.score import (
    MappingSet,
    MemoryGuardError,
    ScoreScheme,
    alignment_entry,
    alignment_matvec,
    build_alignment_matrix,
    directed_alignment_entry,
    edge_codes,
    from_alpha,
)


# the ea schemes of the fig3 presets, whose linear-form entries sit a few ulps off
# the raw scores, and random non-integer schemes
SCHEMES = st.one_of(
    st.sampled_from([from_alpha((1 - g) / g, 0.001) for g in (0.1, 0.2, 0.3, 0.4, 0.499)]),
    st.builds(
        lambda s3, gap2, gap1: ScoreScheme(s3 + gap2 + gap1, s3 + gap2, s3),
        st.floats(0.001, 1),
        st.floats(0.001, 2),
        st.floats(0.001, 5),
    ),
)


def random_graph(n, p, seed, directed):
    """G(n, p), with each ordered pair drawn on its own when directed."""
    if not directed:
        return erdos_renyi(n, p, seed)
    adj = (np.random.default_rng(seed).random((n, n)) < p).astype(np.int8)
    np.fill_diagonal(adj, 0)
    return Graph(adj, directed=True)


class TestMappingSet:
    def test_out_of_range_pair_named(self):
        with pytest.raises(ValueError, match=r"^pair \(12, 3\) out of range for sizes \(12, 12\)$"):
            MappingSet(12, 12, rows=[0, 12, 13], cols=[0, 3, 3])

    def test_negative_id_out_of_range(self):
        with pytest.raises(ValueError, match=r"pair \(1, -1\) out of range"):
            MappingSet(3, 3, rows=[0, 1], cols=[0, -1])

    def test_repeated_pair_rejected(self):
        # the pair named is the first one seen before, as the set is read
        with pytest.raises(ValueError, match=r"^duplicate pair \(2, 1\) in mapping set$"):
            MappingSet(3, 3, rows=[2, 0, 2, 0], cols=[1, 0, 1, 0])

    @pytest.mark.parametrize("rows, cols", [([0, 1], [0]), ([0], [0, 1]), ([[0, 1]], [[0, 1]])])
    def test_unequal_or_not_flat_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="1-D of equal length"):
            MappingSet(3, 3, rows=rows, cols=cols)

    def test_arrays_are_read_only_int64_copies(self):
        rows, cols = [2, 0], np.array([1, 2], dtype=np.int32)
        r = MappingSet(3, 3, rows=rows, cols=cols)
        for arr in (r.rows, r.cols):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        cols[0] = 0
        assert r.cols.tolist() == [1, 2]

    def test_index_is_the_pair_position(self):
        r = MappingSet(4, 5, rows=[3, 0, 2], cols=[4, 1, 1])
        assert r.index == {(3, 4): 0, (0, 1): 1, (2, 1): 2}
        assert [r.index[(i, j)] for i, j in zip(r.rows.tolist(), r.cols.tolist())] == [0, 1, 2]

    def test_mask_marks_the_pairs(self):
        r = MappingSet(2, 3, rows=[1, 0], cols=[2, 0])
        assert r.mask().tolist() == [[True, False, False], [False, False, True]]

    @pytest.mark.parametrize("n1, n2", [(1, 1), (3, 4), (4, 3), (0, 2), (2, 0)])
    def test_full_is_the_row_major_product(self, n1, n2):
        full = MappingSet.full(n1, n2)
        assert list(zip(full.rows.tolist(), full.cols.tolist())) == list(itertools.product(range(n1), range(n2)))
        assert len(full) == n1 * n2

    def test_empty_set(self):
        r = MappingSet(3, 3, rows=[], cols=[])
        assert len(r) == 0 and not r.mask().any()


class TestScoreScheme:
    def test_from_alpha_values(self):
        s = from_alpha(3, 0.001)
        assert (s.s1, s.s2, s.s3) == (3.001, 1.001, 0.001)
        assert s.gamma == pytest.approx(0.25)

    def test_from_alpha_boundary(self):
        with pytest.raises(ValueError):
            from_alpha(1.0, 0.001)

    def test_gamma_of_near_integer_scheme(self):
        # (5, 1, 0) itself is invalid (mismatch score must be positive);
        # the tiny-mismatch variant sits at gamma ~ 1/6
        with pytest.raises(ValueError):
            ScoreScheme(5, 1, 0)
        s = ScoreScheme(5, 1, 1e-9)
        assert s.gamma == pytest.approx(1 / 6, rel=1e-6)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ScoreScheme(1, 2, 0.5)
        with pytest.raises(ValueError):
            ScoreScheme(3, 2, 2)

    def test_gamma_range_property(self):
        for s1, s2, s3 in [(4, 2, 1), (10, 1.5, 0.1), (2.0, 1.9, 1.8)]:
            g = ScoreScheme(s1, s2, s3).gamma
            assert 0 < g < 0.5


class TestAlignmentEntry:
    def test_case_table(self):
        s = ScoreScheme(4, 2, 1)
        assert alignment_entry(s, 1, 1) == 4
        assert alignment_entry(s, 1, 0) == 1
        assert alignment_entry(s, 0, 1) == 1
        assert alignment_entry(s, 0, 0) == 2

    def test_algebraic_form_matches_case_table_exhaustively(self):
        # the linear form and the case table agree on all binary inputs
        for s1, s2, s3 in [(4, 2, 1), (3.001, 1.001, 0.001), (7, 5, 2)]:
            s = ScoreScheme(s1, s2, s3)
            table = {(1, 1): s1, (1, 0): s3, (0, 1): s3, (0, 0): s2}
            for (e1, e2), want in table.items():
                assert alignment_entry(s, e1, e2) == pytest.approx(want)


class TestDirectedEntry:
    def test_all_zero_neutral(self):
        s = ScoreScheme(4, 2, 1)
        assert directed_alignment_entry(s, 0, 0, 0, 0) == 2

    def test_inconsistent_gets_average(self):
        s = ScoreScheme(4, 2, 1)
        # forward match, backward mismatch
        assert directed_alignment_entry(s, 1, 1, 1, 0) == 2.5
        assert directed_alignment_entry(s, 1, 0, 1, 1) == 2.5

    def test_match_dominates(self):
        s = ScoreScheme(4, 2, 1)
        assert directed_alignment_entry(s, 1, 0, 1, 0) == 4

    def test_mismatch_without_match(self):
        s = ScoreScheme(4, 2, 1)
        assert directed_alignment_entry(s, 1, 0, 0, 0) == 1

    def test_inconsistency_probability(self):
        # P(inconsistent) for iid Bernoulli(p) indicators is 4 p^3 (1-p)
        p = 0.1
        rng = np.random.default_rng(0)
        n = 10**6
        e = (rng.random((n, 4)) < p).astype(int)
        fwd_match = (e[:, 0] == 1) & (e[:, 2] == 1)
        bwd_match = (e[:, 1] == 1) & (e[:, 3] == 1)
        fwd_mism = (e[:, 0] + e[:, 2]) == 1
        bwd_mism = (e[:, 1] + e[:, 3]) == 1
        inconsistent = (fwd_match & bwd_mism) | (bwd_match & fwd_mism)
        expected = 4 * p**3 * (1 - p)
        sd = np.sqrt(expected * (1 - expected) / n)
        assert abs(inconsistent.mean() - expected) <= 4 * sd


class TestEdgeCodes:
    @given(seed=st.integers(0, 2**32), directed=st.booleans())
    def test_is_the_two_gathered_blocks(self, seed, directed):
        # a random subset of the full set, so rows and columns repeat, in random order
        rng = np.random.default_rng(seed)
        (n1, n2), (p1, p2) = rng.integers(1, 9, size=2).tolist(), rng.random(2)
        g1 = random_graph(n1, p1, seed, directed)
        g2 = random_graph(n2, p2, seed + 1, directed)
        full = MappingSet.full(n1, n2)
        keep = rng.permutation(len(full))[: rng.integers(len(full) + 1)]
        rows, cols = full.rows[keep], full.cols[keep]
        code = edge_codes(g1, g2, rows, cols)
        assert code.dtype == np.int8
        assert np.array_equal(code, 2 * g1.adjacency[np.ix_(rows, rows)] + g2.adjacency[np.ix_(cols, cols)])


class TestBuildAlignmentMatrix:
    def test_hand_computed_single_edge_pair(self):
        g = Graph.from_edges(2, [(0, 1)])
        a = build_alignment_matrix(g, g, ScoreScheme(4, 2, 1), MappingSet.full(2, 2))
        want = np.array(
            [
                [2, 1, 1, 4],
                [1, 2, 4, 1],
                [1, 4, 2, 1],
                [4, 1, 1, 2],
            ],
            dtype=float,
        )
        assert np.array_equal(a, want)

    def test_edgeless_all_neutral_off_diagonal(self):
        g = Graph.empty(3)
        a = build_alignment_matrix(g, g, ScoreScheme(4, 2, 1), MappingSet.full(3, 3))
        assert (a == 2).all()

    def test_alpha_scheme_value_set(self):
        alpha, eps = 3, 0.25
        s = from_alpha(alpha, eps)
        g1 = erdos_renyi(4, 0.5, 0)
        g2 = erdos_renyi(4, 0.5, 1)
        a = build_alignment_matrix(g1, g2, s, MappingSet.full(4, 4))
        assert set(np.round(np.unique(a), 9)) <= {alpha + eps, 1 + eps, eps}

    def test_symmetric_and_positive(self):
        g1 = erdos_renyi(5, 0.4, 2)
        g2 = erdos_renyi(5, 0.4, 3)
        a = build_alignment_matrix(g1, g2, ScoreScheme(4, 2, 1), MappingSet.full(5, 5))
        assert np.array_equal(a, a.T)
        assert a.min() > 0

    def test_memory_guard(self):
        # 71^2 pairs square to just over the default cap; the guard raises before allocating
        g = Graph.empty(71)
        with pytest.raises(MemoryGuardError, match="implicit"):
            build_alignment_matrix(g, g, ScoreScheme(4, 2, 1), MappingSet.full(71, 71))

    def test_restricted_submatrix_consistency(self):
        g1 = erdos_renyi(4, 0.5, 5)
        g2 = erdos_renyi(4, 0.5, 6)
        s = ScoreScheme(4, 2, 1)
        full = MappingSet.full(4, 4)
        a_full = build_alignment_matrix(g1, g2, s, full)
        sub = MappingSet(4, 4, rows=[0, 1, 2, 3], cols=[1, 3, 0, 2])
        a_sub = build_alignment_matrix(g1, g2, s, sub)
        idx = [full.index[p] for p in zip(sub.rows.tolist(), sub.cols.tolist())]
        assert np.array_equal(a_sub, a_full[np.ix_(idx, idx)])

    @given(seed=st.integers(0, 2**32), directed=st.booleans(), restrict=st.booleans(), s=SCHEMES)
    def test_every_entry_is_the_scalar_rule_bit_for_bit(self, seed, directed, restrict, s):
        # sizes, densities and the subset come from the seed, so each example is a fresh instance
        rng = np.random.default_rng(seed)
        (n1, n2), (p1, p2) = rng.integers(1, 7, size=2).tolist(), rng.random(2)
        g1 = random_graph(n1, p1, seed, directed)
        g2 = random_graph(n2, p2, seed + 1, directed)
        full = MappingSet.full(n1, n2)
        keep = np.arange(len(full))
        if restrict:
            keep = rng.permutation(len(full))[: rng.integers(len(full) + 1)]
        a = build_alignment_matrix(g1, g2, s, MappingSet(n1, n2, full.rows[keep], full.cols[keep]))
        pairs = list(zip(full.rows[keep].tolist(), full.cols[keep].tolist()))
        adj1, adj2 = g1.adjacency.tolist(), g2.adjacency.tolist()
        for (p, (i, jp)), (q, (r, sp)) in itertools.product(enumerate(pairs), repeat=2):
            if directed:
                want = directed_alignment_entry(s, adj1[i][r], adj1[r][i], adj2[jp][sp], adj2[sp][jp])
            else:
                want = alignment_entry(s, adj1[i][r], adj2[jp][sp])
            assert a[p, q] == want


def full_colmajor_order(n1, n2, mapping_set):
    return [mapping_set.index[(i, j)] for j in range(n2) for i in range(n1)]


class TestAlignmentMatvec:
    def test_zero_vector(self):
        g = erdos_renyi(3, 0.5, 0)
        out = alignment_matvec(g, g, ScoreScheme(4, 2, 1), np.zeros(9))
        assert np.array_equal(out, np.zeros(9))

    def test_matches_dense_product(self):
        rng = np.random.default_rng(7)
        s = ScoreScheme(4, 2, 1)
        for _ in range(20):
            n1, n2 = rng.integers(2, 7, size=2)
            g1 = erdos_renyi(int(n1), 0.5, int(rng.integers(2**31)))
            g2 = erdos_renyi(int(n2), 0.5, int(rng.integers(2**31)))
            full = MappingSet.full(g1.n, g2.n)
            a = build_alignment_matrix(g1, g2, s, full)
            order = full_colmajor_order(g1.n, g2.n, full)
            a_cm = a[np.ix_(order, order)]
            y = rng.standard_normal(g1.n * g2.n)
            assert np.abs(a_cm @ y - alignment_matvec(g1, g2, s, y)).max() < 1e-10

    def test_indicator_recovers_column(self):
        s = ScoreScheme(4, 2, 1)
        g1 = erdos_renyi(3, 0.6, 1)
        g2 = erdos_renyi(4, 0.6, 2)
        full = MappingSet.full(3, 4)
        a = build_alignment_matrix(g1, g2, s, full)
        order = full_colmajor_order(3, 4, full)
        a_cm = a[np.ix_(order, order)]
        for t in range(12):
            y = np.zeros(12)
            y[t] = 1.0
            assert np.allclose(alignment_matvec(g1, g2, s, y), a_cm[:, t], atol=1e-12)

    @given(seed=st.integers(0, 2**32), directed=st.booleans(), s=SCHEMES)
    def test_rectangular_matches_dense_product(self, seed, directed, s):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.choice(np.arange(1, 8), size=2, replace=False).tolist()
        g1 = random_graph(n1, rng.random(), seed, directed)
        g2 = random_graph(n2, rng.random(), seed + 1, directed)
        full = MappingSet.full(n1, n2)
        order = full_colmajor_order(n1, n2, full)
        a_cm = build_alignment_matrix(g1, g2, s, full)[np.ix_(order, order)]
        y = rng.standard_normal(n1 * n2)
        assert np.abs(a_cm @ y - alignment_matvec(g1, g2, s, y)).max() < 1e-10

    @given(seed=st.integers(0, 2**32), s=SCHEMES | st.just(ScoreScheme(4, 2, 1)))
    def test_in_place_tail_is_the_expression_bit_for_bit(self, seed, s):
        # oracle: the three-term expression the in-place updates replaced
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(1, 30, size=2).tolist()
        g1 = random_graph(n1, rng.random(), seed, directed=False)
        g2 = random_graph(n2, rng.random(), seed + 1, directed=False)
        y = rng.standard_normal(n1 * n2)
        Y = y.reshape((n1, n2), order="F")
        a1_y = g1.as_float() @ Y
        coupled = a1_y @ g2.as_float().T
        g1_side = a1_y.sum(axis=1, keepdims=True)
        g2_side = Y.sum(axis=0, keepdims=True) @ g2.as_float().T
        want = (
            (s.s1 + s.s2 - 2 * s.s3) * coupled
            + (s.s3 - s.s2) * (g1_side + g2_side)
            + s.s2 * Y.sum()
        ).reshape(n1 * n2, order="F")
        assert np.array_equal(alignment_matvec(g1, g2, s, y), want)

    def test_dimension_mismatch(self):
        g = erdos_renyi(3, 0.5, 0)
        with pytest.raises(ValueError, match="length"):
            alignment_matvec(g, g, ScoreScheme(4, 2, 1), np.zeros(8))


class TestDirectedMatrix:
    def test_directed_entries_match_scalar_rule(self):
        s = ScoreScheme(4, 2, 1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            adj1 = (rng.random((4, 4)) < 0.4).astype(np.int8)
            adj2 = (rng.random((4, 4)) < 0.4).astype(np.int8)
            np.fill_diagonal(adj1, 0)
            np.fill_diagonal(adj2, 0)
            g1 = Graph(adj1, directed=True)
            g2 = Graph(adj2, directed=True)
            full = MappingSet.full(4, 4)
            a = build_alignment_matrix(g1, g2, s, full)
            for (i, jp), (r, sp) in itertools.product(zip(full.rows.tolist(), full.cols.tolist()), repeat=2):
                want = directed_alignment_entry(
                    s, adj1[i, r], adj1[r, i], adj2[jp, sp], adj2[sp, jp]
                )
                assert a[full.index[(i, jp)], full.index[(r, sp)]] == pytest.approx(want)
