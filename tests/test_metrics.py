import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pairs_of
from specalign.graph import Graph, Permutation
from specalign.matching import Assignment
from specalign.metrics import (
    count_alignment,
    count_alignment_ordered,
    expected_alignment_matrix,
    generalized_objective,
    mean_field_ratio,
    node_accuracy,
)
from specalign.randgen import erdos_renyi, random_permutation
from specalign.score import ScoreScheme

def oracle_generalized_objective(g1: Graph, g2: Graph, mapping, gamma: float) -> float:
    """Test-only oracle: the objective as it was before the table lookup, kept verbatim."""
    if not 0 <= gamma < 0.5:
        raise ValueError(f"gamma must lie in [0, 1/2), got {gamma}")
    rows, cols = mapping.rows, mapping.cols
    m1 = g1.adjacency[np.ix_(rows, rows)].astype(np.float64) - gamma
    m2 = g2.adjacency[np.ix_(cols, cols)].astype(np.float64) - gamma
    return float((m1 * m2).sum())


def oracle_node_accuracy(pairs, truth: Permutation) -> float:
    """Test-only oracle: the accuracy as it was before the array lookup, one pair at a time."""
    if not pairs:
        return 0.0
    hits = sum(1 for i, j in pairs if i < truth.n and int(truth.mapping[i]) == j)
    return hits / len(pairs)


TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
IDENTITY3 = Assignment(np.arange(3), np.arange(3), 0.0)


def random_graph(n, p, seed, directed):
    """G(n, p), with each ordered pair drawn on its own when directed."""
    if not directed:
        return erdos_renyi(n, p, seed)
    adj = (np.random.default_rng(seed).random((n, n)) < p).astype(np.int8)
    np.fill_diagonal(adj, 0)
    return Graph(adj, directed=True)


class TestCountAlignment:
    def test_triangle_identity(self):
        assert count_alignment(TRIANGLE, TRIANGLE, IDENTITY3) == (3, 0, 0)

    def test_single_edge_vs_edgeless(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.empty(3)
        assert count_alignment(g1, g2, IDENTITY3) == (0, 1, 2)

    def test_edgeless_pair(self):
        g = Graph.empty(4)
        mapping = Assignment(np.arange(4), np.arange(4), 0.0)
        assert count_alignment(g, g, mapping) == (0, 0, 6)

    def test_partial_mapping(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.from_edges(3, [(1, 2)])
        assert count_alignment(g1, g2, Assignment([0, 1], [1, 2], 0.0)) == (1, 0, 0)

    def test_directed_counts_not_halved(self):
        g1 = Graph.from_edges(2, [(0, 1)], directed=True)
        g2 = Graph.from_edges(2, [(0, 1), (1, 0)], directed=True)
        mapping = Assignment([0, 1], [0, 1], 0.0)
        matches, mismatches, neutrals = count_alignment(g1, g2, mapping)
        assert (matches, mismatches, neutrals) == (1, 1, 0)

    @pytest.mark.parametrize(
        "measure",
        [
            lambda m: count_alignment(TRIANGLE, TRIANGLE, m),
            lambda m: generalized_objective(TRIANGLE, TRIANGLE, m, 0.0),
            lambda m: node_accuracy(m, Permutation.identity(3)),
        ],
        ids=["count", "objective", "accuracy"],
    )
    def test_negative_node_rejected(self, measure):
        # numpy would wrap -1 to the last node; a measure takes only an
        # Assignment, whose constructor rejects it
        with pytest.raises(ValueError, match="non-negative"):
            measure(Assignment([0, 1], [0, -1], 0.0))

    def test_not_one_to_one_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            count_alignment(TRIANGLE, TRIANGLE, Assignment([0, 1], [0, 0], 0.0))

    @given(st.integers(0, 5000))
    @settings(max_examples=30)
    def test_categories_sum_to_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(2, 7, size=2)
        g1 = erdos_renyi(int(n1), 0.5, seed)
        g2 = erdos_renyi(int(n2), 0.5, seed + 1)
        m = min(g1.n, g2.n)
        mapping = Assignment(np.arange(m), rng.permutation(g2.n)[:m], 0.0)
        matches, mismatches, neutrals = count_alignment(g1, g2, mapping)
        assert matches + mismatches + neutrals == m * (m - 1) // 2

    @given(seed=st.integers(0, 2**32), directed=st.booleans(), m=st.integers(0, 7))
    # m = 0 and m = 1 leave no off-diagonal pair; seed 0 gives n1 > n2, seed 5 n1 < n2
    @example(seed=0, directed=False, m=0)
    @example(seed=0, directed=True, m=1)
    @example(seed=5, directed=False, m=1)
    @example(seed=5, directed=True, m=0)
    def test_counts_match_loop_over_node_pairs(self, seed, directed, m):
        rng = np.random.default_rng(seed)
        (n1, n2), (p1, p2) = rng.integers(1, 8, size=2).tolist(), rng.random(2)
        m = min(m, n1, n2)
        g1 = random_graph(n1, p1, seed, directed)
        g2 = random_graph(n2, p2, seed + 1, directed)
        mapping = Assignment(rng.permutation(n1)[:m], rng.permutation(n2)[:m], 0.0)
        ordered = [0, 0, 0]  # matches, mismatches, neutrals
        unordered = [0, 0, 0]
        for a, (i, j) in enumerate(pairs_of(mapping)):
            for b, (r, t) in enumerate(pairs_of(mapping)):
                if a == b:
                    continue
                e1, e2 = g1.adjacency[i, r], g2.adjacency[j, t]
                kind = 0 if e1 and e2 else 1 if e1 or e2 else 2
                ordered[kind] += 1
                unordered[kind] += a < b
        assert count_alignment_ordered(g1, g2, mapping) == tuple(ordered)
        assert count_alignment(g1, g2, mapping) == tuple(ordered if directed else unordered)


class TestGeneralizedObjective:
    def test_identity_on_identical_graphs_gamma_zero(self):
        # objective at gamma=0 is twice the undirected edge count
        assert generalized_objective(TRIANGLE, TRIANGLE, IDENTITY3, 0.0) == 6.0

    def test_edgeless_second_graph_gamma_zero(self):
        g2 = Graph.empty(3)
        assert generalized_objective(TRIANGLE, g2, IDENTITY3, 0.0) == 0.0

    def test_triangle_hand_value_gamma_quarter(self):
        # 3 matched pairs at (1-g)^2 doubled for both orders, plus 3 diagonal g^2 terms
        want = 6 * 0.75**2 + 3 * 0.25**2
        assert generalized_objective(TRIANGLE, TRIANGLE, IDENTITY3, 0.25) == pytest.approx(want)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            generalized_objective(TRIANGLE, TRIANGLE, IDENTITY3, 0.5)

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            generalized_objective(TRIANGLE, TRIANGLE, Assignment([0, 1], [0, 3], 0.0), 0.0)

    def test_affine_relation_to_score_objective(self):
        # trace objective == score objective / D + pair and diagonal offsets,
        # D = s1 + s2 - 2*s3
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g1 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            g2 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            s = ScoreScheme(*sorted(rng.random(3) * 5 + 0.1, reverse=True))
            perm = random_permutation(n, int(rng.integers(2**31)))
            mapping = Assignment(np.arange(n), perm.mapping, 0.0)
            m_ord, mm_ord, n_ord = count_alignment_ordered(g1, g2, mapping)
            score_obj = s.s1 * m_ord + s.s2 * n_ord + s.s3 * mm_ord
            d = s.s1 + s.s2 - 2 * s.s3
            m = len(mapping)
            expected = score_obj / d + m * (m - 1) * (s.gamma**2 - s.s2 / d) + m * s.gamma**2
            got = generalized_objective(g1, g2, mapping, s.gamma)
            assert got == pytest.approx(expected, abs=1e-9)


    @given(seed=st.integers(0, 2**32), directed=st.booleans(), gamma=st.sampled_from([0.0, 0.2, 0.499]))
    def test_table_lookup_is_the_expression_bit_for_bit(self, seed, directed, gamma):
        # graphs of unequal sizes, mapped partially or fully, by random rows and columns
        rng = np.random.default_rng(seed)
        n1, n2 = rng.choice(np.arange(1, 60), size=2, replace=False).tolist()
        g1 = random_graph(n1, rng.random(), seed, directed)
        g2 = random_graph(n2, rng.random(), seed + 1, directed)
        m = int(rng.integers(0, min(n1, n2) + 1))
        mapping = Assignment(rng.permutation(n1)[:m], rng.permutation(n2)[:m], 0.0)
        want = oracle_generalized_objective(g1, g2, mapping, gamma)
        assert generalized_objective(g1, g2, mapping, gamma) == want


class TestNodeAccuracy:
    def test_exact(self):
        truth = Permutation.identity(4)
        assert node_accuracy(Assignment(np.arange(4), np.arange(4), 0.0), truth) == 1.0

    def test_disjoint(self):
        truth = Permutation.identity(4)
        mapping = Assignment([0, 1, 2, 3], [1, 2, 3, 0], 0.0)
        assert node_accuracy(mapping, truth) == 0.0

    def test_half(self):
        truth = Permutation.identity(4)
        mapping = Assignment([0, 1, 2, 3], [0, 1, 3, 2], 0.0)
        assert node_accuracy(mapping, truth) == 0.5

    @given(seed=st.integers(0, 2**32), m=st.integers(0, 12))
    @example(seed=0, m=0)
    def test_matches_per_pair_oracle(self, seed, m):
        # partial mappings whose rows may lie past the truth's size
        rng = np.random.default_rng(seed)
        n, n1, n2 = rng.integers(1, 13, size=3).tolist()
        m = min(m, n1, n2)
        truth = random_permutation(n, seed)
        mapping = Assignment(rng.permutation(n1)[:m], rng.permutation(n2)[:m], 0.0)
        got = node_accuracy(mapping, truth)
        assert type(got) is float
        assert got == oracle_node_accuracy(pairs_of(mapping), truth)


class TestExpectedAlignmentMatrix:
    def test_noiseless_values(self):
        m = expected_alignment_matrix(3.0, 0.0, 0.1, 0.0, 10, 2, "none")
        assert m.true_pair_value == pytest.approx(1.2)
        assert m.false_pair_value == pytest.approx(0.84)

    def test_model_one_reduces_at_zero_noise(self):
        base = expected_alignment_matrix(4.0, 0.01, 0.2, 0.0, 10, 2, "none")
        noisy = expected_alignment_matrix(4.0, 0.01, 0.2, 0.0, 10, 2, "I")
        assert noisy.true_pair_value == pytest.approx(base.true_pair_value)
        assert noisy.false_pair_value == pytest.approx(base.false_pair_value)

    def test_model_two_values(self):
        m = expected_alignment_matrix(3.0, 0.0, 0.1, 0.05, 10, 2, "II")
        assert m.true_pair_value == pytest.approx(1.18)
        assert m.false_pair_value == pytest.approx(0.84)

    def test_dense_structure(self):
        m = expected_alignment_matrix(3.0, 0.001, 0.1, 0.0, 4, 3, "none")
        dense = m.to_dense()
        assert dense.shape == (12, 12)
        assert dense[0, 1] == pytest.approx(m.true_pair_value)
        assert dense[0, 5] == pytest.approx(m.false_pair_value)
        assert dense[7, 7] == pytest.approx(1.001)
        assert np.array_equal(dense, dense.T)

    def test_true_exceeds_false_on_grid(self):
        # closed-form gap positivity over the analysis ranges
        for p in np.linspace(0.05, 0.45, 9):
            for alpha in (1.5, 2.0, 5.0, 10.0):
                for p_e in (0.0, 0.1, 0.3, 0.45):
                    for model in ("none", "I", "II"):
                        m = expected_alignment_matrix(alpha, 1e-3, p, p_e, 5, 2, model)
                        assert m.true_pair_value > m.false_pair_value

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            expected_alignment_matrix(3.0, 0.0, 0.6, 0.0, 5, 2, "none")
        with pytest.raises(ValueError):
            expected_alignment_matrix(3.0, 0.0, 0.1, 0.0, 5, 2, "III")


class TestMeanFieldRatio:
    def test_asymptotic_hand_value(self):
        model = mean_field_ratio(1.2, 0.84, 200, 2)
        assert model.ratio_asymptotic == pytest.approx(1.23699, abs=1e-5)

    def test_ratio_tends_to_one_as_gap_closes(self):
        for delta in (1e-3, 1e-5, 1e-7):
            model = mean_field_ratio(0.84 * (1 + 2 * delta), 0.84, 100, 2)
            assert model.ratio_asymptotic == pytest.approx(1.0, abs=1e-2)

    def test_exact_ratio_matches_dense_eigenvector(self):
        n, k, a, b = 200, 2, 1.2, 0.84
        dense = expected_alignment_matrix(3.0, 0.0, 0.1, 0.0, n, k, "none").to_dense()
        vals, vecs = np.linalg.eigh(dense)
        v = vecs[:, -1]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        numeric = v[:n].mean() / v[n:].mean()
        model = mean_field_ratio(a, b, n, k, eps=0.0)
        assert numeric == pytest.approx(model.ratio, abs=1e-8)
        assert abs(numeric / model.ratio_asymptotic - 1) < 0.02

    def test_lambda_dominates_blocks(self):
        model = mean_field_ratio(2.0, 1.0, 50, 3, eps=0.01)
        assert model.lambda_top > max(model.lambda_a, model.lambda_b)

    def test_requires_gap(self):
        with pytest.raises(ValueError):
            mean_field_ratio(1.0, 1.0, 50, 2)

    def test_grid_gap_noiseless(self):
        # noiseless true/false gap positive whenever 0 < p < 1/2 and alpha > 1
        for p in np.linspace(0.01, 0.49, 25):
            for alpha in (1.01, 2, 5, 20):
                m = expected_alignment_matrix(alpha, 1e-3, p, 0.0, 5, 2, "none")
                assert m.true_pair_value > m.false_pair_value


class TestEigenvectorDominanceGrid:
    def test_true_block_dominates_numerically(self):
        # mean-field statement at the matrix level, small grid
        for p in (0.1, 0.3):
            for alpha in (2.0, 10.0):
                for model in ("none", "I", "II"):
                    m = expected_alignment_matrix(alpha, 1e-3, p, 0.1, 40, 2, model)
                    dense = m.to_dense()
                    _, vecs = np.linalg.eigh(dense)
                    v = vecs[:, -1]
                    if v[np.argmax(np.abs(v))] < 0:
                        v = -v
                    assert v[: m.n].min() > v[m.n :].max()
