import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specalign.align as align_module
from specalign.align import (
    MATCHING_MODES,
    brute_force_qap,
    eigen_align,
    expected_objective_gap,
    low_rank_align,
    orthogonal_relaxation,
    rounding_gap_bound,
)
from conftest import pairs_of
from specalign.graph import Graph, apply_permutation, pad_to
from specalign.matching import Assignment, greedy_matching, hungarian_max_weight
from specalign.metrics import count_alignment, count_alignment_ordered, expected_alignment_matrix, generalized_objective
from specalign.randgen import erdos_renyi, noise_model_II, random_permutation, sample_mapping_set
from specalign.score import MappingSet, ScoreScheme, alignment_matvec, from_alpha
from specalign.spectral import psd_shift, top_k_eigs

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
FIG3_GAMMAS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.499]


def permutation_matrices(n):
    for perm in itertools.permutations(range(n)):
        x = np.zeros((n, n))
        x[np.arange(n), perm] = 1.0
        yield np.asarray(perm), x


class TestBruteForce:
    def test_identical_graphs_gamma_zero(self):
        res = brute_force_qap(PATH3, PATH3, 0.0)
        assert res.objective == 2 * PATH3.edge_count
        assert res.matches == PATH3.edge_count

    def test_n1(self):
        res = brute_force_qap(Graph.empty(1), Graph.empty(1), 0.0)
        assert pairs_of(res.mapping) == ((0, 0),)

    def test_edgeless_ties_resolve_to_identity(self):
        g = Graph.empty(4)
        res = brute_force_qap(g, g, 0.3)
        assert pairs_of(res.mapping) == tuple((i, i) for i in range(4))

    def test_guard(self):
        g = Graph.empty(11)
        with pytest.raises(ValueError, match="brute force"):
            brute_force_qap(g, g, 0.0)

    def test_maximizes_over_all_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g1 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            g2 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            gamma = float(rng.random() * 0.49)
            res = brute_force_qap(g1, g2, gamma)
            m1 = g1.as_float() - gamma
            m2 = g2.as_float() - gamma
            best = max(np.trace(m1 @ x @ m2 @ x.T) for _, x in permutation_matrices(n))
            assert res.objective == pytest.approx(best, abs=1e-9)


class TestEigenAlign:
    def test_path_full_mapping_set(self):
        res = eigen_align(PATH3, PATH3, ScoreScheme(4, 2, 1))
        assert res.matches == 2
        assert res.mismatches == 0

    def test_edgeless_graphs(self):
        g = Graph.empty(3)
        res = eigen_align(g, g, ScoreScheme(4, 2, 1))
        assert len(res.mapping) == 3
        assert (res.matches, res.mismatches) == (0, 0)

    def test_counts_recomputable(self):
        g1 = erdos_renyi(8, 0.4, 0)
        g2 = erdos_renyi(8, 0.4, 1)
        res = eigen_align(g1, g2, from_alpha(3, 0.001), seed=5)
        assert count_alignment(g1, g2, res.mapping) == (res.matches, res.mismatches, res.neutrals)

    def test_restricted_mapping_set_respected(self):
        truth = random_permutation(12, 3)
        g1 = erdos_renyi(12, 0.3, 7)
        g2 = apply_permutation(g1, truth)
        r = sample_mapping_set(12, truth, 2, 11)
        res = eigen_align(g1, g2, from_alpha(10, 0.001), r, seed=1)
        allowed = r.mask()
        assert all(allowed[i, j] for i, j in pairs_of(res.mapping))

    def test_rectangular_sizes(self):
        g1 = erdos_renyi(4, 0.5, 2)
        g2 = erdos_renyi(6, 0.5, 3)
        res = eigen_align(g1, g2, ScoreScheme(4, 2, 1))
        assert len(res.mapping) == 4

    def test_greedy_option(self):
        g1 = erdos_renyi(6, 0.4, 4)
        g2 = erdos_renyi(6, 0.4, 5)
        res = eigen_align(g1, g2, ScoreScheme(4, 2, 1), matching="greedy")
        assert len(res.mapping) == 6

    def test_directed_pair(self):
        g1 = Graph.from_edges(4, [(0, 1), (1, 2), (3, 2)], directed=True)
        g2 = Graph.from_edges(4, [(0, 1), (1, 2), (3, 2)], directed=True)
        res = eigen_align(g1, g2, ScoreScheme(4, 2, 1))
        assert res.matches == 3 and pairs_of(res.mapping) == tuple((i, i) for i in range(4))

    def test_directed_pair_past_the_dense_cap(self):
        # 6,400^2 entries exceed the dense cap; the matrix-free operator serves directed pairs too
        adj = (np.random.default_rng(0).random((80, 80)) < 0.1).astype(np.int8)
        np.fill_diagonal(adj, 0)
        g = Graph(adj, directed=True)
        perm = random_permutation(80, 1)
        res = eigen_align(g, apply_permutation(g, perm), from_alpha(4, 0.001))
        assert res.mapping.cols.tolist() == perm.mapping[res.mapping.rows].tolist()
        assert len(res.mapping) == 80 and res.mismatches == 0

    @pytest.mark.parametrize("solve", ["dense", "matrix-free", "operator", "count"])
    def test_mixed_direction_rejected(self, solve):
        g1 = Graph.from_edges(3, [(0, 1)], directed=True)
        g2 = Graph.from_edges(3, [(0, 1)])
        calls = {
            "dense": lambda: eigen_align(g1, g2, ScoreScheme(4, 2, 1), MappingSet.full(3, 3)),
            "matrix-free": lambda: eigen_align(g1, g2, ScoreScheme(4, 2, 1)),
            "operator": lambda: alignment_matvec(g1, g2, ScoreScheme(4, 2, 1), np.ones(9)),
            "count": lambda: count_alignment(g1, g2, Assignment(np.arange(3), np.arange(3), 0.0)),
        }
        with pytest.raises(ValueError, match="^graphs must be both directed or both undirected$"):
            calls[solve]()

    def test_infeasible_restriction_raises(self):
        from specalign.matching import InfeasibleMatchingError

        g = erdos_renyi(4, 0.5, 0)
        # three rows forced into a single column
        r = MappingSet(4, 4, rows=[0, 1, 2, 3, 3], cols=[0, 0, 0, 1, 2])
        with pytest.raises(InfeasibleMatchingError):
            eigen_align(g, g, ScoreScheme(4, 2, 1), r)

    def test_mapping_set_of_other_sizes_rejected(self):
        g = erdos_renyi(4, 0.5, 0)
        with pytest.raises(ValueError, match=r"mapping set sizes \(4, 5\) do not match graphs \(4, 4\)"):
            eigen_align(g, g, ScoreScheme(4, 2, 1), MappingSet.full(4, 5))

    def test_memory_guard_propagates(self):
        from specalign.score import DEFAULT_DENSE_ENTRY_CAP, MemoryGuardError

        # the guard raises before the dense matrix is allocated
        g = erdos_renyi(71, 0.5, 0)
        r = MappingSet.full(71, 71)
        assert len(r) ** 2 == 25_411_681 > DEFAULT_DENSE_ENTRY_CAP
        with pytest.raises(MemoryGuardError):
            eigen_align(g, g, ScoreScheme(4, 2, 1), r)

    def test_objective_floor_against_brute_force(self):
        # empirical regression floor on a fixed harness: isomorphic dense
        # pairs, n in {5, 6}; at least 90 of 100 trials reach half the optimum
        rng = np.random.default_rng(1)
        scheme = from_alpha(10, 0.001)
        ok = 0
        for t in range(100):
            n = int(rng.integers(5, 7))
            g1 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            perm = random_permutation(n, int(rng.integers(2**31)))
            g2 = apply_permutation(g1, perm)
            ea = eigen_align(g1, g2, scheme, seed=t)
            bf = brute_force_qap(g1, g2, scheme.gamma)
            if ea.objective >= 0.5 * bf.objective - 1e-12:
                ok += 1
        assert ok >= 90


class TestNeverAboveOptimum:
    # power iteration on a tiny pair can take a second, past the default deadline
    @settings(deadline=None)
    @given(
        n=st.integers(1, 6),
        densities=st.tuples(st.floats(0, 1), st.floats(0, 1)),
        seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
        gamma=st.integers(0, 499).map(lambda k: k / 1000),
        matching=st.sampled_from(["exact", "greedy"]),
    )
    def test_spectral_objective_at_most_brute_force(self, n, densities, seeds, gamma, matching):
        g1, g2 = (erdos_renyi(n, p, seed) for p, seed in zip(densities, seeds))
        lra = low_rank_align(g1, g2, gamma, rank_k=min(3, n), matching=matching)
        assert lra.objective <= brute_force_qap(g1, g2, gamma).objective + 1e-9
        if gamma > 0:
            scheme = from_alpha((1 - gamma) / gamma, 0.001)
            ea = eigen_align(g1, g2, scheme, matching=matching)
            assert ea.objective <= brute_force_qap(g1, g2, scheme.gamma).objective + 1e-9


class TestMatchingModes:
    SOLVERS = {
        "ea": lambda g, matching: eigen_align(g, g, ScoreScheme(4, 2, 1), matching=matching),
        "lra": lambda g, matching: low_rank_align(g, g, 0.2, matching=matching),
    }

    @pytest.mark.parametrize("mode", MATCHING_MODES)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_each_mode_runs_and_an_unknown_one_is_refused_naming_it(self, solver, mode):
        solve = self.SOLVERS[solver]
        assert solve(C4, mode).matches == 4
        with pytest.raises(ValueError, match="'fast'") as refused:
            solve(C4, "fast")
        assert repr(mode) in str(refused.value)


class TestOrthogonalRelaxation:
    def test_same_matrix_value_is_eigenvalue_square_sum(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        m = (m + m.T) / 2
        m, _ = psd_shift(m)
        sol = orthogonal_relaxation(m, m)
        value = np.trace(m @ sol.x0 @ m @ sol.x0.T)
        lams = np.linalg.eigvalsh(m)
        assert value == pytest.approx((lams**2).sum(), rel=1e-9)

    def test_shared_eigenbasis_diagonals(self):
        sol = orthogonal_relaxation(np.diag([2.0, 1.0]), np.diag([3.0, 1.0]))
        assert np.allclose(sol.x0, np.eye(2), atol=1e-12)

    def test_orthogonality(self):
        rng = np.random.default_rng(4)
        m1 = rng.standard_normal((6, 6))
        m2 = rng.standard_normal((6, 6))
        sol = orthogonal_relaxation((m1 + m1.T) / 2, (m2 + m2.T) / 2)
        assert np.abs(sol.x0 @ sol.x0.T - np.eye(6)).max() <= 1e-6

    def test_value_bounds_permutations(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 5
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            m1, _ = psd_shift((a + a.T) / 2)
            m2, _ = psd_shift((b + b.T) / 2)
            sol = orthogonal_relaxation(m1, m2)
            bound = float(
                (sol.spectra[0].eigenvalues * sol.spectra[1].eigenvalues).sum()
            )
            best_perm = max(
                np.trace(m1 @ x @ m2 @ x.T) for _, x in permutation_matrices(n)
            )
            assert bound >= best_perm - 1e-9

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_relaxation(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestLowRankAlign:
    def test_four_cycle_recovery(self):
        res = low_rank_align(C4, C4, 0.0, rank_k=3)
        assert res.matches == 4
        assert res.mismatches == 0
        # brute force confirms 4 matches is the optimum
        assert brute_force_qap(C4, C4, 0.0).matches == 4

    def test_unequal_sizes_pads_and_trims(self):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = low_rank_align(g1, g2, 0.1, rank_k=2)
        assert len(res.mapping) == 3
        assert all(i < 3 and j < 5 for i, j in pairs_of(res.mapping))

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            low_rank_align(C4, C4, 0.0, rank_k=5)

    def test_greedy_mode_runs(self):
        res = low_rank_align(C4, C4, 0.2, rank_k=2, matching="greedy")
        assert len(res.mapping) == 4

    def test_beats_single_greedy_rounding_baseline(self):
        # paired harness: full-rank LRA with sign search vs one greedy
        # rounding of the unsigned scaled affinity
        rng = np.random.default_rng(1)
        gamma = 0.0
        for _ in range(60):
            n = int(rng.integers(3, 6))
            g1 = erdos_renyi(n, 0.4, int(rng.integers(2**31)))
            g2 = erdos_renyi(n, 0.4, int(rng.integers(2**31)))
            lra = low_rank_align(g1, g2, gamma, rank_k=n)
            m1, _ = psd_shift(g1.as_float() - gamma)
            m2, _ = psd_shift(g2.as_float() - gamma)
            d1, d2 = top_k_eigs(m1, n), top_k_eigs(m2, n)
            w = (d1.eigenvectors * (d1.eigenvalues * d2.eigenvalues)) @ d2.eigenvectors.T
            base = generalized_objective(g1, g2, greedy_matching(w), gamma)
            assert lra.objective >= base - 1e-12


def padded_exact_lra(g1, g2, gamma, rank_k):
    """Exact ``low_rank_align`` that matches every sign candidate on the full
    padded affinity. Returns the kept pairs, their weight and the objective."""
    n = max(g1.n, g2.n)
    p1, p2 = pad_to(g1, n), pad_to(g2, n)
    m1, _ = psd_shift(p1.as_float() - gamma)
    m2, _ = psd_shift(p2.as_float() - gamma)
    dec1, dec2 = top_k_eigs(m1, rank_k), top_k_eigs(m2, rank_k)
    scale = dec1.eigenvalues * dec2.eigenvalues
    best = None
    for signs in itertools.product((1.0, -1.0), repeat=rank_k):
        affinity = (dec1.eigenvectors * (np.asarray(signs) * scale)) @ dec2.eigenvectors.T
        candidate = hungarian_max_weight(affinity)
        value = generalized_objective(p1, p2, candidate, gamma)
        if best is None or value > best[0]:
            best = (value, candidate, affinity)
    _, winner, affinity = best
    kept = tuple((i, j) for i, j in pairs_of(winner) if i < g1.n and j < g2.n)
    total = float(sum(affinity[i, j] for i, j in kept))
    mapping = Assignment(*np.array(kept, dtype=np.int64).reshape(-1, 2).T, total_weight=total)
    return kept, total, generalized_objective(g1, g2, mapping, gamma)


class TestReducedExactRounding:
    def test_matches_padded_rounding(self, monkeypatch):
        # wide inputs: G1 padded, tall: G2 padded, square: the guard fell back
        shapes = Counter()

        def counted(w, allowed=None):
            shapes["wide" if w.shape[0] < w.shape[1] else "tall" if w.shape[0] > w.shape[1] else "square"] += 1
            return hungarian_max_weight(w, allowed)

        monkeypatch.setattr(align_module, "hungarian_max_weight", counted)

        @settings(max_examples=300, deadline=None)
        @given(
            sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda s: s[0] != s[1]),
            densities=st.tuples(st.floats(0, 0.6), st.floats(0, 0.6)),
            seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
            gamma=st.sampled_from(FIG3_GAMMAS),
            rank=st.integers(1, 3),
        )
        def check(sizes, densities, seeds, gamma, rank):
            g1, g2 = (erdos_renyi(n, p, seed) for n, p, seed in zip(sizes, densities, seeds))
            rank = min(rank, max(sizes))
            reduced = shapes["wide"] + shapes["tall"]
            result = low_rank_align(g1, g2, gamma, rank_k=rank)
            # a real isolated node ties with the padded ones but must still be matched
            if shapes["wide"] + shapes["tall"] > reduced and (min(g1, g2, key=lambda g: g.n).degrees() == 0).any():
                shapes["reduced with isolated nodes"] += 1
            pairs, total, objective = padded_exact_lra(g1, g2, gamma, rank)
            assert pairs_of(result.mapping) == pairs
            assert result.mapping.total_weight == total
            assert result.objective == objective

        check()
        assert shapes["wide"] and shapes["tall"] and shapes["square"] and shapes["reduced with isolated nodes"]


class TestRoundingGapBound:
    def test_zero_eps(self):
        assert rounding_gap_bound(np.eye(3), np.eye(3), 0.0) == 0.0

    def test_identity_value(self):
        assert rounding_gap_bound(np.eye(3), np.eye(3), 0.5) == pytest.approx(0.75)

    def test_bound_holds_on_enumerable_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = 4
            g1 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            g2 = erdos_renyi(n, 0.5, int(rng.integers(2**31)))
            gamma = 0.2
            m1, _ = psd_shift(g1.as_float() - gamma)
            m2, _ = psd_shift(g2.as_float() - gamma)
            check_linearization_bound(m1, m2)


def check_linearization_bound(m1, m2):
    """Enumerate everything and assert the rounding-gap inequality."""
    n = m1.shape[0]
    # exact optimum over permutations
    best_val, best_x = -np.inf, None
    for _, x in permutation_matrices(n):
        val = np.trace(m1 @ x @ m2 @ x.T)
        if val > best_val:
            best_val, best_x = val, x
    sol = orthogonal_relaxation(m1, m2)
    v, u = sol.spectra[0].eigenvectors, sol.spectra[1].eigenvectors
    lam1, lam2 = sol.spectra[0].eigenvalues, sol.spectra[1].eigenvalues
    relaxed_value = float((lam1 * lam2).sum())

    eps = np.inf
    best_lin = -np.inf
    for signs in itertools.product((1.0, -1.0), repeat=n):
        x0 = (v * np.asarray(signs)) @ u.T
        eps = min(eps, np.linalg.norm(best_x - x0, 2))
        w = m1 @ x0 @ m2
        for _, x in permutation_matrices(n):
            lin = relaxed_value + 2 * np.trace(w @ (x - x0).T)
            best_lin = max(best_lin, lin)
    bound = rounding_gap_bound(m1, m2, eps)
    assert abs(best_val - best_lin) <= bound + 1e-9


def per_pair_gap(a1, a2, s):
    """Mean per-pair score of the identity minus that of the shift derangement."""
    n = len(a1)
    shift = np.roll(np.arange(n), -1)
    off = ~np.eye(n, dtype=bool)

    def score(e1, e2):
        return (s.s1 + s.s2 - 2 * s.s3) * e1 * e2 + (s.s3 - s.s2) * (e1 + e2) + s.s2

    truth_total = score(a1, a2)[off].sum()
    wrong_total = score(a1, a2[np.ix_(shift, shift)])[off].sum()
    return (truth_total - wrong_total) / (n * (n - 1))


class TestExpectedObjectiveGap:
    def test_model_one_hand_value(self):
        s = ScoreScheme(2, 1, 0.5)
        assert expected_objective_gap(0.1, 0.05, s, "I") == pytest.approx(0.162)

    def test_zero_noise_reduction(self):
        for s in (ScoreScheme(2, 1, 0.5), ScoreScheme(4, 2, 1)):
            for p in (0.1, 0.3, 0.45):
                gap = expected_objective_gap(p, 0.0, s, "I")
                assert gap == pytest.approx(p * (1 - p) * (s.s1 + s.s2 - 2 * s.s3))
                assert gap > 0

    def test_model_two_alpha_form(self):
        s = from_alpha(3, 1e-9)
        p, p_e = 0.1, 0.05
        want = p * (1 - p - p_e) * 4
        assert expected_objective_gap(p, p_e, s, "II") == pytest.approx(want, rel=1e-6)

    def test_positive_on_grid(self):
        for p in np.linspace(0.05, 0.45, 10):
            for p_e in np.linspace(0.0, 0.45, 10):
                for s in (ScoreScheme(2, 1, 0.5), from_alpha(2, 1e-3), from_alpha(10, 1e-3)):
                    assert expected_objective_gap(float(p), float(p_e), s, "I") > 0
                    assert expected_objective_gap(float(p), float(p_e), s, "II") > 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            expected_objective_gap(0.6, 0.0, ScoreScheme(2, 1, 0.5), "I")
        with pytest.raises(ValueError):
            expected_objective_gap(0.1, 0.5, ScoreScheme(2, 1, 0.5), "I")

    @pytest.mark.parametrize("model", ["I", "II"])
    def test_matches_expected_alignment_matrix(self, model):
        # the two closed forms describe the same pairs, so they must agree
        for p in (0.1, 0.3, 0.45):
            for p_e in (0.0, 0.05, 0.2, 0.45):
                for alpha, eps in ((1.5, 1e-3), (3.0, 1e-9), (10.0, 0.5)):
                    m = expected_alignment_matrix(alpha, eps, p, p_e, 5, 2, model)
                    gap = expected_objective_gap(p, p_e, from_alpha(alpha, eps), model)
                    assert gap == pytest.approx(m.true_pair_value - m.false_pair_value, rel=1e-12)

    def test_monte_carlo_matches_self_consistent_expectation(self):
        # The published closed form for the noisy case overstates the gap:
        # its false-pair mismatch probability is 2p(1-p)(1-q) + 2p^2 q, but
        # the outcome probabilities of an independent pair must sum to one,
        # which forces 2p(1-p)(1-q) + (p^2 + (1-p)^2) q. Simulation agrees
        # with the self-consistent value, which the function returns.
        p, q = 0.1, 0.05
        s = ScoreScheme(2, 1, 0.5)
        p_tilde = p + q - 2 * p * q
        a_true = p * (1 - q) * s.s1 + (1 - p) * (1 - q) * s.s2 + q * s.s3
        b_false = (
            p * p_tilde * s.s1
            + (1 - p) * (1 - p_tilde) * s.s2
            + (p * (1 - p_tilde) + (1 - p) * p_tilde) * s.s3
        )
        corrected_gap = a_true - b_false

        n, samples = 60, 300
        rng = np.random.default_rng(42)
        stats = []
        for _ in range(samples):
            u = rng.random((n, n))
            g1 = np.triu((u < p).astype(float), 1)
            g1 += g1.T
            uq = rng.random((n, n))
            flip = np.triu((uq < q).astype(float), 1)
            flip += flip.T
            g2 = g1 * (1 - flip) + (1 - g1) * flip
            stats.append(per_pair_gap(g1, g2, s))
        stats = np.asarray(stats)
        se = stats.std(ddof=1) / np.sqrt(samples)
        assert abs(stats.mean() - corrected_gap) <= 4 * se
        assert expected_objective_gap(p, q, s, "I") == pytest.approx(corrected_gap, rel=1e-12)

    def test_monte_carlo_model_two(self):
        # noise_model_II keeps density p, so a false pair scores as in the
        # noiseless case; the gap is p(1-p-pe)(s1+s2-2s3) = 0.6 here
        p, p_e = 0.3, 0.2
        s = ScoreScheme(4, 2, 1)
        n, samples = 60, 300
        seeds = np.random.default_rng(43).integers(2**31, size=(samples, 2))
        stats = []
        for seed_g, seed_noise in seeds:
            g1 = erdos_renyi(n, p, int(seed_g))
            g2 = noise_model_II(g1, p_e, p, int(seed_noise))
            stats.append(per_pair_gap(g1.adjacency, g2.adjacency, s))
        stats = np.asarray(stats)
        se = stats.std(ddof=1) / np.sqrt(samples)
        gap = expected_objective_gap(p, p_e, s, "II")
        assert gap == pytest.approx(0.6)
        assert abs(stats.mean() - gap) <= 4 * se


class TestGammaMonotonicity:
    def test_fixed_mapping_three_term_objective_never_increases(self):
        # the three-term form (matches minus gamma times the two edge-mass
        # terms) is non-increasing in gamma for any fixed mapping; the
        # compact trace form adds gamma^2 * m^2, which is mapping-independent
        rng = np.random.default_rng(6)
        for _ in range(20):
            n1 = int(rng.integers(3, 6))
            n2 = n1 + int(rng.integers(1, 4))
            g1 = erdos_renyi(n1, 0.5, int(rng.integers(2**31)))
            g2 = erdos_renyi(n2, 0.5, int(rng.integers(2**31)))
            mapping = Assignment(np.arange(n1), rng.permutation(n2)[:n1], 0.0)
            m_ord, mm_ord, n_ord = count_alignment_ordered(g1, g2, mapping)
            edge_mass = 2 * m_ord + mm_ord  # Tr(G1 X J X^T) + Tr(J X G2 X^T) over mapped pairs
            values = [m_ord - gamma * edge_mass for gamma in np.linspace(0.0, 0.49, 8)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_trace_form_relates_by_gamma_squared_term(self):
        g1 = erdos_renyi(5, 0.5, 1)
        g2 = erdos_renyi(7, 0.5, 2)
        mapping = Assignment(np.arange(5), np.arange(5), 0.0)
        m = len(mapping)
        m_ord, mm_ord, n_ord = count_alignment_ordered(g1, g2, mapping)
        edge_mass = 2 * m_ord + mm_ord
        for gamma in (0.0, 0.2, 0.4):
            three_term = m_ord - gamma * edge_mass
            trace_form = generalized_objective(g1, g2, mapping, gamma)
            assert trace_form == pytest.approx(three_term + gamma**2 * (m * (m - 1) + m), abs=1e-9)
