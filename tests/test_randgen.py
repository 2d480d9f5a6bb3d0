import numpy as np
import pytest

import specalign.randgen as randgen
from specalign.graph import Graph, Permutation
from specalign.randgen import (
    erdos_renyi,
    noise_model_I,
    noise_model_II,
    power_law,
    random_permutation,
    random_regular,
    sample_mapping_set,
    stochastic_block_model,
)


def sequential_random_regular(n, d, seed, max_attempts):
    """The draw-and-check loop that blocked draws replace: one ``rng.permutation``
    per attempt. Returns the graph and its 1-based attempt number, or None."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for attempt in range(1, max_attempts + 1):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if (u == v).any():
            continue
        adj = np.zeros((n, n), dtype=np.int8)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        adj[lo, hi] = 1
        return Graph(adj + adj.T), attempt
    return None


def choice_power_law(n, m, n0, seed):
    """The attachment loop that draws each target with ``rng.choice``; returns the adjacency."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    seed_block = randgen._symmetric_bernoulli(n0, randgen.POWER_LAW_SEED_DENSITY, rng)
    adj[:n0, :n0] = seed_block
    degrees = np.zeros(n, dtype=np.float64)
    degrees[:n0] = seed_block.sum(axis=1)
    for t in range(n0, n):
        weights = degrees[:t].copy()
        targets = []
        for _ in range(m):
            if weights.sum() <= 0:
                pool = np.ones(t)
                pool[targets] = 0.0
                probs = pool / pool.sum()
            else:
                probs = weights / weights.sum()
            pick = int(rng.choice(t, p=probs))
            targets.append(pick)
            weights[pick] = 0.0
        for v in targets:
            adj[t, v] = adj[v, t] = 1
            degrees[v] += 1
        degrees[t] = m
    return adj


def binomial_bounds(n_trials, p, sigmas=4.0):
    mean = n_trials * p
    sd = np.sqrt(n_trials * p * (1 - p))
    return mean - sigmas * sd, mean + sigmas * sd


class TestErdosRenyi:
    def test_p_zero_edgeless(self):
        assert erdos_renyi(10, 0.0, 1).edge_count == 0

    def test_p_one_complete(self):
        g = erdos_renyi(10, 1.0, 1)
        assert g.edge_count == 45

    def test_edge_count_within_four_sigma(self):
        n, p = 2000, 0.1
        g = erdos_renyi(n, p, 123)
        lo, hi = binomial_bounds(n * (n - 1) // 2, p)
        assert lo <= g.edge_count <= hi

    def test_deterministic(self):
        assert erdos_renyi(50, 0.3, 7) == erdos_renyi(50, 0.3, 7)
        assert erdos_renyi(50, 0.3, 7) != erdos_renyi(50, 0.3, 8)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, 0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_nodes_names_n(self, n):
        with pytest.raises(ValueError, match=f"got n={n}$"):
            erdos_renyi(n, 0.1, 0)


class TestStochasticBlockModel:
    def test_single_block_matches_er(self):
        # identical RNG consumption: one block with constant density is G(n, p)
        sbm = stochastic_block_model([30], np.array([[0.2]]), 99)
        assert sbm == erdos_renyi(30, 0.2, 99)

    def test_zero_density_edgeless(self):
        g = stochastic_block_model([5, 5], np.zeros((2, 2)), 1)
        assert g.edge_count == 0

    # no block, a node count past int64, and a block of no node
    @pytest.mark.parametrize("sizes", [[], [12345678901234567890], [2**63 - 1, 1], [3, 0]])
    def test_bad_block_sizes_named(self, sizes):
        density = np.full((len(sizes), len(sizes)), 0.1)
        with pytest.raises(ValueError, match=r"^block_sizes must be positive and sum to at most 2\*\*63 - 1 nodes, got \["):
            stochastic_block_model(sizes, density, 0)

    def test_two_block_counts_within_four_sigma(self):
        sizes = [25, 25]
        density = np.array([[0.1, 0.05], [0.05, 0.3]])
        counts = np.zeros((2, 2))
        trials = 40
        for seed in range(trials):
            g = stochastic_block_model(sizes, density, seed)
            a = g.adjacency
            counts[0, 0] += np.triu(a[:25, :25], 1).sum()
            counts[1, 1] += np.triu(a[25:, 25:], 1).sum()
            counts[0, 1] += a[:25, 25:].sum()
        pairs_within = trials * 25 * 24 // 2
        pairs_cross = trials * 25 * 25
        for total, n_pairs, p in [
            (counts[0, 0], pairs_within, 0.1),
            (counts[1, 1], pairs_within, 0.3),
            (counts[0, 1], pairs_cross, 0.05),
        ]:
            lo, hi = binomial_bounds(n_pairs, p)
            assert lo <= total <= hi

    def test_asymmetric_density_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            stochastic_block_model([2, 2], np.array([[0.1, 0.2], [0.3, 0.1]]), 0)

    @pytest.mark.parametrize(
        "density, named",
        [
            ([[np.nan, 0.1], [0.1, 0.2]], r"density\[0, 0\] = nan"),
            ([[0.1, np.nan], [np.nan, 0.2]], r"density\[0, 1\] = nan"),
            ([[0.1, 0.1], [0.1, np.inf]], r"density\[1, 1\] = inf"),
        ],
    )
    def test_non_finite_density_named(self, density, named):
        # a NaN breaks the symmetry test too, so finiteness is checked first
        with pytest.raises(ValueError, match=f"must be finite, got {named}"):
            stochastic_block_model([5, 5], np.array(density), 0)


class TestRandomRegular:
    def test_n4_d2_is_a_four_cycle(self):
        cycles = [
            {(0, 1), (1, 2), (2, 3), (0, 3)},
            {(0, 1), (1, 3), (2, 3), (0, 2)},
            {(0, 2), (1, 2), (1, 3), (0, 3)},
        ]
        for seed in range(10):
            g = random_regular(4, 2, seed)
            edges = {tuple(e) for e in np.argwhere(np.triu(g.adjacency, 1))}
            assert edges in cycles

    def test_d_zero(self):
        assert random_regular(6, 0, 3).edge_count == 0

    def test_degrees_constant(self):
        g = random_regular(50, 5, 11)
        assert (g.degrees() == 5).all()

    def test_infeasible(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)  # n*d odd
        with pytest.raises(ValueError):
            random_regular(4, 4, 0)  # d >= n

    @pytest.mark.parametrize("n,d", [(4, 2), (6, 3), (10, 3), (10, 4), (12, 5), (20, 1), (30, 4), (50, 5)])
    def test_blocked_draws_match_sequential_loop(self, n, d):
        for seed in range(12):
            graph, _ = sequential_random_regular(n, d, seed, randgen._REGULAR_MAX_ATTEMPTS)
            assert random_regular(n, d, seed) == graph

    # at n=10, d=4 these seeds are first accepted at attempts 1, 63, 64, 65 and 82
    @pytest.mark.parametrize("limit", [1, 63, 64, 65])
    @pytest.mark.parametrize("seed", [37, 60, 154, 81, 0])
    def test_attempt_limit_cuts_the_last_block(self, monkeypatch, limit, seed):
        n, d = 10, 4
        _, attempt = sequential_random_regular(n, d, seed, randgen._REGULAR_MAX_ATTEMPTS)
        assert attempt == {37: 1, 60: 63, 154: 64, 81: 65, 0: 82}[seed]
        monkeypatch.setattr(randgen, "_REGULAR_MAX_ATTEMPTS", limit)
        expected = sequential_random_regular(n, d, seed, limit)
        if expected is None:
            with pytest.raises(RuntimeError, match=f"after {limit} attempts"):
                random_regular(n, d, seed)
        else:
            assert random_regular(n, d, seed) == expected[0]


class TestPowerLaw:
    def test_seed_only(self):
        g = power_law(5, 3, 5, 42)
        assert g.n == 5

    def test_attachment_edge_count(self):
        for seed in range(5):
            g_seed = power_law(5, 3, 5, seed)
            g = power_law(50, 3, 5, seed)
            assert g.edge_count == g_seed.edge_count + 3 * 45

    def test_heavy_tail(self):
        hits = sum(power_law(200, 3, 5, seed).degrees().max() > 6 for seed in range(10))
        assert hits >= 6

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            power_law(10, 6, 5, 0)  # m > n0

    # n0 = 1 starts edgeless, so its first targets come from the uniform
    # zero-degree branch; n0 = 2 often does too
    @pytest.mark.parametrize("n, m, n0", [(50, 3, 5), (30, 2, 2), (80, 4, 4), (12, 1, 1)])
    def test_matches_choice_loop(self, n, m, n0):
        for seed in range(40):
            assert np.array_equal(power_law(n, m, n0, seed).adjacency, choice_power_law(n, m, n0, seed))


class TestNoiseModels:
    def test_flip_zero_identity(self):
        g = erdos_renyi(30, 0.2, 0)
        assert noise_model_I(g, 0.0, 1) == g

    def test_flip_one_complement(self):
        g = erdos_renyi(10, 0.3, 0)
        flipped = noise_model_I(g, 1.0, 1)
        off = ~np.eye(10, dtype=bool)
        assert (flipped.adjacency[off] == 1 - g.adjacency[off]).all()

    def test_flip_fraction_within_four_sigma(self):
        n, p_e = 500, 0.05
        g = erdos_renyi(n, 0.1, 5)
        noisy = noise_model_I(g, p_e, 6)
        flips = np.triu(g.adjacency != noisy.adjacency, 1).sum()
        lo, hi = binomial_bounds(n * (n - 1) // 2, p_e)
        assert lo <= flips <= hi

    def test_model_ii_zero_noise_identity(self):
        g = erdos_renyi(30, 0.2, 0)
        assert noise_model_II(g, 0.0, 0.2, 1) == g

    def test_model_ii_preserves_density_within_four_sigma(self):
        n, p, p_e = 1000, 0.1, 0.05
        g = erdos_renyi(n, p, 17)
        noisy = noise_model_II(g, p_e, p, 18)
        lo, hi = binomial_bounds(n * (n - 1) // 2, p)
        assert lo <= noisy.edge_count <= hi

    def test_noise_keeps_symmetry(self):
        g = erdos_renyi(40, 0.3, 2)
        for noisy in (noise_model_I(g, 0.2, 3), noise_model_II(g, 0.2, 0.3, 4)):
            assert np.array_equal(noisy.adjacency, noisy.adjacency.T)


def tuple_mapping_set(n, truth, k, seed):
    """The sampler as it was, one tuple per pair, sorted: a test-only oracle."""
    pairs = [(i, int(truth.mapping[i])) for i in range(n)]
    extra = (k - 1) * n
    if extra > 0:
        rng = np.random.default_rng(seed)
        all_ids = np.arange(n * n)
        truth_ids = np.arange(n) * n + truth.mapping
        false_ids = np.setdiff1d(all_ids, truth_ids, assume_unique=True)
        chosen = rng.choice(false_ids, size=extra, replace=False)
        pairs.extend((int(t) // n, int(t) % n) for t in chosen)
    return sorted(pairs)


class TestSampleMappingSet:
    @pytest.mark.parametrize("n", [10, 50, 500])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_same_pairs_and_order_as_the_tuple_oracle(self, n, k):
        for seed in range(30):
            truth = random_permutation(n, seed)
            r = sample_mapping_set(n, truth, k, seed)
            assert list(zip(r.rows.tolist(), r.cols.tolist())) == tuple_mapping_set(n, truth, k, seed)

    def test_k1_is_exactly_truth(self):
        truth = random_permutation(10, 0)
        r = sample_mapping_set(10, truth, 1, 1)
        assert len(r) == 10
        assert (r.rows.tolist(), r.cols.tolist()) == (list(range(10)), truth.mapping.tolist())

    def test_k2_contains_truth(self):
        truth = random_permutation(10, 3)
        r = sample_mapping_set(10, truth, 2, 4)
        assert len(r) == 20
        assert r.mask()[np.arange(10), truth.mapping].all()

    def test_k_equals_n_covers_everything(self):
        n = 8
        r = sample_mapping_set(n, random_permutation(n, 0), n, 9)
        assert len(r) == n * n

    def test_infeasible_k(self):
        with pytest.raises(ValueError):
            sample_mapping_set(4, Permutation.identity(4), 5, 0)

    def test_deterministic(self):
        truth = random_permutation(12, 5)
        a, b = sample_mapping_set(12, truth, 3, 6), sample_mapping_set(12, truth, 3, 6)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)


class TestDeterminism:
    def test_every_generator_is_a_function_of_seed(self):
        base = erdos_renyi(30, 0.2, 3)
        cases = [
            lambda: stochastic_block_model([10, 10], np.array([[0.2, 0.1], [0.1, 0.3]]), 4),
            lambda: random_regular(20, 3, 5),
            lambda: power_law(30, 3, 5, 6),
            lambda: noise_model_I(base, 0.1, 7),
            lambda: noise_model_II(base, 0.1, 0.2, 8),
            lambda: random_permutation(15, 9),
        ]
        for make in cases:
            assert make() == make()
