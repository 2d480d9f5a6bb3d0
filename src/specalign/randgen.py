"""Seedable synthetic graph generators and edge-noise models.

Every function here is a pure function of its parameters and seed, backed
by ``numpy.random.Generator`` (PCG64). Runs are reproducible for a fixed
numpy version; the RNG algorithm is part of the documented interface.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, Permutation
from .score import MappingSet

__all__ = [
    "erdos_renyi",
    "stochastic_block_model",
    "random_regular",
    "power_law",
    "noise_model_I",
    "noise_model_II",
    "random_permutation",
    "sample_mapping_set",
]

# Seed-graph edge density used by power_law before attachment starts.
POWER_LAW_SEED_DENSITY = 0.5

_REGULAR_MAX_ATTEMPTS = 20_000
# Pairing-model attempts drawn and checked at once by random_regular.
_REGULAR_BLOCK = 64


def _symmetric_bernoulli(n: int, prob: np.ndarray | float, rng: np.random.Generator) -> np.ndarray:
    """0/1 symmetric matrix, zero diagonal; each unordered pair drawn once."""
    u = rng.random((n, n))
    hit = np.triu(u < prob, 1).astype(np.int8)
    return hit + hit.T


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Undirected G(n, p): each unordered pair is an edge with probability p."""
    if n < 1:
        raise ValueError(f"node count must be at least 1, got n={n}")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    return Graph(_symmetric_bernoulli(n, p, rng))


def stochastic_block_model(block_sizes: list[int], density: np.ndarray, seed: int) -> Graph:
    """Undirected blockmodel: pair (i, j) in blocks (a, b) is an edge w.p. density[a, b]."""
    k = len(block_sizes)
    if k == 0 or min(block_sizes) <= 0 or sum(block_sizes) > np.iinfo(np.int64).max:
        raise ValueError(f"block_sizes must be positive and sum to at most 2**63 - 1 nodes, got {list(block_sizes)}")
    density = np.asarray(density, dtype=np.float64)
    if density.shape != (k, k):
        raise ValueError(f"density must be {k}x{k} for {k} blocks, got {density.shape}")
    if not np.isfinite(density).all():
        a, b = np.argwhere(~np.isfinite(density))[0].tolist()
        raise ValueError(f"density entries must be finite, got density[{a}, {b}] = {density[a, b]}")
    if not np.array_equal(density, density.T):
        raise ValueError("density matrix must be symmetric")
    if density.min() < 0 or density.max() > 1:
        raise ValueError("density entries must lie in [0, 1]")
    block_of = np.repeat(np.arange(k), block_sizes)
    pair_prob = density[:, block_of][block_of]
    rng = np.random.default_rng(seed)
    return Graph(_symmetric_bernoulli(len(block_of), pair_prob, rng))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph on n nodes via the pairing model.

    Pairings producing self-loops or multi-edges are rejected wholesale and
    redrawn, which yields exact degrees and a simple graph.

    Attempts are drawn ``_REGULAR_BLOCK`` at a time: the rows of
    ``rng.permuted(np.tile(stubs, (block, 1)), axis=1)`` are the
    permutations that as many successive ``rng.permutation(stubs)`` calls
    would draw, and the first row that passes both checks is accepted, so
    the graph is the one a draw-and-check loop accepts. The generator is
    local, so the rows drawn past the accepted one are never seen. The last
    block is cut at ``_REGULAR_MAX_ATTEMPTS``.
    """
    if d < 0 or d >= n:
        raise ValueError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d == 0:
        return Graph.empty(n)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for start in range(0, _REGULAR_MAX_ATTEMPTS, _REGULAR_BLOCK):
        block = min(_REGULAR_BLOCK, _REGULAR_MAX_ATTEMPTS - start)
        perms = rng.permuted(np.tile(stubs, (block, 1)), axis=1)
        u, v = perms[:, 0::2], perms[:, 1::2]
        loopless = np.flatnonzero((u != v).all(axis=1))
        lo, hi = np.minimum(u[loopless], v[loopless]), np.maximum(u[loopless], v[loopless])
        keys = np.sort(lo * n + hi, axis=1)
        simple = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).all(axis=1))
        if simple.size:
            adj = np.zeros((n, n), dtype=np.int8)
            adj[lo[simple[0]], hi[simple[0]]] = 1
            return Graph(adj + adj.T)
    raise RuntimeError(f"pairing model failed to produce a simple {d}-regular graph after {_REGULAR_MAX_ATTEMPTS} attempts")


def power_law(n: int, m: int, n0: int, seed: int) -> Graph:
    """Preferential-attachment graph: new nodes attach to m distinct existing nodes.

    Starts from a random seed subgraph on n0 nodes (density
    ``POWER_LAW_SEED_DENSITY``); each subsequent node picks m distinct
    targets with probability proportional to current degree, uniformly when
    every candidate has degree zero.
    """
    if not (1 <= m <= n0 <= n):
        raise ValueError(f"need 1 <= m <= n0 <= n, got m={m}, n0={n0}, n={n}")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    seed_block = _symmetric_bernoulli(n0, POWER_LAW_SEED_DENSITY, rng)
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
            # Generator.choice's own path for one weighted draw, without its argument checks
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
            targets.append(pick)
            weights[pick] = 0.0
        for v in targets:
            adj[t, v] = adj[v, t] = 1
            degrees[v] += 1
        degrees[t] = m
    return Graph(adj)


def noise_model_I(g: Graph, p_e: float, seed: int) -> Graph:
    """Flip every unordered node pair of ``g`` independently with probability p_e."""
    if g.directed:
        raise ValueError("edge-flip noise is defined for undirected graphs")
    if not 0 <= p_e <= 1:
        raise ValueError(f"flip probability must lie in [0, 1], got {p_e}")
    rng = np.random.default_rng(seed)
    q = _symmetric_bernoulli(g.n, p_e, rng)
    flipped = g.adjacency * (1 - q) + (1 - g.adjacency) * q
    return Graph(flipped)


def noise_model_II(g: Graph, p_e: float, p: float, seed: int) -> Graph:
    """Delete edges w.p. p_e and insert non-edges w.p. p*p_e/(1-p).

    The insertion rate is chosen so a clean density-p graph keeps expected
    density p after perturbation.
    """
    if g.directed:
        raise ValueError("deletion/insertion noise is defined for undirected graphs")
    if not 0 <= p < 1:
        raise ValueError(f"clean density must lie in [0, 1), got {p}")
    if not 0 <= p_e <= 1:
        raise ValueError(f"deletion probability must lie in [0, 1], got {p_e}")
    p_e2 = p * p_e / (1.0 - p)
    if p_e2 > 1:
        raise ValueError(f"insertion probability p*p_e/(1-p) = {p_e2} exceeds 1")
    rng = np.random.default_rng(seed)
    q = _symmetric_bernoulli(g.n, p_e, rng)
    q2 = _symmetric_bernoulli(g.n, p_e2, rng)
    noisy = g.adjacency * (1 - q) + (1 - g.adjacency) * q2
    return Graph(noisy)


def random_permutation(n: int, seed: int) -> Permutation:
    rng = np.random.default_rng(seed)
    return Permutation(rng.permutation(n))


def sample_mapping_set(n: int, truth: Permutation, k: int, seed: int) -> MappingSet:
    """Candidate mapping set of size k*n containing all n true pairs.

    The other (k-1)*n members are drawn uniformly without replacement from
    the false pairs (i, j') with j' != truth(i). Pair (i, j') is drawn as
    the id i*n + j', so the sorted ids are the pairs in row-major order.
    """
    if truth.n != n:
        raise ValueError(f"truth permutation size {truth.n} does not match n={n}")
    if k < 1:
        raise ValueError(f"expansion factor must be >= 1, got {k}")
    extra = (k - 1) * n
    if extra > n * n - n:
        raise ValueError(f"cannot sample {extra} false pairs from {n * n - n} available")
    ids = np.arange(n) * n + truth.mapping
    if extra > 0:
        false_ids = np.flatnonzero(np.bincount(ids, minlength=n * n) == 0)  # ascending: the draws index this order
        ids = np.concatenate([ids, np.random.default_rng(seed).choice(false_ids, size=extra, replace=False)])
    return MappingSet(n, n, *np.divmod(np.sort(ids), n))
