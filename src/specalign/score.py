"""Match/neutral/mismatch scoring and the pairwise alignment matrix.

The alignment matrix A lives on candidate node mappings: entry
A[(i,j'),(r,s')] scores the pair of mappings by whether the underlying
edges agree (match), disagree (mismatch), or are both absent (neutral).
Only :func:`alignment_entry` and :func:`directed_alignment_entry` compute
these scores, and only :func:`edge_codes` forms the int8 edge code that
names a pair's class. A is available both as a dense matrix over a mapping
set (two index arrays of its pairs), whose entries are looked up from those
rules by edge code, and as a matrix-free operator over the full product set
whose Kronecker coefficients come from those rules too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graph import Graph

__all__ = [
    "ScoreScheme",
    "MappingSet",
    "MemoryGuardError",
    "from_alpha",
    "alignment_entry",
    "directed_alignment_entry",
    "build_alignment_matrix",
    "alignment_matvec",
    "DEFAULT_DENSE_ENTRY_CAP",
]

# Largest |R|^2 the dense builder will materialize (~200 MB of float64).
DEFAULT_DENSE_ENTRY_CAP = 25_000_000


class MemoryGuardError(MemoryError):
    """Dense alignment matrix would exceed the configured size cap."""


@dataclass(frozen=True)
class ScoreScheme:
    """Scores ``s1``, ``s2``, ``s3`` for matched, neutral, and mismatched mapping pairs.

    Requires ``s1 > s2 > s3 > 0``; the strict positivity keeps the
    alignment matrix entrywise positive, which the leading-eigenvector step
    relies on. ``gamma`` is the derived mismatch-penalty weight in [0, 1/2).
    """

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            object.__setattr__(self, name, float(getattr(self, name)))
        s1, s2, s3 = self.s1, self.s2, self.s3
        if not (s1 > s2 > s3 > 0):
            raise ValueError(f"scores must satisfy match > neutral > mismatch > 0, got ({s1}, {s2}, {s3})")

    @property
    def gamma(self) -> float:
        return (self.s2 - self.s3) / (self.s1 + self.s2 - 2 * self.s3)


def from_alpha(alpha: float, eps: float) -> ScoreScheme:
    """Scheme (alpha+eps, 1+eps, eps), which puts gamma exactly at 1/(1+alpha)."""
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return ScoreScheme(alpha + eps, 1.0 + eps, eps)


@dataclass(frozen=True, eq=False)
class MappingSet:
    """An ordered set of allowed mapping pairs (``rows[p]``, ``cols[p]``) between two node sets.

    p is the pair's index in the dense alignment matrix; both are read-only int64 arrays.
    """

    n1: int
    n2: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError(f"rows and cols must be 1-D of equal length, got shapes {rows.shape} and {cols.shape}")
        bad = np.flatnonzero((rows < 0) | (rows >= self.n1) | (cols < 0) | (cols >= self.n2))
        if bad.size:
            raise ValueError(f"pair ({rows[bad[0]]}, {cols[bad[0]]}) out of range for sizes ({self.n1}, {self.n2})")
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        _, first = np.unique(rows * self.n2 + cols, return_index=True)
        if len(first) < len(rows):
            p = np.setdiff1d(np.arange(len(rows)), first)[0]  # the first pair seen before
            raise ValueError(f"duplicate pair ({rows[p]}, {cols[p]}) in mapping set")
        rows.flags.writeable = cols.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @functools.cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """Each pair's position in the set, built on first use."""
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), range(len(self))))

    def __len__(self) -> int:
        return len(self.rows)

    def mask(self) -> np.ndarray:
        """Boolean n1 x n2 matrix marking allowed cells."""
        allowed = np.zeros((self.n1, self.n2), dtype=bool)
        allowed[self.rows, self.cols] = True
        return allowed

    @classmethod
    def full(cls, n1: int, n2: int) -> "MappingSet":
        """Every pair, in row-major order."""
        return cls(n1, n2, *np.divmod(np.arange(n1 * n2), n2))


def alignment_entry(s: ScoreScheme, e1: int, e2: int) -> float:
    """Score of a mapping pair from its two edge indicators: s1 if both edges exist, s3 if one does, else s2."""
    c = _kronecker_coefficients(s, False)
    return c[1, 1] * e1 * e2 + c[0, 1] * (e1 + e2) + c[0, 0]


def directed_alignment_entry(
    s: ScoreScheme,
    g1_forward: int,
    g1_backward: int,
    g2_forward: int,
    g2_backward: int,
) -> float:
    """Score a directed mapping pair from the four directional edge indicators.

    A direction is a match when both graphs have the edge, a mismatch when
    exactly one does. A pair that is a match one way and a mismatch the
    other is inconsistent and receives the average (s1+s3)/2; otherwise the
    strongest applicable category wins (match, then mismatch, then neutral).
    """
    fwd_match = g1_forward == 1 and g2_forward == 1
    bwd_match = g1_backward == 1 and g2_backward == 1
    fwd_mismatch = (g1_forward + g2_forward) == 1
    bwd_mismatch = (g1_backward + g2_backward) == 1
    if (fwd_match and bwd_mismatch) or (bwd_match and fwd_mismatch):
        return (s.s1 + s.s3) / 2.0
    if fwd_match or bwd_match:
        return s.s1
    if fwd_mismatch or bwd_mismatch:
        return s.s3
    return s.s2


def build_alignment_matrix(g1: Graph, g2: Graph, s: ScoreScheme, mapping_set: MappingSet) -> np.ndarray:
    """Dense |R| x |R| alignment matrix over the given mapping set.

    Each entry is looked up by its edge code from a table of
    :func:`alignment_entry` (directed: :func:`directed_alignment_entry`)
    values, so the graphs are not copied to float. The zero adjacency
    diagonal makes the diagonal neutral. All entries are strictly positive.
    Refuses to build when |R|^2 exceeds ``DEFAULT_DENSE_ENTRY_CAP``; use
    :func:`alignment_matvec` for large unrestricted problems instead.
    """
    if mapping_set.n1 != g1.n or mapping_set.n2 != g2.n:
        raise ValueError(
            f"mapping set sizes ({mapping_set.n1}, {mapping_set.n2}) do not match graphs ({g1.n}, {g2.n})"
        )
    if g1.directed != g2.directed:
        raise ValueError("graphs must be both directed or both undirected")
    r = len(mapping_set)
    if r * r > DEFAULT_DENSE_ENTRY_CAP:
        raise MemoryGuardError(
            f"|R|^2 = {r * r} exceeds the cap of {DEFAULT_DENSE_ENTRY_CAP} entries; "
            "use the implicit operator (alignment_matvec) for full mapping sets"
        )
    code = edge_codes(g1, g2, mapping_set.rows, mapping_set.cols)
    if g1.directed:
        code = 4 * code + code.T
    return _score_table(s, g1.directed)[code]


def _score_table(s: ScoreScheme, directed: bool) -> np.ndarray:
    """Each edge code's score: code ``2*e1 + e2``, or directed bits (g1 fwd, g2 fwd, g1 bwd, g2 bwd)."""
    if directed:
        bits = itertools.product((0, 1), repeat=4)
        return np.array([directed_alignment_entry(s, f1, b1, f2, b2) for f1, f2, b1, b2 in bits])
    return np.array([alignment_entry(s, *bits) for bits in itertools.product((0, 1), repeat=2)])


def edge_codes(g1: Graph, g2: Graph, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Int8 block whose entry (p, q) is ``2 * g1[rows[p], rows[q]] + g2[cols[p], cols[q]]``.

    Code 3 is a match, 1 and 2 a mismatch, 0 neutral. Gathers one axis at a
    time, columns first, so the blocks come out C-ordered as from np.ix_ at
    a fraction of its cost, and forms the code in g1's fresh block.
    """
    code = g1.adjacency[:, rows][rows]
    code *= 2
    code += g2.adjacency[:, cols][cols]
    return code


def _kronecker_coefficients(s: ScoreScheme, directed: bool) -> np.ndarray:
    """c[a, b] weighs ``K1_a Y K2_b^T``, a and b indexing J, A (directed: J, A^T, A, A∘A^T)."""
    if not directed:
        side = s.s3 - s.s2
        return np.array([[s.s2, side], [side, s.s1 + s.s2 - 2 * s.s3]])
    c = _score_table(s, True).reshape(2, 2, 2, 2)
    for axis in range(4):  # the score is multilinear in its four bits: Möbius-transform its table
        c = np.diff(c, axis=axis, prepend=0)
    c = c.transpose(0, 2, 1, 3).reshape(4, 4)  # a = 2 * forward + backward bit of g1, b of g2
    return (c + c.T) / 2  # symmetric up to rounding, as swapping the graphs keeps each score


def _monomials(g: Graph) -> list[np.ndarray]:
    a = g.as_float()
    return [a.T, a, a * a.T] if g.directed else [a]


def alignment_matvec(g1: Graph, g2: Graph, s: ScoreScheme, y: np.ndarray) -> np.ndarray:
    """Product of the full (unrestricted) alignment matrix with ``y``.

    ``y`` uses the column-major vectorization ``y[i + j' * n1] = X[i, j']``.
    Each term ``c[a, b] * kron(K2_b, K1_a)`` (:func:`_kronecker_coefficients`)
    acts on the n1 x n2 unfolding Y of ``y`` as ``K1_a Y K2_b^T``, J terms as
    row and column sums, so the full matrix is never materialized.

    On undirected graphs a call holds, besides ``y``, at most three n1 x n2
    float blocks at once (for n1 == n2; each float adjacency counts as
    one): each adjacency is converted for its own product and released
    after it, the side terms are written into ``A1 Y``'s block, and that
    block is released before the column-major copy of the result. With the
    iterate and its product in :func:`spectral.leading_eigenvector`, a
    power-iteration step holds at most four blocks.
    """
    if g1.directed != g2.directed:
        raise ValueError("graphs must be both directed or both undirected")
    n1, n2 = g1.n, g2.n
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n1 * n2,):
        raise ValueError(f"vector length {y.shape} does not match n1*n2 = {n1 * n2}")
    Y = y.reshape((n1, n2), order="F")
    c = _kronecker_coefficients(s, g1.directed)
    k1_y = [k1 @ Y for k1 in _monomials(g1)]
    k2 = _monomials(g2)
    g2_sides = [Y.sum(axis=0, keepdims=True) @ k.T for k in k2]
    coupled = None
    for a, b in itertools.product(range(len(k2)), repeat=2):
        term = k1_y[a] @ k2[b].T
        term *= c[a + 1, b + 1]
        coupled = term if coupled is None else np.add(coupled, term, out=coupled)
        del term
    del k2
    for a, g2_side in enumerate(g2_sides):  # a one-graph term and its mirror share a coefficient
        side = np.add(k1_y[a].sum(axis=1, keepdims=True), g2_side, out=k1_y[a])
        side *= c[a + 1, 0]
        coupled += side
    del k1_y, side
    coupled += c[0, 0] * Y.sum()
    return coupled.reshape(n1 * n2, order="F")
