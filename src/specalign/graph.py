"""Simple binary graphs: adjacency representation, edge-list I/O, relabeling.

Graphs are square 0/1 adjacency matrices without self-loops. Undirected
graphs keep the matrix symmetric. Values are immutable after construction,
so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "Permutation",
    "ParseError",
    "load_edge_list",
    "parse_id_pair",
    "write_edge_list",
    "apply_permutation",
    "pad_to",
]


class ParseError(ValueError):
    """Raised for malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """A binary graph on nodes 0..n-1.

    ``adjacency`` is an n x n matrix with entries in {0, 1}, zero diagonal,
    and (for undirected graphs) symmetric. The array is frozen on
    construction.
    """

    adjacency: np.ndarray
    directed: bool = False

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] == 0:
            raise ValueError("graph must have at least one node")
        if not ((adj == 0) | (adj == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(adj).any():
            raise ValueError("self-loops are not allowed (diagonal must be 0)")
        if not self.directed and not np.array_equal(adj, adj.T):
            raise ValueError("undirected graph requires a symmetric adjacency matrix")
        adj = adj.astype(np.int8, copy=True)
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        """Number of edges (unordered pairs for undirected graphs)."""
        total = int(self.adjacency.sum())
        return total if self.directed else total // 2

    def degrees(self) -> np.ndarray:
        """Degree of each node (out-degree for directed graphs)."""
        return np.asarray(self.adjacency.sum(axis=1), dtype=np.int64)

    def as_float(self) -> np.ndarray:
        return self.adjacency.astype(np.float64)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], directed: bool = False) -> "Graph":
        adj = np.zeros((n, n), dtype=np.int8)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has a node id outside [0, {n})")
            adj[u, v] = 1
            if not directed:
                adj[v, u] = 1
        return cls(adj, directed=directed)

    @classmethod
    def empty(cls, n: int, directed: bool = False) -> "Graph":
        return cls(np.zeros((n, n), dtype=np.int8), directed=directed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.directed == other.directed and np.array_equal(self.adjacency, other.adjacency)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., n-1} stored as ``mapping[i] = image of i``."""

    mapping: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mapping, dtype=np.int64)
        if m.ndim != 1:
            raise ValueError("permutation mapping must be one-dimensional")
        n = m.shape[0]
        if not np.array_equal(np.sort(m), np.arange(n)):
            raise ValueError("permutation mapping must be a bijection on 0..n-1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mapping", m)

    @property
    def n(self) -> int:
        return self.mapping.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.mapping] = np.arange(self.n)
        return Permutation(inv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.mapping, other.mapping)


def parse_id_pair(line: str, lineno: int) -> tuple[int, int]:
    """The two non-negative integer ids of a stripped "u v" edge-list or mapping line."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected two node ids, got {line!r}", lineno)
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"node ids must be integers, got {line!r}", lineno) from None
    if u < 0 or v < 0:
        raise ParseError(f"node ids must be non-negative, got {line!r}", lineno)
    return u, v


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    Format: one "u v" pair of non-negative integer node ids per line.
    Lines starting with '#' are comments; a bare "directed" or
    "undirected" directive may precede the edges (default undirected).
    The node count is 1 + the largest id seen, or the value declared by
    a "# n=<count> ..." header comment if that is larger (written by
    :func:`write_edge_list` so isolated trailing nodes survive a
    round-trip).
    """
    directed = False
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    saw_directive_after_edges = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                token = body.split()[0][2:]
                if token.isdigit():
                    declared_n = int(token)
            continue
        if line in ("directed", "undirected"):
            if edges:
                saw_directive_after_edges = True
            directed = line == "directed"
            continue
        u, v = parse_id_pair(line, lineno)
        if u == v:
            raise ParseError(f"self-loop {u} {v} is not allowed", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)

    if saw_directive_after_edges:
        raise ParseError("direction directive must precede all edges")
    n = max(max_id + 1, declared_n or 0)
    if n == 0:
        raise ParseError("cannot infer node count: no edges and no n= header")
    return Graph.from_edges(n, edges, directed=directed)


def write_edge_list(g: Graph) -> str:
    """Serialize a graph in the format accepted by :func:`load_edge_list`."""
    kind = "directed" if g.directed else "undirected"
    pairs = np.argwhere(g.adjacency if g.directed else np.triu(g.adjacency, 1)).tolist()
    out = [f"# n={g.n} {kind}", kind] + [f"{u} {v}" for u, v in pairs]
    return "\n".join(out) + "\n"


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel nodes of ``g`` by ``p``: output edge (p(i), p(j)) per input edge (i, j)."""
    if p.n != g.n:
        raise ValueError(f"permutation size {p.n} does not match graph size {g.n}")
    inv = p.inverse().mapping
    # columns first keeps the relabelled adjacency C-ordered
    return Graph(g.adjacency[:, inv][inv], directed=g.directed)


def pad_to(g: Graph, n_target: int) -> Graph:
    """Embed ``g`` in the top-left block of an ``n_target``-node graph.

    Added nodes are isolated.
    """
    if n_target < g.n:
        raise ValueError(f"cannot pad graph of {g.n} nodes down to {n_target}")
    if n_target == g.n:
        return g
    adj = np.zeros((n_target, n_target), dtype=np.int8)
    adj[: g.n, : g.n] = g.adjacency
    return Graph(adj, directed=g.directed)
