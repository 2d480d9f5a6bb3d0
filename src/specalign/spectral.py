"""Symmetric eigen-solvers: power iteration, dense top-k decomposition, PSD shifting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SpectralDecomposition",
    "ConvergenceError",
    "leading_eigenvector",
    "top_k_eigs",
    "psd_shift",
    "PSD_SHIFT_MARGIN",
]

# Margin added beyond -lambda_min so shifted matrices are strictly positive definite.
PSD_SHIFT_MARGIN = 1e-9

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

LinearOperator = Callable[[np.ndarray], np.ndarray]


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SpectralDecomposition:
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _orient(v: np.ndarray) -> np.ndarray:
    """Flip sign so the largest-magnitude entry is positive (seed-stable output)."""
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0 else v


def leading_eigenvector(
    op: np.ndarray | LinearOperator,
    dim: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a symmetric operator by power iteration.

    ``op`` is either a dense symmetric matrix or a matvec callable. The
    start vector is strictly positive (seeded), so for entrywise-positive
    operators the iteration converges to the positive principal
    eigenvector. Convergence means ``||A v - lambda v|| <= tol * |lambda|``;
    the returned vector is unit-norm and oriented so its largest-magnitude
    entry is positive.

    A step holds the iterate, the product and one temporary block for
    the residual; the previous product is released before the next one
    runs, so with :func:`score.alignment_matvec` on an undirected pair a
    step holds at most four n1 x n2 blocks. The product is never written to, since a callable may
    return a buffer of its own.
    """
    if callable(op):
        matvec = op
    else:
        mat = np.asarray(op, dtype=np.float64)
        if mat.shape != (dim, dim):
            raise ValueError(f"operator shape {mat.shape} does not match dim {dim}")
        matvec = lambda x: mat @ x  # noqa: E731

    rng = np.random.default_rng(seed)
    v = rng.random(dim) + 0.5
    v /= np.linalg.norm(v)
    lam = 0.0
    residual = np.inf
    for _ in range(max_iter):
        w = matvec(v)
        lam = float(v @ w)
        # w - lam * v, in one temporary block
        r = lam * v
        np.subtract(w, r, out=r)
        residual = float(np.linalg.norm(r))
        del r
        if residual <= tol * max(abs(lam), np.finfo(float).tiny):
            return lam, _orient(v)
        norm = np.linalg.norm(w)
        if norm == 0:
            # Zero operator: any unit vector satisfies Av = 0 = lambda v.
            return 0.0, _orient(v)
        v = w / norm
        del w
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def top_k_eigs(m: np.ndarray, k: int) -> SpectralDecomposition:
    """k largest-eigenvalue pairs of a dense symmetric matrix, descending.

    Input must be symmetric to 1e-10. Eigenvectors are orthonormal, each
    oriented with its largest-magnitude entry positive, and each pair is
    verified against the residual bound ``||Mv - lambda v|| <= 1e-8 * max(1, |lambda|)``.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if np.abs(m - m.T).max() > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    dim = m.shape[0]
    if not 1 <= k <= dim:
        raise ValueError(f"k must lie in [1, {dim}], got {k}")
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1][:k]
    eigenvalues = vals[order]
    eigenvectors = np.column_stack([_orient(vecs[:, i]) for i in order])
    for i in range(k):
        resid = np.linalg.norm(m @ eigenvectors[:, i] - eigenvalues[i] * eigenvectors[:, i])
        if resid > 1e-8 * max(1.0, abs(eigenvalues[i])):
            raise ArithmeticError(f"eigenpair {i} residual {resid:.3e} exceeds tolerance")
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def psd_shift(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift a symmetric matrix by ``delta * I`` so it is positive definite.

    ``delta = max(0, -lambda_min) + PSD_SHIFT_MARGIN``; eigenvectors are
    unchanged and eigenvalues move up uniformly.
    """
    m = np.asarray(m, dtype=np.float64)
    if np.abs(m - m.T).max() > 1e-10:
        raise ValueError("matrix is not symmetric within 1e-10")
    lam_min = float(np.linalg.eigvalsh(m)[0])
    delta = max(0.0, -lam_min) + PSD_SHIFT_MARGIN
    return m + delta * np.eye(m.shape[0]), delta
