import numpy as np
import pytest

from specalign.metrics import expected_alignment_matrix, mean_field_ratio
from specalign.randgen import erdos_renyi
from specalign.score import MappingSet, ScoreScheme, alignment_matvec, build_alignment_matrix, from_alpha
from specalign.spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceError,
    LinearOperator,
    _orient,
    leading_eigenvector,
    psd_shift,
    top_k_eigs,
)


def oracle_leading_eigenvector(
    op: np.ndarray | LinearOperator,
    dim: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Test-only oracle: power iteration as it was before the loop released
    its blocks early, kept verbatim. ``leading_eigenvector`` must return the
    same eigenvalue and vector bit for bit."""
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
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol * max(abs(lam), np.finfo(float).tiny):
            return lam, _orient(v)
        norm = np.linalg.norm(w)
        if norm == 0:
            # Zero operator: any unit vector satisfies Av = 0 = lambda v.
            return 0.0, _orient(v)
        v = w / norm
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


class SameBuffer:
    """A matvec that returns one read-only buffer, overwritten by every call."""

    def __init__(self, m):
        self.m = m
        self.buf = np.empty(len(m))
        self.buf.flags.writeable = False

    def __call__(self, x):
        self.buf.flags.writeable = True
        np.matmul(self.m, x, out=self.buf)
        self.buf.flags.writeable = False
        return self.buf


class TestLeadingEigenvector:
    def test_textbook_2x2(self):
        lam, v = leading_eigenvector(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        assert lam == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(np.abs(v), 1 / np.sqrt(2), atol=1e-8)
        assert v.min() > 0

    def test_identity(self):
        lam, v = leading_eigenvector(np.eye(4), 4)
        assert lam == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_callable_operator(self):
        m = np.array([[5.0, 2.0], [2.0, 1.0]])
        lam_dense, v_dense = leading_eigenvector(m, 2)
        lam_op, v_op = leading_eigenvector(lambda x: m @ x, 2)
        assert lam_op == pytest.approx(lam_dense, rel=1e-9)
        assert np.allclose(v_op, v_dense, atol=1e-7)

    def test_mean_field_matrix_matches_quadratic_root(self):
        # two-level matrix with known top eigenvalue closed form
        n, k, a, b = 20, 2, 1.2, 0.84
        m = expected_alignment_matrix(3.0, 0.0, 0.1, 0.0, n, k, "none").to_dense()
        assert m[0, 1] == pytest.approx(a)
        assert m[0, -1] == pytest.approx(b)
        lam, v = leading_eigenvector(m, k * n, tol=1e-12)
        model = mean_field_ratio(a, b, n, k, eps=0.0)
        assert lam == pytest.approx(model.lambda_top, abs=1e-8)
        assert v.min() > 0

    def test_alignment_matrix_gives_positive_vector(self):
        g1 = erdos_renyi(5, 0.4, 0)
        g2 = erdos_renyi(5, 0.4, 1)
        a = build_alignment_matrix(g1, g2, ScoreScheme(4, 2, 1), MappingSet.full(5, 5))
        lam, v = leading_eigenvector(a, 25)
        assert v.min() > 0
        assert lam > 0

    def test_nonconvergence_carries_residual(self):
        # eigenvalues +1/-1 with equal magnitude never settle
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConvergenceError) as err:
            leading_eigenvector(flip, 2, tol=1e-12, max_iter=50)
        assert err.value.residual > 0

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8))
        m = m @ m.T  # PSD, so power iteration is safe
        lam, v = leading_eigenvector(m, 8, tol=1e-11)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * abs(lam)


class TestPowerIterationOracle:
    """The loop that releases its blocks early against the one it replaced, bit for bit."""

    @staticmethod
    def psd(dim, seed):
        m = np.random.default_rng(seed).standard_normal((dim, dim))
        return m @ m.T

    @pytest.mark.parametrize("dim, seed", [(2, 0), (8, 1), (40, 2), (120, 3)])
    @pytest.mark.parametrize("form", ["dense", "fresh", "same_buffer"])
    def test_same_floats_as_oracle(self, dim, seed, form):
        m = self.psd(dim, seed)
        ops = {"dense": lambda: m, "fresh": lambda: (lambda x: m @ x), "same_buffer": lambda: SameBuffer(m)}
        lam, v = leading_eigenvector(ops[form](), dim, seed=seed)
        want_lam, want_v = oracle_leading_eigenvector(ops[form](), dim, seed=seed)
        assert lam == want_lam
        assert np.array_equal(v, want_v)

    def test_same_residual_on_nonconvergence(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        for op in (m, SameBuffer(m)):
            with pytest.raises(ConvergenceError) as got:
                leading_eigenvector(op, 2, tol=1e-12, max_iter=50)
            with pytest.raises(ConvergenceError) as want:
                oracle_leading_eigenvector(op, 2, tol=1e-12, max_iter=50)
            assert got.value.residual == want.value.residual

    def test_zero_operator(self):
        lam, v = leading_eigenvector(SameBuffer(np.zeros((3, 3))), 3)
        want_lam, want_v = oracle_leading_eigenvector(SameBuffer(np.zeros((3, 3))), 3)
        assert lam == want_lam
        assert np.array_equal(v, want_v)

    @pytest.mark.parametrize("n1, n2", [(30, 30), (20, 26)])
    def test_matrix_free_operator(self, n1, n2):
        g1, g2 = erdos_renyi(n1, 0.2, 3), erdos_renyi(n2, 0.2, 4)
        s = from_alpha(4, 0.001)
        op = lambda y: alignment_matvec(g1, g2, s, y)  # noqa: E731
        lam, v = leading_eigenvector(op, n1 * n2)
        want_lam, want_v = oracle_leading_eigenvector(op, n1 * n2)
        assert lam == want_lam
        assert np.array_equal(v, want_v)


class TestTopKEigs:
    def test_diagonal(self):
        dec = top_k_eigs(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(dec.eigenvalues, [3.0, 2.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, :2])

    def test_full_reconstruction(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 5))
        m = (m + m.T) / 2
        dec = top_k_eigs(m, 5)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(recon - m).max() <= 1e-6

    def test_rank_one(self):
        w = np.array([1.0, 2.0, 2.0])
        dec = top_k_eigs(np.outer(w, w), 1)
        assert dec.eigenvalues[0] == pytest.approx(float(w @ w))
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), np.abs(w / np.linalg.norm(w)))

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 7))
        m = (m + m.T) / 2
        dec = top_k_eigs(m, 7)
        assert (np.diff(dec.eigenvalues) <= 1e-12).all()
        gram = dec.eigenvectors.T @ dec.eigenvectors
        assert np.abs(gram - np.eye(7)).max() <= 1e-8

    def test_characteristic_polynomial_oracle_3x3(self):
        # compare against roots of det(M - lambda I) computed from the
        # characteristic polynomial coefficients
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            m = (m + m.T) / 2
            c2 = -np.trace(m)
            c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
            c0 = -np.linalg.det(m)
            roots = np.sort(np.roots([1.0, c2, c1, c0]).real)[::-1]
            dec = top_k_eigs(m, 3)
            assert np.abs(dec.eigenvalues - roots).max() <= 1e-6

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            top_k_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_eigs(np.eye(3), 4)


class TestPsdShift:
    def test_identity_gets_margin_only(self):
        shifted, delta = psd_shift(np.eye(3))
        assert delta == pytest.approx(1e-9)
        assert np.allclose(shifted, np.eye(3) * (1 + 1e-9))

    def test_indefinite_2x2(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        shifted, delta = psd_shift(m)
        assert delta == pytest.approx(1 + 1e-9)
        assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(1e-9, abs=1e-12)

    def test_output_always_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            m = (m + m.T) / 2
            shifted, _ = psd_shift(m)
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-10

    def test_top_eigenvector_unchanged(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 5))
        m = (m + m.T) / 2
        shifted, _ = psd_shift(m)
        v_orig = top_k_eigs(m, 1).eigenvectors[:, 0]
        v_shift = top_k_eigs(shifted, 1).eigenvectors[:, 0]
        assert min(np.abs(v_orig - v_shift).max(), np.abs(v_orig + v_shift).max()) <= 1e-8
