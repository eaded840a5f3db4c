"""Tests for truncated SVD, the Procrustes step, QR helpers and pseudoinverse."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_array_module import _LoopbackModule

from repro.decomposition.parafac2_als import procrustes_step
from repro.linalg.pinv import pseudoinverse, solve_gram
from repro.linalg.qr import random_orthonormal
from repro.linalg.truncated_svd import polar, truncated_svd
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sparse.ops import random_sparse
from repro.tensor.irregular import IrregularTensor
from tests.conftest import assert_orthonormal_columns


class TestTruncatedSVD:
    def test_matches_numpy_svd(self, rng):
        A = rng.standard_normal((20, 15))
        out = truncated_svd(A, 5)
        _, s, _ = np.linalg.svd(A)
        np.testing.assert_allclose(out.singular_values, s[:5], rtol=1e-10)

    def test_full_rank_reconstruction(self, rng):
        A = rng.standard_normal((10, 8))
        out = truncated_svd(A, 8)
        np.testing.assert_allclose(out.reconstruct(), A, atol=1e-10)

    def test_truncation_is_best_approximation(self, rng):
        A = rng.standard_normal((20, 15))
        out = truncated_svd(A, 3)
        _, s, _ = np.linalg.svd(A)
        expected_error = np.sqrt(np.sum(s[3:] ** 2))
        actual_error = np.linalg.norm(A - out.reconstruct())
        assert actual_error == pytest.approx(expected_error, rel=1e-10)

    def test_rank_capped(self, rng):
        out = truncated_svd(rng.standard_normal((4, 6)), 10)
        assert out.rank == 4

    def test_orthonormal_factors(self, rng):
        out = truncated_svd(rng.standard_normal((12, 9)), 4)
        assert_orthonormal_columns(out.U)
        assert_orthonormal_columns(out.V)


@st.composite
def polar_operands(draw, dtypes=(np.float64,)):
    """A seeded Gaussian ``m×n`` operand (``m >= n``) of a drawn dtype."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=n, max_value=12))
    dtype = draw(st.sampled_from(dtypes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((m, n)).astype(dtype), rng


class TestPolarFactor:
    """The one Procrustes step: ``polar`` and ``procrustes_step``."""

    @settings(max_examples=60, deadline=None)
    @given(polar_operands())
    def test_result_is_orthonormal(self, operand):
        A, _ = operand
        Q = polar(A)
        assert Q.shape == A.shape
        assert_orthonormal_columns(Q, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(polar_operands())
    def test_procrustes_optimality(self, operand):
        """Q = Z Pᵀ maximizes trace(Qᵀ A) over orthonormal Q."""
        A, rng = operand
        best = np.trace(polar(A).T @ A)
        for _ in range(20):
            other = random_orthonormal(*A.shape, rng)
            assert np.trace(other.T @ A) <= best + 1e-9 * max(1.0, abs(best))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 5), st.integers(1, 8), st.integers(1, 8)
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_matrix_calls(self, shape, dtype, seed):
        stack = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        stacked = polar(stack)
        assert stacked.dtype == np.dtype(dtype)
        for matrix, out in zip(stack, stacked):
            assert np.array_equal(out, polar(matrix))

    @settings(max_examples=30, deadline=None)
    @given(polar_operands(dtypes=(np.float32, np.float64)))
    def test_loopback_module_matches_numpy(self, operand):
        A, _ = operand
        assert np.array_equal(polar(A, xp=_LoopbackModule()), polar(A))

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(2, 20),
        n_columns=st.integers(2, 10),
        rank=st.integers(1, 4),
        density=st.sampled_from([0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_procrustes_step_on_csr_matches_dense(
        self, tmp_path_factory, rows, n_columns, rank, density, seed
    ):
        """A CSR slice gives the dense slice's step; a mapped one stays unpinned."""
        assume(rank <= min(rows, n_columns))
        rng = np.random.default_rng(seed)
        csr = random_sparse((rows, n_columns), density, rng)
        dense = csr.to_dense()
        target = rng.standard_normal((n_columns, rank))
        # Well-conditioned operands only: the polar factor of a nearly
        # rank-deficient product is ill-posed, whatever the kernel.
        assume(np.linalg.cond(dense @ target) < 1e4)
        store = IrregularTensor([csr], copy=False, density_threshold=1.0).to_store(
            tmp_path_factory.mktemp("store")
        )
        mapped = store.load_slice(0)
        assert isinstance(mapped.data, np.memmap)
        Q_dense, Y_dense = procrustes_step((dense, target))
        for Xk in (csr, mapped):
            Qk, Yk = procrustes_step((Xk, target))
            np.testing.assert_allclose(Qk, Q_dense, rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                Yk, Y_dense, rtol=0, atol=1e-10 * max(1.0, np.abs(dense).max())
            )
            assert Xk._transpose_cache is None


class TestRandomOrthonormal:
    def test_shape_and_orthogonality(self):
        Q = random_orthonormal(12, 5, random_state=0)
        assert Q.shape == (12, 5)
        assert_orthonormal_columns(Q)

    def test_deterministic(self):
        a = random_orthonormal(8, 3, random_state=5)
        b = random_orthonormal(8, 3, random_state=5)
        np.testing.assert_array_equal(a, b)

    def test_square_is_orthogonal(self):
        Q = random_orthonormal(6, 6, random_state=1)
        np.testing.assert_allclose(Q @ Q.T, np.eye(6), atol=1e-10)

    def test_too_many_columns_rejected(self):
        with pytest.raises(ValueError, match="orthonormal columns"):
            random_orthonormal(3, 5)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            random_orthonormal(0, 2)


class TestPseudoinverse:
    def test_inverse_of_invertible(self, rng):
        A = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        np.testing.assert_allclose(pseudoinverse(A), np.linalg.inv(A), atol=1e-8)

    def test_penrose_conditions(self, rng):
        A = rng.standard_normal((6, 4))
        A_pinv = pseudoinverse(A)
        np.testing.assert_allclose(A @ A_pinv @ A, A, atol=1e-9)
        np.testing.assert_allclose(A_pinv @ A @ A_pinv, A_pinv, atol=1e-9)

    def test_rank_deficient(self, rng):
        u = rng.standard_normal((5, 1))
        v = rng.standard_normal((1, 5))
        A = u @ v  # rank 1
        A_pinv = pseudoinverse(A)
        np.testing.assert_allclose(A @ A_pinv @ A, A, atol=1e-9)

    def test_matches_numpy(self, rng):
        A = rng.standard_normal((7, 3))
        np.testing.assert_allclose(pseudoinverse(A), np.linalg.pinv(A), atol=1e-9)


class TestSolveGram:
    def test_matches_pinv_solution(self, rng):
        G = rng.standard_normal((4, 8))
        gram = G @ G.T + 0.1 * np.eye(4)  # SPD
        rhs = rng.standard_normal((6, 4))
        out = solve_gram(gram, rhs)
        np.testing.assert_allclose(out, rhs @ np.linalg.inv(gram), atol=1e-8)

    def test_singular_gram_falls_back(self, rng):
        gram = np.zeros((3, 3))
        gram[0, 0] = 1.0  # rank 1
        rhs = rng.standard_normal((4, 3))
        out = solve_gram(gram, rhs)
        np.testing.assert_allclose(out, rhs @ np.linalg.pinv(gram), atol=1e-9)

    def test_fallback_is_counted(self, rng):
        """Each pseudoinverse fallback bumps one counter; Cholesky solves
        never touch the registry."""
        rhs = rng.standard_normal((4, 3))
        G = rng.standard_normal((3, 2))
        rank_deficient = G @ G.T  # rank 2 of 3
        registry = MetricsRegistry()
        with use_registry(registry):
            solve_gram(np.eye(3) + rank_deficient, rhs)
            assert registry.snapshot() == {}
            out = solve_gram(rank_deficient, rhs)
            solve_gram(rank_deficient, rhs)
        np.testing.assert_allclose(out, rhs @ np.linalg.pinv(rank_deficient), atol=1e-9)
        assert registry.counter("repro_decompose_pinv_fallbacks_total").value == 2

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="columns"):
            solve_gram(np.eye(3), np.ones((2, 4)))

    def test_non_square_gram_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_gram(np.ones((2, 3)), np.ones((2, 3)))
