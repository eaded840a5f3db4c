"""Tests for truncated SVD, QR helpers, pseudoinverse, and Gram SVD."""

import numpy as np
import pytest

from repro.linalg.gram import gram_svd
from repro.linalg.pinv import pseudoinverse, solve_gram
from repro.linalg.qr import random_orthonormal
from repro.linalg.truncated_svd import svd_polar_factor, truncated_svd
from repro.obs.metrics import MetricsRegistry, use_registry
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


class TestPolarFactor:
    def test_result_is_orthonormal(self, rng):
        A = rng.standard_normal((20, 5))
        Q = svd_polar_factor(A, 5)
        assert_orthonormal_columns(Q)

    def test_procrustes_optimality(self, rng):
        """Q = Z Pᵀ maximizes trace(Qᵀ A) over orthonormal Q."""
        A = rng.standard_normal((15, 4))
        Q = svd_polar_factor(A, 4)
        best = np.trace(Q.T @ A)
        for _ in range(20):
            other = random_orthonormal(15, 4, rng)
            assert np.trace(other.T @ A) <= best + 1e-9


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


class TestGramSVD:
    def test_matches_concatenated_svd(self, rng):
        slices = [rng.standard_normal((n, 6)) for n in (10, 14, 8)]
        V, sv = gram_svd(slices, 4)
        stacked = np.concatenate(slices, axis=0)
        _, s_exact, Vt_exact = np.linalg.svd(stacked, full_matrices=False)
        np.testing.assert_allclose(sv, s_exact[:4], rtol=1e-8)
        # Compare subspaces (sign-insensitive): projectors must match.
        P_ours = V @ V.T
        V_exact = Vt_exact[:4].T
        P_exact = V_exact @ V_exact.T
        np.testing.assert_allclose(P_ours, P_exact, atol=1e-8)

    def test_orthonormal_output(self, rng):
        slices = [rng.standard_normal((n, 5)) for n in (7, 9)]
        V, _ = gram_svd(slices, 3)
        assert_orthonormal_columns(V)

    def test_rank_capped_by_columns(self, rng):
        slices = [rng.standard_normal((10, 4))]
        V, sv = gram_svd(slices, 9)
        assert V.shape == (4, 4)
        assert sv.shape == (4,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            gram_svd([], 2)

    def test_column_mismatch_rejected(self, rng):
        slices = [rng.standard_normal((5, 4)), rng.standard_normal((5, 6))]
        with pytest.raises(ValueError, match="columns"):
            gram_svd(slices, 2)
