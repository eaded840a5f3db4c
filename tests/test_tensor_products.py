"""Tests for the Khatri-Rao / Hadamard products and vec."""

import numpy as np
import pytest

from repro.tensor.matricization import unfold
from repro.tensor.products import hadamard, khatri_rao, vec


class TestKhatriRao:
    def test_columns_are_kroneckers(self, rng):
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((5, 4))
        KR = khatri_rao(A, B)
        assert KR.shape == (15, 4)
        for r in range(4):
            np.testing.assert_allclose(
                KR[:, r], np.kron(A[:, r], B[:, r]), atol=1e-12
            )

    def test_column_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="column counts"):
            khatri_rao(rng.standard_normal((3, 4)), rng.standard_normal((3, 5)))

    def test_cp_unfolding_identity(self, rng):
        """X(1) = A (C ⊙ B)ᵀ for a CP tensor — ties products to unfolding."""
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((5, 3))
        C = rng.standard_normal((6, 3))
        X = np.einsum("ir,jr,kr->ijk", A, B, C)
        np.testing.assert_allclose(
            unfold(X, 1), A @ khatri_rao(C, B).T, atol=1e-10
        )
        np.testing.assert_allclose(
            unfold(X, 2), B @ khatri_rao(C, A).T, atol=1e-10
        )
        np.testing.assert_allclose(
            unfold(X, 3), C @ khatri_rao(B, A).T, atol=1e-10
        )


class TestHadamard:
    def test_two_matrices(self, rng):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(hadamard(A, B), A * B)

    def test_three_matrices(self, rng):
        A, B, C = (rng.standard_normal((2, 4)) for _ in range(3))
        np.testing.assert_allclose(hadamard(A, B, C), A * B * C)

    def test_single_matrix_copies(self, rng):
        A = rng.standard_normal((2, 2))
        out = hadamard(A)
        out[0, 0] = 123.0
        assert A[0, 0] != 123.0

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape mismatch"):
            hadamard(np.ones((2, 2)), np.ones((3, 2)))

    def test_no_args_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            hadamard()

    def test_khatri_rao_gram_identity(self, rng):
        """(A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB — the normal-matrix shortcut."""
        A = rng.standard_normal((6, 3))
        B = rng.standard_normal((4, 3))
        KR = khatri_rao(A, B)
        np.testing.assert_allclose(
            KR.T @ KR, hadamard(A.T @ A, B.T @ B), atol=1e-10
        )


class TestVec:
    def test_column_major(self):
        A = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(A), [1.0, 2.0, 3.0, 4.0])

    def test_vec_of_product_identity(self, rng):
        """vec(AB) = (Bᵀ ⊗ I) vec(A) — used in Lemma 3's proof."""
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((4, 5))
        left = vec(A @ B)
        right = np.kron(B.T, np.eye(3)) @ vec(A)
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_vector_input_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            vec(np.ones(4))
