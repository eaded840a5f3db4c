"""Tests for DenseTensor and the random tensor constructors."""

import numpy as np
import pytest

from repro.tensor.dense import DenseTensor
from repro.tensor.random import low_rank_irregular_tensor, random_irregular_tensor


class TestDenseTensor:
    def test_shape_and_data(self, rng):
        X = DenseTensor(rng.standard_normal((3, 4, 5)))
        assert X.shape == (3, 4, 5)
        assert X.nbytes == 3 * 4 * 5 * 8

    def test_rejects_matrix(self, rng):
        with pytest.raises(ValueError, match="3-order"):
            DenseTensor(rng.standard_normal((3, 4)))

    def test_rejects_nan(self):
        bad = np.ones((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            DenseTensor(bad)

    def test_frontal_slice(self, rng):
        data = rng.standard_normal((3, 4, 5))
        X = DenseTensor(data)
        np.testing.assert_array_equal(X.frontal_slice(2), data[:, :, 2])

    def test_from_frontal_slices_roundtrip(self, rng):
        slices = [rng.standard_normal((3, 4)) for _ in range(5)]
        X = DenseTensor.from_frontal_slices(slices)
        for k in range(5):
            np.testing.assert_array_equal(X.frontal_slice(k), slices[k])

    def test_from_frontal_slices_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            DenseTensor.from_frontal_slices(
                [rng.standard_normal((3, 4)), rng.standard_normal((4, 4))]
            )

    def test_from_cp_factors(self, rng):
        A = rng.standard_normal((4, 2))
        B = rng.standard_normal((5, 2))
        C = rng.standard_normal((6, 2))
        X = DenseTensor.from_cp_factors((A, B, C))
        expected = np.einsum("ir,jr,kr->ijk", A, B, C)
        np.testing.assert_allclose(X.data, expected, atol=1e-10)

    def test_from_cp_factors_with_weights(self, rng):
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((3, 2))
        C = rng.standard_normal((3, 2))
        lam = np.array([2.0, 0.5])
        X = DenseTensor.from_cp_factors((A, B, C), lam)
        expected = np.einsum("r,ir,jr,kr->ijk", lam, A, B, C)
        np.testing.assert_allclose(X.data, expected, atol=1e-10)

    def test_from_cp_rank_mismatch(self, rng):
        with pytest.raises(ValueError, match="rank"):
            DenseTensor.from_cp_factors(
                (rng.standard_normal((3, 2)), rng.standard_normal((3, 3)),
                 rng.standard_normal((3, 2)))
            )

    def test_norm(self, rng):
        data = rng.standard_normal((2, 3, 4))
        assert DenseTensor(data).norm() == pytest.approx(np.linalg.norm(data.ravel()))


class TestRandomConstructors:
    def test_irregular_row_profile(self):
        t = random_irregular_tensor([3, 9, 5], 7, random_state=0)
        assert t.row_counts == [3, 9, 5]
        assert t.n_columns == 7

    def test_low_rank_structure_is_exact(self):
        t = low_rank_irregular_tensor([20, 25], 15, rank=3, noise=0.0,
                                      random_state=0)
        for Xk in t:
            s = np.linalg.svd(Xk, compute_uv=False)
            assert s[3] < 1e-10 * s[0]  # numerically rank 3

    def test_low_rank_noise_added(self):
        clean = low_rank_irregular_tensor([20], 15, rank=3, noise=0.0,
                                          random_state=5)
        noisy = low_rank_irregular_tensor([20], 15, rank=3, noise=0.5,
                                          random_state=5)
        assert not np.allclose(clean[0], noisy[0])

    def test_low_rank_rank_exceeds_columns(self):
        with pytest.raises(ValueError, match="rank"):
            low_rank_irregular_tensor([20], 4, rank=6)

    def test_low_rank_slice_too_short(self):
        with pytest.raises(ValueError, match="rows"):
            low_rank_irregular_tensor([2], 10, rank=5)

    def test_low_rank_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            low_rank_irregular_tensor([20], 10, rank=3, noise=-0.1)
