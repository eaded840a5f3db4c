"""Tests for the CP-ALS kernels the PARAFAC2 solvers share."""

import numpy as np
import pytest

from repro.decomposition.cp_als import (
    cp_single_iteration,
    normalize_columns,
    slice_mttkrp,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.products import khatri_rao


class TestNormalizeColumns:
    def test_unit_norms(self, rng):
        A = rng.standard_normal((10, 4)) * 5
        normalized, norms = normalize_columns(A)
        np.testing.assert_allclose(
            np.linalg.norm(normalized, axis=0), np.ones(4), atol=1e-12
        )

    def test_reconstruction(self, rng):
        A = rng.standard_normal((10, 4))
        normalized, norms = normalize_columns(A)
        np.testing.assert_allclose(normalized * norms, A, atol=1e-12)

    def test_zero_column_untouched(self):
        A = np.zeros((5, 2))
        A[:, 0] = 1.0
        normalized, norms = normalize_columns(A)
        np.testing.assert_array_equal(normalized[:, 1], np.zeros(5))
        assert norms[1] == 1.0


class TestSliceMttkrp:
    """slice_mttkrp must equal the naive unfold @ khatri_rao computation."""

    @pytest.fixture
    def setup(self, rng):
        R, J, K = 4, 7, 6
        slices = [rng.standard_normal((R, J)) for _ in range(K)]
        Y = DenseTensor.from_frontal_slices(slices)
        H = rng.standard_normal((R, R))
        V = rng.standard_normal((J, R))
        W = rng.standard_normal((K, R))
        return slices, Y, H, V, W

    def test_mode_1(self, setup):
        slices, Y, H, V, W = setup
        expected = Y.unfold(1) @ khatri_rao(W, V)
        np.testing.assert_allclose(
            slice_mttkrp(slices, H, V, W, mode=1), expected, atol=1e-10
        )

    def test_mode_2(self, setup):
        slices, Y, H, V, W = setup
        expected = Y.unfold(2) @ khatri_rao(W, H)
        np.testing.assert_allclose(
            slice_mttkrp(slices, H, V, W, mode=2), expected, atol=1e-10
        )

    def test_mode_3(self, setup):
        slices, Y, H, V, W = setup
        expected = Y.unfold(3) @ khatri_rao(V, H)
        np.testing.assert_allclose(
            slice_mttkrp(slices, H, V, W, mode=3), expected, atol=1e-10
        )

    def test_bad_mode(self, setup):
        slices, _, H, V, W = setup
        with pytest.raises(ValueError, match="mode"):
            slice_mttkrp(slices, H, V, W, mode=4)


class TestCpSingleIteration:
    def test_monotone_error_decrease(self, rng):
        """One ALS sweep must not increase the fit error."""
        A = rng.standard_normal((5, 3))
        B = rng.standard_normal((8, 3))
        C = rng.standard_normal((6, 3))
        X = DenseTensor.from_cp_factors((A, B, C))
        unf = (X.unfold(1), X.unfold(2), X.unfold(3))

        H = rng.standard_normal((5, 3))
        V = rng.standard_normal((8, 3))
        W = rng.standard_normal((6, 3))

        def error(H, V, W):
            approx = DenseTensor.from_cp_factors((H, V, W)).data
            return np.linalg.norm(X.data - approx)

        prev = error(H, V, W)
        for _ in range(5):
            H, V, W = cp_single_iteration(unf, H, V, W)
            cur = error(H, V, W)
            assert cur <= prev + 1e-8
            prev = cur

    def test_normalization_flag(self, rng):
        X = DenseTensor(rng.standard_normal((4, 5, 6)))
        unf = (X.unfold(1), X.unfold(2), X.unfold(3))
        H0 = rng.standard_normal((4, 2))
        V0 = rng.standard_normal((5, 2))
        W0 = rng.standard_normal((6, 2))
        H, V, W = cp_single_iteration(unf, H0, V0, W0, normalize=True)
        np.testing.assert_allclose(np.linalg.norm(H, axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-10)
