"""Tests for the PARAFAC2-ALS baseline (Algorithm 2)."""

import numpy as np
import pytest

from repro.decomposition.parafac2_als import parafac2_als, procrustes_step
from repro.decomposition.result import residuals_from_projections
from repro.util.config import DecompositionConfig
from tests.conftest import assert_valid_parafac2_result


class TestUpdateOrthogonalFactor:
    """The per-slice ``Qk`` update, through ``procrustes_step``."""

    def test_orthonormal(self, rng):
        Xk = rng.standard_normal((20, 8))
        target = rng.standard_normal((8, 4))
        Qk, Yk = procrustes_step((Xk, target))
        np.testing.assert_allclose(Qk.T @ Qk, np.eye(4), atol=1e-10)
        np.testing.assert_array_equal(Yk, Qk.T @ Xk)

    def test_procrustes_optimality(self, rng):
        """Qk maximizes trace(Qkᵀ Xk M) over orthonormal Qk."""
        from repro.linalg.qr import random_orthonormal

        Xk = rng.standard_normal((15, 6))
        target = rng.standard_normal((6, 3))
        Qk, _ = procrustes_step((Xk, target))
        best = np.trace(Qk.T @ (Xk @ target))
        for _ in range(25):
            other = random_orthonormal(15, 3, rng)
            assert np.trace(other.T @ (Xk @ target)) <= best + 1e-8


class TestReconstructionError:
    def test_matches_naive(self, small_tensor, rng):
        """The kernel's error from ``Yk = Qkᵀ Xk`` (the projections
        PARAFAC2-ALS hands it) must equal the direct computation."""
        R = 3
        Q = []
        for Xk in small_tensor:
            Z, _, Pt = np.linalg.svd(
                Xk @ rng.standard_normal((small_tensor.n_columns, R)),
                full_matrices=False,
            )
            Q.append(Z @ Pt)
        H = rng.standard_normal((R, R))
        V = rng.standard_normal((small_tensor.n_columns, R))
        W = rng.standard_normal((small_tensor.n_slices, R))
        Y_slices = [Q[k].T @ Xk for k, Xk in enumerate(small_tensor)]
        norms = np.array([np.sum(Xk**2) for Xk in small_tensor])

        P = np.stack([Yk @ V for Yk in Y_slices])
        fast = residuals_from_projections(norms, P, H, W, V).sum()
        naive = sum(
            np.sum((Xk - Q[k] @ (H * W[k]) @ V.T) ** 2)
            for k, Xk in enumerate(small_tensor)
        )
        assert fast == pytest.approx(naive, rel=1e-9)


class TestParafac2Als:
    def test_result_structure(self, small_tensor, default_config):
        result = parafac2_als(small_tensor, default_config)
        assert result.method == "parafac2_als"
        assert_valid_parafac2_result(result, small_tensor)

    def test_fits_noiseless_data_perfectly(self, noiseless_tensor):
        config = DecompositionConfig(rank=3, max_iterations=100,
                                     tolerance=1e-12, random_state=0)
        result = parafac2_als(noiseless_tensor, config)
        assert result.fitness(noiseless_tensor) > 0.995

    def test_criterion_monotone(self, structured_tensor, default_config):
        result = parafac2_als(structured_tensor, default_config)
        values = [record.criterion for record in result.history]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-6 * max(abs(earlier), 1.0)

    def test_fitness_in_unit_interval(self, structured_tensor, default_config):
        result = parafac2_als(structured_tensor, default_config)
        assert 0.0 <= result.fitness(structured_tensor) <= 1.0

    def test_rank_capped_by_data(self, rng):
        from repro.tensor.random import random_irregular_tensor

        tensor = random_irregular_tensor([5, 6], 4, random_state=0)
        result = parafac2_als(tensor, DecompositionConfig(rank=10,
                                                          max_iterations=3))
        assert result.rank == 4  # capped by J

    def test_keyword_overrides(self, small_tensor, default_config):
        result = parafac2_als(small_tensor, default_config, max_iterations=2)
        assert result.n_iterations <= 2

    def test_no_preprocessing(self, small_tensor, default_config):
        result = parafac2_als(small_tensor, default_config)
        assert result.preprocess_seconds == 0.0
        assert result.preprocessed_bytes == small_tensor.nbytes

    def test_history_length_matches_iterations(self, small_tensor,
                                                default_config):
        result = parafac2_als(small_tensor, default_config)
        assert len(result.history) == result.n_iterations

    def test_accepts_plain_slice_list(self, rng):
        slices = [rng.standard_normal((10, 6)) for _ in range(3)]
        result = parafac2_als(slices, DecompositionConfig(rank=2,
                                                          max_iterations=3))
        assert result.n_slices == 3

    def test_converges_with_loose_tolerance(self, noiseless_tensor):
        config = DecompositionConfig(rank=3, max_iterations=100,
                                     tolerance=1e-3, random_state=0)
        result = parafac2_als(noiseless_tensor, config)
        assert result.converged
        assert result.n_iterations < 100
