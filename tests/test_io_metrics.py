"""Tests for model persistence and factor metrics."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    congruence,
    factor_match_score,
    parafac2_factor_match,
    subspace_angle,
)
from repro.decomposition.dpar2 import dpar2
from repro.decomposition.result import Parafac2Result
from repro.util.config import DecompositionConfig


@pytest.fixture
def fitted(structured_tensor):
    config = DecompositionConfig(rank=4, max_iterations=6, random_state=0)
    return dpar2(structured_tensor, config)


class TestResultRoundtrip:
    def test_factors_preserved(self, fitted, tmp_path):
        path = tmp_path / "model"
        fitted.save(path)
        loaded = Parafac2Result.load(path)
        np.testing.assert_array_equal(loaded.H, fitted.H)
        np.testing.assert_array_equal(loaded.V, fitted.V)
        np.testing.assert_array_equal(loaded.S, fitted.S)
        for Qa, Qb in zip(loaded.Q, fitted.Q):
            np.testing.assert_array_equal(Qa, Qb)

    def test_metadata_preserved(self, fitted, tmp_path):
        path = tmp_path / "model"
        fitted.save(path)
        loaded = Parafac2Result.load(path)
        assert loaded.method == fitted.method
        assert loaded.n_iterations == fitted.n_iterations
        assert loaded.converged == fitted.converged
        assert loaded.preprocessed_bytes == fitted.preprocessed_bytes

    def test_history_preserved(self, fitted, tmp_path):
        path = tmp_path / "model"
        fitted.save(path)
        loaded = Parafac2Result.load(path)
        assert len(loaded.history) == len(fitted.history)
        assert loaded.history[0].criterion == pytest.approx(
            fitted.history[0].criterion
        )

    def test_fitness_identical_after_roundtrip(self, fitted, tmp_path,
                                               structured_tensor):
        path = tmp_path / "model"
        fitted.save(path)
        loaded = Parafac2Result.load(path)
        assert loaded.fitness(structured_tensor) == pytest.approx(
            fitted.fitness(structured_tensor)
        )


class TestCongruence:
    def test_identical_factors(self, rng):
        A = rng.standard_normal((10, 3))
        assert congruence(A, A) == pytest.approx(1.0)

    def test_permutation_invariant(self, rng):
        A = rng.standard_normal((10, 3))
        assert congruence(A, A[:, [2, 0, 1]]) == pytest.approx(1.0)

    def test_sign_invariant(self, rng):
        A = rng.standard_normal((10, 3))
        B = A * np.array([1.0, -1.0, 1.0])
        assert congruence(A, B) == pytest.approx(1.0)

    def test_scale_invariant(self, rng):
        A = rng.standard_normal((10, 3))
        assert congruence(A, A * 7.3) == pytest.approx(1.0)

    def test_unrelated_factors_low(self, rng):
        A = rng.standard_normal((200, 3))
        B = rng.standard_normal((200, 3))
        assert congruence(A, B) < 0.5

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shapes differ"):
            congruence(rng.standard_normal((5, 2)),
                       rng.standard_normal((5, 3)))


class TestSubspaceAngle:
    def test_same_subspace_zero(self, rng):
        A = rng.standard_normal((10, 3))
        mixing = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert subspace_angle(A, A @ mixing) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_subspaces(self):
        A = np.eye(6)[:, :2]
        B = np.eye(6)[:, 3:5]
        assert subspace_angle(A, B) == pytest.approx(np.pi / 2)

    def test_row_mismatch(self, rng):
        with pytest.raises(ValueError, match="different spaces"):
            subspace_angle(rng.standard_normal((5, 2)),
                           rng.standard_normal((6, 2)))


class TestFactorMatchScore:
    def test_identical(self, rng):
        factors = (rng.standard_normal((8, 3)), rng.standard_normal((5, 3)))
        assert factor_match_score(factors, factors) == pytest.approx(1.0)

    def test_permuted(self, rng):
        A = rng.standard_normal((8, 3))
        B = rng.standard_normal((5, 3))
        perm = [1, 2, 0]
        score = factor_match_score((A, B), (A[:, perm], B[:, perm]))
        assert score == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            factor_match_score((), ())

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="column count"):
            factor_match_score(
                (rng.standard_normal((5, 2)),),
                (rng.standard_normal((5, 3)),),
            )


class TestParafac2FactorMatch:
    def test_same_seed_runs_match(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=10,
                                     random_state=0)
        a = dpar2(structured_tensor, config)
        b = dpar2(structured_tensor, config)
        assert parafac2_factor_match(a, b) == pytest.approx(1.0)

    def test_methods_recover_same_structure(self):
        """On clean low-rank data, DPar2 and PARAFAC2-ALS must converge to
        essentially the same V/S factors."""
        from repro.decomposition.parafac2_als import parafac2_als
        from repro.tensor.random import low_rank_irregular_tensor

        tensor = low_rank_irregular_tensor([40, 50, 45], 25, rank=3,
                                           noise=0.0, random_state=4)
        config = DecompositionConfig(rank=3, max_iterations=80,
                                     tolerance=1e-12, power_iterations=2,
                                     random_state=4)
        fast = dpar2(tensor, config)
        exact = parafac2_als(tensor, config)
        assert parafac2_factor_match(fast, exact) > 0.9
