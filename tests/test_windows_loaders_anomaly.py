"""Tests for anomaly scoring."""

import numpy as np
import pytest

from repro.analysis.anomaly import (
    anomaly_threshold,
    row_anomaly_scores,
    slice_anomaly_scores,
)
from repro.decomposition.dpar2 import dpar2
from repro.tensor.irregular import IrregularTensor
from repro.util.config import DecompositionConfig


class TestAnomalyScores:
    @pytest.fixture
    def planted(self, rng):
        """Low-rank tensor with one corrupted slice (corruption scaled to
        the data so it is an anomaly, not the dominant signal)."""
        from repro.tensor.random import low_rank_irregular_tensor

        tensor = low_rank_irregular_tensor(
            [30] * 8, 20, rank=3, noise=0.005, random_state=5
        )
        slices = [Xk.copy() for Xk in tensor]
        scale = 0.5 * slices[4].std()
        slices[4] = slices[4] + scale * rng.standard_normal(slices[4].shape)
        return IrregularTensor(slices), 4

    def test_corrupted_slice_scores_highest(self, planted):
        tensor, bad = planted
        config = DecompositionConfig(rank=3, max_iterations=20,
                                     random_state=0)
        result = dpar2(tensor, config)
        scores = slice_anomaly_scores(result, tensor)
        assert int(np.argmax(scores)) == bad

    def test_threshold_flags_only_the_bad_slice(self, planted):
        tensor, bad = planted
        result = dpar2(tensor, DecompositionConfig(rank=3, max_iterations=20,
                                                   random_state=0))
        scores = slice_anomaly_scores(result, tensor)
        threshold = anomaly_threshold(scores)
        flagged = [i for i, s in enumerate(scores) if s > threshold]
        assert flagged == [bad]

    def test_row_scores_localize(self, rng):
        """Corrupting a few rows must raise their row scores specifically.

        PARAFAC2's slice-specific Qk can absorb part of a row anomaly, so
        the assertion is statistical: all three corrupted rows in the top
        six, at least two in the top three."""
        from repro.tensor.random import low_rank_irregular_tensor

        tensor = low_rank_irregular_tensor([40] * 5, 16, rank=3,
                                           noise=0.005, random_state=6)
        slices = [Xk.copy() for Xk in tensor]
        scale = 2.0 * slices[2].std()
        slices[2][10:13] += scale * rng.standard_normal((3, 16))
        corrupted = IrregularTensor(slices)
        result = dpar2(corrupted, DecompositionConfig(rank=3,
                                                      max_iterations=20,
                                                      random_state=0))
        rows = row_anomaly_scores(result, corrupted, 2)
        top3 = set(int(i) for i in np.argsort(rows)[-3:])
        top6 = set(int(i) for i in np.argsort(rows)[-6:])
        assert {10, 11, 12} <= top6
        assert len({10, 11, 12} & top3) >= 2

    def test_csr_slices_score_like_their_dense_form(self):
        """The bundled CSR dataset scores without densifying, and equals
        the scores of its densified copy."""
        from repro.data.registry import load_dataset

        sparse = load_dataset("sparse", random_state=0)
        assert sparse.has_sparse_slices
        result = dpar2(sparse, DecompositionConfig(rank=10, random_state=0))
        np.testing.assert_allclose(
            slice_anomaly_scores(result, sparse),
            slice_anomaly_scores(result, sparse.densified()),
            rtol=1e-12,
        )

    def test_scores_match_dense_residual(self, planted):
        tensor, _ = planted
        slices = list(tensor.slices)
        slices[1] = np.zeros_like(slices[1])
        tensor = IrregularTensor(slices)
        result = dpar2(tensor, DecompositionConfig(rank=3, max_iterations=5,
                                                   random_state=0))
        scores = slice_anomaly_scores(result, tensor)
        assert scores[1] == 0.0  # zero-norm slices score 0
        for k in (0, 2, 4):
            expected = (np.linalg.norm(tensor[k] - result.reconstruct_slice(k))
                        / np.linalg.norm(tensor[k]))
            assert scores[k] == pytest.approx(expected, rel=1e-9)

    def test_slice_count_mismatch(self, planted):
        tensor, _ = planted
        result = dpar2(tensor, DecompositionConfig(rank=3, max_iterations=2,
                                                   random_state=0))
        with pytest.raises(ValueError, match="slices"):
            slice_anomaly_scores(result, tensor.subset([0, 1]))

    def test_row_scores_bad_slice_index(self, planted):
        tensor, _ = planted
        result = dpar2(tensor, DecompositionConfig(rank=3, max_iterations=2,
                                                   random_state=0))
        with pytest.raises(IndexError):
            row_anomaly_scores(result, tensor, 99)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            anomaly_threshold([])
        with pytest.raises(ValueError, match="n_sigmas"):
            anomaly_threshold([1.0, 2.0], n_sigmas=0.0)
