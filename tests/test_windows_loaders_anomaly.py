"""Tests for tensor windowing, file loaders, and anomaly scoring."""

import numpy as np
import pytest

from repro.analysis.anomaly import (
    anomaly_threshold,
    row_anomaly_scores,
    slice_anomaly_scores,
    top_anomalies,
)
from repro.data.loaders import load_tensor_csv_dir, save_tensor_csv_dir
from repro.decomposition.dpar2 import dpar2
from repro.tensor.irregular import IrregularTensor
from repro.tensor.windows import (
    row_range_window,
    split_train_tail,
    trailing_window,
)
from repro.util.config import DecompositionConfig


@pytest.fixture
def tensor(rng):
    return IrregularTensor(
        [rng.standard_normal((n, 6)) for n in (20, 35, 15, 40)]
    )


class TestTrailingWindow:
    def test_keeps_covering_slices(self, tensor):
        windowed = trailing_window(tensor, 20)
        assert windowed.kept == [0, 1, 3]
        assert windowed.tensor.row_counts == [20, 20, 20]

    def test_rows_are_trailing(self, tensor):
        windowed = trailing_window(tensor, 10)
        np.testing.assert_array_equal(windowed.tensor[1], tensor[1][-10:])

    def test_require_full_false_keeps_short(self, tensor):
        windowed = trailing_window(tensor, 20, require_full=False)
        assert windowed.kept == [0, 1, 2, 3]
        assert windowed.tensor.row_counts == [20, 20, 15, 20]

    def test_original_index(self, tensor):
        windowed = trailing_window(tensor, 30)
        assert windowed.kept == [1, 3]
        assert windowed.original_index(1) == 3

    def test_no_coverage_raises(self, tensor):
        with pytest.raises(ValueError, match="no slice covers"):
            trailing_window(tensor, 100)

    def test_bad_length(self, tensor):
        with pytest.raises(ValueError, match="positive"):
            trailing_window(tensor, 0)


class TestRowRangeWindow:
    def test_range_semantics(self, tensor):
        windowed = row_range_window(tensor, 5, 15)
        assert windowed.tensor.row_counts == [10] * len(windowed.kept)
        k0 = windowed.kept[0]
        np.testing.assert_array_equal(
            windowed.tensor[0], tensor[k0][-15:-5]
        )

    def test_start_zero_is_trailing(self, tensor):
        a = row_range_window(tensor, 0, 15)
        b = trailing_window(tensor, 15)
        np.testing.assert_array_equal(a.tensor[0], b.tensor[0])

    def test_invalid_range(self, tensor):
        with pytest.raises(ValueError, match="start"):
            row_range_window(tensor, 5, 5)

    def test_nothing_covers(self, tensor):
        with pytest.raises(ValueError, match="covers"):
            row_range_window(tensor, 0, 1000)


class TestSplitTrainTail:
    def test_shapes(self, tensor):
        heads, tails = split_train_tail(tensor, 5)
        assert tails.row_counts == [5, 5, 5, 5]
        assert heads.row_counts == [15, 30, 10, 35]

    def test_content(self, tensor):
        heads, tails = split_train_tail(tensor, 5)
        np.testing.assert_array_equal(tails[2], tensor[2][-5:])
        np.testing.assert_array_equal(heads[2], tensor[2][:-5])

    def test_too_short_rejected(self, tensor):
        with pytest.raises(ValueError, match="cannot hold out"):
            split_train_tail(tensor, 15)


class TestCsvRoundtrip:
    def test_roundtrip(self, tensor, tmp_path):
        directory = tmp_path / "slices"
        save_tensor_csv_dir(directory, tensor)
        loaded, names = load_tensor_csv_dir(directory)
        assert len(names) == tensor.n_slices
        for a, b in zip(loaded, tensor):
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_custom_names_and_header(self, tensor, tmp_path):
        directory = tmp_path / "slices"
        names = [f"stock_{c}" for c in "abcd"]
        header = [f"f{i}" for i in range(6)]
        paths = save_tensor_csv_dir(directory, tensor, names=names,
                                    header=header)
        assert all(p.endswith(".csv") for p in paths)
        loaded, loaded_names = load_tensor_csv_dir(directory, has_header=True)
        assert loaded_names == sorted(names)
        assert loaded.n_columns == 6

    def test_name_count_mismatch(self, tensor, tmp_path):
        with pytest.raises(ValueError, match="names"):
            save_tensor_csv_dir(tmp_path / "x", tensor, names=["a"])

    def test_duplicate_names(self, tensor, tmp_path):
        with pytest.raises(ValueError, match="unique"):
            save_tensor_csv_dir(tmp_path / "x", tensor,
                                names=["a", "a", "b", "c"])

    def test_header_length_mismatch(self, tensor, tmp_path):
        with pytest.raises(ValueError, match="header"):
            save_tensor_csv_dir(tmp_path / "x", tensor, header=["only_one"])

    def test_empty_dir_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no .csv"):
            load_tensor_csv_dir(empty)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tensor_csv_dir(tmp_path / "nope")


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

    def test_top_anomalies_ordering(self, planted):
        tensor, bad = planted
        result = dpar2(tensor, DecompositionConfig(rank=3, max_iterations=20,
                                                   random_state=0))
        top = top_anomalies(result, tensor, k=3)
        assert top[0][0] == bad
        assert top[0][1] >= top[1][1] >= top[2][1]

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
