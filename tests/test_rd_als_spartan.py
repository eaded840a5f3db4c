"""Tests for the RD-ALS and SPARTan baselines."""

import numpy as np
import pytest

from repro.decomposition.rd_als import rd_als
from repro.decomposition.spartan import spartan
from repro.sparse.ops import dense_to_sparse
from repro.util.config import DecompositionConfig
from tests.conftest import assert_valid_parafac2_result


class TestRdAls:
    def test_result_structure(self, small_tensor, default_config):
        result = rd_als(small_tensor, default_config)
        assert result.method == "rd_als"
        assert_valid_parafac2_result(result, small_tensor)

    def test_fits_noiseless_data(self, noiseless_tensor):
        config = DecompositionConfig(rank=3, max_iterations=100,
                                     tolerance=1e-12, random_state=0)
        result = rd_als(noiseless_tensor, config)
        assert result.fitness(noiseless_tensor) > 0.995

    def test_has_preprocessing(self, small_tensor, default_config):
        result = rd_als(small_tensor, default_config)
        assert result.preprocess_seconds > 0.0
        assert 0 < result.preprocessed_bytes < small_tensor.nbytes

    def test_criterion_monotone(self, structured_tensor, default_config):
        result = rd_als(structured_tensor, default_config)
        values = [r.criterion for r in result.history]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-6 * max(abs(earlier), 1.0)

    def test_criterion_is_true_error(self, structured_tensor, default_config):
        """RD-ALS's criterion must equal the exact reconstruction error."""
        result = rd_als(structured_tensor, default_config)
        final = result.history[-1].criterion
        exact = result.residual_squared(structured_tensor)
        assert final == pytest.approx(exact, rel=1e-6)

    def test_comparable_fitness_to_als(self, structured_tensor):
        from repro.decomposition.parafac2_als import parafac2_als

        config = DecompositionConfig(rank=4, max_iterations=30, random_state=0)
        fit_rd = rd_als(structured_tensor, config).fitness(structured_tensor)
        fit_als = parafac2_als(structured_tensor, config).fitness(structured_tensor)
        assert abs(fit_rd - fit_als) < 0.05

    def test_V_shape_lifted_back(self, small_tensor, default_config):
        result = rd_als(small_tensor, default_config)
        assert result.V.shape == (small_tensor.n_columns, result.rank)


class TestSpartan:
    def test_result_structure(self, small_tensor, default_config):
        result = spartan(small_tensor, default_config)
        assert result.method == "spartan"
        assert_valid_parafac2_result(result, small_tensor)

    def test_fits_noiseless_data(self, noiseless_tensor):
        config = DecompositionConfig(rank=3, max_iterations=100,
                                     tolerance=1e-12, random_state=0)
        result = spartan(noiseless_tensor, config)
        assert result.fitness(noiseless_tensor) > 0.995

    def test_matches_parafac2_als_exactly(self, structured_tensor):
        """Same maths, same init, same seed -> same trajectory."""
        from repro.decomposition.parafac2_als import parafac2_als

        config = DecompositionConfig(rank=4, max_iterations=10,
                                     tolerance=0.0, random_state=3)
        a = parafac2_als(structured_tensor, config)
        b = spartan(structured_tensor, config)
        np.testing.assert_allclose(a.V, b.V, atol=1e-8)
        np.testing.assert_allclose(a.S, b.S, atol=1e-8)
        assert a.fitness(structured_tensor) == pytest.approx(
            b.fitness(structured_tensor), abs=1e-8
        )

    def test_sparse_slices_accepted(self, rng):
        dense_slices = []
        for n in (12, 15, 10):
            Xk = rng.standard_normal((n, 8))
            Xk[np.abs(Xk) < 0.8] = 0.0
            dense_slices.append(Xk)
        sparse_slices = [dense_to_sparse(Xk) for Xk in dense_slices]

        config = DecompositionConfig(rank=3, max_iterations=10,
                                     tolerance=0.0, random_state=0)
        dense_result = spartan(dense_slices, config)
        sparse_result = spartan(sparse_slices, config)
        np.testing.assert_allclose(dense_result.V, sparse_result.V, atol=1e-8)
        np.testing.assert_allclose(dense_result.S, sparse_result.S, atol=1e-8)

    def test_threaded_matches_sequential(self, structured_tensor):
        config = DecompositionConfig(rank=4, max_iterations=8,
                                     tolerance=0.0, random_state=1)
        seq = spartan(structured_tensor, config)
        par = spartan(structured_tensor, config.with_(n_threads=4))
        np.testing.assert_allclose(seq.V, par.V, atol=1e-8)
        np.testing.assert_allclose(seq.H, par.H, atol=1e-8)

    def test_empty_slice_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            spartan([], DecompositionConfig(rank=2))

    def test_column_mismatch_rejected(self, rng):
        slices = [rng.standard_normal((5, 4)), rng.standard_normal((5, 6))]
        with pytest.raises(ValueError, match="columns"):
            spartan(slices, DecompositionConfig(rank=2))

    def test_nan_in_csr_slice_rejected_before_sweeping(self, rng, monkeypatch):
        """A list input is validated as an IrregularTensor: a NaN in a CSR
        slice is a ValueError naming the slice, raised before any sweep
        work (not an SVD failure inside sweep 1)."""
        import importlib

        # The package re-exports the function under the module's name.
        spartan_module = importlib.import_module("repro.decomposition.spartan")

        def no_sweeps(item):
            raise AssertionError("sweep work started on invalid input")

        monkeypatch.setattr(spartan_module, "procrustes_step", no_sweeps)
        slices = [dense_to_sparse(rng.standard_normal((n, 6))) for n in (8, 9, 7)]
        slices[2].data[3] = np.nan
        with pytest.raises(ValueError, match=r"slices\[2\] contains NaN"):
            spartan(slices, DecompositionConfig(rank=2, max_iterations=2))

    def test_list_keeps_dense_csr_slices_sparse(self, rng):
        """CSR slices given in a list stay CSR at any density."""
        dense = [rng.standard_normal((n, 5)) for n in (6, 7)]
        config = DecompositionConfig(rank=2, max_iterations=3, tolerance=0.0,
                                     random_state=0)
        sparse_result = spartan([dense_to_sparse(Xk) for Xk in dense], config)
        dense_result = spartan(dense, config)
        assert sparse_result.preprocessed_bytes > dense_result.preprocessed_bytes
        np.testing.assert_allclose(sparse_result.V, dense_result.V, atol=1e-8)
