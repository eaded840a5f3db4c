"""Tests for the from-scratch COO/CSR sparse substrate."""

import numpy as np
import pytest

import repro.sparse.stacked as stacked_module
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import dense_to_sparse, random_sparse
from repro.sparse.stacked import StackedCsr, spmm_backend


@pytest.fixture
def dense(rng):
    A = rng.standard_normal((6, 8))
    A[A < 0.3] = 0.0  # make it actually sparse
    return A


class TestCoo:
    def test_roundtrip_dense(self, dense):
        coo = CooMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.to_dense(), dense)

    def test_nnz(self, dense):
        coo = CooMatrix.from_dense(dense)
        assert coo.nnz == np.count_nonzero(dense)

    def test_duplicates_summed_in_to_dense(self):
        coo = CooMatrix((2, 2), [0, 0], [1, 1], [2.0, 3.0])
        assert coo.to_dense()[0, 1] == 5.0

    def test_duplicates_summed_in_csr(self):
        csr = CooMatrix((2, 2), [0, 0], [1, 1], [2.0, 3.0]).to_csr()
        assert csr.to_dense()[0, 1] == 5.0
        assert csr.nnz == 1

    def test_cancelled_duplicates_dropped(self):
        csr = CooMatrix((2, 2), [0, 0], [1, 1], [2.0, -2.0]).to_csr()
        assert csr.nnz == 0

    def test_threshold(self, dense):
        coo = CooMatrix.from_dense(dense, threshold=0.5)
        assert np.all(np.abs(coo.values) > 0.5)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            CooMatrix((2, 2), [2], [0], [1.0])
        with pytest.raises(ValueError, match="out of bounds"):
            CooMatrix((2, 2), [0], [5], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            CooMatrix((2, 2), [0, 1], [0], [1.0])

    def test_empty_to_csr(self):
        csr = CooMatrix((3, 4), [], [], []).to_csr()
        assert csr.nnz == 0
        np.testing.assert_array_equal(csr.to_dense(), np.zeros((3, 4)))


class TestCsr:
    def test_roundtrip(self, dense):
        csr = dense_to_sparse(dense)
        np.testing.assert_array_equal(csr.to_dense(), dense)

    def test_matvec(self, dense, rng):
        csr = dense_to_sparse(dense)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(csr.matvec(x), dense @ x, atol=1e-12)

    def test_matvec_length_check(self, dense):
        csr = dense_to_sparse(dense)
        with pytest.raises(ValueError, match="length"):
            csr.matvec(np.ones(3))

    def test_matmul_dense(self, dense, rng):
        csr = dense_to_sparse(dense)
        B = rng.standard_normal((8, 3))
        np.testing.assert_allclose(csr.matmul_dense(B), dense @ B, atol=1e-12)

    def test_rmatmul_dense(self, dense, rng):
        csr = dense_to_sparse(dense)
        B = rng.standard_normal((6, 4))
        np.testing.assert_allclose(B.T @ csr, B.T @ dense, atol=1e-12)

    def test_transpose(self, dense):
        csr = dense_to_sparse(dense)
        np.testing.assert_array_equal(csr.transpose().to_dense(), dense.T)

    def test_squared_norm(self, dense):
        csr = dense_to_sparse(dense)
        assert csr.squared_norm() == pytest.approx(np.sum(dense**2))

    def test_row_norms(self, dense):
        csr = dense_to_sparse(dense)
        np.testing.assert_allclose(
            csr.row_norms_squared(), np.sum(dense**2, axis=1), atol=1e-12
        )

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])  # wrong indptr length

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix((2, 2), [0, 2, 1], [0], [1.0])

    def test_density(self, dense):
        csr = dense_to_sparse(dense)
        assert csr.density == pytest.approx(csr.nnz / dense.size)


class TestOps:
    def test_random_sparse_density(self):
        csr = random_sparse((50, 40), 0.1, random_state=0)
        assert csr.nnz == round(0.1 * 50 * 40)

    def test_random_sparse_zero_density(self):
        csr = random_sparse((5, 5), 0.0, random_state=0)
        assert csr.nnz == 0

    def test_random_sparse_bad_density(self):
        with pytest.raises(ValueError, match="density"):
            random_sparse((5, 5), 1.5)

    def test_random_sparse_no_duplicates(self):
        csr = random_sparse((10, 10), 0.5, random_state=1)
        dense = csr.to_dense()
        assert csr.nnz == np.count_nonzero(dense)


class TestDtypePreservation:
    """Satellite: no hardcoded float64 casts anywhere in the substrate."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_coo_preserves_dtype(self, dtype):
        dense = np.eye(3, dtype=dtype)
        coo = CooMatrix.from_dense(dense)
        assert coo.dtype == dtype
        assert coo.to_dense().dtype == dtype
        assert coo.to_csr().dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_csr_kernels_allocate_matrix_dtype(self, dtype, rng):
        csr = random_sparse((9, 7), 0.3, rng, dtype=dtype)
        assert csr.dtype == dtype
        operand = rng.standard_normal((7, 4)).astype(dtype)
        assert csr.matmul_dense(operand).dtype == dtype
        assert csr.matvec(operand[:, 0]).dtype == dtype
        assert csr.to_dense().dtype == dtype
        assert csr.row_norms_squared().dtype == dtype
        assert csr.transpose().dtype == dtype
        tall = rng.standard_normal((9, 3)).astype(dtype)
        assert (tall.T @ csr).dtype == dtype
        assert csr.t_matmul_dense(tall).dtype == dtype

    def test_mixed_precision_promotes_like_dense(self, rng):
        csr = random_sparse((5, 6), 0.4, rng, dtype=np.float32)
        promoted = csr.matmul_dense(rng.standard_normal((6, 2)))
        assert promoted.dtype == np.float64

    def test_int_values_promote_to_float64(self):
        csr = CsrMatrix((2, 2), [0, 1, 2], [0, 1], np.array([1, 2]))
        assert csr.dtype == np.float64

    def test_astype_round_trip(self, rng):
        csr = random_sparse((6, 5), 0.4, rng)
        as32 = csr.astype(np.float32)
        assert as32.dtype == np.float32
        assert as32.indices is csr.indices  # structure shared, not copied
        assert csr.astype(np.float64) is csr
        np.testing.assert_allclose(
            as32.to_dense(), csr.to_dense().astype(np.float32)
        )

    def test_squared_norm_accumulates_float64(self, rng):
        csr = random_sparse((8, 8), 0.5, rng, dtype=np.float32)
        assert isinstance(csr.squared_norm(), float)
        assert csr.squared_norm() == pytest.approx(
            np.sum(csr.to_dense().astype(np.float64) ** 2)
        )


class TestCsrKernelsScatterFree:
    """The reduceat rewrite must handle every row-occupancy pattern."""

    @pytest.fixture
    def gappy(self):
        """Matrix with empty rows (first, middle, last) and empty columns."""
        dense = np.zeros((7, 6))
        dense[1, 0] = 2.0
        dense[1, 5] = -1.0
        dense[3, 2] = 4.0
        dense[5, 2] = 0.5
        return dense

    def test_matmul_with_empty_rows(self, gappy, rng):
        csr = dense_to_sparse(gappy)
        B = rng.standard_normal((6, 3))
        np.testing.assert_allclose(csr.matmul_dense(B), gappy @ B, atol=1e-12)

    def test_matvec_with_empty_rows(self, gappy, rng):
        csr = dense_to_sparse(gappy)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(csr.matvec(x), gappy @ x, atol=1e-12)

    def test_row_norms_with_empty_rows(self, gappy):
        csr = dense_to_sparse(gappy)
        np.testing.assert_allclose(
            csr.row_norms_squared(), np.sum(gappy**2, axis=1), atol=1e-12
        )

    def test_t_matmul_dense(self, gappy, rng):
        csr = dense_to_sparse(gappy)
        B = rng.standard_normal((7, 2))
        np.testing.assert_allclose(csr.t_matmul_dense(B), gappy.T @ B, atol=1e-12)

    def test_all_zero_matrix(self):
        csr = dense_to_sparse(np.zeros((4, 5)))
        np.testing.assert_array_equal(csr.matmul_dense(np.ones((5, 2))), 0.0)
        np.testing.assert_array_equal(csr.matvec(np.ones(5)), 0.0)
        np.testing.assert_array_equal(csr.transpose().to_dense(), np.zeros((5, 4)))

    def test_matmul_operator(self, gappy, rng):
        csr = dense_to_sparse(gappy)
        B = rng.standard_normal((6, 3))
        np.testing.assert_allclose(csr @ B, gappy @ B, atol=1e-12)
        np.testing.assert_allclose(csr @ B[:, 0], gappy @ B[:, 0], atol=1e-12)
        C = rng.standard_normal((2, 7))
        np.testing.assert_allclose(C @ csr, C @ gappy, atol=1e-12)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(x @ csr, x @ gappy, atol=1e-12)

    def test_scaled(self, gappy):
        csr = dense_to_sparse(gappy)
        np.testing.assert_allclose(csr.scaled(-2.5).to_dense(), -2.5 * gappy)


class TestTransposeCountingSort:
    """Satellite: direct CSC build, no COO round-trip, cached."""

    def test_transpose_matches_dense(self, rng):
        for density in (0.0, 0.05, 0.4, 1.0):
            csr = random_sparse((11, 7), density, rng)
            np.testing.assert_array_equal(
                csr.transpose().to_dense(), csr.to_dense().T
            )

    def test_transpose_invariants(self, rng):
        t = random_sparse((10, 6), 0.3, rng).transpose()
        # Columns sorted and unique within each row (the CSR contract).
        for i in range(t.shape[0]):
            cols = t.indices[t.indptr[i]:t.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0)

    def test_transpose_cached_and_backlinked(self, rng):
        csr = random_sparse((5, 8), 0.3, rng)
        assert csr.transpose() is csr.transpose()
        assert csr.transpose().transpose() is csr

    def test_rmatmul_via_transpose(self, rng):
        csr = random_sparse((9, 4), 0.5, rng)
        B = rng.standard_normal((9, 3))
        np.testing.assert_allclose(B.T @ csr, B.T @ csr.to_dense(), atol=1e-12)

    def test_transposed_products_do_not_pin_a_cache(self, rng):
        # One-shot B.T @ A and t_matmul must not grow resident memory for
        # the matrix's lifetime (out-of-core slices rely on this)...
        csr = random_sparse((9, 4), 0.5, rng)
        _ = rng.standard_normal((9, 3)).T @ csr
        csr.t_matmul_dense(rng.standard_normal((9, 2)))
        assert csr._transpose_cache is None
        # ...but an explicitly built transpose cache is reused by them.
        cached = csr.transpose()
        assert csr._transpose_cache is cached


class TestValidation:
    def test_validate_false_skips_checks(self):
        # Deliberately inconsistent structure: only accepted unvalidated.
        CsrMatrix((2, 2), [0, 1], [0], [1.0], validate=False)
        with pytest.raises(ValueError):
            CsrMatrix((2, 2), [0, 1], [0], [1.0])


def _stacked_cases(rng, dtype):
    return [
        random_sparse((6, 9), d, np.random.default_rng(seed), dtype=dtype)
        for seed, d in enumerate((0.0, 0.1, 0.35, 0.8))
    ]


class TestStackedCsr:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matmul_matches_per_slice(self, rng, dtype):
        mats = _stacked_cases(rng, dtype)
        st = StackedCsr.from_matrices(mats)
        operand = rng.standard_normal((len(mats), 9, 4)).astype(dtype)
        out = st.matmul_dense(operand)
        assert out.dtype == dtype
        for p, M in enumerate(mats):
            np.testing.assert_allclose(
                out[p], M.to_dense() @ operand[p], atol=1e-5
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_t_matmul_matches_per_slice(self, rng, dtype):
        mats = _stacked_cases(rng, dtype)
        st = StackedCsr.from_matrices(mats)
        operand = rng.standard_normal((len(mats), 6, 3)).astype(dtype)
        out = st.t_matmul_dense(operand)
        assert out.dtype == dtype
        for p, M in enumerate(mats):
            np.testing.assert_allclose(
                out[p], M.to_dense().T @ operand[p], atol=1e-5
            )

    def test_padding_rows_are_free_and_zero(self, rng):
        mats = [
            random_sparse((h, 7), 0.4, np.random.default_rng(h)) for h in (2, 5, 4)
        ]
        st = StackedCsr.from_matrices(mats, height=5)
        assert st.shape == (5, 7)
        assert st.nnz == sum(M.nnz for M in mats)  # no stored padding
        operand = rng.standard_normal((3, 7, 2))
        out = st.matmul_dense(operand)
        for p, M in enumerate(mats):
            h = M.shape[0]
            np.testing.assert_allclose(
                out[p, :h], M.to_dense() @ operand[p], atol=1e-12
            )
            np.testing.assert_array_equal(out[p, h:], 0.0)

    def test_column_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="columns"):
            StackedCsr.from_matrices(
                [random_sparse((3, 4), 0.5, rng), random_sparse((3, 5), 0.5, rng)]
            )

    def test_too_tall_rejected(self, rng):
        with pytest.raises(ValueError, match="at most"):
            StackedCsr.from_matrices([random_sparse((6, 4), 0.5, rng)], height=5)

    def test_operand_shape_rejected(self, rng):
        st = StackedCsr.from_matrices([random_sparse((3, 4), 0.5, rng)])
        with pytest.raises(ValueError, match="operand"):
            st.matmul_dense(np.ones((1, 5, 2)))
        with pytest.raises(ValueError, match="operand"):
            st.t_matmul_dense(np.ones((1, 5, 2)))

    def test_numpy_fallback_matches_scipy_path(self, rng, monkeypatch):
        mats = _stacked_cases(rng, np.float64)
        operand = rng.standard_normal((len(mats), 9, 4))
        operand_t = rng.standard_normal((len(mats), 6, 4))
        fast = StackedCsr.from_matrices(mats)
        expected = fast.matmul_dense(operand)
        expected_t = fast.t_matmul_dense(operand_t)
        monkeypatch.setattr(stacked_module, "_scipy_sparse", None)
        assert stacked_module.spmm_backend() == "numpy"
        slow = StackedCsr.from_matrices(mats)
        assert slow._scipy is None
        np.testing.assert_allclose(
            slow.matmul_dense(operand), expected, atol=1e-12
        )
        np.testing.assert_allclose(
            slow.t_matmul_dense(operand_t), expected_t, atol=1e-12
        )

    def test_spmm_backend_reports(self):
        assert spmm_backend() in ("scipy", "numpy")
