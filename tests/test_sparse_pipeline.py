"""End-to-end tests for the sparse-slice fast path.

Covers the chain the tentpole wires together: CSR slices in
:class:`IrregularTensor`, sparse payloads in :class:`MmapSliceStore`, the
SpMM branch of ``randomized_svd`` / ``batched_randomized_svd``, and the
``compress_tensor`` → ``dpar2`` → streaming surface, plus the CLI flag.

The parity tests pin the sparse path to its densified twin: both consume
identical Gaussian sketches (same spawned generators), so factors agree to
floating-point rounding — the summation order inside each dot product is
the only difference.
"""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data.registry import load_dataset
from repro.data.synthetic import sparse_irregular_tensor
from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.decomposition.spartan import spartan
from repro.decomposition.streaming import StreamingDpar2
from repro.linalg.kernels import batched_randomized_svd
from repro.linalg.randomized_svd import randomized_svd
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import random_sparse
from repro.tensor.irregular import IrregularTensor
from repro.tensor.mmap_store import MmapSliceStore
from repro.util.config import DecompositionConfig
from repro.util.rng import spawn_generators


def sparse_slices(heights, n_columns=24, density=0.08, dtype=np.float64, seed=0):
    return [
        random_sparse(
            (h, n_columns), density, np.random.default_rng(seed + i), dtype=dtype
        )
        for i, h in enumerate(heights)
    ]


@pytest.fixture
def sparse_tensor():
    return IrregularTensor(
        sparse_slices([30, 40, 30, 55, 40, 30]),
        copy=False,
        density_threshold=1.0,
    )


# --------------------------------------------------------------------- #
# stage-1 kernels
# --------------------------------------------------------------------- #


class TestSparseRandomizedSvd:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_matrix_matches_densified(self, dtype):
        csr = random_sparse((40, 24), 0.1, np.random.default_rng(0), dtype=dtype)
        sparse_out = randomized_svd(csr, 5, random_state=7)
        dense_out = randomized_svd(csr.to_dense(), 5, random_state=7)
        tol = 1e-9 if dtype == np.float64 else 1e-3
        np.testing.assert_allclose(sparse_out.U, dense_out.U, atol=tol)
        np.testing.assert_allclose(
            sparse_out.singular_values, dense_out.singular_values, atol=tol
        )
        np.testing.assert_allclose(sparse_out.V, dense_out.V, atol=tol)
        assert sparse_out.U.dtype == dtype

    def test_deterministic_for_fixed_seed(self):
        csr = random_sparse((30, 20), 0.1, np.random.default_rng(1))
        a = randomized_svd(csr, 4, random_state=3)
        b = randomized_svd(csr, 4, random_state=3)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    def test_rejects_device_backend(self):
        csr = random_sparse((10, 8), 0.2, np.random.default_rng(0))
        with pytest.raises((ValueError, ImportError), match="CSR|torch"):
            randomized_svd(csr, 3, random_state=0, xp="torch")


class TestSparseBatchedStage1:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_densified_per_bucket(self, dtype):
        slices = sparse_slices([20, 35, 20, 50, 35, 20], dtype=dtype)
        dense = [S.to_dense() for S in slices]
        sparse_out = batched_randomized_svd(
            slices, 6, generators=spawn_generators(0, 6)
        )
        dense_out = batched_randomized_svd(
            dense, 6, generators=spawn_generators(0, 6)
        )
        tol = 1e-8 if dtype == np.float64 else 1e-2
        for s_res, d_res in zip(sparse_out, dense_out):
            np.testing.assert_allclose(s_res.U, d_res.U, atol=tol)
            np.testing.assert_allclose(
                s_res.singular_values, d_res.singular_values, atol=tol
            )
            np.testing.assert_allclose(s_res.V, d_res.V, atol=tol)
            assert s_res.U.dtype == dtype

    def test_mixed_bucket_densifies_sparse_members(self):
        rng = np.random.default_rng(5)
        items = [
            random_sparse((25, 12), 0.2, np.random.default_rng(0)),
            rng.standard_normal((25, 12)),
        ]
        out = batched_randomized_svd(items, 4, generators=spawn_generators(1, 2))
        ref = batched_randomized_svd(
            [items[0].to_dense(), items[1]], 4, generators=spawn_generators(1, 2)
        )
        for a, b in zip(out, ref):
            np.testing.assert_allclose(a.U, b.U, atol=1e-10)

    def test_sparse_run_is_deterministic(self):
        slices = sparse_slices([20, 20, 30])
        a = batched_randomized_svd(slices, 4, generators=spawn_generators(2, 3))
        b = batched_randomized_svd(slices, 4, generators=spawn_generators(2, 3))
        for r1, r2 in zip(a, b):
            np.testing.assert_array_equal(r1.U, r2.U)

    def test_rejects_device_backend(self):
        slices = sparse_slices([10, 10])
        with pytest.raises((ValueError, ImportError), match="CSR|torch"):
            batched_randomized_svd(
                slices, 3, generators=spawn_generators(0, 2), xp="torch"
            )


# --------------------------------------------------------------------- #
# tensor container
# --------------------------------------------------------------------- #


class TestSparseIrregularTensor:
    def test_holds_csr_slices(self, sparse_tensor):
        assert sparse_tensor.has_sparse_slices
        assert isinstance(sparse_tensor[0], CsrMatrix)
        assert sparse_tensor.n_columns == 24
        assert "sparse" in repr(sparse_tensor)

    def test_n_entries_counts_nnz(self, sparse_tensor):
        assert sparse_tensor.n_entries == sum(
            Xk.nnz for Xk in sparse_tensor.slices
        )

    def test_squared_norm_matches_densified(self, sparse_tensor):
        assert sparse_tensor.squared_norm() == pytest.approx(
            sparse_tensor.densified().squared_norm()
        )

    def test_dense_slices_above_threshold_densified(self):
        dense_ish = random_sparse((10, 10), 0.6, np.random.default_rng(0))
        tensor = IrregularTensor([dense_ish], density_threshold=0.25)
        assert not tensor.has_sparse_slices
        np.testing.assert_array_equal(tensor[0], dense_ish.to_dense())

    def test_sparsify_and_densified_round_trip(self, sparse_tensor):
        dense = sparse_tensor.densified()
        assert not dense.has_sparse_slices
        back = dense.sparsify(0.5)
        assert back.has_sparse_slices
        np.testing.assert_array_equal(
            back[0].to_dense(), np.asarray(dense[0])
        )
        assert back.squared_norm() == pytest.approx(dense.squared_norm())

    def test_sparsify_leaves_dense_slices_above_threshold(self):
        rng = np.random.default_rng(0)
        tensor = IrregularTensor(
            [rng.standard_normal((8, 6))], copy=False
        ).sparsify(0.05)
        assert not tensor.has_sparse_slices

    def test_astype_scaled_subset_preserve_representation(self, sparse_tensor):
        t32 = sparse_tensor.astype(np.float32)
        assert t32.dtype == np.dtype(np.float32)
        assert isinstance(t32[0], CsrMatrix)
        assert t32[0].dtype == np.float32
        scaled = sparse_tensor.scaled(2.0)
        assert isinstance(scaled[0], CsrMatrix)
        np.testing.assert_allclose(
            scaled[0].to_dense(), 2.0 * sparse_tensor[0].to_dense()
        )
        sub = sparse_tensor.subset([0, 2])
        assert sub.n_slices == 2 and isinstance(sub[0], CsrMatrix)

    def test_transpose_concatenation_densifies(self, sparse_tensor):
        out = sparse_tensor.transpose_concatenation()
        assert out.shape == (24, sum(sparse_tensor.row_counts))

    def test_nonfinite_csr_rejected(self):
        bad = CsrMatrix((2, 2), [0, 1, 2], [0, 1], [1.0, np.nan])
        with pytest.raises(ValueError, match="NaN"):
            IrregularTensor([bad])

    def test_to_backend_refuses_sparse(self, sparse_tensor):
        with pytest.raises((ValueError, ImportError), match="sparse|torch"):
            sparse_tensor.to_backend("torch")


# --------------------------------------------------------------------- #
# out-of-core store
# --------------------------------------------------------------------- #


class TestSparseStore:
    def test_round_trip_mixed_payloads(self, sparse_tensor, tmp_path, rng):
        dense_slice = rng.standard_normal((12, 24))
        mixed = IrregularTensor(
            list(sparse_tensor.slices) + [dense_slice],
            copy=False,
            density_threshold=1.0,
        )
        store = mixed.to_store(tmp_path / "store")
        reopened = MmapSliceStore.open(tmp_path / "store")
        assert reopened.row_counts == mixed.row_counts
        loaded = reopened.as_tensor()
        assert isinstance(loaded[0], CsrMatrix)
        np.testing.assert_array_equal(
            loaded[0].to_dense(), sparse_tensor[0].to_dense()
        )
        np.testing.assert_array_equal(np.asarray(loaded[-1]), dense_slice)
        assert store.nbytes == sum(Xk.nbytes for Xk in loaded.slices)

    def test_sparse_payload_loads_memory_mapped(self, sparse_tensor, tmp_path):
        store = sparse_tensor.to_store(tmp_path / "store")
        slice0 = store.load_slice(0)
        assert isinstance(slice0, CsrMatrix)
        # Values must surface as np.memmap directly: the out-of-core
        # exclusions (exact-convergence hoist, device backends) key on it.
        assert isinstance(slice0.data, np.memmap)

    def test_append_rejects_nonfinite_csr(self, tmp_path):
        store = MmapSliceStore.create(tmp_path / "store")
        bad = CsrMatrix((2, 3), [0, 1, 2], [0, 1], [1.0, np.inf])
        with pytest.raises(ValueError, match="NaN or Inf"):
            store.append(bad)

    def test_dense_only_store_stays_version_1(self, tmp_path, rng):
        MmapSliceStore.create(tmp_path / "store", [rng.random((5, 4))])
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["version"] == 1

    def test_sparse_store_is_version_2(self, sparse_tensor, tmp_path):
        sparse_tensor.to_store(tmp_path / "store")
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["version"] == 2

    def test_unknown_version_rejected(self, tmp_path, rng):
        MmapSliceStore.create(tmp_path / "store", [rng.random((5, 4))])
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            MmapSliceStore.open(tmp_path / "store")

    def test_append_casts_values_to_store_dtype(self, tmp_path):
        store = MmapSliceStore.create(tmp_path / "store", dtype=np.float32)
        store.append(random_sparse((6, 5), 0.3, np.random.default_rng(0)))
        loaded = store.load_slice(0)
        assert loaded.dtype == np.float32

    def test_overwrite_removes_sparse_payload_files(self, sparse_tensor, tmp_path):
        directory = tmp_path / "store"
        sparse_tensor.to_store(directory)
        MmapSliceStore.create(directory, [np.ones((3, 24))], overwrite=True)
        leftovers = [p for p in directory.glob("slice_*.npy")]
        assert len(leftovers) == 1  # just the one dense payload

    def test_mixed_memmap_store_keeps_streaming_stage1(
        self, tmp_path, rng, batched_stage1_calls
    ):
        # A store mixing CSR and dense payloads must not let the sparse
        # routing force batched stage 1: batching stacks the dense memmap
        # buckets into RAM, defeating out-of-core.
        mixed = [
            random_sparse((20, 10), 0.2, np.random.default_rng(0)),
            rng.random((25, 10)),
        ]
        store = MmapSliceStore.create(tmp_path / "store", mixed)
        compress_tensor(
            IrregularTensor.from_store(store), 3, random_state=0, backend="serial"
        )
        assert batched_stage1_calls == []
        # An all-in-RAM mixed tensor still batches.
        in_ram = IrregularTensor(mixed, copy=False, density_threshold=1.0)
        compress_tensor(in_ram, 3, random_state=0, backend="serial")
        assert batched_stage1_calls == [2]

    def test_dpar2_streams_sparse_store(self, sparse_tensor, tmp_path):
        store = sparse_tensor.to_store(tmp_path / "store")
        config = DecompositionConfig(
            rank=4, max_iterations=5, random_state=0, backend="serial"
        )
        from_store = dpar2(IrregularTensor.from_store(store), config)
        in_ram = dpar2(sparse_tensor, config)
        np.testing.assert_allclose(from_store.V, in_ram.V, atol=1e-10)


# --------------------------------------------------------------------- #
# decomposition surface
# --------------------------------------------------------------------- #


class TestSparseDpar2:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_densified_run(self, sparse_tensor, dtype):
        config = DecompositionConfig(
            rank=4, max_iterations=6, random_state=0, backend="serial", dtype=dtype
        )
        sparse_result = dpar2(sparse_tensor, config)
        dense_result = dpar2(sparse_tensor.densified(), config)
        tol = 1e-7 if dtype == "float64" else 1e-2
        np.testing.assert_allclose(sparse_result.V, dense_result.V, atol=tol)
        np.testing.assert_allclose(sparse_result.S, dense_result.S, atol=tol)
        assert sparse_result.fitness(sparse_tensor) == pytest.approx(
            dense_result.fitness(sparse_tensor.densified()), abs=1e-5
        )

    def test_compression_never_densifies_storage(self, sparse_tensor):
        compressed = compress_tensor(
            sparse_tensor, 4, random_state=0, backend="serial"
        )
        assert compressed.n_slices == sparse_tensor.n_slices
        assert compressed.D.shape == (24, 4)

    def test_exact_convergence_on_sparse(self, sparse_tensor):
        config = DecompositionConfig(
            rank=4, max_iterations=4, random_state=0, backend="serial"
        )
        exact = dpar2(sparse_tensor, config, exact_convergence=True)
        dense_exact = dpar2(
            sparse_tensor.densified(), config, exact_convergence=True
        )
        for a, b in zip(exact.history, dense_exact.history):
            assert a.criterion == pytest.approx(b.criterion, rel=1e-6)

    def test_thread_backend_matches_serial(self, sparse_tensor):
        serial = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=5, random_state=1, backend="serial"
            ),
        )
        threaded = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=5, random_state=1,
                backend="thread", n_threads=2,
            ),
        )
        np.testing.assert_array_equal(serial.V, threaded.V)

    def test_device_backend_composes(self, sparse_tensor):
        # Sparse input now rides the xp sparse surface on any backend; on a
        # machine without torch the attempt surfaces the backend error, and
        # with torch installed the factors must match the host run closely.
        from repro.linalg.array_module import (
            BackendUnavailableError, backend_available,
        )

        config = DecompositionConfig(
            rank=4, max_iterations=3, random_state=0,
            backend="serial", compute_backend="torch",
        )
        if not backend_available("torch"):
            with pytest.raises(BackendUnavailableError, match="torch"):
                dpar2(sparse_tensor, config)
            return
        device = dpar2(sparse_tensor, config)
        host = dpar2(
            sparse_tensor,
            DecompositionConfig(
                rank=4, max_iterations=3, random_state=0, backend="serial"
            ),
        )
        np.testing.assert_allclose(device.V, host.V, atol=1e-8)

    def test_dense_only_solvers_reject_sparse_clearly(self, sparse_tensor):
        from repro.decomposition.parafac2_als import parafac2_als
        from repro.decomposition.rd_als import rd_als

        config = DecompositionConfig(rank=3, max_iterations=2, random_state=0)
        with pytest.raises(ValueError, match="sparse"):
            parafac2_als(sparse_tensor, config)
        with pytest.raises(ValueError, match="sparse"):
            rd_als(sparse_tensor, config)

    def test_spartan_accepts_sparse_tensor(self, sparse_tensor):
        result = spartan(
            sparse_tensor,
            DecompositionConfig(
                rank=3, max_iterations=3, random_state=0, backend="serial"
            ),
        )
        assert np.isfinite(result.fitness(sparse_tensor))


class TestSparseStreaming:
    def test_absorb_sparse_slices(self):
        stream = StreamingDpar2(
            DecompositionConfig(rank=3, random_state=0, backend="serial")
        )
        for i in range(3):
            stream.absorb(
                random_sparse((20, 12), 0.15, np.random.default_rng(i))
            )
        assert stream.n_slices == 3
        assert stream.result().V.shape == (12, 3)

    def test_absorb_rejects_nonfinite_csr(self):
        stream = StreamingDpar2(DecompositionConfig(rank=2, random_state=0))
        bad = CsrMatrix((2, 3), [0, 1, 2], [0, 1], [1.0, np.nan])
        with pytest.raises(ValueError, match="NaN or Inf"):
            stream.absorb(bad)
        with pytest.raises(ValueError, match="NaN or Inf"):
            stream.absorb_many([bad])

    def test_absorb_many_matches_densified(self):
        batch = sparse_slices([20, 25, 20], n_columns=12, density=0.2)
        config = DecompositionConfig(rank=3, random_state=0, backend="serial")
        sparse_stream = StreamingDpar2(config)
        sparse_stream.absorb_many(batch)
        dense_stream = StreamingDpar2(config)
        dense_stream.absorb_many([S.to_dense() for S in batch])
        np.testing.assert_allclose(
            sparse_stream.result().V, dense_stream.result().V, atol=1e-7
        )


# --------------------------------------------------------------------- #
# generator, dataset, CLI
# --------------------------------------------------------------------- #


class TestSparseWorkload:
    def test_generator_density_and_dtype(self):
        tensor = sparse_irregular_tensor(
            100, 40, 8, density=0.05, random_state=0, dtype=np.float32
        )
        assert tensor.has_sparse_slices
        assert tensor.dtype == np.dtype(np.float32)
        total = sum(h * 40 for h in tensor.row_counts)
        assert tensor.n_entries / total == pytest.approx(0.05, rel=0.3)

    def test_generator_validates(self):
        with pytest.raises(ValueError, match="density"):
            sparse_irregular_tensor(10, 5, 2, density=1.5)

    def test_registry_dataset(self):
        tensor = load_dataset("sparse", random_state=0)
        assert tensor.has_sparse_slices

    def test_paper_dataset_sweep_excludes_sparse(self):
        # The figure harnesses sweep dense-only baselines over this tuple;
        # the CSR-native dataset must stay out of it.
        from repro.data.registry import DATASETS, PAPER_DATASET_NAMES

        assert "sparse" not in PAPER_DATASET_NAMES
        assert len(PAPER_DATASET_NAMES) == 8
        assert set(PAPER_DATASET_NAMES) < set(DATASETS)

    def test_cli_sparse_dataset(self, capsys):
        code = cli_main(
            ["decompose", "sparse", "--rank", "3", "--max-iterations", "2",
             "--backend", "serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CSR form" in out and "fitness" in out

    def test_cli_density_threshold(self, capsys):
        code = cli_main(
            ["decompose", "traffic", "--rank", "3", "--max-iterations", "2",
             "--backend", "serial", "--density-threshold", "0.99"]
        )
        assert code == 0
        assert "CSR form" in capsys.readouterr().out

    def test_cli_bad_threshold_rejected(self, capsys):
        code = cli_main(
            ["decompose", "traffic", "--density-threshold", "1.5"]
        )
        assert code == 2

    def test_cli_sparse_device_backend(self, capsys):
        # No up-front sparse-x-backend refusal anymore: the run either
        # completes on the device backend or fails with the backend error.
        from repro.linalg.array_module import backend_available

        code = cli_main(
            ["decompose", "sparse", "--rank", "3", "--max-iterations", "2",
             "--backend", "serial", "--compute-backend", "torch"]
        )
        captured = capsys.readouterr()
        if backend_available("torch"):
            assert code == 0
            assert "CSR form" in captured.out and "fitness" in captured.out
        else:
            assert code == 2
            assert "torch" in captured.err

    def test_cli_sparse_unsupported_method(self, capsys):
        code = cli_main(
            ["decompose", "sparse", "--method", "parafac2_als"]
        )
        assert code == 2


class TestBenchSchema:
    """check_against_baseline must stay readable across schema versions."""

    def test_old_baseline_skips_sparse_metrics(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            from bench_kernels import check_against_baseline
        finally:
            sys.path.pop(0)
        record = {
            "schema_version": 3, "compute_backend": "numpy",
            "n_slices": 240, "n_columns": 30, "rank": 8, "sweeps": 8,
            "iterate_seconds": 0.01, "preprocess_seconds": 0.01,
            "sparse_spmm": "scipy", "sparse_density": 0.02,
            "stage1_sparse_seconds": 0.03, "stage1_sparse_speedup": 4.0,
            "sparse_peak_bytes": 10, "sparse_dense_peak_bytes": 20,
        }
        v2_baseline = {
            "schema_version": 2, "compute_backend": "numpy",
            "n_slices": 240, "n_columns": 30, "rank": 8, "sweeps": 8,
            "iterate_seconds": 0.01, "preprocess_seconds": 0.01,
        }
        assert check_against_baseline(record, v2_baseline, 2.0) == []
        # sparse regression caught against a v3 baseline
        v3_baseline = dict(v2_baseline, schema_version=3,
                           stage1_sparse_seconds=0.01)
        failures = check_against_baseline(record, v3_baseline, 2.0)
        assert any("stage1_sparse_seconds" in f for f in failures)
        # speedup guard fires on the scipy kernel below 3x
        slow = dict(record, stage1_sparse_speedup=2.0)
        assert any(
            "sparse stage 1" in f
            for f in check_against_baseline(slow, v2_baseline, 2.0)
        )
        # ...but only requires parity on the numpy fallback
        fallback = dict(record, sparse_spmm="numpy", stage1_sparse_speedup=1.4)
        assert check_against_baseline(fallback, v2_baseline, 2.0) == []
        # peak-memory guard
        fat = dict(record, sparse_peak_bytes=30)
        assert any(
            "peak memory" in f
            for f in check_against_baseline(fat, v2_baseline, 2.0)
        )
