"""Tests for the out-of-core slice store and memmap-backed tensors."""

import numpy as np
import pytest

from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.tensor.irregular import IrregularTensor
from repro.tensor.mmap_store import MANIFEST_NAME, MmapSliceStore
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig


@pytest.fixture
def tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40], n_columns=16, rank=3, noise=0.02, random_state=4
    )


@pytest.fixture
def store(tensor, tmp_path):
    return MmapSliceStore.create(tmp_path / "store", tensor.slices)


class TestCreateOpen:
    def test_metadata(self, tensor, store):
        assert len(store) == tensor.n_slices
        assert store.n_columns == tensor.n_columns
        assert store.row_counts == tensor.row_counts
        assert store.nbytes == tensor.nbytes

    def test_roundtrip_values(self, tensor, store):
        for k in range(len(store)):
            np.testing.assert_array_equal(store.load_slice(k), tensor[k])

    def test_reopen(self, tensor, store):
        reopened = MmapSliceStore.open(store.directory)
        assert reopened.row_counts == tensor.row_counts
        np.testing.assert_array_equal(reopened.load_slice(1), tensor[1])

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no slice store"):
            MmapSliceStore.open(tmp_path / "nowhere")

    def test_create_refuses_to_clobber(self, store, tensor):
        with pytest.raises(FileExistsError, match="overwrite"):
            MmapSliceStore.create(store.directory, tensor.slices)

    def test_overwrite_replaces(self, store, tensor):
        smaller = MmapSliceStore.create(
            store.directory, tensor.slices[:2], overwrite=True
        )
        assert len(smaller) == 2
        # stale slice files from the old, larger store must be gone
        leftovers = [p for p in store.directory.iterdir() if p.name != MANIFEST_NAME]
        assert len(leftovers) == 2

    def test_create_from_generator(self, tmp_path):
        def slices():
            rng = np.random.default_rng(0)
            for rows in (10, 20, 15):
                yield rng.random((rows, 6))

        lazy = MmapSliceStore.create(tmp_path / "lazy", slices())
        assert lazy.row_counts == [10, 20, 15]

    def test_bad_manifest_rejected(self, tmp_path):
        target = tmp_path / "bad"
        target.mkdir()
        (target / MANIFEST_NAME).write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="manifest"):
            MmapSliceStore.open(target)


class TestAppend:
    def test_append_grows(self, store, rng):
        index = store.append(rng.random((12, 16)))
        assert index == 4
        assert len(store) == 5
        assert store.row_counts[-1] == 12

    def test_append_column_mismatch(self, store, rng):
        with pytest.raises(ValueError, match="columns"):
            store.append(rng.random((12, 9)))

    def test_append_persists(self, store, rng):
        new_slice = rng.random((8, 16))
        store.append(new_slice)
        reopened = MmapSliceStore.open(store.directory)
        np.testing.assert_array_equal(reopened.load_slice(4), new_slice)

    def test_append_rejects_nonfinite(self, store):
        bad = np.full((5, 16), np.nan)
        with pytest.raises(ValueError, match="NaN"):
            store.append(bad)


class TestMmapTensor:
    def test_from_store_is_zero_copy(self, store):
        mapped = IrregularTensor.from_store(store)
        assert all(isinstance(Xk, np.memmap) for Xk in mapped)

    def test_tensor_surface_matches(self, tensor, store):
        mapped = store.as_tensor()
        assert mapped.n_slices == tensor.n_slices
        assert mapped.n_columns == tensor.n_columns
        assert mapped.row_counts == tensor.row_counts
        assert mapped.squared_norm() == pytest.approx(tensor.squared_norm())

    def test_empty_store_rejected(self, tmp_path):
        empty = MmapSliceStore.create(tmp_path / "empty")
        with pytest.raises(ValueError, match="at least one slice"):
            IrregularTensor.from_store(empty)

    def test_to_store_roundtrip(self, tensor, tmp_path):
        back = IrregularTensor.from_store(tensor.to_store(tmp_path / "rt"))
        for Xk, Yk in zip(tensor, back):
            np.testing.assert_array_equal(Xk, Yk)


class TestOutOfCoreCompression:
    """The acceptance criterion: mmap-backed results match in-memory ones."""

    def test_compress_matches_in_memory(self, tensor, store):
        in_memory = compress_tensor(tensor, 3, random_state=9)
        mapped = compress_tensor(store.as_tensor(), 3, random_state=9)
        for Ak, Bk in zip(in_memory.A, mapped.A):
            assert np.array_equal(Ak, Bk)
        assert np.array_equal(in_memory.D, mapped.D)
        assert np.array_equal(in_memory.E, mapped.E)
        assert np.array_equal(in_memory.F_blocks, mapped.F_blocks)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_dpar2_out_of_core_matches(self, tensor, store, backend):
        config = DecompositionConfig(
            rank=3, max_iterations=3, n_threads=2, backend=backend, random_state=6
        )
        reference = dpar2(
            tensor, config.with_(backend="serial", n_threads=1)
        )
        mapped = dpar2(store.as_tensor(), config)
        assert np.array_equal(reference.H, mapped.H)
        assert np.array_equal(reference.V, mapped.V)
        for Qa, Qb in zip(reference.Q, mapped.Q):
            assert np.array_equal(Qa, Qb)


class TestManifestErrorPaths:
    """Corrupt or tampered stores must fail loudly, not serve garbage."""

    def _edit_manifest(self, store, mutate):
        import json

        path = store.directory / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    def test_truncated_manifest_json(self, store):
        (store.directory / MANIFEST_NAME).write_text('{"format": "repro-mmap')
        with pytest.raises(ValueError, match="not valid JSON"):
            MmapSliceStore.open(store.directory)

    def test_unsupported_version(self, store):
        self._edit_manifest(store, lambda m: m.update(version=99))
        with pytest.raises(ValueError, match="unsupported store version"):
            MmapSliceStore.open(store.directory)

    def test_v1_manifest_with_sparse_entries(self, store):
        """A dense-only (v1) manifest carrying sparse payload dicts is a
        version/payload mismatch, not something to guess about."""

        def mutate(manifest):
            manifest["version"] = 1
            manifest["files"][0] = {
                "kind": "csr", "nnz": 3,
                "indptr": "x.npy", "indices": "y.npy", "data": "z.npy",
            }

        self._edit_manifest(store, mutate)
        with pytest.raises(ValueError, match="version/payload mismatch"):
            MmapSliceStore.open(store.directory)

    def test_files_row_counts_mismatch(self, store):
        self._edit_manifest(store, lambda m: m["row_counts"].pop())
        with pytest.raises(ValueError, match="inconsistent"):
            MmapSliceStore.open(store.directory)

    def test_missing_dense_segment(self, store):
        store.slice_path(2).unlink()
        reopened = MmapSliceStore.open(store.directory)
        assert reopened.load_slice(0).shape[0] == 30  # others still fine
        with pytest.raises(FileNotFoundError, match="segment missing"):
            reopened.load_slice(2)

    def test_missing_sparse_segment(self, tmp_path):
        from repro.sparse.csr import CsrMatrix

        sparse_slice = CsrMatrix(
            (3, 4), [0, 1, 2, 2], [0, 3], [1.0, 2.0]
        )
        sparse_store = MmapSliceStore.create(tmp_path / "sp", [sparse_slice])
        (sparse_store.directory / "slice_000000.indices.npy").unlink()
        with pytest.raises(FileNotFoundError, match="segment missing"):
            MmapSliceStore.open(sparse_store.directory).load_slice(0)

    def test_dense_segment_dtype_mismatch(self, store, rng):
        """A float32 file behind a float64 manifest means the directory was
        modified behind the manifest's back."""
        np.save(store.slice_path(1), rng.random((45, 16)).astype(np.float32))
        with pytest.raises(ValueError, match="manifest declares float64"):
            MmapSliceStore.open(store.directory).load_slice(1)

    def test_sparse_segment_dtype_mismatch(self, tmp_path):
        from repro.sparse.csr import CsrMatrix

        sparse_slice = CsrMatrix(
            (3, 4), [0, 1, 2, 2], [0, 3], [1.0, 2.0]
        )
        sparse_store = MmapSliceStore.create(
            tmp_path / "sp", [sparse_slice], dtype=np.float32
        )
        np.save(
            sparse_store.directory / "slice_000000.data.npy",
            np.array([1.0, 2.0], dtype=np.float64),
        )
        with pytest.raises(ValueError, match="manifest declares float32"):
            MmapSliceStore.open(sparse_store.directory).load_slice(0)


class TestOverwriteRobustness:
    def test_overwrite_replaces_corrupt_manifest(self, tmp_path, rng):
        """overwrite=True must replace a store whose manifest is unreadable
        (crashed writer) instead of crashing on it."""
        target = tmp_path / "corrupt"
        target.mkdir()
        (target / MANIFEST_NAME).write_text('{"format": "repro-mmap')  # truncated
        np.save(target / "slice_000000.npy", rng.random((4, 4)))
        fresh = MmapSliceStore.create(
            target, [rng.random((10, 6))], overwrite=True
        )
        assert fresh.row_counts == [10]
        reopened = MmapSliceStore.open(target)
        assert reopened.row_counts == [10]

    def test_unflushed_append_then_flush(self, tmp_path, rng):
        store = MmapSliceStore.create(tmp_path / "s", [rng.random((5, 6))])
        store.append(rng.random((7, 6)), flush=False)
        # manifest on disk still has one slice until flush
        assert MmapSliceStore.open(store.directory).row_counts == [5]
        store.flush()
        assert MmapSliceStore.open(store.directory).row_counts == [5, 7]
