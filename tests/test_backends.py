"""Tests for the pluggable execution backends (serial/thread/process).

The process-backend tests exercise real worker processes and shared-memory
shipping; they use deliberately tiny tensors so the suite stays fast on a
one-core container.
"""

import numpy as np
import pytest

from repro.decomposition.dpar2 import _batched_polar, compress_tensor, dpar2
from repro.decomposition.parafac2_als import parafac2_als
from repro.decomposition.spartan import spartan
from repro.parallel.backends import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.parallel.shm import ArrayShipment, AttachedArrays, MmapArrayRef, ShmArrayRef
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig

ALL_BACKENDS = list(BACKEND_NAMES)


def _double(x):
    return x * 2


def _sum_pair(item):
    array, scalar = item
    return float(np.sum(array)) + scalar


def _identity(item):
    return item


@pytest.fixture(scope="module")
def tiny_tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40, 35], n_columns=16, rank=3, noise=0.02, random_state=3
    )


class TestRegistry:
    def test_names_cover_registry(self):
        assert set(BACKEND_NAMES) == set(BACKENDS)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_get_backend_by_name(self, name):
        backend = get_backend(name, 2)
        try:
            assert backend.name == name
            assert backend.n_workers == 2
        finally:
            backend.close()

    def test_case_insensitive(self):
        assert isinstance(get_backend("  Serial "), SerialBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend(3)
        assert get_backend(backend, 99) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            get_backend(42)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            ThreadBackend(0)


class TestMapSemantics:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_map_preserves_order(self, name):
        with get_backend(name, 2) as backend:
            assert backend.map(_double, list(range(9))) == [2 * x for x in range(9)]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_map_partitioned_preserves_order(self, name):
        items = list(range(11))
        weights = [(i % 4) + 1 for i in items]
        with get_backend(name, 3) as backend:
            out = backend.map_partitioned(_double, items, weights)
        assert out == [2 * x for x in items]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_array_payloads(self, name):
        items = [(np.full((10, 4), k, dtype=np.float64), k) for k in range(6)]
        expected = [40.0 * k + k for k in range(6)]
        with get_backend(name, 2) as backend:
            assert backend.map(_sum_pair, items) == expected
            assert backend.map_partitioned(_sum_pair, items, [10] * 6) == expected

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            SerialBackend().map_partitioned(_double, [1, 2], [1.0])

    def test_empty_items(self):
        with get_backend("thread", 2) as backend:
            assert backend.map(_double, []) == []

    def test_serial_ignores_worker_count(self):
        # SerialBackend with n_workers > 1 must still run inline.
        assert SerialBackend(4).map(_double, [1, 2, 3]) == [2, 4, 6]

    def test_context_manager_closes_pool(self):
        backend = ProcessBackend(2)
        with backend:
            backend.map(_double, list(range(4)))
            assert backend._pool is not None
        assert backend._pool is None

    def test_process_pool_reused_across_calls(self):
        with ProcessBackend(2) as backend:
            backend.map(_double, list(range(4)))
            pool = backend._pool
            backend.map(_double, list(range(4)))
            assert backend._pool is pool

    def test_process_worker_exception_propagates(self):
        def boom(x):  # pragma: no cover - executed in worker
            raise RuntimeError("boom")

        # A closure is unpicklable, which surfaces as an error from the
        # pool — either way the failure must propagate, not hang or leak.
        with ProcessBackend(2) as backend:
            with pytest.raises(Exception):
                backend.map(boom, list(range(8)))
            # the pool must still be usable afterwards
            assert backend.map(_double, [5, 6]) == [10, 12]


class TestSharedMemoryShipping:
    def test_roundtrip_preserves_values(self):
        payload = {"x": np.arange(12.0).reshape(3, 4), "tag": ("a", [1.5])}
        shipment = ArrayShipment()
        try:
            packed = shipment.pack(payload)
            assert isinstance(packed["x"], ShmArrayRef)
            holder = AttachedArrays()
            resolved = holder.resolve(packed)
            np.testing.assert_array_equal(resolved["x"], payload["x"])
            assert resolved["tag"] == payload["tag"]
            copied = holder.copy_if_shared(resolved)
            holder.release()
            # After release the copies must still be readable.
            np.testing.assert_array_equal(copied["x"], payload["x"])
        finally:
            shipment.cleanup()

    def test_memmap_ships_by_reference(self, tmp_path):
        array = np.arange(20.0).reshape(5, 4)
        np.save(tmp_path / "a.npy", array)
        mapped = np.load(tmp_path / "a.npy", mmap_mode="r")
        shipment = ArrayShipment()
        try:
            packed = shipment.pack((mapped, 7))
            assert isinstance(packed[0], MmapArrayRef)
            assert shipment._segments == []  # no shm segment was created
            holder = AttachedArrays()
            resolved = holder.resolve(packed)
            np.testing.assert_array_equal(resolved[0], array)
            holder.release()
        finally:
            shipment.cleanup()

    def test_empty_array_passes_through(self):
        shipment = ArrayShipment()
        try:
            packed = shipment.pack(np.empty((0, 3)))
            assert isinstance(packed, np.ndarray)
        finally:
            shipment.cleanup()


class TestBackendEquivalence:
    """Serial, thread, and process backends must agree to the bit."""

    def test_compress_tensor_identical(self, tiny_tensor):
        reference = compress_tensor(tiny_tensor, 3, random_state=11, backend="serial")
        for name in ("thread", "process"):
            other = compress_tensor(
                tiny_tensor, 3, n_threads=2, random_state=11, backend=name
            )
            for Ak, Bk in zip(reference.A, other.A):
                assert np.array_equal(Ak, Bk), name
            assert np.array_equal(reference.D, other.D), name
            assert np.array_equal(reference.E, other.E), name
            assert np.array_equal(reference.F_blocks, other.F_blocks), name

    def test_dpar2_identical(self, tiny_tensor):
        def run(name):
            return dpar2(
                tiny_tensor,
                DecompositionConfig(
                    rank=3,
                    max_iterations=4,
                    n_threads=2,
                    backend=name,
                    random_state=5,
                ),
            )

        reference = run("serial")
        for name in ("thread", "process"):
            other = run(name)
            assert np.array_equal(reference.H, other.H), name
            assert np.array_equal(reference.V, other.V), name
            assert np.array_equal(reference.S, other.S), name
            for Qa, Qb in zip(reference.Q, other.Q):
                assert np.array_equal(Qa, Qb), name

    def test_batched_polar_identical(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((16, 3, 3))
        reference = _batched_polar(stack, 1, backend="serial")
        for name in ("thread", "process"):
            out = _batched_polar(stack, 2, backend=name)
            assert np.array_equal(reference, out), name

    @pytest.mark.parametrize("solver", [parafac2_als, spartan])
    def test_baselines_identical_across_backends(self, tiny_tensor, solver):
        def run(name):
            return solver(
                tiny_tensor,
                DecompositionConfig(
                    rank=3,
                    max_iterations=3,
                    n_threads=2,
                    backend=name,
                    random_state=2,
                ),
            )

        reference = run("serial")
        for name in ("thread", "process"):
            other = run(name)
            assert np.array_equal(reference.H, other.H), name
            assert np.array_equal(reference.V, other.V), name
            for Qa, Qb in zip(reference.Q, other.Q):
                assert np.array_equal(Qa, Qb), name


def test_abstract_base_not_instantiable():
    with pytest.raises(TypeError):
        ExecutionBackend(1)
