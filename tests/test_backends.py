"""Tests for the pluggable execution backends (serial/thread).

Worker processes are the shard coordinator's; their equivalence tests live
in ``tests/test_sharding.py``.
"""

import importlib

import numpy as np
import pytest

from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.decomposition.parafac2_als import parafac2_als
from repro.decomposition.rd_als import rd_als
from repro.decomposition.spartan import spartan
from repro.linalg.kernels import CellSweepWorkspace
from repro.parallel.backends import (
    BACKEND_NAMES,
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig

ALL_BACKENDS = list(BACKEND_NAMES)


def _double(x):
    return x * 2


def _sum_pair(item):
    array, scalar = item
    return float(np.sum(array)) + scalar


@pytest.fixture(scope="module")
def tiny_tensor():
    return low_rank_irregular_tensor(
        [30, 45, 25, 40, 35], n_columns=16, rank=3, noise=0.02, random_state=3
    )


class TestRegistry:
    def test_names_cover_registry(self):
        assert BACKEND_NAMES == ("serial", "thread")
        assert set(BACKEND_NAMES) == set(BACKENDS)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_get_backend_by_name(self, name):
        backend = get_backend(name, 2)
        assert backend.name == name
        assert backend.n_workers == 2

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
        backend = get_backend(name, 2)
        assert backend.map(_double, list(range(9))) == [2 * x for x in range(9)]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_map_partitioned_preserves_order(self, name):
        items = list(range(11))
        weights = [(i % 4) + 1 for i in items]
        out = get_backend(name, 3).map_partitioned(_double, items, weights)
        assert out == [2 * x for x in items]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_array_payloads(self, name):
        items = [(np.full((10, 4), k, dtype=np.float64), k) for k in range(6)]
        expected = [40.0 * k + k for k in range(6)]
        backend = get_backend(name, 2)
        assert backend.map(_sum_pair, items) == expected
        assert backend.map_partitioned(_sum_pair, items, [10] * 6) == expected

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            SerialBackend().map_partitioned(_double, [1, 2], [1.0])

    def test_empty_items(self):
        assert get_backend("thread", 2).map(_double, []) == []

    def test_serial_ignores_worker_count(self):
        # SerialBackend with n_workers > 1 must still run inline.
        assert SerialBackend(4).map(_double, [1, 2, 3]) == [2, 4, 6]


class TestBackendEquivalence:
    """Serial and thread backends must agree to the bit."""

    def test_compress_tensor_identical(self, tiny_tensor):
        reference = compress_tensor(tiny_tensor, 3, random_state=11, backend="serial")
        other = compress_tensor(
            tiny_tensor, 3, n_threads=2, random_state=11, backend="thread"
        )
        for Ak, Bk in zip(reference.A, other.A):
            assert np.array_equal(Ak, Bk)
        assert np.array_equal(reference.D, other.D)
        assert np.array_equal(reference.E, other.E)
        assert np.array_equal(reference.F_blocks, other.F_blocks)

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

        reference, other = run("serial"), run("thread")
        assert np.array_equal(reference.H, other.H)
        assert np.array_equal(reference.V, other.V)
        assert np.array_equal(reference.S, other.S)
        for Qa, Qb in zip(reference.Q, other.Q):
            assert np.array_equal(Qa, Qb)

    def test_batched_polar_identical(self):
        """The cell's polar SVDs chunked over two threads match one call."""
        rng = np.random.default_rng(0)
        ws = CellSweepWorkspace(16, 3)
        ws.small[...] = rng.standard_normal((16, 3, 3))
        reference = ws.compute_polar(get_backend("serial")).copy()
        engine = get_backend("thread", 2)
        chunks = []
        real_map = engine.map

        def counting_map(func, items):
            chunks.append(len(items))
            return real_map(func, items)

        engine.map = counting_map
        chunked = ws.compute_polar(engine)
        assert chunks == [2]  # the stack really went to both workers
        assert np.array_equal(reference, chunked)

    @pytest.mark.parametrize("solver", [parafac2_als, rd_als, spartan])
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

        reference, other = run("serial"), run("thread")
        assert np.array_equal(reference.H, other.H)
        assert np.array_equal(reference.V, other.V)
        for Qa, Qb in zip(reference.Q, other.Q):
            assert np.array_equal(Qa, Qb)

    def test_rd_als_runs_its_slice_steps_on_the_backend(self, tiny_tensor, monkeypatch):
        """Both per-slice steps of every RD-ALS sweep go through the run's backend."""
        resolved = []
        calls = []

        def counting_backend(name, n_workers=1):
            engine = get_backend(name, n_workers)
            resolved.append((engine.name, engine.n_workers))
            real_map = engine.map_partitioned

            def map_partitioned(func, items, weights):
                calls.append((func.__name__, len(items)))
                return real_map(func, items, weights)

            engine.map_partitioned = map_partitioned
            return engine

        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.decomposition.rd_als")
        monkeypatch.setattr(module, "get_backend", counting_backend)
        config = DecompositionConfig(
            rank=3, max_iterations=2, tolerance=0.0, backend="thread",
            n_threads=2, random_state=2,
        )
        rd_als(tiny_tensor, config)
        K = tiny_tensor.n_slices
        assert resolved == [("thread", 2)]
        assert calls == [
            ("procrustes_step", K), ("_criterion_projection", K),
        ] * 2


def test_abstract_base_not_instantiable():
    with pytest.raises(TypeError):
        ExecutionBackend(1)
