"""Tests for the streaming DPar2 extension (the paper's future work)."""

import numpy as np
import pytest

from repro.decomposition.dpar2 import _BATCH_MAX_ROWS, CompressedTensor, dpar2
from repro.decomposition.initialization import InitialFactors
from repro.decomposition.streaming import StreamingDpar2
from repro.tensor.irregular import IrregularTensor
from repro.tensor.random import low_rank_irregular_tensor
from repro.util.config import DecompositionConfig
from tests.conftest import assert_same_fit


@pytest.fixture
def stream_config():
    return DecompositionConfig(rank=4, random_state=0)


@pytest.fixture
def stream_tensor():
    return low_rank_irregular_tensor(
        [40, 60, 35, 50, 45, 55], 24, rank=4, noise=0.02, random_state=1
    )


class TestAbsorb:
    def test_slice_count_grows(self, stream_config, rng):
        stream = StreamingDpar2(stream_config)
        for k in range(3):
            stream.absorb(rng.random((20, 10)), refresh=False)
            assert stream.n_slices == k + 1

    def test_column_mismatch_rejected(self, stream_config, rng):
        stream = StreamingDpar2(stream_config)
        stream.absorb(rng.random((20, 10)), refresh=False)
        with pytest.raises(ValueError, match="columns"):
            stream.absorb(rng.random((20, 12)), refresh=False)

    def test_result_before_absorb_raises(self, stream_config):
        with pytest.raises(RuntimeError, match="no slices"):
            StreamingDpar2(stream_config).compressed()

    def test_invalid_threshold(self, stream_config):
        with pytest.raises(ValueError, match="residual_threshold"):
            StreamingDpar2(stream_config, residual_threshold=1.5)

    def test_invalid_refresh_iterations(self, stream_config):
        with pytest.raises(ValueError, match="refresh_iterations"):
            StreamingDpar2(stream_config, refresh_iterations=-1)


class TestCompressedSnapshot:
    def test_shapes(self, stream_config, stream_tensor):
        stream = StreamingDpar2(stream_config)
        for Xk in stream_tensor:
            stream.absorb(Xk, refresh=False)
        compressed = stream.compressed()
        assert compressed.n_slices == stream_tensor.n_slices
        assert compressed.D.shape == (stream_tensor.n_columns, 4)
        assert compressed.E.shape == (4,)

    def test_reconstruction_tracks_data(self, stream_config, stream_tensor):
        """Per-slice error must sit near the rank-4 truncation floor (the
        planted noise leaves ~28% of the norm outside the rank-4 model)."""
        stream = StreamingDpar2(stream_config, residual_threshold=0.01)
        for Xk in stream_tensor:
            stream.absorb(Xk, refresh=False)
        compressed = stream.compressed()
        for k, Xk in enumerate(stream_tensor):
            rel = np.linalg.norm(
                compressed.reconstruct_slice(k) - Xk
            ) / np.linalg.norm(Xk)
            assert rel < 0.35

    def test_D_orthonormal(self, stream_config, stream_tensor):
        stream = StreamingDpar2(stream_config)
        for Xk in stream_tensor:
            stream.absorb(Xk, refresh=False)
        D = stream.compressed().D
        np.testing.assert_allclose(D.T @ D, np.eye(D.shape[1]), atol=1e-8)


class TestModelQuality:
    def test_matches_batch_fitness(self, stream_config, stream_tensor):
        stream = StreamingDpar2(stream_config, refresh_iterations=8)
        for Xk in stream_tensor:
            stream.absorb(Xk, refresh=False)
        streaming_fit = stream.fitness(stream_tensor)

        batch = dpar2(
            stream_tensor,
            stream_config.with_(max_iterations=8),
        )
        batch_fit = batch.fitness(stream_tensor)
        assert streaming_fit > batch_fit - 0.05

    def test_incremental_refresh(self, stream_config, stream_tensor):
        """Refreshing after every absorb must also produce a valid model."""
        stream = StreamingDpar2(stream_config, refresh_iterations=3)
        for Xk in stream_tensor:
            stream.absorb(Xk)  # refresh=True default
        result = stream.result()
        assert result.n_slices == stream_tensor.n_slices
        assert stream.fitness(stream_tensor) > 0.5

    def test_result_cached_until_next_absorb(self, stream_config, rng):
        stream = StreamingDpar2(stream_config)
        stream.absorb(rng.random((20, 10)))
        first = stream.result()
        assert stream.result() is first
        stream.absorb(rng.random((25, 10)))
        assert stream.result() is not first

    def test_basis_growth_on_novel_subspace(self, rng):
        """A slice living in a new right-subspace must trigger basis growth
        rather than being projected away.  Rank 8 so the grown basis can
        cover both disjoint 4-dimensional subspaces."""
        config = DecompositionConfig(rank=8, random_state=0)
        stream = StreamingDpar2(config, residual_threshold=0.05)
        J = 16
        # The first slice lives in columns 0..3, the novel one in 8..11.
        base = np.zeros((30, J))
        base[:, :4] = rng.random((30, 4))
        stream.absorb(base, refresh=False)
        novel = np.zeros((30, J))
        novel[:, 8:12] = rng.random((30, 4))
        stream.absorb(novel, refresh=False)
        compressed = stream.compressed()
        rel = np.linalg.norm(
            compressed.reconstruct_slice(1) - novel
        ) / np.linalg.norm(novel)
        assert rel < 0.1


class TestStreamOrderRobustness:
    def test_permuted_arrival_similar_quality(self, stream_config,
                                              stream_tensor):
        orders = [list(range(6)), [3, 0, 5, 1, 4, 2]]
        fits = []
        for order in orders:
            stream = StreamingDpar2(stream_config, refresh_iterations=8)
            for idx in order:
                stream.absorb(stream_tensor[idx], refresh=False)
            permuted = IrregularTensor(
                [stream_tensor[idx] for idx in order]
            )
            fits.append(stream.fitness(permuted))
        assert abs(fits[0] - fits[1]) < 0.1


class TestAbsorbMany:
    def test_batch_matches_slice_count(self, stream_config, rng):
        stream = StreamingDpar2(stream_config)
        stream.absorb_many([rng.random((20, 10)) for _ in range(4)])
        assert stream.n_slices == 4

    def test_empty_batch_is_noop(self, stream_config):
        stream = StreamingDpar2(stream_config)
        stream.absorb_many([])
        assert stream.n_slices == 0

    def test_column_mismatch_rejected(self, stream_config, rng):
        stream = StreamingDpar2(stream_config)
        with pytest.raises(ValueError, match="columns"):
            stream.absorb_many([rng.random((20, 10)), rng.random((20, 12))])

    def test_backends_agree_bitwise(self, stream_tensor):
        """Batch ingestion is schedule-independent: every backend yields the
        same model state for the same seed."""
        states = {}
        for backend in ("serial", "thread"):
            config = DecompositionConfig(
                rank=4, n_threads=2, backend=backend, random_state=0
            )
            stream = StreamingDpar2(config)
            stream.absorb_many(list(stream_tensor.slices), refresh=False)
            states[backend] = stream.compressed()
        np.testing.assert_array_equal(states["serial"].D, states["thread"].D)
        np.testing.assert_array_equal(
            states["serial"].F_blocks, states["thread"].F_blocks
        )

    def test_tall_slices_per_slice_route_matches_serial(self, batched_stage1_calls):
        """Slices taller than the batching cut-off go through the per-slice
        route on several threads; the state still matches the serial
        (stacked-kernel) run to the bit."""
        tensor = low_rank_irregular_tensor(
            [300, 280, 320, 260, 300], 24, rank=4, noise=0.02, random_state=2
        )
        assert min(tensor.row_counts) > _BATCH_MAX_ROWS
        states = {}
        for backend, n_threads in (("serial", 1), ("thread", 2)):
            batched_stage1_calls.clear()
            stream = StreamingDpar2(
                DecompositionConfig(
                    rank=4, n_threads=n_threads, backend=backend, random_state=0
                )
            )
            stream.absorb_many(list(tensor.slices), refresh=False)
            states[backend] = (stream.compressed(), list(batched_stage1_calls))
        serial, serial_calls = states["serial"]
        threaded, threaded_calls = states["thread"]
        assert serial_calls == [tensor.n_slices]  # one stacked call
        assert threaded_calls == []  # per slice, over the thread pool
        for A_serial, A_threaded in zip(serial.A, threaded.A):
            np.testing.assert_array_equal(A_serial, A_threaded)
        np.testing.assert_array_equal(serial.D, threaded.D)
        np.testing.assert_array_equal(serial.E, threaded.E)
        np.testing.assert_array_equal(serial.F_blocks, threaded.F_blocks)

    def test_quality_comparable_to_sequential(self, stream_config, stream_tensor):
        batched = StreamingDpar2(stream_config)
        batched.absorb_many(list(stream_tensor.slices))
        assert batched.fitness(stream_tensor) > 0.8


class TestShortSlices:
    """Slices with fewer rows than the model rank must not corrupt state.

    Regression: a short slice yields a lower-rank stage-1 factorization;
    without padding, the shared-basis coefficient blocks end up with mixed
    widths and ``compressed()`` crashes on ``np.stack``.
    """

    def test_absorb_short_slice(self, rng):
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb(rng.random((20, 10)), refresh=False)
        stream.absorb(rng.random((3, 10)), refresh=False)
        compressed = stream.compressed()
        assert compressed.n_slices == 2
        assert compressed.F_blocks.shape == (2, 4, 4)

    def test_absorb_many_short_slice(self, rng):
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb_many([rng.random((20, 10)), rng.random((3, 10))])
        assert stream.n_slices == 2
        # The 3-row slice caps the refreshed PARAFAC2 model at rank 3
        # (Qk cannot have 4 orthonormal columns in 3 rows); the compressed
        # stream state itself stays at the full rank 4.
        result = stream.result()
        assert result.V.shape == (10, 3)
        assert stream.compressed().rank == 4

    def test_short_first_slice(self, rng):
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb(rng.random((2, 10)), refresh=False)
        stream.absorb(rng.random((30, 10)), refresh=False)
        assert stream.compressed().n_slices == 2


class TestRefreshWithoutRebuild:
    """A refresh fits the compressed state itself; no dense slice is formed."""

    def test_no_slice_is_reconstructed(self, monkeypatch, stream_tensor):
        def refuse(self, k):
            raise AssertionError("a refresh rebuilt a dense slice")

        monkeypatch.setattr(CompressedTensor, "reconstruct_slice", refuse)
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb_many(list(stream_tensor.slices)[:3])
        stream.absorb_many(list(stream_tensor.slices)[3:], refresh=False)
        result = stream.result()
        assert result.n_slices == stream_tensor.n_slices

    @pytest.mark.parametrize("case", ["float64", "float32", "short_slice"])
    def test_refresh_equals_the_dense_route(self, stream_tensor, case):
        """Same bytes as ``dpar2`` on the rebuilt slices ``Ak F(k) E Dᵀ``,
        started from the previous refresh's factors plus rows of ones."""
        slices = list(stream_tensor.slices)
        if case == "short_slice":
            slices[2] = np.ascontiguousarray(slices[2][:3])
        dtype = "float32" if case == "float32" else "float64"
        stream = StreamingDpar2(
            DecompositionConfig(rank=4, random_state=0, dtype=dtype)
        )
        stream.absorb_many(slices[:4])
        previous = stream.result()
        stream.absorb_many(slices[4:])
        c = stream.compressed()
        dense = IrregularTensor(
            [c.reconstruct_slice(k) for k in range(c.n_slices)],
            copy=False,
            dtype=dtype,
        )
        new_rows = np.ones((c.n_slices - previous.n_slices, previous.rank), dtype=dtype)
        reference = dpar2(
            dense,
            stream.config.with_(max_iterations=stream.refresh_iterations),
            compressed=c,
            init=InitialFactors(
                H=previous.H, V=previous.V, W=np.concatenate([previous.S, new_rows])
            ),
        )
        assert reference.rank == (3 if case == "short_slice" else 4)
        assert stream.result().stats["streaming"]["warm_start"]
        assert_same_fit(stream.result(), reference)

    def test_snapshot_blocks_follow_the_coefficient_columns(self, stream_tensor):
        """``F(k)`` is column block k of the stacked coefficients' ``Vt``."""
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb_many(list(stream_tensor.slices), refresh=False)
        c = stream.compressed()
        _, _, Vt = np.linalg.svd(np.concatenate(stream._G, axis=1), full_matrices=False)
        for k in range(c.n_slices):
            np.testing.assert_array_equal(c.F_blocks[k], Vt[:4, 4 * k : 4 * (k + 1)].T)


class TestWarmRefresh:
    """Every refresh after the first starts from the previous one's factors."""

    def test_first_refresh_cold_later_ones_warm(self, stream_tensor):
        slices = list(stream_tensor.slices)
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb_many(slices[:3])
        first = stream.result()
        assert first.stats["streaming"]["warm_start"] is False
        c = stream.compressed()
        cold = dpar2(
            None, stream.config.with_(max_iterations=stream.refresh_iterations),
            compressed=c,
        )
        assert_same_fit(first, cold)
        stream.absorb(slices[3])
        stream.absorb(slices[4], refresh=False)
        assert stream.result().stats["streaming"]["warm_start"] is True

    def test_warm_refreshes_fit_better_than_a_cold_one(self):
        """A large first batch, then small updates with 3 sweeps each: the
        warm model ends above a cold 3-sweep fit of the same state."""
        tensor = low_rank_irregular_tensor(
            [20 + (k * 7) % 40 for k in range(70)], 32, rank=6, noise=0.05,
            random_state=0,
        )
        slices = list(tensor.slices)
        stream = StreamingDpar2(
            DecompositionConfig(rank=6, random_state=0), refresh_iterations=3
        )
        stream.absorb_many(slices[:40])
        for start in range(40, 70, 5):
            stream.absorb_many(slices[start:start + 5])
        cold = dpar2(
            None, stream.config.with_(max_iterations=3), compressed=stream.compressed()
        )
        assert stream.result().fitness(tensor) > cold.fitness(tensor) + 5e-3

    def test_invariant_to_the_shard_count(self, stream_tensor):
        slices = list(stream_tensor.slices)
        results = []
        for shards, transport in [(1, "serial"), (2, "serial"), (2, "process")]:
            stream = StreamingDpar2(
                DecompositionConfig(
                    rank=4, random_state=0, shards=shards, shard_backend=transport,
                    shard_cells=4,
                )
            )
            for start in (0, 2, 4):
                stream.absorb_many(slices[start:start + 2])
            assert stream.result().stats["streaming"]["warm_start"] is True
            results.append(stream.result())
        for result in results[1:]:
            assert_same_fit(result, results[0])

    def test_a_rank_change_restarts_cold(self, rng):
        stream = StreamingDpar2(DecompositionConfig(rank=4, random_state=0))
        stream.absorb_many([rng.random((20, 10)) for _ in range(3)])
        assert stream.result().rank == 4
        stream.absorb(rng.random((3, 10)))
        clamped = stream.result()
        assert (clamped.rank, clamped.stats["streaming"]["warm_start"]) == (3, False)
        assert clamped.stats["rank"]["short_slices"] == [3]
        stream.absorb(rng.random((20, 10)))
        after = stream.result()
        assert (after.rank, after.stats["streaming"]["warm_start"]) == (3, True)
