"""Batched kernels, sweep workspace, and the dtype-configurable pipeline.

The contract under test: batching, workspace reuse, and dtype
threading are pure performance features — float64 results must be *bitwise*
identical to the per-slice/per-call reference paths, and float32 results
must track float64 to tolerance.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_array_module import HAS_TORCH, _LoopbackModule

from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.linalg.array_module import get_xp
from repro.linalg.kernels import (
    CellSweepWorkspace,
    batched_randomized_svd,
    batched_stacked_matmul,
    bucket_by_rows,
)
from repro.linalg.randomized_svd import randomized_svd
from repro.sparse.ops import random_sparse
from repro.tensor.irregular import IrregularTensor
from repro.tensor.mmap_store import MmapSliceStore
from repro.tensor.random import low_rank_irregular_tensor, random_irregular_tensor
from repro.util.config import DecompositionConfig
from repro.util.rng import spawn_generators

# Ragged heights: two multi-slice buckets (30, 45) and a singleton (17).
RAGGED_ROWS = [30, 45, 30, 17, 45, 30]


def _per_slice_reference(tensor, rank, seed):
    generators = spawn_generators(seed, tensor.n_slices)
    return [
        randomized_svd(Xk, rank, random_state=g)
        for Xk, g in zip(tensor.slices, generators)
    ]


class TestBatchedStage1:
    def test_matches_per_slice_bitwise(self):
        tensor = random_irregular_tensor(RAGGED_ROWS, n_columns=20, random_state=3)
        expected = _per_slice_reference(tensor, 5, 42)
        got = batched_randomized_svd(
            tensor.slices, 5, generators=spawn_generators(42, tensor.n_slices)
        )
        assert len(got) == tensor.n_slices
        for ref, out in zip(expected, got):
            assert np.array_equal(ref.U, out.U)
            assert np.array_equal(ref.singular_values, out.singular_values)
            assert np.array_equal(ref.V, out.V)

    def test_singleton_bucket_matches(self):
        """A bucket of size 1 must route through the plain 2-D kernel."""
        tensor = random_irregular_tensor([25], n_columns=12, random_state=0)
        [out] = batched_randomized_svd(
            tensor.slices, 4, generators=spawn_generators(7, 1)
        )
        [ref] = _per_slice_reference(tensor, 4, 7)
        assert np.array_equal(ref.U, out.U)

    def test_compress_tensor_batched_equals_per_slice(self):
        """Dense stage 1 batches by default and runs one randomized SVD per
        slice with greedy partitioning off — the same factors either way."""
        tensor = random_irregular_tensor(RAGGED_ROWS, n_columns=16, random_state=9)
        batched = compress_tensor(tensor, 5, random_state=0, backend="serial")
        per_slice = compress_tensor(
            tensor, 5, random_state=0, backend="serial", use_greedy_partition=False
        )
        for Ab, Ap in zip(batched.A, per_slice.A):
            assert np.array_equal(Ab, Ap)
        assert np.array_equal(batched.D, per_slice.D)
        assert np.array_equal(batched.E, per_slice.E)
        assert np.array_equal(batched.F_blocks, per_slice.F_blocks)

    def test_generator_count_mismatch_raises(self):
        tensor = random_irregular_tensor([10, 12], n_columns=8, random_state=0)
        with pytest.raises(ValueError, match="align"):
            batched_randomized_svd(
                tensor.slices, 3, generators=spawn_generators(0, 1)
            )


@st.composite
def bucket_layouts(draw):
    """Slice heights 1–40 in shuffled singleton and repeated buckets, J in
    1–30, a rank on either side of min(height, J), and the sketch knobs."""
    buckets = draw(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 3)),
            min_size=1, max_size=4, unique_by=lambda bucket: bucket[0],
        )
    )
    heights = draw(st.permutations([h for h, n in buckets for _ in range(n)]))
    return {
        "heights": heights,
        "n_columns": draw(st.integers(1, 30)),
        "rank": draw(st.integers(1, 45)),
        "oversampling": draw(st.integers(0, 6)),
        "power_iterations": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _layout_runs(layout, mats, xp):
    """``(batched, per-slice loop)`` factors of one layout on one backend.

    A device module stacks its buckets from native slices, as
    ``compress_tensor`` does from the tensor's device cache.
    """
    kwargs = {
        "oversampling": layout["oversampling"],
        "power_iterations": layout["power_iterations"],
    }
    xp = get_xp(xp)
    batched = batched_randomized_svd(
        mats, layout["rank"], generators=spawn_generators(layout["seed"], len(mats)),
        xp=xp, native_slices=None if xp.is_numpy else [xp.asarray(Xk) for Xk in mats],
        **kwargs,
    )
    loop = [
        randomized_svd(Xk, layout["rank"], random_state=g, xp=xp, **kwargs)
        for Xk, g in zip(mats, spawn_generators(layout["seed"], len(mats)))
    ]
    return batched, loop


class TestOnePipelineProperty:
    """Algorithm 1 runs through one pipeline for a matrix and a stack, so on
    generated bucket layouts the bucketed call must reproduce the per-slice
    loop: bitwise on dense numpy/loopback operands, to rounding on CSR
    (a lone slice and a shared bucket use different host SpMM kernels) and
    on torch (whose batched products round differently)."""

    @pytest.mark.parametrize(
        "backend",
        [
            "numpy",
            "loopback",
            pytest.param(
                "torch",
                marks=pytest.mark.skipif(not HAS_TORCH, reason="PyTorch not installed"),
            ),
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(layout=bucket_layouts(), dtype=st.sampled_from([np.float32, np.float64]))
    def test_dense_buckets_match_per_slice_loop(self, backend, layout, dtype):
        xp = {"numpy": None, "loopback": _LoopbackModule(), "torch": "torch"}[backend]
        rng = np.random.default_rng(layout["seed"])
        mats = [
            rng.standard_normal((h, layout["n_columns"])).astype(dtype)
            for h in layout["heights"]
        ]
        batched, loop = _layout_runs(layout, mats, xp)
        for Xk, out, ref in zip(mats, batched, loop):
            r = min(layout["rank"], *Xk.shape)
            assert out.U.shape == (Xk.shape[0], r)
            assert out.V.shape == (Xk.shape[1], r)
            assert out.U.dtype == out.V.dtype == np.dtype(dtype)
            if backend != "torch":
                assert np.array_equal(out.U, ref.U)
                assert np.array_equal(out.singular_values, ref.singular_values)
                assert np.array_equal(out.V, ref.V)
                continue
            # The torch parity tolerances, relative to the slice's scale:
            # singular values and the rank-r residual are well conditioned
            # even where a near-tie at the truncation rotates U and V.
            atol = (1e-9 if dtype == np.float64 else 2e-4) * max(
                1.0, float(np.linalg.norm(Xk))
            )
            np.testing.assert_allclose(
                out.singular_values, ref.singular_values, atol=atol
            )
            assert abs(
                np.linalg.norm(Xk - out.reconstruct())
                - np.linalg.norm(Xk - ref.reconstruct())
            ) <= atol

    @settings(max_examples=40, deadline=None)
    @given(layout=bucket_layouts(), density=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    def test_csr_buckets_match_per_slice_loop(self, layout, density):
        rng = np.random.default_rng(layout["seed"])
        mats = [
            random_sparse((h, layout["n_columns"]), density, rng)
            for h in layout["heights"]
        ]
        batched, loop = _layout_runs(layout, mats, None)
        for Xk, out, ref in zip(mats, batched, loop):
            assert out.U.shape == ref.U.shape and out.V.shape == ref.V.shape
            np.testing.assert_allclose(
                out.singular_values, ref.singular_values,
                rtol=0, atol=1e-10 * np.sqrt(Xk.squared_norm()),
            )


class TestBucketing:
    def test_exact_buckets_group_equal_heights(self):
        buckets = bucket_by_rows([30, 45, 30, 17, 45, 30])
        assert buckets == [(17, [3]), (30, [0, 2, 5]), (45, [1, 4])]


class TestBatchedStackedMatmul:
    def test_matches_loop_bitwise(self):
        rng = np.random.default_rng(0)
        lefts = [rng.standard_normal((m, 4)) for m in [9, 7, 9, 5, 7]]
        rights = rng.standard_normal((5, 4, 3))
        got = batched_stacked_matmul(lefts, rights)
        for k, out in enumerate(got):
            assert np.array_equal(out, lefts[k] @ rights[k])


class TestSweepWorkspace:
    def test_dpar2_results_stable_across_consecutive_calls(self):
        """A second call on the same problem must not see the first's state."""
        tensor = low_rank_irregular_tensor(
            [30, 45, 38], n_columns=20, rank=3, noise=0.0, random_state=2
        )
        config = DecompositionConfig(rank=3, max_iterations=10, random_state=5)
        first = dpar2(tensor, config)
        second = dpar2(tensor, config)
        for Q1, Q2 in zip(first.Q, second.Q):
            assert np.array_equal(Q1, Q2)
        assert np.array_equal(first.V, second.V)
        assert np.array_equal(first.H, second.H)
        assert np.array_equal(first.S, second.S)
        assert [r.criterion for r in first.history] == [
            r.criterion for r in second.history
        ]

    def test_interleaved_shapes_keep_results_stable(self):
        """Alternating geometries must each keep their own buffers."""
        t_a = low_rank_irregular_tensor(
            [30, 45, 38], n_columns=20, rank=3, noise=0.0, random_state=2
        )
        t_b = random_irregular_tensor([15, 25, 20, 30], n_columns=12, random_state=0)
        cfg = DecompositionConfig(rank=3, max_iterations=6, random_state=1)
        ref_a = dpar2(t_a, cfg)
        ref_b = dpar2(t_b, cfg)
        again_a = dpar2(t_a, cfg)
        again_b = dpar2(t_b, cfg)
        assert np.array_equal(ref_a.V, again_a.V)
        assert np.array_equal(ref_b.V, again_b.V)

    def test_rejects_compression_rank_below_target(self):
        with pytest.raises(ValueError, match="below target"):
            CellSweepWorkspace(4, 5, Rc=3)

    def test_steady_state_sweeps_do_not_grow_memory(self):
        """tracemalloc: extra sweeps beyond the 2nd must not accrete heap.

        Preallocated workspace buffers mean the peak traced allocation of a
        long run exceeds a short run's only by the per-sweep bookkeeping
        (history records, small solve outputs), not by per-sweep copies of
        the K-sized contraction temporaries.
        """
        tensor = random_irregular_tensor(
            [24] * 30 + [36] * 30, n_columns=18, random_state=4
        )
        compressed = compress_tensor(tensor, 6, random_state=0)
        config = DecompositionConfig(
            rank=6, tolerance=0.0, random_state=3, backend="serial"
        )

        def peak_of(n_sweeps):
            dpar2(tensor, config, compressed=compressed, max_iterations=2)  # warm
            tracemalloc.start()
            dpar2(tensor, config, compressed=compressed, max_iterations=n_sweeps)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        short, long = peak_of(2), peak_of(12)
        # 10 extra sweeps; K*R*R float64 temporaries would cost ~230 kB each
        # per sweep if reallocated. Allow slack for history + solver output.
        assert long - short < 128_000, f"sweeps leak memory: {short} -> {long}"


class TestFloat32Pipeline:
    def test_fit_quality_close_to_float64(self):
        tensor = low_rank_irregular_tensor(
            [40, 60, 35, 50, 45], n_columns=24, rank=4, noise=0.02, random_state=1
        )
        cfg = DecompositionConfig(rank=4, max_iterations=20, random_state=7)
        r64 = dpar2(tensor, cfg)
        r32 = dpar2(tensor, cfg.with_(dtype="float32"))
        assert r32.V.dtype == np.float32
        assert all(Qk.dtype == np.float32 for Qk in r32.Q)
        f64 = r64.fitness(tensor)
        f32 = r32.fitness(tensor.astype(np.float32))
        assert f32 == pytest.approx(f64, abs=1e-4)

    def test_compression_dtype_follows_tensor(self):
        tensor = random_irregular_tensor([20, 30], n_columns=10, random_state=0)
        c32 = compress_tensor(tensor.astype(np.float32), 4, random_state=0)
        assert c32.D.dtype == np.float32
        assert c32.F_blocks.dtype == np.float32
        assert c32.nbytes < compress_tensor(tensor, 4, random_state=0).nbytes

    def test_irregular_tensor_dtype_round_trip(self):
        tensor = random_irregular_tensor([12, 15], n_columns=8, random_state=1)
        t32 = tensor.astype(np.float32)
        assert t32.dtype == np.float32
        assert t32.astype(np.float32) is t32
        assert t32.nbytes * 2 == tensor.nbytes
        assert t32.subset([0]).dtype == np.float32
        assert t32.scaled(2.0).dtype == np.float32

    def test_mmap_store_float32_round_trip(self, tmp_path):
        tensor = random_irregular_tensor([10, 14], n_columns=6, random_state=2)
        t32 = tensor.astype(np.float32)
        store = t32.to_store(tmp_path / "store32")
        assert store.dtype == np.float32
        assert store.nbytes == t32.nbytes
        loaded = IrregularTensor.from_store(MmapSliceStore.open(tmp_path / "store32"))
        assert loaded.dtype == np.float32
        for a, b in zip(t32, loaded):
            assert np.array_equal(a, b)

    def test_config_dtype_validation(self):
        assert DecompositionConfig(dtype=np.float32).dtype == "float32"
        assert DecompositionConfig(dtype="float64").numpy_dtype == np.float64
        with pytest.raises(ValueError, match="dtype"):
            DecompositionConfig(dtype="int32")

    def test_exact_convergence_streams_out_of_core(self, tmp_path):
        """Memmap tensors use the streaming exact-error path (no K×Rc×J
        stack) and agree with the hoisted in-RAM evaluation."""
        tensor = low_rank_irregular_tensor(
            [30, 45, 38], n_columns=20, rank=3, noise=0.02, random_state=6
        )
        store = tensor.to_store(tmp_path / "store")
        ooc = IrregularTensor.from_store(store)
        cfg = DecompositionConfig(rank=3, max_iterations=5, random_state=4)
        in_ram = dpar2(tensor, cfg, exact_convergence=True)
        streamed = dpar2(ooc, cfg, exact_convergence=True)
        ram_hist = [r.criterion for r in in_ram.history]
        ooc_hist = [r.criterion for r in streamed.history]
        np.testing.assert_allclose(ooc_hist, ram_hist, rtol=1e-9)

    def test_randomized_svd_preserves_float32(self):
        A = np.random.default_rng(0).standard_normal((30, 12)).astype(np.float32)
        out = randomized_svd(A, 4, random_state=0)
        assert out.U.dtype == np.float32
        ref = randomized_svd(A.astype(np.float64), 4, random_state=0)
        np.testing.assert_allclose(out.singular_values, ref.singular_values, rtol=1e-4)
