"""Tests for the ``xp`` dispatch layer (:mod:`repro.linalg.array_module`).

Three layers of guarantees:

* the numpy module is pure delegation — routing through it is bitwise
  indistinguishable from calling numpy directly;
* resolution is lazy and failures are actionable — unknown names list the
  registry, missing libraries carry install hints;
* the torch backend (skip-marked when the wheel is absent — CI installs
  it in a dedicated job) reproduces the numpy pipeline to tolerance on
  the exact shapes DPar2 exercises: ragged bucket stacks, QR sign
  conventions, the SVD ``(U, S, Vh)`` convention, the einsum sweep, and
  the end-to-end fit.
"""

import numpy as np
import pytest

from repro.decomposition.dpar2 import compress_tensor, dpar2
from repro.linalg.array_module import (
    COMPUTE_BACKEND_NAMES,
    BackendUnavailableError,
    NumpyModule,
    backend_available,
    get_xp,
)
from repro.decomposition.sharded import sharded_dpar2
from repro.linalg.kernels import (
    CellSweepWorkspace,
    batched_randomized_svd,
    batched_stacked_matmul,
)
from repro.linalg.randomized_svd import randomized_svd
from repro.tensor.random import low_rank_irregular_tensor, random_irregular_tensor
from repro.util.config import DecompositionConfig
from repro.util.rng import spawn_generators

HAS_TORCH = backend_available("torch")
HAS_CUDA = backend_available("torch-cuda")

torch_only = pytest.mark.skipif(not HAS_TORCH, reason="PyTorch not installed")
cuda_only = pytest.mark.skipif(
    not HAS_CUDA, reason="no CUDA-capable PyTorch build/device"
)

#: Same ragged profile the kernel equality tests use: two multi-slice
#: buckets (30, 45) and a singleton (17).
RAGGED_ROWS = [30, 45, 30, 17, 45, 30]


def _sign_fix(columns: np.ndarray) -> np.ndarray:
    """Normalize per-column sign by the largest-magnitude entry.

    QR and SVD factors are unique only up to column signs, and different
    LAPACK builds (numpy vs torch) pick them differently — comparisons
    must mod out the ambiguity.
    """
    anchor = columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]
    signs = np.sign(anchor)
    signs[signs == 0] = 1.0
    return columns * signs


class TestGetXp:
    def test_default_is_numpy(self):
        assert get_xp() is get_xp("numpy")
        assert get_xp(None).is_numpy

    def test_instances_are_cached(self):
        assert get_xp("numpy") is get_xp("numpy")

    def test_module_instance_passthrough(self):
        xp = get_xp("numpy")
        assert get_xp(xp) is xp

    def test_name_normalized(self):
        assert get_xp("  NumPy ").is_numpy

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(ValueError, match="numpy, torch, torch-cuda, cupy"):
            get_xp("tensorflow")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="compute backend"):
            get_xp(7)

    def test_backend_available_on_unknown_name(self):
        assert backend_available("not-a-backend") is False

    def test_registry_names_stable(self):
        assert COMPUTE_BACKEND_NAMES == ("numpy", "torch", "torch-cuda", "cupy")

    @pytest.mark.skipif(HAS_TORCH, reason="torch is installed here")
    def test_missing_torch_carries_install_hint(self):
        with pytest.raises(BackendUnavailableError, match="pip install torch"):
            get_xp("torch")


class TestNumpyModule:
    """Delegation must be exact — same functions, same objects, same bits."""

    xp = NumpyModule()

    def test_asarray_is_no_copy(self):
        a = np.arange(6.0).reshape(2, 3)
        assert self.xp.asarray(a) is a
        assert self.xp.to_numpy(a) is a

    def test_native_and_dtype_probes(self):
        a = np.zeros((2, 2), dtype=np.float32)
        assert self.xp.is_native(a)
        assert not self.xp.is_native([[1.0]])
        assert self.xp.numpy_dtype(a) == np.float32

    def test_linalg_matches_numpy_bitwise(self):
        rng = np.random.default_rng(0)
        stack = rng.standard_normal((4, 9, 5))
        Q, R = self.xp.qr(stack)
        Q_ref, R_ref = np.linalg.qr(stack)
        assert np.array_equal(Q, Q_ref) and np.array_equal(R, R_ref)
        U, S, Vt = self.xp.svd(stack)
        U_ref, S_ref, Vt_ref = np.linalg.svd(stack, full_matrices=False)
        assert np.array_equal(U, U_ref)
        assert np.array_equal(S, S_ref)
        assert np.array_equal(Vt, Vt_ref)

    def test_transpose_is_a_view(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        t = self.xp.transpose(a)
        assert np.shares_memory(t, a)
        assert t.shape == (2, 4, 3)
        np.testing.assert_array_equal(t, np.swapaxes(a, 1, 2))

    def test_matmul_stack_copy_helpers(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        assert np.array_equal(self.xp.matmul(a, b), a @ b)
        stacked = self.xp.stack([a, a])
        assert stacked.shape == (2, 3, 4)
        narrowed = self.xp.astype(a.T, np.float32)
        assert narrowed.dtype == np.float32
        assert np.array_equal(narrowed, a.T.astype(np.float32))
        assert self.xp.astype(a, np.float64) is a

    def test_scalar_and_creation(self):
        assert self.xp.to_float(np.float64(2.5)) == 2.5
        made = self.xp.asarray([[1.0, 2.0]], dtype=np.float32)
        assert made.dtype == np.float32 and made.shape == (1, 2)

    def test_einsum_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 3, 3))
        b = rng.standard_normal((5, 3, 3))
        np.testing.assert_allclose(
            self.xp.einsum("kij,kij->", a, b), np.einsum("kij,kij->", a, b)
        )


class TestKernelRoutingNumpy:
    """The xp plumbing must not disturb the numpy bitwise guarantees."""

    def test_batched_rsvd_explicit_numpy_module_is_bitwise(self):
        tensor = random_irregular_tensor(RAGGED_ROWS, n_columns=20, random_state=3)
        base = batched_randomized_svd(
            tensor.slices, 5, generators=spawn_generators(42, tensor.n_slices)
        )
        routed = batched_randomized_svd(
            tensor.slices,
            5,
            generators=spawn_generators(42, tensor.n_slices),
            xp="numpy",
        )
        for ref, out in zip(base, routed):
            assert np.array_equal(ref.U, out.U)
            assert np.array_equal(ref.singular_values, out.singular_values)
            assert np.array_equal(ref.V, out.V)

    def test_native_slices_length_mismatch_rejected(self):
        tensor = random_irregular_tensor([8, 8], n_columns=6, random_state=0)
        with pytest.raises(ValueError, match="native_slices"):
            batched_randomized_svd(
                tensor.slices,
                3,
                generators=spawn_generators(0, 2),
                native_slices=[tensor.slices[0]],
            )


class _LoopbackModule(NumpyModule):
    """numpy masquerading as a non-numpy backend.

    Every operation still delegates to numpy (values match the reference
    to roundoff), but ``is_numpy`` is False — so the kernels take their
    device-routing branches: forced batching, on-"device" bucket stacking
    from ``native_slices``, device :class:`CellSweepWorkspace` sweeps.  This
    keeps the whole device code path under test even where torch is not
    installed.
    """

    name = "loopback"
    is_numpy = False


class TestLoopbackDevicePath:
    """Device-routing branches, exercised without any device library."""

    def test_batched_rsvd_native_stacking_matches_reference(self):
        xp = _LoopbackModule()
        tensor = random_irregular_tensor(RAGGED_ROWS, n_columns=20, random_state=3)
        ref = batched_randomized_svd(
            tensor.slices, 5, generators=spawn_generators(42, tensor.n_slices)
        )
        out = batched_randomized_svd(
            tensor.slices,
            5,
            generators=spawn_generators(42, tensor.n_slices),
            xp=xp,
            native_slices=list(tensor.slices),  # exact buckets stack "on-device"
        )
        for r, o in zip(ref, out):
            np.testing.assert_array_equal(o.U, r.U)
            np.testing.assert_array_equal(o.singular_values, r.singular_values)
            np.testing.assert_array_equal(o.V, r.V)

    def test_batched_stacked_matmul_device_branch(self):
        xp = _LoopbackModule()
        rng = np.random.default_rng(8)
        lefts = [rng.standard_normal((rows, 4)) for rows in (6, 9, 6, 9, 17)]
        rights = rng.standard_normal((5, 4, 3))
        ref = batched_stacked_matmul(lefts, rights)
        out = batched_stacked_matmul(lefts, rights, xp=xp)
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, atol=1e-13)

    def test_compress_tensor_device_routing_is_exact(self):
        xp = _LoopbackModule()
        tensor = random_irregular_tensor(RAGGED_ROWS, n_columns=16, random_state=9)
        ref = compress_tensor(tensor, 4, random_state=0, backend="serial")
        out = compress_tensor(
            tensor, 4, random_state=0, backend="serial", compute_backend=xp
        )
        np.testing.assert_array_equal(out.D, ref.D)
        np.testing.assert_array_equal(out.E, ref.E)
        np.testing.assert_array_equal(out.F_blocks, ref.F_blocks)
        for A_out, A_ref in zip(out.A, ref.A):
            np.testing.assert_array_equal(A_out, A_ref)

    def test_full_sweep_loop_through_device_workspace(self):
        """The one sweep loop on a device cell workspace tracks numpy."""
        xp = _LoopbackModule()
        tensor = low_rank_irregular_tensor(
            [40, 60, 35, 50, 45], n_columns=24, rank=4, noise=0.02, random_state=1
        )
        config = DecompositionConfig(
            rank=4, max_iterations=8, tolerance=0.0, random_state=7,
            backend="serial",
        )
        ref = dpar2(tensor, config)
        out = sharded_dpar2(tensor, config, xp=xp)
        assert abs(out.fitness(tensor) - ref.fitness(tensor)) < 1e-10
        assert len(out.history) == len(ref.history) == 8
        for r, o in zip(ref.history, out.history):
            np.testing.assert_allclose(
                o.criterion, r.criterion, rtol=1e-8, atol=1e-10
            )
        assert "sharding" not in out.stats

    def test_exact_convergence_ablation_on_device_path(self):
        xp = _LoopbackModule()
        tensor = low_rank_irregular_tensor(
            [30, 45, 38], n_columns=20, rank=3, noise=0.0, random_state=2
        )
        config = DecompositionConfig(
            rank=3, max_iterations=4, tolerance=0.0, random_state=0,
            backend="serial",
        )
        ref = dpar2(tensor, config, exact_convergence=True)
        out = sharded_dpar2(tensor, config, exact_convergence=True, xp=xp)
        assert len(out.history) == len(ref.history) == 4
        for r, o in zip(ref.history, out.history):
            np.testing.assert_allclose(o.criterion, r.criterion, rtol=1e-8)

    def test_out_of_core_compression_rejected_on_device_module(self, tmp_path):
        from repro.tensor.irregular import IrregularTensor

        tensor = random_irregular_tensor([10, 12], n_columns=6, random_state=0)
        store = tensor.to_store(tmp_path / "store")
        mapped = IrregularTensor.from_store(store)
        with pytest.raises(ValueError, match="out-of-core"):
            compress_tensor(mapped, 3, compute_backend=_LoopbackModule())
        with pytest.raises(ValueError, match="memory-mapped"):
            mapped.to_backend(_LoopbackModule())


@torch_only
class TestTorchMovement:
    def test_round_trip_preserves_dtype_and_values(self):
        xp = get_xp("torch")
        for dtype in (np.float64, np.float32):
            host = np.random.default_rng(0).standard_normal((7, 4)).astype(dtype)
            native = xp.asarray(host)
            assert xp.is_native(native)
            assert xp.numpy_dtype(native) == np.dtype(dtype)
            back = xp.to_numpy(native)
            assert back.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(back, host)

    def test_astype_and_scalar(self):
        xp = get_xp("torch")
        native = xp.asarray(np.ones((2, 2), dtype=np.float32))
        widened = xp.astype(native, np.float64)
        assert xp.numpy_dtype(widened) == np.float64
        assert xp.to_float(xp.einsum("ij->", widened)) == 4.0

    def test_tensor_backend_cache_transfers_once(self):
        from repro.tensor.irregular import IrregularTensor

        xp = get_xp("torch")
        tensor = random_irregular_tensor([5, 9], n_columns=4, random_state=0)
        first = tensor.to_backend(xp)
        assert first is tensor.to_backend(xp)  # cached, not re-shipped
        assert all(xp.is_native(Xk) for Xk in first)
        tensor.release_backend_cache()
        assert tensor.to_backend(xp) is not first
        # numpy requests bypass the cache entirely
        assert IrregularTensor(tensor.slices).to_backend(get_xp("numpy"))


@torch_only
class TestTorchParity:
    """NumPy↔torch agreement on the shapes DPar2 actually dispatches."""

    def test_qr_agrees_after_sign_fixing(self):
        xp = get_xp("torch")
        A = np.random.default_rng(5).standard_normal((20, 6))
        Q_np, _ = np.linalg.qr(A)
        Q_t, R_t = xp.qr(xp.asarray(A))
        Q_t, R_t = xp.to_numpy(Q_t), xp.to_numpy(R_t)
        np.testing.assert_allclose(_sign_fix(Q_t), _sign_fix(Q_np), atol=1e-12)
        # Reduced mode and the reconstruction contract must match too.
        np.testing.assert_allclose(Q_t @ R_t, A, atol=1e-12)

    def test_svd_follows_u_s_vh_convention(self):
        xp = get_xp("torch")
        A = np.random.default_rng(6).standard_normal((12, 8))
        U, S, Vt = (xp.to_numpy(x) for x in xp.svd(xp.asarray(A)))
        assert U.shape == (12, 8) and S.shape == (8,) and Vt.shape == (8, 8)
        np.testing.assert_allclose((U * S) @ Vt, A, atol=1e-12)
        S_np = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(S, S_np, atol=1e-12)

    def test_randomized_svd_matches_numpy(self):
        A = np.random.default_rng(7).standard_normal((40, 15))
        ref = randomized_svd(A, 5, random_state=3)
        out = randomized_svd(A, 5, random_state=3, xp="torch")
        np.testing.assert_allclose(
            out.singular_values, ref.singular_values, atol=1e-10
        )
        np.testing.assert_allclose(_sign_fix(out.U), _sign_fix(ref.U), atol=1e-9)
        np.testing.assert_allclose(out.reconstruct(), ref.reconstruct(), atol=1e-10)

    def test_batched_rsvd_ragged_buckets_match(self):
        """Ragged bucket stacks: multi-slice buckets, a singleton, both dtypes."""
        for dtype, atol in ((np.float64, 1e-9), (np.float32, 2e-4)):
            tensor = random_irregular_tensor(
                RAGGED_ROWS, n_columns=20, random_state=3
            ).astype(dtype)
            ref = batched_randomized_svd(
                tensor.slices, 5, generators=spawn_generators(42, tensor.n_slices)
            )
            out = batched_randomized_svd(
                tensor.slices,
                5,
                generators=spawn_generators(42, tensor.n_slices),
                xp="torch",
                native_slices=tensor.to_backend(get_xp("torch")),
            )
            for k, (r, o) in enumerate(zip(ref, out)):
                assert o.U.shape == r.U.shape, f"slice {k}"
                np.testing.assert_allclose(
                    o.singular_values, r.singular_values, atol=atol
                )
                np.testing.assert_allclose(
                    o.reconstruct(), r.reconstruct(), atol=atol
                )

    def test_batched_stacked_matmul_matches(self):
        rng = np.random.default_rng(8)
        lefts = [rng.standard_normal((rows, 4)) for rows in (6, 9, 6, 9)]
        rights = rng.standard_normal((4, 4, 3))
        ref = batched_stacked_matmul(lefts, rights)
        out = batched_stacked_matmul(lefts, rights, xp="torch")
        for r, o in zip(ref, out):
            np.testing.assert_allclose(o, r, atol=1e-12)

    def test_compress_tensor_torch_close_to_numpy(self):
        tensor = random_irregular_tensor(RAGGED_ROWS, n_columns=16, random_state=9)
        ref = compress_tensor(tensor, 4, random_state=0, backend="serial")
        out = compress_tensor(
            tensor, 4, random_state=0, backend="serial", compute_backend="torch"
        )
        for k in range(tensor.n_slices):
            np.testing.assert_allclose(
                out.reconstruct_slice(k), ref.reconstruct_slice(k), atol=1e-9
            )

    def test_dpar2_fit_matches_numpy_within_1e10(self):
        """The issue's acceptance bar: torch-CPU float64 fit within 1e-10."""
        tensor = low_rank_irregular_tensor(
            [40, 60, 35, 50, 45], n_columns=24, rank=4, noise=0.02, random_state=1
        )
        config = DecompositionConfig(
            rank=4, max_iterations=10, tolerance=0.0, random_state=7,
            backend="serial",
        )
        ref = dpar2(tensor, config)
        out = dpar2(tensor, config.with_(compute_backend="torch"))
        assert abs(out.fitness(tensor) - ref.fitness(tensor)) < 1e-10
        # Sweep-by-sweep criterion trajectories must track, not just the end.
        for r, o in zip(ref.history, out.history):
            np.testing.assert_allclose(
                o.criterion, r.criterion, rtol=1e-8, atol=1e-10
            )

    def test_dpar2_float32_pipeline_runs_on_torch(self):
        tensor = low_rank_irregular_tensor(
            [30, 45, 38], n_columns=20, rank=3, noise=0.0, random_state=2
        )
        result = dpar2(
            tensor,
            DecompositionConfig(
                rank=3, max_iterations=8, random_state=0, backend="serial",
                dtype="float32", compute_backend="torch",
            ),
        )
        assert result.fitness(tensor) > 0.99
        assert all(Q.dtype == np.float32 for Q in result.Q)

    def test_device_workspace_checked_out_for_torch(self):
        """A torch cell workspace keeps F resident and returns host arrays."""
        xp = get_xp("torch")
        ws = CellSweepWorkspace(4, 3, 3, xp=xp)
        assert ws.small is None  # no host out= buffers on a device module
        rng = np.random.default_rng(0)
        E = np.abs(rng.standard_normal(3))
        F = rng.standard_normal((4, 3, 3))
        ws.bind(E, F, rng.standard_normal((4, 3)))
        assert xp.is_native(ws.F)
        EDtV, H = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        ws.compute_small(EDtV, H)
        ws.compute_polar(engine=None)
        ws.compute_T()
        G1 = ws.mttkrp_H(EDtV)
        assert isinstance(G1, np.ndarray) and G1.shape == (3, 3)
        assert ws.polar_host().shape == (4, 3, 3)

    def test_streaming_absorb_many_runs_on_torch(self):
        from repro.decomposition.streaming import StreamingDpar2

        rng = np.random.default_rng(0)
        slices = [rng.random((20, 10)) for _ in range(4)]
        ref = StreamingDpar2(DecompositionConfig(rank=3, random_state=0))
        ref.absorb_many(slices)
        out = StreamingDpar2(
            DecompositionConfig(rank=3, random_state=0, compute_backend="torch")
        )
        out.absorb_many(slices)
        tensor = random_irregular_tensor([20] * 4, n_columns=10, random_state=1)
        assert abs(out.fitness(tensor) - ref.fitness(tensor)) < 1e-6


@torch_only
class TestTorchGuards:
    def test_out_of_core_tensor_rejected(self, tmp_path):
        from repro.tensor.irregular import IrregularTensor

        tensor = random_irregular_tensor([10, 12], n_columns=6, random_state=0)
        store = tensor.to_store(tmp_path / "store")
        mapped = IrregularTensor.from_store(store)
        with pytest.raises(ValueError, match="out-of-core"):
            compress_tensor(mapped, 3, compute_backend="torch")
        with pytest.raises(ValueError, match="out-of-core"):
            dpar2(mapped, DecompositionConfig(rank=3, compute_backend="torch"))


@cuda_only
class TestCudaSmoke:
    """One end-to-end pass on a visible GPU — correctness, not speed."""

    def test_dpar2_torch_cuda_matches_numpy_fit(self):
        tensor = low_rank_irregular_tensor(
            [30, 45, 38], n_columns=20, rank=3, noise=0.0, random_state=2
        )
        config = DecompositionConfig(
            rank=3, max_iterations=6, random_state=0, backend="serial"
        )
        ref = dpar2(tensor, config)
        out = dpar2(tensor, config.with_(compute_backend="torch-cuda"))
        assert abs(out.fitness(tensor) - ref.fitness(tensor)) < 1e-8
