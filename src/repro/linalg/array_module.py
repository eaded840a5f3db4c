"""Backend-agnostic array-module dispatch — the ``xp`` layer.

DPar2's hot paths were refactored (PR 2) into stacked 3-D matmul / QR /
SVD / einsum calls, which map 1:1 onto the batched primitives every dense
array library exposes.  This module is the thin seam that lets those
kernels run on any of them: an :class:`ArrayModule` bundles the dozen
operations the pipeline actually uses, and :func:`get_xp` resolves a
backend name into a live module:

``numpy``
    The default.  Every operation delegates straight to the numpy function
    the kernels called before this layer existed, so results are **bitwise
    identical** to direct numpy code — the equality tests that pin the
    batched kernels to their per-slice references run unchanged through it.
``torch`` / ``torch-cuda``
    PyTorch on CPU or CUDA.  ``torch.linalg`` ships the same batched
    QR/SVD surface; host arrays move to the device through pinned staging
    buffers (``pin_memory`` + ``non_blocking`` copies) so transfers overlap
    compute where the driver allows it.
``cupy``
    CuPy, whose API mirrors numpy's — the generic code paths run verbatim.

Device backends are *optional*: importing this module never imports torch
or cupy.  Resolution is lazy, and a missing library raises
:class:`BackendUnavailableError` with the install hint, so environments
without accelerators pay nothing and fail clearly.

Conventions shared by every module:

* ``asarray`` accepts host ndarrays or backend-native arrays and returns a
  native array on the module's device; ``to_numpy`` is the inverse.  For
  the numpy module both are no-copy no-ops.
* ``qr`` is reduced-mode, ``svd(..., full_matrices=False)`` returns
  ``(U, S, Vh)`` — the LAPACK ``gesdd`` convention numpy and torch share.
* All linalg entry points accept stacked ``(..., m, n)`` operands.
* RNG draws always happen on the host with numpy generators and are then
  shipped over — a fixed seed therefore feeds every backend the same
  sketch, which is what makes cross-backend parity testable at all.
* The sparse surface (``sparse_csr`` / ``spmm``) mirrors the dense one:
  host CSR arrays go up once as a backend-native handle, and the forward
  SpMM runs on that handle.  Transposed products need no second kernel:
  :class:`~repro.sparse.csr.CsrMatrix` and
  :class:`~repro.sparse.stacked.StackedCsr` multiply through their cached
  host transpose, whose handle also uploads once.  The numpy module wraps
  the very same scipy/pure-numpy kernels
  :class:`~repro.sparse.stacked.StackedCsr` always used, so host results
  stay bitwise identical; torch uses ``sparse_csr_tensor`` + ``sparse.mm``
  and CuPy uses ``cupyx.scipy.sparse.csr_matrix``.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

__all__ = [
    "ArrayModule",
    "BackendUnavailableError",
    "COMPUTE_BACKEND_NAMES",
    "CupyModule",
    "NumpyModule",
    "TorchModule",
    "backend_available",
    "get_xp",
]

#: Registry names, in the order they should be offered to users.
COMPUTE_BACKEND_NAMES = ("numpy", "torch", "torch-cuda", "cupy")


class BackendUnavailableError(ImportError):
    """A compute backend's library (or device) is not present.

    Subclasses ``ImportError`` so callers that probe optional backends can
    catch the usual exception; the message always carries an install hint.
    """


class ArrayModule(abc.ABC):
    """The operation surface DPar2's kernels need from an array library.

    One instance per backend (see :func:`get_xp`); instances are stateless
    apart from the underlying library handle, so they are safe to share
    across threads and calls.
    """

    name: ClassVar[str]
    #: ``"cpu"`` or ``"cuda"`` — where native arrays live.
    device: ClassVar[str] = "cpu"
    #: True only for the numpy module, whose operations are the very
    #: functions the kernels called historically (the bitwise-exact path).
    is_numpy: ClassVar[bool] = False

    # ------------------------------------------------------------------ #
    # movement
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def asarray(self, array, dtype=None):
        """Host ndarray or native array → native array on this device."""

    @abc.abstractmethod
    def to_numpy(self, array) -> np.ndarray:
        """Native array → host :class:`numpy.ndarray` (no-op for numpy)."""

    @abc.abstractmethod
    def is_native(self, array) -> bool:
        """Whether ``array`` is already this backend's native type."""

    @abc.abstractmethod
    def numpy_dtype(self, array) -> np.dtype:
        """The numpy dtype corresponding to a native array's dtype."""

    # ------------------------------------------------------------------ #
    # creation
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def stack(self, arrays):
        """Stack same-shape native arrays along a new leading axis."""

    # ------------------------------------------------------------------ #
    # compute
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def matmul(self, a, b):
        """Batched matrix product (``a @ b`` semantics)."""

    @abc.abstractmethod
    def einsum(self, subscripts: str, *operands):
        """Einstein-summation contraction."""

    @abc.abstractmethod
    def qr(self, a):
        """Reduced QR of (stacked) matrices → ``(Q, R)``."""

    @abc.abstractmethod
    def svd(self, a, full_matrices: bool = False):
        """SVD of (stacked) matrices → ``(U, S, Vh)``."""

    @abc.abstractmethod
    def transpose(self, a):
        """Swap the last two axes (a view where the backend allows it)."""

    @abc.abstractmethod
    def reshape(self, a, shape):
        """Native array viewed with another shape (copies only if needed)."""

    @abc.abstractmethod
    def astype(self, a, dtype):
        """Native array at another precision (may return ``a`` unchanged)."""

    @abc.abstractmethod
    def to_float(self, scalar) -> float:
        """0-d native array → Python float (synchronizes device backends)."""

    # ------------------------------------------------------------------ #
    # sparse (CSR) surface
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def sparse_csr(self, indptr, indices, data, shape):
        """Backend-native CSR handle for a 2-D ``shape`` sparse matrix.

        ``indptr``/``indices`` are int64 host arrays, ``data`` a float32 or
        float64 host array.  The handle is opaque to callers — it only ever
        feeds :meth:`spmm` on the same module.  Device
        modules upload the three arrays once per call; callers cache the
        handle (see :meth:`repro.sparse.stacked.StackedCsr.native`).
        """

    @abc.abstractmethod
    def spmm(self, sparse, dense):
        """``sparse @ dense`` for a :meth:`sparse_csr` handle and a native
        2-D dense operand; returns a native dense array."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"


class NumpyModule(ArrayModule):
    """The default backend: direct delegation to numpy.

    Every method forwards to the exact numpy call the kernels used before
    the ``xp`` layer existed, so routing through this module changes
    nothing — not even the bits.
    """

    name = "numpy"
    device = "cpu"
    is_numpy = True

    def asarray(self, array, dtype=None):
        return np.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def is_native(self, array) -> bool:
        return isinstance(array, np.ndarray)

    def numpy_dtype(self, array) -> np.dtype:
        return np.asarray(array).dtype

    def stack(self, arrays):
        return np.stack(arrays)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def einsum(self, subscripts, *operands):
        return np.einsum(subscripts, *operands, optimize=True)

    def qr(self, a):
        return np.linalg.qr(a)

    def svd(self, a, full_matrices: bool = False):
        return np.linalg.svd(a, full_matrices=full_matrices)

    def transpose(self, a):
        return np.swapaxes(a, -2, -1)

    def reshape(self, a, shape):
        return np.reshape(a, shape)

    def astype(self, a, dtype):
        return np.asarray(a).astype(dtype, copy=False)

    def to_float(self, scalar) -> float:
        return float(scalar)

    def sparse_csr(self, indptr, indices, data, shape):
        # A StackedCsr of one slice *is* a plain 2-D CSR, and it already
        # owns both host SpMM kernels (the scipy block product and the
        # grouped-gather fallback) — wrapping it keeps this module's sparse
        # products summing in exactly the order the host fast path always
        # did.  Imported lazily: stacked.py routes its device path back
        # through this module's surface.
        from repro.sparse.stacked import StackedCsr

        return StackedCsr(1, shape, indptr, indices, data)

    def spmm(self, sparse, dense):
        dense = np.asarray(dense)
        return sparse.matmul_dense(dense[None])[0]


class TorchModule(ArrayModule):
    """PyTorch backend, CPU (``torch``) or CUDA (``torch-cuda``).

    CPU torch runs the same LAPACK family numpy does, so float64 results
    track the numpy backend to rounding (the parity suite pins this at
    1e-10 on the fit).  On CUDA, host→device transfers stage through
    pinned (page-locked) memory and use ``non_blocking`` copies; the
    stream is synchronized whenever a Python scalar is extracted, so
    timing loops measure completed work.
    """

    is_numpy = False

    def __init__(self, device: str = "cpu") -> None:
        try:
            import torch
        except ImportError as exc:  # pragma: no cover - torch present in CI
            raise BackendUnavailableError(
                "compute backend 'torch' requires PyTorch, which is not "
                "installed. Install the CPU wheel with: pip install torch "
                "--index-url https://download.pytorch.org/whl/cpu"
            ) from exc
        if device not in ("cpu", "cuda"):
            raise ValueError(f"device must be 'cpu' or 'cuda', got {device!r}")
        if device == "cuda" and not torch.cuda.is_available():
            raise BackendUnavailableError(
                "compute backend 'torch-cuda' requires a CUDA-capable "
                "PyTorch build and a visible GPU (torch.cuda.is_available() "
                "is False); use 'torch' for CPU execution"
            )
        self._torch = torch
        self.device = device
        self.name = "torch" if device == "cpu" else "torch-cuda"
        self._dtype_map = {
            np.dtype(np.float64): torch.float64,
            np.dtype(np.float32): torch.float32,
        }
        self._numpy_dtype_map = {v: k for k, v in self._dtype_map.items()}

    def _torch_dtype(self, dtype):
        dt = np.dtype(dtype)
        if dt not in self._dtype_map:
            raise ValueError(f"dtype must be float32 or float64, got {dt}")
        return self._dtype_map[dt]

    def asarray(self, array, dtype=None):
        torch = self._torch
        if isinstance(array, torch.Tensor):
            tensor = array
        else:
            # ``from_numpy`` shares memory with the host array; the pinned
            # staging below (CUDA) or the consuming kernel (CPU) copies it.
            tensor = torch.from_numpy(np.ascontiguousarray(array))
            if self.device == "cuda":
                tensor = tensor.pin_memory().to("cuda", non_blocking=True)
        if dtype is not None:
            tensor = tensor.to(self._torch_dtype(dtype))
        if tensor.device.type != self.device:
            tensor = tensor.to(self.device)
        return tensor

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        return array.detach().cpu().numpy()

    def is_native(self, array) -> bool:
        return isinstance(array, self._torch.Tensor)

    def numpy_dtype(self, array) -> np.dtype:
        if isinstance(array, np.ndarray):
            return array.dtype
        return self._numpy_dtype_map[array.dtype]

    def stack(self, arrays):
        return self._torch.stack(list(arrays))

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def einsum(self, subscripts, *operands):
        return self._torch.einsum(subscripts, *operands)

    def qr(self, a):
        Q, R = self._torch.linalg.qr(a)
        return Q, R

    def svd(self, a, full_matrices: bool = False):
        U, S, Vh = self._torch.linalg.svd(a, full_matrices=full_matrices)
        return U, S, Vh

    def transpose(self, a):
        return a.transpose(-2, -1)

    def reshape(self, a, shape):
        return a.reshape(shape)

    def astype(self, a, dtype):
        return a.to(self._torch_dtype(dtype))

    def to_float(self, scalar) -> float:
        return float(scalar)

    def _upload_component(self, array):
        tensor = self._torch.from_numpy(np.ascontiguousarray(array))
        if self.device == "cuda":
            tensor = tensor.pin_memory().to("cuda", non_blocking=True)
        return tensor

    def sparse_csr(self, indptr, indices, data, shape):
        return self._torch.sparse_csr_tensor(
            self._upload_component(indptr),
            self._upload_component(indices),
            self._upload_component(data),
            size=tuple(shape),
        )

    def spmm(self, sparse, dense):
        return self._torch.sparse.mm(sparse, dense)


class CupyModule(ArrayModule):
    """CuPy backend — numpy's API on CUDA, so delegation is direct.

    Requires cupy >= 10 (batched ``linalg.qr``/``linalg.svd``).  Host→device
    transfers go through ``cupy.asarray``; CuPy manages pinned staging
    internally for contiguous sources.
    """

    name = "cupy"
    device = "cuda"
    is_numpy = False

    def __init__(self) -> None:
        try:
            import cupy
        except ImportError as exc:
            raise BackendUnavailableError(
                "compute backend 'cupy' requires CuPy, which is not "
                "installed. Install the wheel matching your CUDA toolkit, "
                "e.g.: pip install cupy-cuda12x"
            ) from exc
        try:
            cupy.cuda.runtime.getDeviceCount()
        except Exception as exc:  # pragma: no cover - needs a GPU to differ
            raise BackendUnavailableError(
                "compute backend 'cupy' found no usable CUDA device"
            ) from exc
        self._cupy = cupy

    def asarray(self, array, dtype=None):
        return self._cupy.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, np.ndarray):
            return array
        return self._cupy.asnumpy(array)

    def is_native(self, array) -> bool:
        return isinstance(array, self._cupy.ndarray)

    def numpy_dtype(self, array) -> np.dtype:
        return np.dtype(array.dtype)

    def stack(self, arrays):
        return self._cupy.stack(list(arrays))

    def matmul(self, a, b):
        return self._cupy.matmul(a, b)

    def einsum(self, subscripts, *operands):
        return self._cupy.einsum(subscripts, *operands)

    def qr(self, a):
        return self._cupy.linalg.qr(a)

    def svd(self, a, full_matrices: bool = False):
        return self._cupy.linalg.svd(a, full_matrices=full_matrices)

    def transpose(self, a):
        return self._cupy.swapaxes(a, -2, -1)

    def reshape(self, a, shape):
        return self._cupy.reshape(a, shape)

    def astype(self, a, dtype):
        return a.astype(dtype, copy=False)

    def to_float(self, scalar) -> float:
        return float(scalar)

    def sparse_csr(self, indptr, indices, data, shape):
        from cupyx.scipy import sparse as cupy_sparse

        cupy = self._cupy
        return cupy_sparse.csr_matrix(
            (cupy.asarray(data), cupy.asarray(indices), cupy.asarray(indptr)),
            shape=tuple(shape),
        )

    def spmm(self, sparse, dense):
        return sparse @ dense


#: The always-available default module, shared by every ``xp=None`` call.
NUMPY_MODULE = NumpyModule()

_instances: dict[str, ArrayModule] = {NumpyModule.name: NUMPY_MODULE}

_FACTORIES = {
    "numpy": NumpyModule,
    "torch": lambda: TorchModule("cpu"),
    "torch-cuda": lambda: TorchModule("cuda"),
    "cupy": CupyModule,
}


def get_xp(backend: "str | ArrayModule | None" = None) -> ArrayModule:
    """Resolve a compute-backend spec into a live :class:`ArrayModule`.

    Parameters
    ----------
    backend:
        ``None`` (→ numpy), a registry name from
        :data:`COMPUTE_BACKEND_NAMES` (case-insensitive), or an existing
        :class:`ArrayModule`, returned unchanged.

    Raises
    ------
    ValueError
        Unknown backend name.
    BackendUnavailableError
        The backend's library is not installed, or its device is absent.
        Resolution is the *only* place optional libraries are imported, so
        configs naming a device backend can be built anywhere and fail
        with the install hint only when compute actually starts.
    """
    if backend is None:
        return NUMPY_MODULE
    if isinstance(backend, ArrayModule):
        return backend
    if not isinstance(backend, str):
        raise TypeError(
            f"compute backend must be a name or ArrayModule, "
            f"got {type(backend).__name__}"
        )
    key = backend.strip().lower()
    if key not in _FACTORIES:
        raise ValueError(
            f"unknown compute backend {backend!r}; "
            f"available: {', '.join(COMPUTE_BACKEND_NAMES)}"
        )
    if key not in _instances:
        _instances[key] = _FACTORIES[key]()
    return _instances[key]


def backend_available(name: str) -> bool:
    """Whether ``name`` resolves on this machine (used by test skip marks)."""
    try:
        get_xp(name)
    except (BackendUnavailableError, ValueError):
        return False
    return True
