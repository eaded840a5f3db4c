"""The irregular tensor ``{Xk}`` — the paper's central data structure.

An irregular tensor is a list of slice matrices ``Xk ∈ R^{Ik×J}`` whose
column count ``J`` is shared but whose row counts ``Ik`` differ (stocks
with different listing periods, songs of different lengths, …).  Slices
are dense arrays by default; genuinely sparse workloads (EHR event logs,
clickstreams, sensor dropouts) can hold slices as
:class:`~repro.sparse.csr.CsrMatrix` instead, which DPar2's stage-1
compression sketches through SpMM without ever densifying.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import check_finite_csr, dense_to_sparse, slice_squared_norm
from repro.util.validation import check_matrix

#: CSR slices denser than this are densified at construction: at ≥ ~25%
#: fill the CSR arrays (value + 8-byte index per entry, for float64) stop
#: being smaller than the dense slice and the SpMM gather overhead stops
#: paying for itself.
DEFAULT_DENSITY_THRESHOLD = 0.25


class IrregularTensor:
    """A collection of slices ``Xk`` with a common column dimension.

    Parameters
    ----------
    slices:
        Sequence of 2-D arrays and/or :class:`~repro.sparse.csr.CsrMatrix`
        instances, each ``(Ik, J)`` with the same ``J``.
    copy:
        Whether to copy dense slice data (default) or hold references.
        CSR slices are always held by reference — they are immutable by
        convention throughout the library.
    dtype:
        Storage precision: ``float64`` (default) or ``float32``.  The
        float32 pipeline halves slice memory and roughly doubles BLAS
        throughput in DPar2's compression stage.
    density_threshold:
        CSR slices with density *above* this are densified at
        construction (the sparse representation no longer pays for
        itself); ``None`` selects :data:`DEFAULT_DENSITY_THRESHOLD`.
        Pass ``1.0`` to keep every CSR slice exactly as given — the
        internal transformations (:meth:`astype`, :meth:`scaled`,
        :meth:`subset`) do, so representations survive round-trips.

    Notes
    -----
    Dense slices are stored as C-contiguous arrays of the chosen dtype.
    The container is immutable by convention: methods never mutate slice
    data in place.
    """

    def __init__(
        self,
        slices: Iterable[np.ndarray],
        *,
        copy: bool = True,
        dtype=np.float64,
        density_threshold: float | None = None,
    ) -> None:
        materialized = list(slices)
        if not materialized:
            raise ValueError("an irregular tensor needs at least one slice")
        self._dtype = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
        if density_threshold is None:
            density_threshold = DEFAULT_DENSITY_THRESHOLD
        if not 0.0 <= density_threshold <= 1.0:
            raise ValueError(
                f"density_threshold must be in [0, 1], got {density_threshold}"
            )
        checked: list[np.ndarray | CsrMatrix] = []
        for idx, Xk in enumerate(materialized):
            if isinstance(Xk, CsrMatrix):
                check_finite_csr(Xk, f"slices[{idx}]")
                if Xk.density > density_threshold:
                    checked.append(
                        np.ascontiguousarray(Xk.to_dense(), dtype=self._dtype)
                    )
                else:
                    checked.append(Xk.astype(self._dtype))
            else:
                Xk = check_matrix(Xk, f"slices[{idx}]", dtype=self._dtype)
                checked.append(Xk.copy() if copy else Xk)
        J = checked[0].shape[1]
        for idx, Xk in enumerate(checked):
            if Xk.shape[1] != J:
                raise ValueError(
                    f"slices[{idx}] has {Xk.shape[1]} columns; expected {J} "
                    "(all slices must share the column dimension J)"
                )
        self._slices = checked
        self._J = J

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._slices)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._slices)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._slices[index]

    def __repr__(self) -> str:
        sparse = sum(1 for Xk in self._slices if isinstance(Xk, CsrMatrix))
        sparse_note = f", {sparse} sparse slices" if sparse else ""
        return (
            f"IrregularTensor(K={self.n_slices}, J={self.n_columns}, "
            f"Ik range [{min(self.row_counts)}, {max(self.row_counts)}], "
            f"{self.n_entries} entries{sparse_note})"
        )

    # ------------------------------------------------------------------ #
    # shape metadata
    # ------------------------------------------------------------------ #

    @property
    def slices(self) -> Sequence[np.ndarray]:
        """The underlying list of slice matrices (do not mutate)."""
        return self._slices

    @property
    def n_slices(self) -> int:
        """``K``, the number of frontal slices."""
        return len(self._slices)

    @property
    def n_columns(self) -> int:
        """``J``, the shared column dimension."""
        return self._J

    @property
    def dtype(self) -> np.dtype:
        """Storage precision of the slices (float64 or float32)."""
        return self._dtype

    @property
    def row_counts(self) -> list[int]:
        """``[I1, …, IK]``: per-slice row counts — the irregularity profile."""
        return [Xk.shape[0] for Xk in self._slices]

    @property
    def max_rows(self) -> int:
        """``max Ik`` — Table II's "Max Dim. Ik" column."""
        return max(self.row_counts)

    @property
    def n_entries(self) -> int:
        """Total number of stored values: ``Ik·J`` per dense slice, ``nnz``
        per CSR slice."""
        return sum(
            Xk.nnz if isinstance(Xk, CsrMatrix) else Xk.size
            for Xk in self._slices
        )

    @property
    def nbytes(self) -> int:
        """Memory footprint of the slice data in bytes."""
        return sum(Xk.nbytes for Xk in self._slices)

    @property
    def has_sparse_slices(self) -> bool:
        """Whether any slice is held in CSR form."""
        return any(isinstance(Xk, CsrMatrix) for Xk in self._slices)

    # ------------------------------------------------------------------ #
    # representation conversion
    # ------------------------------------------------------------------ #

    def sparsify(self, threshold: float = DEFAULT_DENSITY_THRESHOLD) -> "IrregularTensor":
        """Convert dense slices at or below ``threshold`` density to CSR.

        The entry point of the sparse fast path for data that arrives
        dense: slices whose nonzero fraction is ``<= threshold`` become
        :class:`~repro.sparse.csr.CsrMatrix` (exact conversion, no value
        thresholding); denser slices and existing CSR slices pass through
        unchanged.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        converted: list[np.ndarray | CsrMatrix] = []
        for Xk in self._slices:
            if isinstance(Xk, CsrMatrix):
                converted.append(Xk)
                continue
            nnz = int(np.count_nonzero(Xk))
            if Xk.size and nnz / Xk.size <= threshold:
                converted.append(dense_to_sparse(Xk))
            else:
                converted.append(Xk)
        return IrregularTensor(
            converted, copy=False, dtype=self._dtype, density_threshold=1.0
        )

    def densified(self) -> "IrregularTensor":
        """Every slice as a dense array (self when none are sparse)."""
        if not self.has_sparse_slices:
            return self
        return IrregularTensor(
            [
                Xk.to_dense() if isinstance(Xk, CsrMatrix) else Xk
                for Xk in self._slices
            ],
            copy=False,
            dtype=self._dtype,
        )

    # ------------------------------------------------------------------ #
    # numerics
    # ------------------------------------------------------------------ #

    def squared_norm(self) -> float:
        """``Σk ‖Xk‖_F²`` — the denominator of the paper's fitness metric.

        Accumulated in float64 even for float32 slices, so the fitness
        denominator keeps full precision at either pipeline dtype.
        """
        return float(sum(slice_squared_norm(Xk) for Xk in self._slices))

    def norm(self) -> float:
        """Global Frobenius norm ``sqrt(Σk ‖Xk‖_F²)``."""
        return float(np.sqrt(self.squared_norm()))

    def scaled(self, factor: float) -> "IrregularTensor":
        """Return a copy with every slice multiplied by ``factor``."""
        return IrregularTensor(
            [
                Xk.scaled(factor)
                if isinstance(Xk, CsrMatrix)
                else Xk * self._dtype.type(factor)
                for Xk in self._slices
            ],
            copy=False,
            dtype=self._dtype,
            density_threshold=1.0,
        )

    def astype(self, dtype) -> "IrregularTensor":
        """This tensor at another precision (self when dtype already matches)."""
        dtype = np.dtype(dtype)
        if dtype == self._dtype:
            return self
        return IrregularTensor(
            self._slices, copy=False, dtype=dtype, density_threshold=1.0
        )

    def transpose_concatenation(self) -> np.ndarray:
        """``∥k Xkᵀ`` — the ``J × (Σ Ik)`` matrix RD-ALS preprocesses.

        CSR slices are densified here: the consumer (RD-ALS) runs a dense
        SVD on the concatenation anyway.
        """
        return np.concatenate(
            [
                (Xk.to_dense() if isinstance(Xk, CsrMatrix) else Xk).T
                for Xk in self._slices
            ],
            axis=1,
        )

    def subset(self, indices: Sequence[int]) -> "IrregularTensor":
        """A new tensor holding the selected slices (analysis time-windows)."""
        picked = [self._slices[i] for i in indices]
        return IrregularTensor(
            picked, dtype=self._dtype, density_threshold=1.0
        )

    # ------------------------------------------------------------------ #
    # device interop
    # ------------------------------------------------------------------ #

    def to_backend(self, xp) -> Sequence:
        """The slices as ``xp``-native arrays, transferred once and cached.

        ``xp`` is an :class:`~repro.linalg.array_module.ArrayModule` (or a
        backend name).  For the numpy module this returns the slice list
        itself — no copies.  For torch/CuPy the dense slices cross the
        host↔device boundary on first call and the native views are cached
        per backend, so repeated decompositions of the same tensor (rank
        sweeps, the experiment harnesses) upload the raw data once.
        CSR slices pass through as their host
        :class:`~repro.sparse.csr.CsrMatrix` objects: each one carries its
        own per-backend handle cache (:meth:`CsrMatrix.native
        <repro.sparse.csr.CsrMatrix.native>`), and the sparse kernels
        upload through it when they touch the slice.  Memory-mapped dense
        slices are refused: paging an out-of-core store through the
        device defeats both features — stream with the numpy backend
        instead.

        The cache holds device memory for the life of the tensor; call
        :meth:`release_backend_cache` to free it early.
        """
        from repro.linalg.array_module import get_xp

        xp = get_xp(xp)
        if xp.is_numpy:
            return self._slices
        if any(isinstance(Xk, np.memmap) for Xk in self._slices):
            raise ValueError(
                "memory-mapped (out-of-core) slices cannot move to compute "
                f"backend {xp.name!r}; use compute_backend='numpy' for "
                "out-of-core tensors"
            )
        cache = self.__dict__.setdefault("_backend_cache", {})
        if xp.name not in cache:
            cache[xp.name] = [
                Xk if isinstance(Xk, CsrMatrix) else xp.asarray(Xk)
                for Xk in self._slices
            ]
        return cache[xp.name]

    def release_backend_cache(self) -> None:
        """Drop any cached backend-native copies of the slices."""
        self.__dict__.pop("_backend_cache", None)

    # ------------------------------------------------------------------ #
    # out-of-core interop
    # ------------------------------------------------------------------ #

    @classmethod
    def from_store(cls, store) -> "IrregularTensor":
        """Wrap an on-disk slice store without copying anything into RAM.

        ``store`` is a :class:`~repro.tensor.mmap_store.MmapSliceStore` (or
        anything with its ``load_slice``/``n_columns`` surface).  Dense
        slices come back as read-only ``np.memmap`` views, sparse slices
        as :class:`~repro.sparse.csr.CsrMatrix` instances whose component
        arrays are memory-mapped: methods stream through the OS page
        cache, and worker threads and forked process shards read the maps
        in place rather than copies.  Validation is skipped — the store
        validated each slice when it was written.

        The store's files must outlive the returned tensor.
        """
        if len(store) == 0:
            raise ValueError("an irregular tensor needs at least one slice")
        tensor = cls.__new__(cls)
        tensor._slices = [store.load_slice(index) for index in range(len(store))]
        tensor._J = store.n_columns
        tensor._dtype = np.dtype(getattr(store, "dtype", np.float64))
        return tensor

    def to_store(self, directory, *, overwrite: bool = False):
        """Persist this tensor as an on-disk store (the out-of-core format).

        CSR slices are written in the store's sparse payload format —
        nothing is densified on disk.  Returns the new
        :class:`~repro.tensor.mmap_store.MmapSliceStore`.
        """
        from repro.tensor.mmap_store import MmapSliceStore

        return MmapSliceStore.create(
            directory, self._slices, overwrite=overwrite, dtype=self._dtype
        )

    @classmethod
    def from_regular(cls, tensor: np.ndarray, *, dtype=np.float64) -> "IrregularTensor":
        """Split a regular ``I×J×K`` array into K frontal slices.

        This is how the paper feeds the regular Traffic / PEMS-SF tensors and
        the ``tenrand`` scalability tensors to PARAFAC2 solvers.
        """
        array = np.asarray(tensor, dtype=dtype)
        if array.ndim != 3:
            raise ValueError(f"expected a 3-order tensor, got shape {array.shape}")
        return cls([array[:, :, k] for k in range(array.shape[2])], dtype=dtype)
