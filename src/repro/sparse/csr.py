"""Compressed Sparse Row matrix with the kernels SPARTan and DPar2 need.

The kernels here are the substrate of the sparse-slice fast path: stage-1
compression sketches ``Y = Xk Ω`` through :meth:`CsrMatrix.matmul_dense`
(and its transpose through :meth:`CsrMatrix.t_matmul_dense`), so they must
be dispatch-light and allocation-tight.  Both products take the ``xp=``
keyword :class:`~repro.sparse.stacked.StackedCsr` takes: a device module
multiplies through the cached native handle (:meth:`CsrMatrix.native`)
instead of the host kernels below.  Two design rules follow for the
host kernels:

* **No per-entry scatter.**  Per-row reductions run through
  :func:`row_segment_sum` — one ``np.add.reduceat`` over the contiguous
  CSR row segments — instead of ``np.add.at``, whose unbuffered per-index
  scatter is an order of magnitude slower.
* **Dtype preservation.**  ``data`` keeps its float32/float64 input dtype
  (anything else is promoted to float64 once, at construction) and every
  kernel allocates its output in the matrix dtype — promoted only when a
  dense operand carries higher precision (``np.result_type`` semantics, the
  same rule dense ``@`` follows) — so the float32 pipeline never silently
  upcasts.
"""

from __future__ import annotations

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_float_data(values) -> np.ndarray:
    """Canonicalize a value array: float32/float64 kept, the rest promoted.

    Uses ``asanyarray`` so a satisfying input passes through untouched —
    in particular an ``np.memmap`` stays an ``np.memmap``, which is what
    lets the out-of-core checks recognise store-backed CSR slices.
    """
    data = np.asanyarray(values)
    if data.dtype not in _FLOAT_DTYPES:
        data = data.astype(np.float64)
    return data


def row_segment_sum(contrib: np.ndarray, indptr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Reduce per-entry contributions into per-row totals, segment-wise.

    ``contrib`` holds one row per stored entry in CSR order; ``indptr`` is
    the row pointer; ``out`` must be zero-initialized (empty rows are left
    untouched).  Non-empty rows reduce with a single ``np.add.reduceat``
    over the segment starts: entries between two consecutive non-empty row
    starts belong exactly to the earlier row, because empty rows contribute
    no entries — so dropping them from the index list is what makes
    ``reduceat``'s "sum to the next index" semantics line up with CSR rows.
    """
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(contrib, indptr[nonempty], axis=0)
    return out


class CsrMatrix:
    """CSR matrix: ``indptr`` (len rows+1), ``indices``, ``data``.

    Rows are contiguous runs ``data[indptr[i]:indptr[i+1]]`` with column
    indices ``indices[...]``.  Within a row, columns are sorted and unique
    (guaranteed when built via :meth:`CooMatrix.to_csr`).  Instances are
    immutable by convention — kernels never modify the stored arrays, and
    :meth:`transpose` caches its result under that assumption.

    ``validate=False`` skips the structural checks; it is reserved for
    construction paths that already guarantee them (e.g. reopening a
    memory-mapped store, where validation would page in every index).
    """

    #: Binary numpy ops defer to our ``__rmatmul__`` instead of coercing
    #: the matrix into an object array.
    __array_ufunc__ = None

    def __init__(self, shape, indptr, indices, data, *, validate: bool = True) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = as_float_data(data)
        self._transpose_cache: "CsrMatrix | None" = None
        # Backend-native CSR handles, keyed by module name (see native()).
        self._native: dict = {}
        if not validate:
            return
        if self.indptr.shape != (self.shape[0] + 1,):
            raise ValueError(
                f"indptr must have length rows+1 = {self.shape[0] + 1}, "
                f"got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have equal lengths")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ValueError("column index out of bounds")

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (float32 or float64) — preserved by every kernel."""
        return self.data.dtype

    @property
    def density(self) -> float:
        total = self.shape[0] * self.shape[1]
        return self.nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes held by the compressed arrays (data + indices + indptr)."""
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __repr__(self) -> str:
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype.name})"
        )

    def native(self, xp):
        """This matrix as ``xp``'s CSR handle, uploaded once per backend.

        Built through :meth:`ArrayModule.sparse_csr
        <repro.linalg.array_module.ArrayModule.sparse_csr>` and cached by
        module name, so repeated sketches of the same slice (rank sweeps,
        fold-in re-projections) pay the host→device transfer once.
        """
        handle = self._native.get(xp.name)
        if handle is None:
            handle = self._native[xp.name] = xp.sparse_csr(
                self.indptr, self.indices, self.data, self.shape
            )
        return handle

    def astype(self, dtype) -> "CsrMatrix":
        """This matrix with values cast to ``dtype`` (self when it matches).

        The index structure is shared, not copied — instances are immutable
        by convention.
        """
        dtype = np.dtype(dtype)
        if dtype == self.dtype:
            return self
        return CsrMatrix(
            self.shape,
            self.indptr,
            self.indices,
            self.data.astype(dtype),
            validate=False,
        )

    def scaled(self, factor: float) -> "CsrMatrix":
        """``factor * A`` — shares the index structure, scales the values."""
        return CsrMatrix(
            self.shape,
            self.indptr,
            self.indices,
            self.data * self.dtype.type(factor),
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #

    def matvec(self, vector) -> np.ndarray:
        """``A @ x`` for a dense vector ``x``."""
        x = np.asarray(vector).ravel()
        if x.shape[0] != self.shape[1]:
            raise ValueError(
                f"vector has length {x.shape[0]}, expected {self.shape[1]}"
            )
        products = self.data * x[self.indices]
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, x))
        return row_segment_sum(products, self.indptr, out)

    def matmul_dense(self, dense, *, xp=None) -> np.ndarray:
        """``A @ B`` for a dense matrix ``B`` (the SpMM workhorse).

        With a non-numpy ``xp`` the product is one ``xp.spmm`` over the
        cached :meth:`native` handle, and operand and result are
        ``xp``-native — the signature :class:`~repro.sparse.stacked.StackedCsr`
        shares, so Algorithm 1 runs either operand the same way.
        """
        if xp is not None and not xp.is_numpy:
            return xp.spmm(self.native(xp), xp.asarray(dense))
        B = np.asarray(dense)
        if B.ndim != 2 or B.shape[0] != self.shape[1]:
            raise ValueError(
                f"dense operand must be ({self.shape[1]}, n), got {B.shape}"
            )
        contrib = self.data[:, None] * B[self.indices]
        out = np.zeros(
            (self.shape[0], B.shape[1]), dtype=np.result_type(self.data, B)
        )
        return row_segment_sum(contrib, self.indptr, out)

    def t_matmul_dense(self, dense, *, xp=None) -> np.ndarray:
        """``Aᵀ @ B`` — SpMM through the CSC view (no scatter).

        On the host this uses a cached transpose when one exists (a prior
        :meth:`transpose` call) but never creates one: a one-shot product
        must not pin an in-RAM copy of the matrix for its lifetime — for
        memory-mapped slices that would silently defeat out-of-core
        streaming.  The ephemeral build is ``O(nnz)``, small next to the
        product itself.  A non-numpy ``xp`` multiplies through the cached
        :meth:`transpose`, whose handle then uploads once, so every
        backend runs only its forward ``spmm`` kernel.
        """
        if xp is not None and not xp.is_numpy:
            return self.transpose().matmul_dense(dense, xp=xp)
        return (self._transpose_cache or self._build_transpose()).matmul_dense(
            dense
        )

    def _build_transpose(self) -> "CsrMatrix":
        """The CSC form as a fresh CSR matrix — no caching here.

        Built with a counting sort on the column keys: ``np.argsort(...,
        kind="stable")`` is numpy's radix sort on integer keys, so the
        build is ``O(nnz)`` — no COO round-trip, no duplicate collapsing
        (the input is already canonical).  Stability keeps rows ascending
        within each transposed row, preserving the CSR invariant.
        """
        rows, cols = self.shape
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=cols)
        indptr_t = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr_t[1:])
        return CsrMatrix(
            (cols, rows),
            indptr_t,
            self._row_ids()[order],
            self.data[order],
            validate=False,
        )

    def transpose(self) -> "CsrMatrix":
        """``Aᵀ`` as a CSR matrix (equivalently: this matrix's CSC form).

        The result is cached and back-linked (``A.T.T is A``) — instances
        are immutable by convention, which is what makes the cache sound.
        The cache holds an in-RAM copy of the whole matrix, so repeated
        transposed products through it are cheap; callers that must not
        grow resident memory (one-shot products on out-of-core slices)
        should use :meth:`t_matmul_dense` or ``B.T @ A``, which only read
        this cache and never create it.
        """
        if self._transpose_cache is None:
            transposed = self._build_transpose()
            transposed._transpose_cache = self
            self._transpose_cache = transposed
        return self._transpose_cache

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.dtype)
        dense[self._row_ids(), self.indices] = self.data
        return dense

    def row_norms_squared(self) -> np.ndarray:
        """Per-row squared 2-norms (used for norm bookkeeping)."""
        out = np.zeros(self.shape[0], dtype=self.dtype)
        return row_segment_sum(self.data * self.data, self.indptr, out)

    def squared_norm(self) -> float:
        """``‖A‖_F²``, accumulated in float64 whatever the value dtype."""
        return float(np.sum(self.data * self.data, dtype=np.float64))

    def _row_ids(self) -> np.ndarray:
        """Expand ``indptr`` into a per-entry row-index array."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------ #
    # operators: code that takes dense or CSR slices writes ``Xk @ B`` and
    # ``B.T @ Xk``, and a CSR slice runs them through the kernels above
    # ------------------------------------------------------------------ #

    def __matmul__(self, other):
        """``A @ B`` (:meth:`matmul_dense`), or ``A @ x`` (:meth:`matvec`)."""
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        return self.matmul_dense(other)

    def __rmatmul__(self, other):
        """``Bᵀ @ A = (Aᵀ B)ᵀ`` by :meth:`t_matmul_dense`; pins no transpose."""
        other = np.asarray(other)
        if other.ndim == 1:
            # x @ A = (Aᵀ x)ᵀ for a vector: a length-cols vector.
            return self.t_matmul_dense(other[:, None]).ravel()
        return self.t_matmul_dense(other.T).T
