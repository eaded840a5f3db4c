"""Sparse helpers shared by SPARTan, DPar2's fast path, and the generators."""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.util.rng import as_generator


def dense_to_sparse(dense, *, threshold: float = 0.0) -> CsrMatrix:
    """Convert a dense matrix to CSR, keeping ``|value| > threshold``.

    The dense dtype is preserved (float32 in → float32 CSR values).
    """
    return CooMatrix.from_dense(dense, threshold=threshold).to_csr()


def check_finite_csr(matrix: CsrMatrix, name: str = "matrix") -> CsrMatrix:
    """Reject CSR matrices with NaN/Inf values — the sparse counterpart of
    :func:`repro.util.validation.check_matrix`'s finiteness check."""
    if matrix.nnz and not np.all(np.isfinite(matrix.data)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return matrix


def slice_squared_norm(matrix) -> float:
    """``‖Xk‖_F²`` for a dense array or CSR slice, accumulated in float64."""
    if isinstance(matrix, CsrMatrix):
        return matrix.squared_norm()
    array = np.asarray(matrix)
    return float(np.sum(array * array, dtype=np.float64))


def random_sparse(
    shape,
    density: float,
    random_state=None,
    *,
    dtype=np.float64,
) -> CsrMatrix:
    """Random CSR matrix with roughly ``density`` nonzero fraction.

    Values are standard normal, drawn in float64 and cast to ``dtype`` —
    so a float32 matrix sees the same value stream as its float64 twin.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    dtype = np.dtype(dtype)
    rows, cols = int(shape[0]), int(shape[1])
    rng = as_generator(random_state)
    nnz = int(round(density * rows * cols))
    if nnz == 0:
        return CooMatrix((rows, cols), [], [], np.empty(0, dtype=dtype)).to_csr()
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    values = rng.standard_normal(nnz)
    return CooMatrix(
        (rows, cols),
        flat // cols,
        flat % cols,
        values if dtype == np.float64 else values.astype(dtype),
    ).to_csr()
