"""Minimal sparse-matrix substrate, built from scratch.

SPARTan [11] is natively a *sparse* PARAFAC2 method, and DPar2's stage-1
compression has a sparse fast path (CSR-aware randomized sketching); to
support both (and sparse irregular tensors as inputs) the library carries
its own formats rather than depending on scipy:

* :class:`CooMatrix` — construction-friendly triplet format.
* :class:`CsrMatrix` — row-compressed format with scatter-free
  (``reduceat``-based), dtype-preserving matvec / matmat kernels.
* :class:`StackedCsr` — a row-count bucket of CSR slices concatenated so
  the batched stage-1 sketch runs the whole bucket's SpMM in one call.
* :mod:`ops` — conversion, norm, and random-generation helpers.
"""

from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import check_finite_csr, dense_to_sparse, slice_squared_norm
from repro.sparse.stacked import StackedCsr, spmm_backend

__all__ = [
    "CooMatrix",
    "CsrMatrix",
    "StackedCsr",
    "check_finite_csr",
    "dense_to_sparse",
    "slice_squared_norm",
    "spmm_backend",
]
