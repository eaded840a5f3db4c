"""Tensor substrate: containers, unfoldings, and structured products.

* :class:`IrregularTensor` — the paper's ``{Xk}``: slices sharing a column
  count ``J`` but with per-slice row counts ``Ik``.
* :class:`DenseTensor` — a regular 3-order tensor with Kolda-convention
  mode-n matricization (used by the inner CP step).
* products — Khatri–Rao and Hadamard, consistent with the unfolding
  convention (``X(1) ≈ A (C ⊙ B)ᵀ``).
"""

from repro.tensor.dense import DenseTensor
from repro.tensor.irregular import IrregularTensor
from repro.tensor.matricization import fold, unfold
from repro.tensor.mmap_store import MmapSliceStore
from repro.tensor.products import hadamard, khatri_rao
from repro.tensor.random import random_irregular_tensor

__all__ = [
    "DenseTensor",
    "IrregularTensor",
    "MmapSliceStore",
    "fold",
    "hadamard",
    "khatri_rao",
    "random_irregular_tensor",
    "unfold",
]
