"""Structured matrix products: Khatri–Rao, Hadamard, and ``vec``.

Implemented from scratch (broadcasting, not ``np.kron``) and consistent with
the column-major unfolding convention in :mod:`repro.tensor.matricization`:
``kron(a, b)`` indexes as ``a[i] * b[j]`` at position ``i*len(b) + j``, so
``(C ⊙ B)`` rows are ordered with the B-index varying fastest, matching
``X(1) ≈ A (C ⊙ B)ᵀ``.
"""

from __future__ import annotations

import numpy as np


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Khatri–Rao product ``a ⊙ b``.

    For ``a`` of shape ``(I, R)`` and ``b`` of shape ``(J, R)`` the result is
    ``(I·J, R)`` whose ``r``-th column is ``kron(a[:, r], b[:, r])``.
    """
    A = np.asarray(a, dtype=np.float64)
    B = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"column counts must match: {A.shape[1]} vs {B.shape[1]}"
        )
    I, R = A.shape
    J = B.shape[0]
    return (A[:, None, :] * B[None, :, :]).reshape(I * J, R)


def hadamard(*matrices: np.ndarray) -> np.ndarray:
    """Element-wise product of one or more same-shaped matrices."""
    if not matrices:
        raise ValueError("hadamard needs at least one matrix")
    result = np.asarray(matrices[0], dtype=np.float64).copy()
    for other in matrices[1:]:
        arr = np.asarray(other, dtype=np.float64)
        if arr.shape != result.shape:
            raise ValueError(
                f"shape mismatch in hadamard: {result.shape} vs {arr.shape}"
            )
        result *= arr
    return result


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-major vectorization ``vec(X)`` (MATLAB convention).

    Satisfies ``vec(A B) = (Bᵀ ⊗ I) vec(A)`` — the identity Lemma 3's proof
    leans on.
    """
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError(f"vec expects a matrix, got shape {A.shape}")
    return A.reshape(-1, order="F")
