"""Moore–Penrose pseudoinverse for the small ``R×R`` ALS normal matrices.

All CP-style updates in the paper end with ``G (XᵀX ∗ YᵀY)†`` where the
pseudoinverted matrix is only ``R×R`` — the paper notes this cost is
negligible next to computing ``G`` itself (Section III-E).
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import get_registry
from repro.util.validation import check_matrix


def pseudoinverse(matrix, *, rcond: float = 1e-12) -> np.ndarray:
    """Moore–Penrose pseudoinverse via SVD with relative cutoff ``rcond``."""
    A = check_matrix(matrix, "matrix", allow_empty=True)
    if A.size == 0:
        return A.T.copy()
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    cutoff = rcond * (sigma[0] if sigma.size else 0.0)
    inv_sigma = np.where(sigma > cutoff, 1.0 / np.where(sigma > cutoff, sigma, 1.0), 0.0)
    return (Vt.T * inv_sigma) @ U.T


def solve_gram(gram, rhs_t) -> np.ndarray:
    """Solve ``X @ gram = rhs`` for ``X``, i.e. return ``rhs @ gram†``.

    ``gram`` is the ``R×R`` Hadamard product of Gram matrices (symmetric
    positive semi-definite); ``rhs_t`` is the MTTKRP result ``G``. A Cholesky
    solve is used when ``gram`` is safely positive definite, falling back to
    the pseudoinverse when it is rank deficient (which happens legitimately
    when the data rank is below the target rank).  Each fallback counts in
    ``repro_decompose_pinv_fallbacks_total``; the Cholesky path touches no
    metric.
    """
    G = check_matrix(gram, "gram")
    B = check_matrix(rhs_t, "rhs_t")
    if G.shape[0] != G.shape[1]:
        raise ValueError(f"gram must be square, got shape {G.shape}")
    if B.shape[1] != G.shape[0]:
        raise ValueError(
            f"rhs_t has {B.shape[1]} columns but gram is {G.shape[0]}x{G.shape[1]}"
        )
    try:
        chol = np.linalg.cholesky(G)
        # Solve Gᵀ Xᵀ = rhsᵀ; G symmetric so one factorization serves both.
        y = np.linalg.solve(chol, B.T)
        x = np.linalg.solve(chol.T, y)
        return x.T
    except np.linalg.LinAlgError:
        get_registry().counter(
            "repro_decompose_pinv_fallbacks_total",
            "Gram solves that fell back from Cholesky to the pseudoinverse.",
        ).inc()
        return B @ pseudoinverse(G)
