"""Exact SVDs: the truncated SVD and the Procrustes polar factor.

:func:`polar` is the one orthogonal Procrustes step every PARAFAC2 solver
takes to update ``Qk``: the slice SVDs of PARAFAC2-ALS, RD-ALS and SPARTan
(Algorithm 2, lines 4–5), DPar2's ``R×R`` inner SVDs of
``F(k) E Dᵀ V Sk Hᵀ`` (Algorithm 3, lines 8–10) and the serving fold-in.
:func:`truncated_svd` is RD-ALS's preprocessing SVD.
"""

from __future__ import annotations

from repro.linalg.array_module import get_xp
from repro.linalg.randomized_svd import RandomizedSVDResult
from repro.util.validation import check_matrix, check_rank


def truncated_svd(matrix, rank: int, *, xp=None) -> RandomizedSVDResult:
    """Exact SVD of ``matrix`` truncated to the top ``rank`` components.

    Returns the same :class:`RandomizedSVDResult` container as the randomized
    variant so the two are drop-in interchangeable (useful for ablations).
    ``xp`` selects the compute backend (default numpy — the historical,
    bitwise-stable path); factors come back as host ndarrays either way.
    """
    xp = get_xp(xp)
    A = check_matrix(matrix, "matrix")
    effective_rank = min(check_rank(rank), *A.shape)
    U, sigma, Vt = xp.svd(xp.asarray(A), full_matrices=False)
    U, sigma, Vt = xp.to_numpy(U), xp.to_numpy(sigma), xp.to_numpy(Vt)
    return RandomizedSVDResult(
        U=U[:, :effective_rank].copy(),
        singular_values=sigma[:effective_rank].copy(),
        V=Vt[:effective_rank].T.copy(),
    )


def polar(matrix, *, xp=None):
    """``Z Pᵀ`` from the thin SVD ``Z Σ Pᵀ`` of ``matrix``.

    The orthogonal Procrustes factor: over column-orthonormal ``Q`` it
    maximizes ``tr(Qᵀ M)``, so with ``M = Xk V Sk Hᵀ`` it minimizes
    ``‖Xk − Q H Sk Vᵀ‖``.  ``matrix`` is one ``m×n`` matrix or a stacked
    ``(..., m, n)`` array (``m >= n`` gives orthonormal columns; a wider
    matrix gives orthonormal rows).  LAPACK factors each matrix of a stack
    on its own, so a stacked call equals per-matrix calls bit for bit.
    ``xp`` selects the array module (default numpy); operand and result
    are ``xp``-native.
    """
    xp = get_xp(xp)
    Z, _, Pt = xp.svd(matrix, full_matrices=False)
    return xp.matmul(Z, Pt)
